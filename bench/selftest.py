"""Fast self-test of the benchmark (about ten seconds).

    python3 bench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each run passes its output checks and reports exactly the metrics
BENCHMARK.json names, each with its declared unit and a finite value
(end-to-end values also positive).  Exits 1 on the first problem.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import run
import world

TINY = {
    "train_desk": dataclasses.replace(
        run.WORKLOADS["train_desk"], clips=2, objects=3, frames=30, epochs=1),
    "track_crowd": dataclasses.replace(
        run.WORKLOADS["track_crowd"], clips=1, pass_ops=1, objects=6, frames=30),
    # past one top-level window, so the long-clip path is taken
    "track_long": dataclasses.replace(
        run.WORKLOADS["track_long"], clips=1, pass_ops=1, objects=2, frames=160),
}


def problems(result: dict, declared: dict[str, str], positive: bool) -> list[str]:
    found = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        found.append(f"checks failed: {result}")
    got = result["metrics"]
    for name in sorted(declared.keys() - got.keys()):
        found.append(f"metric {name} missing")
    for name in sorted(got.keys() - declared.keys()):
        found.append(f"metric {name} not declared in BENCHMARK.json")
    for name in sorted(declared.keys() & got.keys()):
        value, unit = got[name]["value"], got[name]["unit"]
        if unit != declared[name]:
            found.append(f"metric {name} has unit {unit!r}, declared {declared[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"metric {name} has value {value!r}")
        elif positive and value <= 0:
            found.append(f"metric {name} is {value}, expected > 0")
    return found


def main() -> int:
    spec = json.loads((world.ROOT / "BENCHMARK.json").read_text())
    if set(TINY) != {w["name"] for w in spec["workloads"]} or set(TINY) != set(run.WORKLOADS):
        print("selftest: workloads differ between run.py, selftest.py and BENCHMARK.json")
        return 1
    for name, workload in TINY.items():
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[group]}
            result = run.run(name, workload, seed=0, seconds=0.01, trace=trace)
            found = problems(result, declared, positive=not trace)
            if found:
                print(f"selftest: {name} trace={int(trace)}:\n  " + "\n  ".join(found))
                return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
