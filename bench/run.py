"""The langtrack benchmark.

    python3 bench/run.py --workload track_crowd --seed 1 --seconds 20 --trace 0

Every workload runs the shipping desk defaults (levels 5/25/75/150, knn_k 3,
2 message-passing steps, node_dim 64, edge_dim 16, text_dim 32, 64-dim
appearance) on clips of the criterion-7/8 synthetic world, generated from
``--seed``.  The track workloads load the committed guided checkpoint in
bench/fixtures/ (its sha256 is checked), so inference numbers do not move
with training.

- ``train_desk``: guided ``run_training`` (alpha = beta = 1, one clip per
  step) over 10 clips of 8 objects x 150 frames.  Time goes to autodiff,
  model, nn and guidance; graphs are built only inside ``prepare_clip``.
- ``track_crowd``: ``track_video`` then ``metrics.evaluate`` on clips of 32
  objects x 150 frames (~3.7k detections).  ``build_graph`` is quadratic in
  tracklets per window and dominates.
- ``track_long``: the same on clips of 4 objects x 1200 frames (~3.8k
  detections, 312 windows).  Per-window overhead takes a large share, so a
  change that is slower on tiny windows shows here.

One operation is one ``run_training`` call of four epochs on train_desk (long
enough that training, not ``prepare_clip``, takes most of it; short enough
that a 30-second run holds several) and one clip tracked and scored on the
track workloads.

``--trace 0`` cycles through the operations until ``--seconds`` have passed
and reports the end-to-end metrics: ``setup_s`` (median of five set-ups,
spread over the run), ``peak_rss_mb`` (over the set-up and the first
``pass_ops`` operations) and ``items_per_ref``, the throughput in items (train
steps on train_desk, ``prepare_clip`` included; detections tracked and
scored on the track workloads) per reference time, as the median over the
run's operations.  The reference time is that of a fixed numpy kernel
(``reference_s``), sampled ``REF_SAMPLES`` times before the first operation
and after every one; an operation's throughput is counted against the median
of the samples on either side of it.  On a shared machine whose speed drifts
by up to half with its neighbours' load, over tens of seconds, the ratio
cancels the drift that raw seconds carry.  The raw items per second and the
median seconds per operation are printed beside it.

``--trace 1`` makes whole passes over the first ``pass_ops`` operations
until half of ``--seconds`` has passed and reports per-layer metrics.  Every
operation runs twice, once untraced and once with every layer wrapped
(bench/spans.py), in alternating order; ``trace.overhead_frac`` is the
median ratio of the two times minus one.  Quality (``quality.*``) is pooled
over those operations' clips, so it is a pure function of the seed.  Layer
times are seconds per work unit (one train step; one clip tracked and
scored), except ``trainer.prepare_clip.s`` and ``synth.gen_sequence.s``,
which are per clip they produced.  Layers a workload does not use report 0.

Checks: every loss is finite and a fixed reference training run ends at the
committed loss (train_desk); every input detection lands in exactly one
trajectory and frames strictly increase within each (track workloads).  A
failed check counts against ``attempted``.  The last line of output is the
JSON result; the line before it records the machine.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# The whole load is one thread of this one process, like the reference kernel
# it is measured against, and it does not depend on a second CPU being free.
# Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import world  # puts the checkout's src/ on sys.path; exits if langtrack is missing

import numpy as np
import scipy
from langtrack import BoxRecord, autodiff, evaluate_sequences, inference, metrics, synth, trainer
from langtrack.metrics import records_from_result

from spans import Tracer

SETUP_REPEATS = 5
REF_SAMPLES = 3  # reference samples before the first operation and after each


def clip_seeds(workload: str, seed: int, count: int) -> list[int]:
    """World seeds for a run's clips: a pure function of (workload, seed)."""
    stream = sum(workload.encode())  # keeps workloads on separate streams
    state = np.random.SeedSequence([seed, stream]).generate_state(count)
    return [int(s) for s in state]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    items: int = 0  # train steps, or detections tracked and scored
    busy_s: float = 0.0  # wall time of the operations that produced them
    op_s: list[float] = field(default_factory=list)
    scored: dict = field(default_factory=dict)  # clip name -> (gt, pred) records

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        print(f"FAILED: {message}", file=sys.stderr)

    def done(self, items: int, took: float) -> float:
        self.items += items
        self.busy_s += took
        self.op_s.append(took)
        return took


@dataclass(frozen=True)
class TrainWorkload:
    clips: int
    objects: int
    frames: int
    epochs: int
    unit_layer = "trainer.train_step"
    pass_ops = 1

    def setup(self, name: str, seed: int):
        clips = world.make_clips(
            "desk", self.objects, self.frames, clip_seeds(name, seed, self.clips)
        )
        return clips, world.text_store(clips)

    def operations(self, inputs):
        return [functools.partial(self.train, *inputs)]

    def train(self, clips, store, tally: Tally) -> float | None:
        """One ``run_training`` call; returns its wall time, None if it failed."""
        expected = self.clips * self.epochs
        tally.attempted += expected
        start = time.perf_counter()
        try:
            _, history = trainer.run_training(
                clips, world.train_config(self.epochs), world.MODEL_CFG, store
            )
        except Exception:
            traceback.print_exc()
            tally.fail("run_training raised", expected)
            return None
        took = time.perf_counter() - start
        if len(history) != expected:
            tally.fail(f"{len(history)} train steps, expected {expected}", expected)
            return None
        bad = [step for step, losses in enumerate(history)
               if not all(math.isfinite(v) for v in losses.values())]
        if bad:
            tally.fail(f"non-finite losses at steps {bad}", len(bad))
        return tally.done(len(history), took)

    def final_check(self, tally: Tally) -> None:
        """The final-loss check against the committed reference run."""
        ref = world.read_manifest()["reference_run"]
        tally.attempted += 1
        loss = world.reference_final_loss()
        if not abs(loss - ref["final_loss"]) <= ref["rtol"] * abs(ref["final_loss"]):
            tally.fail(f"reference run ended at loss {loss!r}, committed {ref['final_loss']!r}")

    def quality(self, tally: Tally) -> dict:
        return {"idf1": 0.0, "hota": 0.0, "mota": 0.0}  # nothing is tracked


@dataclass(frozen=True)
class TrackWorkload:
    clips: int  # generated per run; the untraced run cycles through them
    pass_ops: int  # clips in the traced run's pass and in the peak-RSS prefix
    objects: int
    frames: int
    unit_layer = "inference.track_video"

    def setup(self, name: str, seed: int):
        params = world.load_desk_checkpoint()
        clips = world.make_clips(
            "clip", self.objects, self.frames, clip_seeds(name, seed, self.clips)
        )
        return params, clips

    def operations(self, inputs):
        params, clips = inputs
        return [functools.partial(self.track, params, clip) for clip in clips]

    def track(self, params, clip, tally: Tally) -> float | None:
        """Track and score one clip; returns the wall time, None if it failed."""
        tally.attempted += 1
        start = time.perf_counter()
        try:
            result = inference.track_video(clip.detections, params, world.TRACKER_CFG)
            gt = [BoxRecord(d.frame, d.gt_id, tuple(d.box)) for d in clip.detections]
            pred = records_from_result(result)
            metrics.evaluate(gt, pred)
        except Exception:
            traceback.print_exc()
            tally.fail(f"{clip.name}: tracking or scoring raised")
            return None
        took = time.perf_counter() - start
        problem = partition_problem(clip.detections, result)
        if problem:
            tally.fail(f"{clip.name}: {problem}")
            return None
        tally.scored[clip.name] = (gt, pred)
        return tally.done(len(clip.detections), took)

    def final_check(self, tally: Tally) -> None:
        pass  # every clip is checked as it is tracked

    def quality(self, tally: Tally) -> dict:
        """Pooled over the clips of the run; deterministic per seed."""
        report = evaluate_sequences(tally.scored)
        return {"idf1": report.idf1, "hota": report.hota, "mota": report.mota}


def partition_problem(detections, result) -> str | None:
    """Why ``result`` is not a partition of ``detections`` into trajectories
    with strictly increasing frames, or None when it is."""
    placed = Counter(id(d) for dets in result.trajectories.values() for d in dets)
    given = {id(d) for d in detections}
    if len(given) != len(detections):
        return "input repeats a detection object"
    if placed.keys() != given:
        missing = len(given - placed.keys())
        extra = len(placed.keys() - given)
        return f"{missing} input detections missing from the result, {extra} foreign ones"
    repeated = sum(1 for n in placed.values() if n > 1)
    if repeated:
        return f"{repeated} detections appear in more than one trajectory slot"
    for tid, dets in result.trajectories.items():
        frames = [d.frame for d in dets]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            return f"trajectory {tid} frames do not strictly increase"
    return None


WORKLOADS = {
    "train_desk": TrainWorkload(clips=10, objects=8, frames=150, epochs=4),
    "track_crowd": TrackWorkload(clips=6, pass_ops=5, objects=32, frames=150),
    "track_long": TrackWorkload(clips=6, pass_ops=6, objects=4, frames=1200),
}


# -- per-layer tracing -------------------------------------------------------


def tape_nodes(tracer: Tracer, args) -> None:
    loss = args[0]
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    tracer.counts["tape_nodes"] += len(seen)


def graph_counts(tracer: Tracer, args, graph) -> None:
    """Candidate pairs, kept edges, and ground-truth links kept by pruning.

    A link joins two nodes of one ground-truth id that follow each other in
    time; nodes mixing ids (wrong merges) take part in none.
    """
    c = tracer.counts
    starts = np.array([t.start_frame for t in graph.nodes])
    ends = np.array([t.end_frame for t in graph.nodes])
    later = len(starts) - np.searchsorted(np.sort(starts), ends, side="right")
    c["pairs_ranked"] += int(later.sum())
    c["edges"] += graph.num_edges
    edges = set(zip(graph.edge_u.tolist(), graph.edge_v.tolist()))
    by_gt: dict[int, list[int]] = {}
    for i, node in enumerate(graph.nodes):
        if node.gt_id is not None:
            by_gt.setdefault(node.gt_id, []).append(i)
    for members in by_gt.values():
        members.sort(key=lambda i: (starts[i], ends[i]))
        for a, b in zip(members, members[1:]):
            if ends[a] < starts[b]:
                c["gt_links"] += 1
                c["gt_links_kept"] += (a, b) in edges


def window_counts(tracer: Tracer, args, graph) -> None:
    tracer.counts["windows"] += 1
    graph_counts(tracer, args, graph)


def rounding_counts(tracer: Tracer, args, accepted) -> None:
    tracer.counts["candidates"] += args[0].num_edges
    tracer.counts["accepted"] += len(accepted)


def merge_counts(tracer: Tracer, args, merged) -> None:
    tracer.counts["merges"] += args[0].num_nodes - len(merged)


def label_counts(tracer: Tracer, args, bundle) -> None:
    for level in bundle.levels:
        tracer.counts["labels"] += level.labels.size
        tracer.counts["positive_labels"] += int(level.labels.sum())


def make_tracer() -> Tracer:
    t = Tracer()
    t.span(synth, "gen_sequence", "synth.gen_sequence")
    t.span(inference, "track_video", "inference.track_video")
    t.span(inference, "build_graph", "graph.build_graph", after=window_counts)
    t.span(trainer, "build_graph", "graph.build_graph", after=graph_counts)
    for module in (inference, trainer):
        for name in ("encode_graph", "message_pass", "classify_edges"):
            t.span(module, name, f"model.{name}")
    t.span(inference, "round_edges", "inference.round_edges", after=rounding_counts)
    t.span(inference, "merge_accepted", "inference.merge_accepted", after=merge_counts)
    t.span(trainer, "prepare_clip", "trainer.prepare_clip", after=label_counts)
    t.span(trainer, "train_step", "trainer.train_step")
    t.span(trainer, "adam_step", "nn.adam_step")
    t.span(trainer, "isg_loss", "guidance.isg_loss")
    t.span(trainer, "spg_loss", "guidance.spg_loss")
    t.span(autodiff.Tensor, "backward", "autodiff.backward", before=tape_nodes)
    t.count_calls(autodiff.Tensor, "__init__", "tensors")
    t.span(metrics, "evaluate", "metrics.evaluate")
    for name in ("mota", "idf1", "hota"):
        t.span(metrics, name, f"metrics.{name}")
    return t


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, units: int, traced_s: float) -> dict:
    c = tracer.counts
    incl = {layer: ratio(tracer.inclusive_s[layer], units) for layer in (
        "graph.build_graph", "model.encode_graph", "model.message_pass",
        "model.classify_edges", "autodiff.backward", "nn.adam_step", "guidance.isg_loss",
        "guidance.spg_loss", "inference.round_edges", "inference.merge_accepted",
        "metrics.evaluate", "metrics.mota", "metrics.idf1", "metrics.hota",
    )}
    out = {f"{layer}.s": (value, "s") for layer, value in incl.items()}
    out.update({
        "graph.build_graph.share": (ratio(tracer.self_s["graph.build_graph"], traced_s), "ratio"),
        "graph.pairs_ranked": (ratio(c["pairs_ranked"], units), "count"),
        "graph.edges": (ratio(c["edges"], units), "count"),
        "graph.kept_frac": (ratio(c["edges"], c["pairs_ranked"]), "ratio"),
        "graph.knn_recall": (ratio(c["gt_links_kept"], c["gt_links"]), "ratio"),
        "model.graphs": (ratio(tracer.calls["model.encode_graph"], units), "count"),
        "autodiff.tape_nodes_per_step": (
            ratio(c["tape_nodes"], tracer.calls["autodiff.backward"]), "count"),
        "autodiff.tensors_per_clip": (ratio(c["tensors"], units), "count"),
        "trainer.train_step.self_s": (ratio(tracer.self_s["trainer.train_step"], units), "s"),
        "trainer.prepare_clip.s": (ratio(
            tracer.inclusive_s["trainer.prepare_clip"], tracer.calls["trainer.prepare_clip"]), "s"),
        "trainer.pos_label_frac": (ratio(c["positive_labels"], c["labels"]), "ratio"),
        "inference.track_video.self_s": (
            ratio(tracer.self_s["inference.track_video"], units), "s"),
        "inference.windows": (ratio(c["windows"], units), "count"),
        "inference.accepted_frac": (ratio(c["accepted"], c["candidates"]), "ratio"),
        "inference.merges": (ratio(c["merges"], units), "count"),
        "trace.unit_s": (ratio(traced_s, units), "s"),
    })
    return out


def print_layer_table(tracer: Tracer, units: int, traced_s: float) -> None:
    print(f"  {'layer':<26}{'calls/unit':>11}{'incl s/unit':>13}{'self s/unit':>13}{'self share':>11}")
    for layer in sorted(tracer.calls, key=tracer.self_s.get, reverse=True):
        print(
            f"  {layer:<26}{tracer.calls[layer] / units:>11.2f}"
            f"{tracer.inclusive_s[layer] / units:>13.5f}{tracer.self_s[layer] / units:>13.5f}"
            f"{tracer.self_s[layer] / traced_s:>11.1%}"
        )


# -- runs ----------------------------------------------------------------------


# The reference kernel has the two kinds of work langtrack spends its time on:
# per-pair cosine distances between 64-dim vectors through small numpy calls
# (graph building), and products and copies of arrays of a few MB (the model
# and its gradients).  Timed alone, the small calls did not follow the speed
# of training at all.
_REF_VECTORS = np.random.default_rng(0).normal(size=(40, 64))
_REF_ROWS = np.random.default_rng(1).normal(size=(256, 1024))
_REF_WEIGHTS = np.random.default_rng(2).normal(size=(1024, 64))


def reference_s() -> float:
    """Seconds the machine takes right now for the reference kernel (~20 ms)."""
    start = time.perf_counter()
    total = 0.0
    for a in _REF_VECTORS:
        for b in _REF_VECTORS:
            total += float(np.dot(a, b)) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
    for _ in range(6):
        total += float(np.tanh(_REF_ROWS @ _REF_WEIGHTS).sum())
        total += float(_REF_ROWS[:, ::3].copy().max())
    took = time.perf_counter() - start
    if not math.isfinite(total):
        raise RuntimeError("reference kernel produced a non-finite sum")
    return took


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_untraced(name: str, workload, seed: int, seconds: float):
    """Operations until ``seconds`` of them have run.  The set-ups are spread
    over that window, so their median samples the machine across the run
    rather than at one instant."""
    setup_s = []

    def set_up():
        gc.collect()
        start = time.perf_counter()
        inputs = workload.setup(name, seed)
        setup_s.append(time.perf_counter() - start)
        return inputs

    def reference_samples() -> list[float]:
        return [reference_s() for _ in range(REF_SAMPLES)]

    ops = workload.operations(set_up())
    tally = Tally()
    elapsed = 0.0
    per_ref = []  # each operation's items per reference time beside it
    ref_s = reference_samples()
    rss_mb = None
    for done, op in enumerate(itertools.cycle(ops)):
        if done == workload.pass_ops:
            # Read after a fixed prefix: later operations only add allocator
            # fragmentation, and how many there are depends on machine speed.
            rss_mb = peak_rss_mb()
        if (rss_mb is not None and len(setup_s) < SETUP_REPEATS
                and elapsed >= seconds * len(setup_s) / SETUP_REPEATS):
            set_up()
        gc.collect()  # garbage of the previous operation does not count against this one
        before = ref_s[-REF_SAMPLES:]
        items = tally.items
        start = time.perf_counter()
        took = op(tally)
        elapsed += time.perf_counter() - start
        after = reference_samples()
        ref_s.extend(after)
        if took is not None:
            per_ref.append((tally.items - items) * statistics.median(before + after) / took)
        if elapsed >= seconds:
            break
    if rss_mb is None:
        rss_mb = peak_rss_mb()
    while len(setup_s) < SETUP_REPEATS:
        set_up()
    workload.final_check(tally)
    values = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "items_per_ref": (statistics.median(per_ref) if per_ref else 0.0, "1/ref"),
    }
    p50 = statistics.median(tally.op_s) if tally.op_s else math.nan
    print(f"  {len(tally.op_s)} operations, median {p50:.4f} s; {len(setup_s)} set-ups")
    print(f"  items_per_s {ratio(tally.items, tally.busy_s):.6g} 1/s (raw);"
          f" reference kernel median {statistics.median(ref_s):.5f} s")
    return values, tally


def run_traced(name: str, workload, seed: int, seconds: float):
    """Each operation runs twice, untraced and traced, in alternating order;
    the overhead is the median ratio of the two times."""
    setup_tracer = make_tracer()
    with setup_tracer.active():
        inputs = workload.setup(name, seed)
    ops = workload.operations(inputs)[:workload.pass_ops]
    tracer = make_tracer()
    untraced, traced = Tally(), Tally()
    ratios = []
    orders = itertools.cycle(((False, True), (True, False)))
    start = time.perf_counter()
    while True:  # each operation runs twice, so stop at half the time
        for op in ops:
            times = {}
            for use_tracer in next(orders):
                gc.collect()
                if use_tracer:
                    with tracer.active():
                        times[True] = op(traced)
                else:
                    times[False] = op(untraced)
            if None not in times.values():
                ratios.append(times[True] / times[False])
        if time.perf_counter() - start >= seconds / 2.0:
            break
    workload.final_check(traced)
    units = max(tracer.calls[workload.unit_layer], 1)
    traced_s = max(traced.busy_s, 1e-9)
    values = layer_metrics(tracer, units, traced_s)
    values["synth.gen_sequence.s"] = (ratio(
        setup_tracer.inclusive_s["synth.gen_sequence"], setup_tracer.calls["synth.gen_sequence"]), "s")
    values["trace.overhead_frac"] = (statistics.median(ratios) - 1.0 if ratios else 0.0, "ratio")
    values.update({f"quality.{k}": (v, "ratio") for k, v in workload.quality(traced).items()})
    print(f"  {len(ratios)} operations traced and untraced; {units} units of {workload.unit_layer}")
    print_layer_table(tracer, units, traced_s)
    tally = Tally(
        attempted=untraced.attempted + traced.attempted,
        failed=untraced.failed + traced.failed,
    )
    return values, tally


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, asked of the library
    itself; None when numpy does not bundle OpenBLAS."""
    bundled = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(bundled.glob("*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "machine": platform.machine(),
    }


def run(name: str, workload, seed: int, seconds: float, trace: bool) -> dict:
    print(f"workload {name}, seed {seed}, seconds {seconds}, trace {int(trace)}")
    runner = run_traced if trace else run_untraced
    values, tally = runner(name, workload, seed, seconds)
    for metric, (value, unit) in values.items():
        print(f"  {metric:<30} {value:.6g} {unit}")
    print(f"  attempted {tally.attempted}, failed {tally.failed}")
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
