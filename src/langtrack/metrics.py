"""MOT evaluation: CLEAR (MOTA/IDSW), ID measures (IDF1), and HOTA.

All three families work from plain (frame, track_id, box) records.  Per
frame matching maximizes matched count and then total IoU via the
Hungarian algorithm; exact ties resolve toward lexicographically smaller
(gt, pred) pairs through an index perturbation far below metric tolerance.
MOTA applies the CLEAR persistence rule (a previous frame's pairing is
kept while its IoU stays above threshold).  IDF1 solves the global
trajectory matching exactly.  HOTA follows the reference two-pass scheme:
a global alignment score from normalized per-frame similarities guides the
per-frame matching, then 19 IoU thresholds are scored and averaged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = [
    "BoxRecord",
    "MotaResult",
    "Idf1Result",
    "HotaResult",
    "MetricReport",
    "iou",
    "check_iou_threshold",
    "mota",
    "idf1",
    "hota",
    "evaluate",
    "evaluate_sequences",
    "records_from_result",
    "render_report",
    "render_table",
    "HOTA_ALPHAS",
]

HOTA_ALPHAS = np.array([0.05 * i for i in range(1, 20)])

# Tie-break perturbation: small enough never to override a real IoU gap,
# large enough to pick the lexicographically least optimum on exact ties.
_TIE_EPS = 1e-10


@dataclass(frozen=True, order=True)
class BoxRecord:
    """One tracked box: frame index, track id, (left, top, width, height)."""

    frame: int
    track_id: int
    box: tuple[float, float, float, float]


def iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection over union of two (left, top, width, height) boxes."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0.0 else 0.0


def _iou_matrix(a_rows: Sequence[BoxRecord], b_rows: Sequence[BoxRecord]) -> np.ndarray:
    """IoU of every row of ``a_rows`` with every row of ``b_rows``, as one
    (len(a), len(b)) array; bitwise equal to :func:`iou` on finite boxes."""
    a = np.array([r.box for r in a_rows], dtype=np.float64).reshape(-1, 1, 4)
    b = np.array([r.box for r in b_rows], dtype=np.float64).reshape(1, -1, 4)
    lo = np.maximum(a[..., :2], b[..., :2])
    hi = np.minimum(a[..., :2] + a[..., 2:], b[..., :2] + b[..., 2:])
    side = np.maximum(hi - lo, 0.0)
    inter = side[..., 0] * side[..., 1]
    union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def records_from_result(result) -> list[BoxRecord]:
    """Flatten an inference TrackResult into metric records."""
    return [
        BoxRecord(det.frame, tid, tuple(det.box))
        for tid, det in result.iter_detections()
    ]


def _by_frame(records: Iterable[BoxRecord]) -> dict[int, list[BoxRecord]]:
    frames: dict[int, list[BoxRecord]] = {}
    seen: set[tuple[int, int]] = set()
    for r in records:
        if r.box[2] <= 0.0 or r.box[3] <= 0.0:
            raise ValueError(f"degenerate box {r.box} at frame {r.frame}")
        key = (r.frame, r.track_id)
        if key in seen:
            raise ValueError(f"track {r.track_id} appears twice in frame {r.frame}")
        seen.add(key)
        frames.setdefault(r.frame, []).append(r)
    for lst in frames.values():
        lst.sort(key=lambda r: r.track_id)
    return frames


def _match_one_frame(
    gt_rows: list[BoxRecord],
    pred_rows: list[BoxRecord],
    threshold: float,
) -> list[tuple[int, int]]:
    """Optimal (count, then total IoU) matching; returns index pairs."""
    g, p = len(gt_rows), len(pred_rows)
    if g == 0 or p == 0:
        return []
    sim = _iou_matrix(gt_rows, pred_rows)
    feasible = sim >= threshold
    if not feasible.any():
        return []
    big = float(min(g, p) + 1)
    rank = np.arange(g)[:, None] * (p + 1) + np.arange(p)[None, :]
    score = np.where(feasible, big + sim - _TIE_EPS * rank, 0.0)
    rows, cols = linear_sum_assignment(-score)
    return [(int(r), int(c)) for r, c in zip(rows, cols) if feasible[r, c]]


@dataclass
class MotaResult:
    value: float
    idsw: int
    tp: int
    fp: int
    fn: int
    num_gt: int
    undefined: bool = False


def check_iou_threshold(iou_threshold: float) -> None:
    """A match needs IoU >= the threshold, so it must lie in (0, 1]: at 0
    disjoint boxes match, and above 1 nothing does."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou threshold must lie in (0, 1], got {iou_threshold}")


def mota(
    gt: Iterable[BoxRecord], pred: Iterable[BoxRecord], iou_threshold: float = 0.5
) -> MotaResult:
    """CLEAR MOTA with match persistence and identity-switch counting.

    A gt-pred pairing from the previous frame is kept while both are
    present and still overlap above threshold; remaining boxes are matched
    optimally.  A switch is counted when a matched gt's pred id differs
    from its most recent previously matched pred id.
    """
    check_iou_threshold(iou_threshold)
    gt_frames = _by_frame(gt)
    pred_frames = _by_frame(pred)
    num_gt = sum(len(v) for v in gt_frames.values())
    if num_gt == 0:
        return MotaResult(float("nan"), 0, 0, sum(len(v) for v in pred_frames.values()), 0, 0, True)
    carried: dict[int, int] = {}  # gt id -> pred id matched in the previous frame
    last_match: dict[int, int] = {}  # gt id -> most recent matched pred id ever
    tp = fp = fn = idsw = 0
    for f in sorted(set(gt_frames) | set(pred_frames)):
        g_rows = gt_frames.get(f, [])
        p_rows = pred_frames.get(f, [])
        g_index = {r.track_id: i for i, r in enumerate(g_rows)}
        p_index = {r.track_id: j for j, r in enumerate(p_rows)}
        pairs: list[tuple[int, int]] = []  # (gt_id, pred_id)
        held_g: set[int] = set()
        held_p: set[int] = set()
        for gid in sorted(carried):
            pid = carried[gid]
            if gid in g_index and pid in p_index:
                if iou(g_rows[g_index[gid]].box, p_rows[p_index[pid]].box) >= iou_threshold:
                    pairs.append((gid, pid))
                    held_g.add(gid)
                    held_p.add(pid)
        free_g = [r for r in g_rows if r.track_id not in held_g]
        free_p = [r for r in p_rows if r.track_id not in held_p]
        for i, j in _match_one_frame(free_g, free_p, iou_threshold):
            pairs.append((free_g[i].track_id, free_p[j].track_id))
        tp += len(pairs)
        fn += len(g_rows) - len(pairs)
        fp += len(p_rows) - len(pairs)
        for gid, pid in sorted(pairs):
            if gid in last_match and last_match[gid] != pid:
                idsw += 1
            last_match[gid] = pid
        carried = dict(pairs)
    value = 1.0 - (fn + fp + idsw) / num_gt
    return MotaResult(value, idsw, tp, fp, fn, num_gt)


@dataclass
class Idf1Result:
    value: float
    idtp: int
    idfp: int
    idfn: int
    degenerate: bool = False


def idf1(
    gt: Iterable[BoxRecord], pred: Iterable[BoxRecord], iou_threshold: float = 0.5
) -> Idf1Result:
    """ID measures: optimal global trajectory pairing, then IDF1.

    Pairing gt trajectory g with pred trajectory p costs every frame where
    they disagree (one of them absent, or IoU below threshold); leaving a
    trajectory unpaired costs its full length.  The exact minimum-cost
    assignment yields IDTP, and IDF1 = 2*IDTP / (2*IDTP + IDFP + IDFN).
    """
    check_iou_threshold(iou_threshold)
    gt_frames = _by_frame(gt)
    pred_frames = _by_frame(pred)
    gt_ids = sorted({r.track_id for rows in gt_frames.values() for r in rows})
    pred_ids = sorted({r.track_id for rows in pred_frames.values() for r in rows})
    gt_len = {i: 0 for i in gt_ids}
    pred_len = {j: 0 for j in pred_ids}
    overlap = np.zeros((len(gt_ids), len(pred_ids)))
    g_pos = {gid: i for i, gid in enumerate(gt_ids)}
    p_pos = {pid: j for j, pid in enumerate(pred_ids)}
    for f in sorted(set(gt_frames) | set(pred_frames)):
        g_rows = gt_frames.get(f, [])
        p_rows = pred_frames.get(f, [])
        for r in g_rows:
            gt_len[r.track_id] += 1
        for r in p_rows:
            pred_len[r.track_id] += 1
        if g_rows and p_rows:
            gi = np.array([g_pos[r.track_id] for r in g_rows])
            pj = np.array([p_pos[r.track_id] for r in p_rows])
            overlap[gi[:, None], pj] += _iou_matrix(g_rows, p_rows) >= iou_threshold
    total_gt = sum(gt_len.values())
    total_pred = sum(pred_len.values())
    if total_gt == 0 and total_pred == 0:
        return Idf1Result(1.0, 0, 0, 0, True)
    ng, np_ = len(gt_ids), len(pred_ids)
    size = ng + np_
    blocked = float(total_gt + total_pred + 1)
    cost = np.full((size, size), blocked)
    for i, gid in enumerate(gt_ids):
        for j, pid in enumerate(pred_ids):
            cost[i, j] = gt_len[gid] + pred_len[pid] - 2.0 * overlap[i, j]
        cost[i, np_ + i] = float(gt_len[gid])  # gt left unmatched
    for j, pid in enumerate(pred_ids):
        cost[ng + j, j] = float(pred_len[pid])  # pred left unmatched
    cost[ng:, np_:] = 0.0
    rows, cols = linear_sum_assignment(cost)
    mismatch = float(cost[rows, cols].sum())
    idtp = int(round((total_gt + total_pred - mismatch) / 2.0))
    idfn = total_gt - idtp
    idfp = total_pred - idtp
    value = 2.0 * idtp / (2.0 * idtp + idfp + idfn)
    return Idf1Result(value, idtp, idfp, idfn)


@dataclass
class HotaResult:
    value: float
    deta: float
    assa: float
    alphas: np.ndarray
    tp: np.ndarray  # per alpha
    fn: np.ndarray
    fp: np.ndarray
    ass: np.ndarray  # AssA per alpha
    undefined: bool = False


def hota(gt: Iterable[BoxRecord], pred: Iterable[BoxRecord]) -> HotaResult:
    """HOTA with DetA and AssA, averaged over the 19-threshold grid."""
    gt_frames = _by_frame(gt)
    pred_frames = _by_frame(pred)
    gt_ids = sorted({r.track_id for rows in gt_frames.values() for r in rows})
    pred_ids = sorted({r.track_id for rows in pred_frames.values() for r in rows})
    total_gt = sum(len(v) for v in gt_frames.values())
    total_pred = sum(len(v) for v in pred_frames.values())
    na = HOTA_ALPHAS.size
    if total_gt == 0:
        nanv = float("nan")
        zeros = np.zeros(na)
        return HotaResult(nanv, nanv, nanv, HOTA_ALPHAS.copy(), zeros,
                          zeros.copy(), np.full(na, float(total_pred)), zeros.copy(), True)
    g_pos = {gid: i for i, gid in enumerate(gt_ids)}
    p_pos = {pid: j for j, pid in enumerate(pred_ids)}
    ng, np_ = len(gt_ids), len(pred_ids)
    gt_count = np.zeros(ng)
    pred_count = np.zeros(np_)
    potential = np.zeros((ng, np_))
    frames = sorted(set(gt_frames) | set(pred_frames))
    sims: dict[int, np.ndarray] = {}
    for f in frames:
        g_rows = gt_frames.get(f, [])
        p_rows = pred_frames.get(f, [])
        for r in g_rows:
            gt_count[g_pos[r.track_id]] += 1
        for r in p_rows:
            pred_count[p_pos[r.track_id]] += 1
        if not g_rows or not p_rows:
            continue
        sim = _iou_matrix(g_rows, p_rows)
        sims[f] = sim
        denom = sim.sum(axis=0)[None, :] + sim.sum(axis=1)[:, None] - sim
        norm = np.zeros_like(sim)
        np.divide(sim, denom, out=norm, where=denom > 1e-12)
        gi = np.array([g_pos[r.track_id] for r in g_rows])
        pj = np.array([p_pos[r.track_id] for r in p_rows])
        potential[gi[:, None], pj] += norm
    alignment = potential / (gt_count[:, None] + pred_count[None, :] - potential)
    matches = np.zeros((na, ng, np_))
    for f in frames:
        if f not in sims:
            continue
        g_rows = gt_frames[f]
        p_rows = pred_frames[f]
        sim = sims[f]
        gi = np.array([g_pos[r.track_id] for r in g_rows])
        pj = np.array([p_pos[r.track_id] for r in p_rows])
        rank = np.arange(len(g_rows))[:, None] * (len(p_rows) + 1) + np.arange(len(p_rows))[None, :]
        score = alignment[gi[:, None], pj] * sim - _TIE_EPS * rank
        rows, cols = linear_sum_assignment(-score)
        # one row per alpha; a frame's matched pairs are distinct
        keep = sim[rows, cols] >= HOTA_ALPHAS[:, None] - 1e-12
        matches[:, gi[rows], pj[cols]] += keep
    tp = matches.sum(axis=(1, 2))
    fn = total_gt - tp
    fp = total_pred - tp
    deta_a = tp / (total_gt + total_pred - tp)
    ass_a = np.zeros(na)
    for ai in range(na):
        if tp[ai] == 0:
            continue
        mc = matches[ai]
        pair_denom = gt_count[:, None] + pred_count[None, :] - mc
        align = np.zeros_like(mc)
        np.divide(mc, pair_denom, out=align, where=pair_denom > 0)
        ass_a[ai] = float((mc * align).sum() / tp[ai])
    hota_a = np.sqrt(deta_a * ass_a)
    return HotaResult(
        float(hota_a.mean()),
        float(deta_a.mean()),
        float(ass_a.mean()),
        HOTA_ALPHAS.copy(),
        tp,
        fn,
        fp,
        ass_a,
    )


@dataclass
class MetricReport:
    """Everything the tables report, plus the raw counts behind it."""

    mota: float
    idf1: float
    hota: float
    deta: float
    assa: float
    idsw: int
    tp: int
    fp: int
    fn: int
    idtp: int
    idfp: int
    idfn: int
    num_gt: int
    undefined: bool = False


def evaluate(
    gt: Iterable[BoxRecord], pred: Iterable[BoxRecord], iou_threshold: float = 0.5
) -> MetricReport:
    """All metrics for one sequence."""
    gt = list(gt)
    pred = list(pred)
    m = mota(gt, pred, iou_threshold)
    i = idf1(gt, pred, iou_threshold)
    h = hota(gt, pred)
    return MetricReport(
        mota=m.value,
        idf1=i.value,
        hota=h.value,
        deta=h.deta,
        assa=h.assa,
        idsw=m.idsw,
        tp=m.tp,
        fp=m.fp,
        fn=m.fn,
        idtp=i.idtp,
        idfp=i.idfp,
        idfn=i.idfn,
        num_gt=m.num_gt,
        undefined=m.undefined or h.undefined,
    )


def evaluate_sequences(
    sequences: Mapping[str, tuple[Iterable[BoxRecord], Iterable[BoxRecord]]],
    iou_threshold: float = 0.5,
) -> MetricReport:
    """Pool metrics over sequences (iterated in name order).

    CLEAR and ID counts add up; HOTA combines per alpha with DetA from
    pooled counts and AssA as the TP-weighted mean, then averages.
    """
    if not sequences:
        raise ValueError("no sequences to evaluate")
    tp = fp = fn = idsw = num_gt = 0
    idtp = idfp = idfn = 0
    na = HOTA_ALPHAS.size
    h_tp = np.zeros(na)
    h_fn = np.zeros(na)
    h_fp = np.zeros(na)
    h_ass_sum = np.zeros(na)
    any_defined = False
    for name in sorted(sequences):
        gt, pred = sequences[name]
        gt = list(gt)
        pred = list(pred)
        m = mota(gt, pred, iou_threshold)
        i = idf1(gt, pred, iou_threshold)
        h = hota(gt, pred)
        if m.undefined or h.undefined:
            fp += m.fp
            idfp += i.idfp
            h_fp += h.fp
            continue
        any_defined = True
        tp += m.tp
        fp += m.fp
        fn += m.fn
        idsw += m.idsw
        num_gt += m.num_gt
        idtp += i.idtp
        idfp += i.idfp
        idfn += i.idfn
        h_tp += h.tp
        h_fn += h.fn
        h_fp += h.fp
        h_ass_sum += h.ass * h.tp
    if not any_defined:
        nanv = float("nan")
        return MetricReport(nanv, 0.0, nanv, nanv, nanv, 0, 0, fp, 0, 0, idfp, 0, 0, True)
    mota_v = 1.0 - (fn + fp + idsw) / num_gt
    idf1_v = 2.0 * idtp / (2.0 * idtp + idfp + idfn) if (idtp + idfp + idfn) else 1.0
    deta_a = np.zeros(na)
    denom = h_tp + h_fn + h_fp
    np.divide(h_tp, denom, out=deta_a, where=denom > 0)
    ass_a = np.zeros(na)
    np.divide(h_ass_sum, h_tp, out=ass_a, where=h_tp > 0)
    hota_a = np.sqrt(deta_a * ass_a)
    return MetricReport(
        mota=mota_v,
        idf1=idf1_v,
        hota=float(hota_a.mean()),
        deta=float(deta_a.mean()),
        assa=float(ass_a.mean()),
        idsw=idsw,
        tp=tp,
        fp=fp,
        fn=fn,
        idtp=idtp,
        idfp=idfp,
        idfn=idfn,
        num_gt=num_gt,
    )


_REPORT_KEYS = (
    "mota", "idf1", "hota", "deta", "assa", "idsw",
    "tp", "fp", "fn", "idtp", "idfp", "idfn", "num_gt", "undefined",
)


def render_report(report: MetricReport) -> str:
    """Stable key=value lines, one metric per line."""
    lines = []
    for key in _REPORT_KEYS:
        value = getattr(report, key)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key}={text}")
    return "\n".join(lines) + "\n"


def render_table(reports: Mapping[str, MetricReport]) -> str:
    """Aligned comparison table; one row per entry, in key order."""
    cols = ("mota", "idf1", "hota", "deta", "assa", "idsw")
    name_w = max([len(n) for n in reports] + [len("run")])
    header = "run".ljust(name_w) + "".join(c.rjust(10) for c in cols)
    lines = [header, "-" * len(header)]
    for name in sorted(reports):
        r = reports[name]
        cells = []
        for c in cols:
            v = getattr(r, c)
            cells.append((f"{v:.4f}" if isinstance(v, float) else str(v)).rjust(10))
        lines.append(name.ljust(name_w) + "".join(cells))
    return "\n".join(lines) + "\n"
