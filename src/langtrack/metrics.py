"""MOT evaluation: CLEAR (MOTA/IDSW), ID measures (IDF1), and HOTA.

All three families read plain (frame, track_id, box) records, grouped by
frame in one pass per sequence that also computes every same-frame IoU in
bounded array blocks.  Per frame matching maximizes matched count and then
total IoU via the Hungarian algorithm; exact ties resolve toward
lexicographically smaller (gt, pred) pairs through an index perturbation
far below metric tolerance.
MOTA applies the CLEAR persistence rule (a previous frame's pairing is
kept while its IoU stays above threshold).  IDF1 solves the global
trajectory matching exactly.  HOTA follows the reference two-pass scheme:
a global alignment score from normalized per-frame similarities guides the
per-frame matching, then 19 IoU thresholds are scored and averaged.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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


def records_from_result(result) -> list[BoxRecord]:
    """Flatten an inference TrackResult into metric records."""
    return [
        BoxRecord(det.frame, tid, tuple(det.box))
        for tid, det in result.iter_detections()
    ]


# The IoU pass takes gt boxes in blocks of at most this many box pairs (or one
# gt box), so its working arrays stay small however long the sequence is.
_BLOCK_PAIRS = 1 << 14


@dataclass
class _Sequence:
    """One sequence's records, validated and grouped once.  An id's position
    is its index among its side's sorted ids, so position order is id order."""

    frames: list[tuple[np.ndarray, np.ndarray, np.ndarray]]  # gt, pred positions; IoU
    gt_count: np.ndarray  # boxes per gt position
    pred_count: np.ndarray


def _sorted_records(records: Iterable[BoxRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frames, id positions and boxes of the records, sorted by (frame, track
    id); a box that is not finite or has no area, or a repeated (frame, track
    id), raises."""
    records = list(records)
    boxes = np.array([r.box for r in records], dtype=np.float64).reshape(-1, 4)
    bad = ~np.isfinite(boxes).all(axis=1) | (boxes[:, 2] <= 0.0) | (boxes[:, 3] <= 0.0)
    if bad.any():
        r = records[int(np.argmax(bad))]
        raise ValueError(f"degenerate box {r.box} at frame {r.frame}")
    key = np.array([(r.frame, r.track_id) for r in records], dtype=np.int64).reshape(-1, 2)
    order = np.lexsort((key[:, 1], key[:, 0]))
    key, boxes = key[order], boxes[order]
    twice = np.flatnonzero((key[1:] == key[:-1]).all(axis=1))
    if twice.size:
        raise ValueError(f"track {key[twice[0], 1]} appears twice in frame {key[twice[0], 0]}")
    return key[:, 0], np.unique(key[:, 1], return_inverse=True)[1], boxes


def _prepare(gt: Iterable[BoxRecord], pred: Iterable[BoxRecord]) -> _Sequence:
    g_frame, g_pos, g_box = _sorted_records(gt)
    p_frame, p_pos, p_box = _sorted_records(pred)
    frames = np.union1d(g_frame, p_frame)
    g_end = np.searchsorted(g_frame, frames, "right")  # frame k's boxes end here
    p_end = np.searchsorted(p_frame, frames, "right")
    p_n = np.diff(p_end, prepend=0)
    at = np.searchsorted(frames, g_frame)  # frame index of each gt box
    width = p_n[at]  # pred boxes in each gt box's frame
    offsets = np.concatenate(([0], np.cumsum(width)))  # gt box i's pairs: offsets[i:i+2]
    shift = (p_end - p_n)[at] - offsets[:-1]  # pair index + shift = pred box index
    flat = np.empty(int(offsets[-1]))
    rows = max(1, _BLOCK_PAIRS // max(1, int(width.max(initial=0))))
    for r0 in range(0, g_frame.size, rows):
        r = slice(r0, min(r0 + rows, g_frame.size))
        pairs = slice(offsets[r0], offsets[r.stop])
        a = np.repeat(g_box[r], width[r], axis=0)
        b = p_box[np.arange(pairs.start, pairs.stop) + np.repeat(shift[r], width[r])]
        # elementwise, so bitwise equal to the scalar iou
        lo = np.maximum(a[:, :2], b[:, :2])
        hi = np.minimum(a[:, :2] + a[:, 2:], b[:, :2] + b[:, 2:])
        side = np.maximum(hi - lo, 0.0)
        inter = side[:, 0] * side[:, 1]
        union = a[:, 2] * a[:, 3] + b[:, 2] * b[:, 3] - inter
        flat[pairs] = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)
    shapes = zip(np.diff(g_end, prepend=0), p_n)
    sims = [m.reshape(shape) for m, shape in zip(np.split(flat, offsets[g_end[:-1]]), shapes)]
    per_frame = zip(np.split(g_pos, g_end[:-1]), np.split(p_pos, p_end[:-1]), sims)
    return _Sequence(list(per_frame), np.bincount(g_pos), np.bincount(p_pos))


def _match(sim: np.ndarray, threshold: float) -> list[tuple[int, int]]:
    """Optimal (count, then total IoU) matching on a (gt, pred) IoU matrix;
    returns (row, col) pairs."""
    feasible = sim >= threshold
    if not feasible.any():
        return []
    g, p = sim.shape
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
    return _mota(_prepare(gt, pred), iou_threshold)


def _mota(seq: _Sequence, iou_threshold: float) -> MotaResult:
    num_gt = int(seq.gt_count.sum())
    if num_gt == 0:
        return MotaResult(float("nan"), 0, 0, int(seq.pred_count.sum()), 0, 0, True)
    carried: dict[int, int] = {}  # gt -> pred matched in the previous frame
    last_match: dict[int, int] = {}  # gt -> most recent matched pred ever
    tp = fp = fn = idsw = 0
    for g_pos, p_pos, sim in seq.frames:
        g_ids, p_ids = g_pos.tolist(), p_pos.tolist()
        row = {g: i for i, g in enumerate(g_ids)}
        col = {p: j for j, p in enumerate(p_ids)}
        held = [  # (row, col) of last frame's pairs that still overlap
            (row[g], col[p]) for g, p in carried.items()
            if g in row and p in col and sim[row[g], col[p]] >= iou_threshold
        ]
        free_g = sorted(set(range(len(g_ids))).difference(i for i, _ in held))
        free_p = sorted(set(range(len(p_ids))).difference(j for _, j in held))
        matched = _match(sim[free_g][:, free_p], iou_threshold)
        pairs = sorted(held + [(free_g[i], free_p[j]) for i, j in matched])
        pairs = [(g_ids[i], p_ids[j]) for i, j in pairs]  # as id positions
        tp += len(pairs)
        fn += len(g_ids) - len(pairs)
        fp += len(p_ids) - len(pairs)
        for g, p in pairs:
            if g in last_match and last_match[g] != p:
                idsw += 1
            last_match[g] = p
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
    return _idf1(_prepare(gt, pred), iou_threshold)


def _idf1(seq: _Sequence, iou_threshold: float) -> Idf1Result:
    total_gt = int(seq.gt_count.sum())
    total_pred = int(seq.pred_count.sum())
    if total_gt == 0 and total_pred == 0:
        return Idf1Result(1.0, 0, 0, 0, True)
    ng, np_ = seq.gt_count.size, seq.pred_count.size
    overlap = np.zeros((ng, np_))
    for g_pos, p_pos, sim in seq.frames:
        overlap[g_pos[:, None], p_pos] += sim >= iou_threshold
    size = ng + np_
    blocked = float(total_gt + total_pred + 1)
    cost = np.full((size, size), blocked)
    cost[:ng, :np_] = seq.gt_count[:, None] + seq.pred_count[None, :] - 2.0 * overlap
    cost[np.arange(ng), np_ + np.arange(ng)] = seq.gt_count  # gt left unmatched
    cost[ng + np.arange(np_), np.arange(np_)] = seq.pred_count  # pred left unmatched
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
    return _hota(_prepare(gt, pred))


def _hota(seq: _Sequence) -> HotaResult:
    total_gt = int(seq.gt_count.sum())
    total_pred = int(seq.pred_count.sum())
    na = HOTA_ALPHAS.size
    if total_gt == 0:
        nanv = float("nan")
        zeros = np.zeros(na)
        return HotaResult(nanv, nanv, nanv, HOTA_ALPHAS.copy(), zeros,
                          zeros.copy(), np.full(na, float(total_pred)), zeros.copy(), True)
    gt_count, pred_count = seq.gt_count, seq.pred_count
    ng, np_ = gt_count.size, pred_count.size
    potential = np.zeros((ng, np_))
    overlapping = [(g_pos, p_pos, sim) for g_pos, p_pos, sim in seq.frames if sim.size]
    for g_pos, p_pos, sim in overlapping:
        denom = sim.sum(axis=0)[None, :] + sim.sum(axis=1)[:, None] - sim
        norm = np.zeros_like(sim)
        np.divide(sim, denom, out=norm, where=denom > 1e-12)
        potential[g_pos[:, None], p_pos] += norm
    alignment = potential / (gt_count[:, None] + pred_count[None, :] - potential)
    matches = np.zeros((na, ng, np_))
    for g_pos, p_pos, sim in overlapping:
        rank = np.arange(sim.shape[0])[:, None] * (sim.shape[1] + 1) + np.arange(sim.shape[1])
        score = alignment[g_pos[:, None], p_pos] * sim - _TIE_EPS * rank
        rows, cols = linear_sum_assignment(-score)
        # one row per alpha; a frame's matched pairs are distinct
        keep = sim[rows, cols] >= HOTA_ALPHAS[:, None] - 1e-12
        matches[:, g_pos[rows], p_pos[cols]] += keep
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


def _score(
    gt: Iterable[BoxRecord], pred: Iterable[BoxRecord], iou_threshold: float
) -> tuple[MotaResult, Idf1Result, HotaResult]:
    """The three scorers on one preparation of a sequence."""
    check_iou_threshold(iou_threshold)
    seq = _prepare(gt, pred)
    return _mota(seq, iou_threshold), _idf1(seq, iou_threshold), _hota(seq)


def evaluate(
    gt: Iterable[BoxRecord], pred: Iterable[BoxRecord], iou_threshold: float = 0.5
) -> MetricReport:
    """All metrics for one sequence."""
    m, i, h = _score(gt, pred, iou_threshold)
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
        m, i, h = _score(*sequences[name], iou_threshold)
        fp += m.fp
        idfp += i.idfp
        h_fp += h.fp
        if m.undefined or h.undefined:
            continue
        any_defined = True
        tp += m.tp
        fn += m.fn
        idsw += m.idsw
        num_gt += m.num_gt
        idtp += i.idtp
        idfn += i.idfn
        h_tp += h.tp
        h_fn += h.fn
        h_ass_sum += h.ass * h.tp
    if not any_defined:  # no ground truth anywhere: IDF1 follows _idf1's rule
        nanv = float("nan")
        idf1_v = 0.0 if idfp else 1.0
        return MetricReport(nanv, idf1_v, nanv, nanv, nanv, 0, 0, fp, 0, 0, idfp, 0, 0, True)
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


def render_report(report: MetricReport) -> str:
    """Stable key=value lines, one metric per line."""
    lines = []
    for key in (field.name for field in fields(report)):
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
