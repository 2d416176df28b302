"""MOT evaluation: CLEAR (MOTA/IDSW), ID measures (IDF1), and HOTA.

All three families read (frame, track_id, box) boxes on each side, either as
``BoxRecord``s or as one ``BoxColumns``: an int64 frame and track id column
and an (n, 4) float64 box column, which ``records_from_result`` builds from
a tracked clip.  Records are turned into columns once; both forms then take
the same checks and are sorted by (frame, track id) in one pass per sequence
that also computes same-frame IoUs in bounded array blocks.  The pass is a
sort and sweep: per frame the pred boxes are sorted by left edge, and each
gt box takes as candidates only the preds whose left edge lies between its
left edge less the widest pred (and a rounding margin) and its right edge,
which holds every pred it overlaps on x.  Of those it takes each pair's
overlap on x and on y, as the IoU computes them, and a full IoU only for the
pairs that overlap on both; it keeps the overlapping pairs (IoU > 0) as flat
arrays in frame order, and every other same-frame pair has IoU exactly 0.
A sequence whose box magnitudes would over- or underflow an IoU is first
scaled by a power of two, which leaves IoUs as they are.  Per frame
matching maximizes matched count and then total IoU via the Hungarian
algorithm; exact ties resolve toward lexicographically smaller (gt, pred)
pairs through an index perturbation far below metric tolerance.
MOTA applies the CLEAR persistence rule (a previous frame's pairing is
kept while its IoU stays above threshold).  IDF1 solves the global
trajectory matching exactly.  HOTA follows the reference two-pass scheme:
a global alignment score from normalized per-frame similarities guides the
per-frame matching, then 19 IoU thresholds are scored and averaged.

HOTA's first pass builds no matrix.  A pair's normalized similarity
x / ((column sum + row sum) - x) needs only its pred's column sum and its gt
box's row sum in the frame's IoU matrix, and it takes each with the bits
numpy's sum of that matrix gives it.  An axis-0 sum adds the rows in order,
so a ``bincount`` over the pairs in (gt, pred) order gives a column sum; a
one-column matrix is the exception, as numpy sums it as one contiguous row.
A row sum is pairwise, in an order set by the row's length alone, so the gt
rows of all frames with the same number of preds are stacked into dense
blocks and summed along axis 1.  So one rule covers every frame: a pair
that shares no box gets x / ((x + x) - x) = 1.0 (0 where x <= 1e-12, by the
division guard).  Each pair's similarities add up in frame order.

Only contested frames, where two candidate pairs share a box, get a dense
IoU matrix and the solver.  The other frames are scored as arrays, with the
same bits:

- MOTA: where the pairs at IoU >= threshold share no box, the matching of
  maximal count is exactly those pairs, whatever the previous frame carries.
- HOTA's second pass: where the overlapping pairs share no box and each
  scores alignment * IoU above the largest tie-break perturbation an
  assignment of the frame can carry, every optimum holds all of those
  pairs; the solver's other pairs have IoU 0 and count at no threshold.
- IDF1: overlaps are integer counts, so their order does not matter.

HOTA's second pass takes the frames it solves in runs of consecutive frames.
A run is one padded (frames, most gt boxes, most preds) stack of at most
``_BLOCK_PAIRS`` cells, or a single frame larger than that.  The IoUs, each
box's id position, the tie-break rank and the score are taken once per
stack, elementwise as for a single frame; the solver is called once per
frame, on that frame's corner of the stack.  The match counts per (gt id,
pred id) are then built for one threshold at a time.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from itertools import chain
from operator import attrgetter
from typing import Iterable, Mapping, Union

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = [
    "BoxRecord",
    "BoxColumns",
    "MotaResult",
    "Idf1Result",
    "HotaResult",
    "MetricReport",
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


@dataclass(frozen=True, eq=False)
class BoxColumns:
    """Tracked boxes as columns: box i lies at frame ``frame[i]`` on track
    ``track_id[i]`` with (left, top, width, height) ``box[i]``.  The columns
    are stored as int64, int64 and (n, 4) float64 arrays; a column whose
    values do not cast safely to its type, or whose shape does not fit the
    others, raises."""

    frame: np.ndarray
    track_id: np.ndarray
    box: np.ndarray

    def __post_init__(self):
        for name, dtype in (("frame", np.int64), ("track_id", np.int64), ("box", np.float64)):
            column = np.asarray(getattr(self, name))
            if not np.can_cast(column.dtype, dtype):
                raise ValueError(f"{name} must hold {np.dtype(dtype)} values, got {column.dtype}")
            object.__setattr__(self, name, column.astype(dtype, copy=False))
        n = self.frame.shape[:1]
        if self.frame.ndim != 1 or self.track_id.shape != n or self.box.shape != (*n, 4):
            raise ValueError(
                f"columns must be frame (n,), track_id (n,) and box (n, 4), got "
                f"{self.frame.shape}, {self.track_id.shape} and {self.box.shape}"
            )


Boxes = Union[Iterable[BoxRecord], BoxColumns]


def records_from_result(result) -> BoxColumns:
    """An inference TrackResult's boxes as columns, track by track in id
    order and in frame order within a track.  Each ``Detection`` has checked
    its frame and box, and the ``TrackResult`` its track ids."""
    ids = sorted(result.trajectories)
    trajectories = [result.trajectories[tid] for tid in ids]
    dets = list(chain.from_iterable(trajectories))
    n = len(dets)
    return BoxColumns(
        np.fromiter(map(attrgetter("frame"), dets), np.int64, n),
        np.repeat(np.array(ids, dtype=np.int64), list(map(len, trajectories))),
        np.fromiter(chain.from_iterable(map(attrgetter("box"), dets)), np.float64, 4 * n)
        .reshape(n, 4),
    )


# The IoU pass takes gt boxes in blocks of at most this many box pairs (or one
# gt box), so its working arrays stay small however long the sequence is;
# HOTA's row sums stack at most this many matrix cells (or one row) at once,
# and so do the frames its second pass solves (or one frame).
_BLOCK_PAIRS = 1 << 14

# Box magnitudes in [2**-510, 2**510) give the IoU no overflow, and the largest
# box a normal area; a sequence past them is scaled into that range.
_SAFE_EXP = 510


@dataclass
class _Sequence:
    """One sequence's records, validated and grouped once.  Boxes are sorted
    by (frame, track id); an id's position is its index among its side's
    sorted ids, so position order is id order.  Of the same-frame box pairs
    only the overlapping ones are kept, ordered by gt box, then pred box: by
    frame, then gt position, then pred position."""

    gt_pos: np.ndarray  # id position of each gt box
    pred_pos: np.ndarray
    gt_start: np.ndarray  # frame k's gt boxes are gt_start[k]:gt_start[k + 1]
    pred_start: np.ndarray
    frame: np.ndarray  # frame index of each overlapping pair
    gt: np.ndarray  # gt box of each overlapping pair
    pred: np.ndarray
    iou: np.ndarray
    gt_count: np.ndarray  # boxes per gt position
    pred_count: np.ndarray


def _int64_column(values: list, name: str, owners: Iterable) -> np.ndarray:
    """The values as int64; a value that is not an integer (``operator.index``
    fails) or lies outside int64 raises, naming its owner."""
    column = np.array(values)
    if column.dtype == np.int64 and column.ndim == 1:  # ints in range, the usual case
        return column
    for owner, value in zip(owners, values):
        try:
            ok = -(1 << 63) <= operator.index(value) < 1 << 63
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(
                f"{name} must be an integer in [-2**63, 2**63), got {value!r} in {owner}"
            )
    return np.fromiter(map(operator.index, values), np.int64, len(values))


def _columns(records: list[BoxRecord]) -> BoxColumns:
    """The records as columns; a box that is not four values, or a frame or
    track id that is not an int64 integer, raises, naming its record."""
    boxes = list(map(attrgetter("box"), records))
    if not set(map(len, boxes)) <= {4}:
        r = next(r for r, box in zip(records, boxes) if len(box) != 4)
        raise ValueError(f"box must hold 4 values (left, top, width, height), got {r.box} in {r}")
    return BoxColumns(
        _int64_column(list(map(attrgetter("frame"), records)), "frame", records),
        _int64_column(list(map(attrgetter("track_id"), records)), "track_id", records),
        np.fromiter(chain.from_iterable(boxes), np.float64, 4 * len(boxes)).reshape(-1, 4),
    )


def _sorted_records(records: Boxes, side: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frames, id positions and boxes, sorted by (frame, track id); records
    are turned into columns first.  A box that is not finite or has no area,
    or a repeated (frame, track id), raises, naming the side ("gt" or
    "result") and the track."""
    if not isinstance(records, BoxColumns):
        records = _columns(list(records))
    frame, track, boxes = records.frame, records.track_id, records.box
    bad = ~np.isfinite(boxes).all(axis=1) | (boxes[:, 2] <= 0.0) | (boxes[:, 3] <= 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"{side}: track {track[i]} has degenerate box {tuple(boxes[i].tolist())} "
            f"at frame {frame[i]}"
        )
    order = np.lexsort((track, frame))
    frame, track, boxes = frame[order], track[order], boxes[order]
    twice = np.flatnonzero((frame[1:] == frame[:-1]) & (track[1:] == track[:-1]))
    if twice.size:
        i = twice[0]
        raise ValueError(f"{side}: track {track[i]} appears twice in frame {frame[i]}")
    return frame, np.unique(track, return_inverse=True)[1], boxes


def _rescaled(g_box: np.ndarray, p_box: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The boxes of both sides, scaled by one power of two when their largest
    magnitude lies outside [2**-510, 2**510): past it a right edge, an area or
    a sum of two areas could overflow, and below it the largest box's area
    underflows.  The scaling is exact for every value that stays normal, so
    it changes no IoU that did not over- or underflow; other sequences keep
    their bits."""
    top = max(np.abs(g_box).max(initial=0.0), np.abs(p_box).max(initial=0.0))
    exp = int(np.frexp(top)[1])  # top lies in [2**(exp - 1), 2**exp); 0 for none
    if -_SAFE_EXP < exp <= _SAFE_EXP:
        return g_box, p_box
    return np.ldexp(g_box, _SAFE_EXP - exp), np.ldexp(p_box, _SAFE_EXP - exp)


def _prepare(gt: Boxes, pred: Boxes) -> _Sequence:
    g_frame, g_pos, g_box = _sorted_records(gt, "gt")
    p_frame, p_pos, p_box = _sorted_records(pred, "result")
    g_box, p_box = _rescaled(g_box, p_box)
    frames = np.union1d(g_frame, p_frame)
    g_start = np.concatenate(([0], np.searchsorted(g_frame, frames, "right")))
    p_start = np.concatenate(([0], np.searchsorted(p_frame, frames, "right")))
    at = np.searchsorted(frames, g_frame)  # frame index of each gt box
    # each box's edges and area as the IoU computes them
    g_left, g_top, p_left, p_top = g_box[:, 0], g_box[:, 1], p_box[:, 0], p_box[:, 1]
    g_right, g_bottom = g_left + g_box[:, 2], g_top + g_box[:, 3]
    p_right, p_bottom = p_left + p_box[:, 2], p_top + p_box[:, 3]
    g_area, p_area = g_box[:, 2] * g_box[:, 3], p_box[:, 2] * p_box[:, 3]
    # a pred overlaps a gt box on x only if its left edge lies in (gt left -
    # widest pred, gt right); the margin keeps a pred whose right edge rounds
    # past the gt's left edge inside the bound
    widest = p_box[:, 2].max(initial=0.0)
    lo = (g_left - widest) - (np.abs(g_left) + widest) * 2.0**-40
    # the preds and both bounds by frame, then by value (a tie either way
    # is a pred without x overlap); a frame index sorts stably in one
    # radix pass when it fits 16 bits
    order = np.argsort(np.concatenate((p_left, lo, g_right)))
    frame = np.concatenate((np.searchsorted(frames, p_frame), at, at))
    order = order[np.argsort(frame.astype(np.min_scalar_type(frames.size))[order], kind="stable")]
    is_pred = order < p_frame.size
    by_left = order[is_pred]  # pred boxes by frame, then left edge
    below = np.empty(order.size, np.intp)  # preds placed before each entry
    below[order] = np.cumsum(is_pred) - is_pred
    first, stop = below[p_frame.size:].reshape(2, -1)
    count = stop - first  # candidates of each gt box: by_left[first:stop]
    ends = np.cumsum(count)
    shift = first - (ends - count)  # candidate index + shift = place in by_left
    kept = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    r0 = 0
    while r0 < g_frame.size:
        done = ends[r0 - 1] if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(ends, done + _BLOCK_PAIRS, "right")))
        each = count[r0:r1]
        g = np.repeat(np.arange(r0, r1), each)  # gt box of each pair
        p = by_left[np.arange(done, ends[r1 - 1]) + np.repeat(shift[r0:r1], each)]
        r0 = r1
        # the IoU's sides, elementwise as it computes them; a pair without
        # overlap on y or on x has no intersection, so it has IoU 0 and is not
        # kept
        side = np.minimum(g_bottom[g], p_bottom[p]) - np.maximum(g_top[g], p_top[p])
        over = side > 0.0
        g, p, y = g[over], p[over], side[over]
        side = np.minimum(g_right[g], p_right[p]) - np.maximum(g_left[g], p_left[p])
        over = side > 0.0
        g, p, inter = g[over], p[over], side[over] * y[over]
        # elementwise, so bitwise equal to the scalar IoU
        union = g_area[g] + p_area[p] - inter
        iou = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)
        hit = iou > 0.0
        kept.append((g[hit], p[hit], iou[hit]))
    g, p, iou = (np.concatenate(part) for part in zip(*kept))
    order = np.argsort(g * max(p_frame.size, 1) + p)  # a gt box's candidates came by left edge
    g, p, iou = g[order], p[order], iou[order]
    return _Sequence(
        g_pos, p_pos, g_start, p_start, at[g], g, p, iou, np.bincount(g_pos), np.bincount(p_pos)
    )


def _frame(seq: _Sequence, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame k's gt and pred id positions and its dense (gt, pred) IoU matrix."""
    g0, g1 = seq.gt_start[k], seq.gt_start[k + 1]
    p0, p1 = seq.pred_start[k], seq.pred_start[k + 1]
    lo, hi = np.searchsorted(seq.frame, (k, k + 1))
    sim = np.zeros((g1 - g0, p1 - p0))
    sim[seq.gt[lo:hi] - g0, seq.pred[lo:hi] - p0] = seq.iou[lo:hi]
    return seq.gt_pos[g0:g1], seq.pred_pos[p0:p1], sim


def _contested(seq: _Sequence, candidate: np.ndarray | slice) -> np.ndarray:
    """Sorted indices of the frames where two candidate pairs share a box."""
    frame, gt, pred = seq.frame[candidate], seq.gt[candidate], seq.pred[candidate]
    shared = (np.bincount(gt)[gt] > 1) | (np.bincount(pred)[pred] > 1)
    return np.unique(frame[shared])


def _outside(seq: _Sequence, frames: np.ndarray) -> np.ndarray:
    """Which overlapping pairs lie outside the given frames."""
    inside = np.zeros(seq.gt_start.size - 1, dtype=bool)
    inside[frames] = True
    return ~inside[seq.frame]


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
    gt: Boxes, pred: Boxes, iou_threshold: float = 0.5
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
    feasible = seq.iou >= iou_threshold
    contested = _contested(seq, feasible)
    # an uncontested frame matches exactly its feasible pairs
    easy = feasible & _outside(seq, contested)
    frame = seq.frame[easy]
    gt, pred = seq.gt_pos[seq.gt[easy]], seq.pred_pos[seq.pred[easy]]
    solved: dict[int, list[tuple[int, int]]] = {}  # frame -> (gt, pred) matched
    for k in contested.tolist():
        if k - 1 in solved:
            carried = dict(solved[k - 1])  # gt -> pred matched in the previous frame
        else:
            lo, hi = np.searchsorted(frame, (k - 1, k))
            carried = dict(zip(gt[lo:hi].tolist(), pred[lo:hi].tolist()))
        g_pos, p_pos, sim = _frame(seq, k)
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
        pairs = held + [(free_g[i], free_p[j]) for i, j in matched]
        solved[k] = [(g_ids[i], p_ids[j]) for i, j in pairs]  # as id positions
    extra = np.array(
        [(k, g, p) for k, pairs in solved.items() for g, p in pairs], dtype=np.int64
    ).reshape(-1, 3)
    frame = np.concatenate((frame, extra[:, 0]))
    gt = np.concatenate((gt, extra[:, 1]))
    pred = np.concatenate((pred, extra[:, 2]))
    # a switch: a gt's pred differs from the one of its previous match
    order = np.lexsort((frame, gt))
    gt, pred = gt[order], pred[order]
    idsw = int(np.count_nonzero((gt[1:] == gt[:-1]) & (pred[1:] != pred[:-1])))
    tp = int(gt.size)
    fn = num_gt - tp
    fp = int(seq.pred_count.sum()) - tp
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
    gt: Boxes, pred: Boxes, iou_threshold: float = 0.5
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
    hit = seq.iou >= iou_threshold
    cell = seq.gt_pos[seq.gt[hit]] * np_ + seq.pred_pos[seq.pred[hit]]
    overlap = np.bincount(cell, minlength=ng * np_).reshape(ng, np_)
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


def hota(gt: Boxes, pred: Boxes) -> HotaResult:
    """HOTA with DetA and AssA, averaged over the 19-threshold grid."""
    return _hota(_prepare(gt, pred))


def _vector_sums(vector: np.ndarray, place: np.ndarray, width: np.ndarray,
                 value: np.ndarray) -> np.ndarray:
    """Each entry's sum over its vector, bitwise as numpy sums that vector as
    a dense contiguous row: entry i holds ``value[i]`` at ``place[i]`` of
    vector ``vector[i]``, which has ``width[i]`` places and 0 where no entry
    sits; a vector's entries are consecutive.  numpy sums a contiguous row
    pairwise, in an order set by its length alone, so the vectors of one
    width are stacked as the rows of dense blocks of at most ``_BLOCK_PAIRS``
    cells (or one row) and summed along axis 1."""
    order = np.argsort(width.astype(np.min_scalar_type(width.max(initial=0))), kind="stable")
    vector, place, width, value = vector[order], place[order], width[order], value[order]
    new = np.ones(vector.size, dtype=bool)
    new[1:] = vector[1:] != vector[:-1]
    row = np.cumsum(new) - 1  # the row of each entry, rows by width
    bounds = np.append(np.flatnonzero(new), vector.size)  # row r: bounds[r]:bounds[r + 1]
    row_width = width[bounds[:-1]]
    sums = np.empty(row_width.size)
    r0 = 0
    while r0 < row_width.size:
        w = int(row_width[r0])
        r1 = min(int(np.searchsorted(row_width, w, "right")), r0 + max(1, _BLOCK_PAIRS // w))
        lo, hi = bounds[r0], bounds[r1]
        block = np.zeros((r1 - r0, w))
        block[row[lo:hi] - r0, place[lo:hi]] = value[lo:hi]
        sums[r0:r1] = block.sum(axis=1)
        r0 = r1
    out = np.empty(vector.size)
    out[order] = sums[row]
    return out


def _similarity(seq: _Sequence) -> np.ndarray:
    """Each overlapping pair's normalized similarity x / ((column sum + row
    sum) - x) in its frame's IoU matrix, bitwise as computed from that matrix
    (0 where the denominator is at most 1e-12)."""
    p_n = np.diff(seq.pred_start)[seq.frame]  # preds in each pair's frame
    col_sum = np.bincount(seq.pred, seq.iou)[seq.pred]
    one = np.flatnonzero(p_n == 1)  # numpy sums a one-column matrix pairwise, as one row
    k = seq.frame[one]
    col_sum[one] = _vector_sums(seq.pred[one], seq.gt[one] - seq.gt_start[k],
                                np.diff(seq.gt_start)[k], seq.iou[one])
    row_sum = _vector_sums(seq.gt, seq.pred - seq.pred_start[seq.frame], p_n, seq.iou)
    denom = col_sum + row_sum - seq.iou
    norm = np.zeros_like(seq.iou)
    np.divide(seq.iou, denom, out=norm, where=denom > 1e-12)
    return norm


def _stacks(seq: _Sequence, frames: np.ndarray) -> list[tuple[int, int]]:
    """The sorted frames as (first, last) runs of consecutive frames whose
    (frames, most gt boxes, most preds) stack holds at most ``_BLOCK_PAIRS``
    cells; a frame larger than that is a run of its own."""
    runs = []  # [first, last, most gt boxes, most preds]
    g_n, p_n = np.diff(seq.gt_start)[frames].tolist(), np.diff(seq.pred_start)[frames].tolist()
    for k, g, p in zip(frames.tolist(), g_n, p_n):
        if runs:
            k0, k1, rows, cols = runs[-1]
            rows, cols = max(rows, g), max(cols, p)
            if k == k1 + 1 and (k - k0 + 1) * rows * cols <= _BLOCK_PAIRS:
                runs[-1] = [k0, k, rows, cols]
                continue
        runs.append([k, k, g, p])
    return [(k0, k1) for k0, k1, _, _ in runs]


def _solve_stack(seq: _Sequence, alignment: np.ndarray, k0: int, k1: int):
    """The optimal matching of HOTA's second pass in each of the frames k0 to
    k1, as the gt and pred id positions and the IoU of each matched pair.
    The frames' IoU matrices, each box's id position, the tie-break rank and
    the score alignment * IoU - rank * eps are taken once for the stack, each
    frame padded to the largest; the solver then reads each frame's corner."""
    g0, g_end = seq.gt_start[k0 : k1 + 1], seq.gt_start[k0 + 1 : k1 + 2]
    p0, p_end = seq.pred_start[k0 : k1 + 1], seq.pred_start[k0 + 1 : k1 + 2]
    g_n, p_n = g_end - g0, p_end - p0
    rows, cols = np.arange(g_n.max()), np.arange(p_n.max())
    lo, hi = np.searchsorted(seq.frame, (k0, k1 + 1))
    f = seq.frame[lo:hi] - k0
    sim = np.zeros((k1 - k0 + 1, rows.size, cols.size))
    sim[f, seq.gt[lo:hi] - g0[f], seq.pred[lo:hi] - p0[f]] = seq.iou[lo:hi]
    # a padding cell reads the run's last box, and no solver sees it
    g_pos = seq.gt_pos[np.minimum(g0[:, None] + rows, g_end[-1] - 1)]
    p_pos = seq.pred_pos[np.minimum(p0[:, None] + cols, p_end[-1] - 1)]
    # the score alignment * IoU - eps * rank, each step in place, negated for
    # the solver; a rank is as the frame's own shape gives it
    cost = alignment.take((g_pos * alignment.shape[1])[:, :, None] + p_pos[:, None, :])
    cost *= sim
    cost -= _TIE_EPS * (rows[:, None] * (p_n[:, None, None] + 1) + cols)
    np.negative(cost, out=cost)
    r, c = zip(*(linear_sum_assignment(cost[j, :g, :p])
                 for j, (g, p) in enumerate(zip(g_n.tolist(), p_n.tolist()))))
    j = np.repeat(np.arange(g_n.size), np.minimum(g_n, p_n))
    r, c = np.concatenate(r), np.concatenate(c)
    return g_pos[j, r], p_pos[j, c], sim[j, r, c]


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
    g, p = seq.gt_pos[seq.gt], seq.pred_pos[seq.pred]
    potential = np.bincount(g * np_ + p, _similarity(seq), minlength=ng * np_).reshape(ng, np_)
    both = gt_count[:, None] + pred_count[None, :]
    alignment = potential / (both - potential)
    contested = _contested(seq, slice(None))
    g_n = np.diff(seq.gt_start)[seq.frame]  # boxes in each pair's frame
    p_n = np.diff(seq.pred_start)[seq.frame]
    largest_rank = (g_n - 1) * (p_n + 1) + p_n - 1
    weak = alignment[g, p] * seq.iou <= _TIE_EPS * largest_rank * np.minimum(g_n, p_n)
    solve = np.union1d(contested, seq.frame[weak])
    easy = _outside(seq, solve)
    matched = [(g[easy], p[easy], seq.iou[easy])]  # every optimum holds these
    matched += (_solve_stack(seq, alignment, k0, k1) for k0, k1 in _stacks(seq, solve))
    m_g, m_p, m_iou = (np.concatenate(part) for part in zip(*matched))
    # one row per alpha; a frame's matched pairs are distinct, so a cell's
    # count is 0 or 1 per frame and the matches of an alpha are its kept pairs
    keep = m_iou >= HOTA_ALPHAS[:, None] - 1e-12
    tp = np.count_nonzero(keep, axis=1).astype(float)
    fn = total_gt - tp
    fp = total_pred - tp
    deta_a = tp / (total_gt + total_pred - tp)
    ass_a = np.zeros(na)
    cell = m_g * np_ + m_p
    for ai in range(na):
        if tp[ai] == 0:
            continue
        mc = np.bincount(cell[keep[ai]], minlength=ng * np_).reshape(ng, np_).astype(float)
        align = both - mc  # >= 1: a pair matches no more often than either id has boxes
        np.divide(mc, align, out=align)
        align *= mc
        ass_a[ai] = float(align.sum() / tp[ai])
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
    gt: Boxes, pred: Boxes, iou_threshold: float
) -> tuple[MotaResult, Idf1Result, HotaResult]:
    """The three scorers on one preparation of a sequence."""
    check_iou_threshold(iou_threshold)
    seq = _prepare(gt, pred)
    return _mota(seq, iou_threshold), _idf1(seq, iou_threshold), _hota(seq)


def evaluate(
    gt: Boxes, pred: Boxes, iou_threshold: float = 0.5
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
    sequences: Mapping[str, tuple[Boxes, Boxes]],
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
