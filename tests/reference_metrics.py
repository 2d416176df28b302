"""Reference tracking metrics used only to cross-check the fast path.

The ``ref_*`` scorers are brute force, written from scratch: assignments
are found by exhaustive enumeration over injective mappings rather than the
Hungarian algorithm, and the bookkeeping uses plain dicts.  They are only
feasible for tiny scenarios (a handful of tracks over a dozen frames).

The private ``_mota``, ``_idf1`` and ``_hota`` below them are the per-frame
scorers: one dense IoU matrix and one solver call per frame.  The scorers in
``langtrack.metrics`` solve only contested frames and must equal these bit
for bit.  ``iou`` is the scalar IoU the IoU pass must equal bitwise.

``ref_pair_pass`` is ``metrics._prepare``'s IoU pass as it ran before it
skipped the pairs that do not overlap on x: a full IoU for every same-frame
pair, in blocks of ``metrics._BLOCK_PAIRS``, keeping those above 0.
``_prepare`` must give its pairs and IoUs bitwise.

``pair_similarity`` is HOTA's normalized similarity of each overlapping
pair, taken from its frame's dense IoU matrix as the per-frame ``_hota``
takes it; ``metrics._similarity`` must equal it bitwise.  ``records_list``
is a tracked clip's predictions as ``BoxRecord``s, the list that
``metrics.records_from_result`` returned before it returned columns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from langtrack import metrics
from langtrack.metrics import (
    HOTA_ALPHAS,
    _TIE_EPS,
    BoxRecord,
    HotaResult,
    Idf1Result,
    MotaResult,
    _frame,
    _match,
    _sorted_records,
)


def box_iou(a, b):
    al, at, aw, ah = a
    bl, bt, bw, bh = b
    right = min(al + aw, bl + bw)
    left = max(al, bl)
    bottom = min(at + ah, bt + bh)
    top = max(at, bt)
    if right <= left or bottom <= top:
        inter = 0.0
    else:
        inter = (right - left) * (bottom - top)
    union = aw * ah + bw * bh - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def group_frames(records):
    """records: iterable of (frame, track_id, box) tuples or BoxRecord."""
    out = {}
    for r in records:
        frame, tid, box = (r.frame, r.track_id, r.box) if hasattr(r, "frame") else r
        out.setdefault(frame, {})[tid] = tuple(box)
    return out


def _enumerate_assignments(gt_items, pred_items, feasible):
    """Yield every injective set of feasible (gt_id, pred_id) pairs."""
    gt_ids = [g for g, _ in gt_items]
    pred_ids = [p for p, _ in pred_items]
    for r in range(min(len(gt_ids), len(pred_ids)) + 1):
        for g_subset in itertools.combinations(gt_ids, r):
            for p_perm in itertools.permutations(pred_ids, r):
                pairs = list(zip(g_subset, p_perm))
                if all(feasible(g, p) for g, p in pairs):
                    yield pairs


def best_frame_assignment(gt_boxes, pred_boxes, threshold):
    """Max count, then max total IoU, then lexicographically least pairs.

    gt_boxes/pred_boxes: dict id -> box for one frame.
    """
    gt_items = sorted(gt_boxes.items())
    pred_items = sorted(pred_boxes.items())
    ious = {
        (g, p): box_iou(gb, pb)
        for g, gb in gt_items
        for p, pb in pred_items
    }

    def feasible(g, p):
        return ious[(g, p)] >= threshold

    best = None
    best_key = None
    for pairs in _enumerate_assignments(gt_items, pred_items, feasible):
        total = sum(ious[pair] for pair in pairs)
        key = (-len(pairs), -total, sorted(pairs))
        if best_key is None or key < best_key:
            best_key = key
            best = sorted(pairs)
    return best or []


def ref_mota(gt_records, pred_records, threshold=0.5):
    gt = group_frames(gt_records)
    pred = group_frames(pred_records)
    num_gt = sum(len(v) for v in gt.values())
    if num_gt == 0:
        return {"mota": math.nan, "idsw": 0, "tp": 0,
                "fp": sum(len(v) for v in pred.values()), "fn": 0, "undefined": True}
    carried = {}
    history = {}
    tp = fp = fn = idsw = 0
    for f in sorted(set(gt) | set(pred)):
        g_boxes = dict(gt.get(f, {}))
        p_boxes = dict(pred.get(f, {}))
        pairs = []
        for gid in sorted(carried):
            pid = carried[gid]
            if gid in g_boxes and pid in p_boxes:
                if box_iou(g_boxes[gid], p_boxes[pid]) >= threshold:
                    pairs.append((gid, pid))
        for gid, pid in pairs:
            del g_boxes[gid]
            del p_boxes[pid]
        pairs += best_frame_assignment(g_boxes, p_boxes, threshold)
        tp += len(pairs)
        fn += len(gt.get(f, {})) - len(pairs)
        fp += len(pred.get(f, {})) - len(pairs)
        for gid, pid in sorted(pairs):
            if gid in history and history[gid] != pid:
                idsw += 1
            history[gid] = pid
        carried = dict(pairs)
    return {"mota": 1.0 - (fn + fp + idsw) / num_gt, "idsw": idsw,
            "tp": tp, "fp": fp, "fn": fn, "undefined": False}


def ref_idf1(gt_records, pred_records, threshold=0.5):
    gt = group_frames(gt_records)
    pred = group_frames(pred_records)
    gt_ids = sorted({tid for boxes in gt.values() for tid in boxes})
    pred_ids = sorted({tid for boxes in pred.values() for tid in boxes})
    gt_len = {g: sum(1 for f in gt if g in gt[f]) for g in gt_ids}
    pred_len = {p: sum(1 for f in pred if p in pred[f]) for p in pred_ids}
    overlap = {(g, p): 0 for g in gt_ids for p in pred_ids}
    for f in sorted(set(gt) | set(pred)):
        for g, gb in gt.get(f, {}).items():
            for p, pb in pred.get(f, {}).items():
                if box_iou(gb, pb) >= threshold:
                    overlap[(g, p)] += 1
    total_gt = sum(gt_len.values())
    total_pred = sum(pred_len.values())
    if total_gt == 0 and total_pred == 0:
        return {"idf1": 1.0, "idtp": 0, "idfp": 0, "idfn": 0, "degenerate": True}
    # Zero-overlap pairings never hurt, so scanning complete injective
    # mappings of the smaller side finds the maximum total overlap.
    best = 0
    if gt_ids and pred_ids:
        if len(gt_ids) <= len(pred_ids):
            for perm in itertools.permutations(pred_ids, len(gt_ids)):
                best = max(best, sum(overlap[(g, p)] for g, p in zip(gt_ids, perm)))
        else:
            for perm in itertools.permutations(gt_ids, len(pred_ids)):
                best = max(best, sum(overlap[(g, p)] for p, g in zip(pred_ids, perm)))
    idtp = best
    idfn = total_gt - idtp
    idfp = total_pred - idtp
    return {"idf1": 2.0 * idtp / (2.0 * idtp + idfp + idfn),
            "idtp": idtp, "idfp": idfp, "idfn": idfn, "degenerate": False}


def _best_score_assignment(gt_ids, pred_ids, score):
    """Maximize total score over injective pairings; lexicographic ties."""
    best = []
    best_key = None
    n = min(len(gt_ids), len(pred_ids))
    for g_subset in itertools.combinations(range(len(gt_ids)), n):
        for p_perm in itertools.permutations(range(len(pred_ids)), n):
            pairs = list(zip(g_subset, p_perm))
            total = sum(score[g][p] for g, p in pairs)
            key = (-total, sorted(pairs))
            if best_key is None or key < best_key:
                best_key = key
                best = sorted(pairs)
    return best


def ref_hota(gt_records, pred_records):
    gt = group_frames(gt_records)
    pred = group_frames(pred_records)
    gt_ids = sorted({tid for boxes in gt.values() for tid in boxes})
    pred_ids = sorted({tid for boxes in pred.values() for tid in boxes})
    total_gt = sum(len(v) for v in gt.values())
    total_pred = sum(len(v) for v in pred.values())
    alphas = [0.05 * i for i in range(1, 20)]
    if total_gt == 0:
        return {"hota": math.nan, "deta": math.nan, "assa": math.nan, "undefined": True}
    gt_count = {g: sum(1 for f in gt if g in gt[f]) for g in gt_ids}
    pred_count = {p: sum(1 for f in pred if p in pred[f]) for p in pred_ids}
    potential = {(g, p): 0.0 for g in gt_ids for p in pred_ids}
    frames = sorted(set(gt) | set(pred))
    for f in frames:
        g_here = sorted(gt.get(f, {}))
        p_here = sorted(pred.get(f, {}))
        sim = {(g, p): box_iou(gt[f][g], pred[f][p]) for g in g_here for p in p_here}
        for g in g_here:
            for p in p_here:
                denom = (sum(sim[(g2, p)] for g2 in g_here)
                         + sum(sim[(g, p2)] for p2 in p_here) - sim[(g, p)])
                if denom > 1e-12:
                    potential[(g, p)] += sim[(g, p)] / denom
    alignment = {
        (g, p): potential[(g, p)] / (gt_count[g] + pred_count[p] - potential[(g, p)])
        for g in gt_ids for p in pred_ids
    }
    match_count = [{(g, p): 0 for g in gt_ids for p in pred_ids} for _ in alphas]
    for f in frames:
        g_here = sorted(gt.get(f, {}))
        p_here = sorted(pred.get(f, {}))
        if not g_here or not p_here:
            continue
        sim = [[box_iou(gt[f][g], pred[f][p]) for p in p_here] for g in g_here]
        score = [
            [alignment[(g, p)] * sim[i][j] for j, p in enumerate(p_here)]
            for i, g in enumerate(g_here)
        ]
        pairs = _best_score_assignment(g_here, p_here, score)
        for ai, alpha in enumerate(alphas):
            for i, j in pairs:
                if sim[i][j] >= alpha - 1e-12:
                    match_count[ai][(g_here[i], p_here[j])] += 1
    hota_sum = deta_sum = assa_sum = 0.0
    for ai in range(len(alphas)):
        tp = sum(match_count[ai].values())
        deta = tp / (total_gt + total_pred - tp)
        if tp:
            acc = 0.0
            for (g, p), mc in match_count[ai].items():
                if mc:
                    acc += mc * (mc / (gt_count[g] + pred_count[p] - mc))
            assa = acc / tp
        else:
            assa = 0.0
        hota_sum += math.sqrt(deta * assa)
        deta_sum += deta
        assa_sum += assa
    n = len(alphas)
    return {"hota": hota_sum / n, "deta": deta_sum / n, "assa": assa_sum / n,
            "undefined": False}


# -- the scalar IoU and the per-frame scorers, moved here from langtrack.metrics


def iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection over union of two (left, top, width, height) boxes."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0.0 else 0.0


def ref_pair_pass(gt, pred) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Frame index, gt box, pred box and IoU of every same-frame pair of the
    records with IoU > 0, ordered by gt box, then pred box (as ``_prepare``
    sorts and numbers them), from a full IoU of every same-frame pair."""
    g_frame, _, g_box = _sorted_records(gt, "gt")
    p_frame, _, p_box = _sorted_records(pred, "result")
    frames = np.union1d(g_frame, p_frame)
    p_start = np.concatenate(([0], np.searchsorted(p_frame, frames, "right")))
    at = np.searchsorted(frames, g_frame)  # frame index of each gt box
    width = np.diff(p_start)[at]  # pred boxes in each gt box's frame
    offsets = np.concatenate(([0], np.cumsum(width)))  # gt box i's pairs: offsets[i:i+2]
    shift = p_start[at] - offsets[:-1]  # pair index + shift = pred box index
    kept = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    rows = max(1, metrics._BLOCK_PAIRS // max(1, int(width.max(initial=0))))
    for r0 in range(0, g_frame.size, rows):
        r1 = min(r0 + rows, g_frame.size)
        g = np.repeat(np.arange(r0, r1), width[r0:r1])  # gt box of each pair
        p = np.arange(offsets[r0], offsets[r1]) + shift[g]
        a, b = g_box[g], p_box[p]
        lo = np.maximum(a[:, :2], b[:, :2])
        hi = np.minimum(a[:, :2] + a[:, 2:], b[:, :2] + b[:, 2:])
        side = np.maximum(hi - lo, 0.0)
        inter = side[:, 0] * side[:, 1]
        union = a[:, 2] * a[:, 3] + b[:, 2] * b[:, 3] - inter
        iou = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)
        hit = iou > 0.0
        kept.append((g[hit], p[hit], iou[hit]))
    g, p, iou = (np.concatenate(part) for part in zip(*kept))
    return at[g], g, p, iou


def records_list(result) -> list[BoxRecord]:
    """A TrackResult's boxes as records, by track id, then in trajectory order."""
    return [BoxRecord(d.frame, tid, tuple(d.box)) for tid, d in result.iter_detections()]


def pair_similarity(seq) -> np.ndarray:
    """Each overlapping pair's x / ((column sum + row sum) - x) in its frame's
    dense IoU matrix of a ``metrics._Sequence``."""
    out = np.zeros(seq.iou.size)
    for k in range(seq.gt_start.size - 1):
        lo, hi = np.searchsorted(seq.frame, (k, k + 1))
        _, _, sim = _frame(seq, k)
        denom = sim.sum(axis=0)[None, :] + sim.sum(axis=1)[:, None] - sim
        norm = np.zeros_like(sim)
        np.divide(sim, denom, out=norm, where=denom > 1e-12)
        out[lo:hi] = norm[seq.gt[lo:hi] - seq.gt_start[k], seq.pred[lo:hi] - seq.pred_start[k]]
    return out


@dataclass
class FrameSequence:
    """A prepared sequence as one (gt positions, pred positions, dense IoU)
    entry per frame that has a box."""

    frames: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    gt_count: np.ndarray
    pred_count: np.ndarray


def per_frame(seq) -> FrameSequence:
    """Every frame of a ``metrics._Sequence``, densely."""
    frames = [_frame(seq, k) for k in range(seq.gt_start.size - 1)]
    return FrameSequence(frames, seq.gt_count, seq.pred_count)


def _mota(seq: FrameSequence, iou_threshold: float) -> MotaResult:
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


def _idf1(seq: FrameSequence, iou_threshold: float) -> Idf1Result:
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


def _hota(seq: FrameSequence) -> HotaResult:
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
