import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import reference_metrics as per_frame_ref
from langtrack import metrics
from langtrack.data_io import SceneAttributes
from langtrack.inference import TrackerConfig, track_video
from langtrack.metrics import (
    BoxColumns,
    BoxRecord,
    HOTA_ALPHAS,
    evaluate,
    evaluate_sequences,
    hota,
    idf1,
    mota,
    records_from_result,
    render_report,
    render_table,
)
from langtrack.metrics import _frame, _match, _prepare
from langtrack.model import ModelConfig, init_model
from langtrack.synth import SynthConfig, gen_sequence, identity_profile
from reference_metrics import (
    iou,
    pair_similarity,
    per_frame,
    records_list,
    ref_hota,
    ref_idf1,
    ref_mota,
    ref_pair_pass,
)


def recs(rows):
    return [BoxRecord(f, t, tuple(float(x) for x in box)) for f, t, box in rows]


BOX = (0.0, 0.0, 10.0, 10.0)


def frame_matches(gt, pred, threshold=0.5):
    """(gt id, pred id) pairs per frame from independent per-frame matching."""
    seq = _prepare(gt, pred)
    frames = sorted({r.frame for r in [*gt, *pred]})
    gt_ids = sorted({r.track_id for r in gt})
    pred_ids = sorted({r.track_id for r in pred})
    assert seq.gt_start.size - 1 == len(frames)
    out = {}
    for k, f in enumerate(frames):
        g_pos, p_pos, sim = _frame(seq, k)
        pairs = _match(sim, threshold)
        out[f] = [(gt_ids[g_pos[i]], pred_ids[p_pos[j]]) for i, j in pairs]
    return out


def frame_iou(gt, pred):
    """The IoU matrix of the only frame of ``gt`` and ``pred``."""
    seq = _prepare(gt, pred)
    assert seq.gt_start.size == 2
    return _frame(seq, 0)[2]


def straight_track(tid, frames, box=BOX):
    return [(f, tid, box) for f in frames]


def id_switch_scenario():
    gt = recs(straight_track(1, range(1, 11)))
    pred = recs(straight_track(1, range(1, 6)) + straight_track(2, range(6, 11)))
    return gt, pred


def random_scenario(rng):
    n_tracks = int(rng.integers(1, 6))
    n_frames = int(rng.integers(3, 13))
    gt = []
    pred = []
    next_id = 1000
    for t in range(1, n_tracks + 1):
        x = rng.uniform(0.0, 80.0)
        y = rng.uniform(0.0, 60.0)
        w = rng.uniform(4.0, 10.0)
        h = rng.uniform(6.0, 14.0)
        start = int(rng.integers(1, n_frames))
        end = int(rng.integers(start, n_frames + 1))
        pid = t
        for f in range(start, end + 1):
            x += rng.normal(0.0, 1.5)
            y += rng.normal(0.0, 1.5)
            gt.append((f, t, (x, y, w, h)))
            if rng.random() < 0.12:
                continue
            if rng.random() < 0.1:
                pid = next_id
                next_id += 1
            pred.append((
                f, pid,
                (x + rng.normal(0.0, 0.8), y + rng.normal(0.0, 0.8),
                 w * rng.uniform(0.85, 1.15), h * rng.uniform(0.85, 1.15)),
            ))
    for _ in range(int(rng.integers(0, 4))):
        pred.append((
            int(rng.integers(1, n_frames + 1)), next_id,
            (rng.uniform(0.0, 90.0), rng.uniform(0.0, 70.0),
             rng.uniform(3.0, 8.0), rng.uniform(3.0, 8.0)),
        ))
        next_id += 1
    return gt, pred


class TestIou:
    def test_identical_boxes(self):
        assert iou(BOX, BOX) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BOX, (20.0, 0.0, 10.0, 10.0)) == 0.0

    def test_half_height_overlap(self):
        assert iou(BOX, (0.0, 0.0, 10.0, 5.0)) == pytest.approx(0.5)

    def test_symmetry(self):
        a = (1.0, 2.0, 7.0, 3.0)
        b = (4.0, 1.0, 5.0, 6.0)
        assert iou(a, b) == pytest.approx(iou(b, a))

    def test_matrix_is_bitwise_the_scalar_iou(self):
        rng = np.random.default_rng(0)
        boxes = [
            BOX,
            (10.0, 0.0, 10.0, 10.0),  # touches BOX on its right edge
            (0.0, 10.0, 10.0, 10.0),  # touches BOX on its bottom edge
            (10.0, 10.0, 5.0, 5.0),  # touches BOX at a corner
            (20.0, 0.0, 10.0, 10.0),  # disjoint
            (2.0, 2.0, 3.0, 3.0),  # inside BOX
            (-5.0, -5.0, 5.0, 5.0),  # touches BOX at the origin
        ]
        # integer grid boxes touch and coincide often; the rest overlap at random
        boxes += [tuple(float(c) for c in rng.integers(0, 6, 2)) + tuple(
            float(c) for c in rng.integers(1, 4, 2)) for _ in range(150)]
        boxes += [tuple(float(c) for c in b) for b in rng.uniform(0.1, 30.0, (350, 4))]
        rows = recs([(1, i, b) for i, b in enumerate(boxes)])
        scalar = np.array([[iou(a, b) for b in boxes] for a in boxes])
        matrix = frame_iou(rows, rows)
        assert matrix.tobytes() == scalar.tobytes()
        assert (matrix == 0.0).any() and (matrix == 1.0).any()
        assert frame_iou(rows[:3], []).shape == (3, 0)

    @pytest.mark.parametrize("cap", [1, 7, metrics._BLOCK_PAIRS])
    def test_blocked_iou_is_bitwise_the_scalar_iou_per_frame(self, cap, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK_PAIRS", cap)
        rng = np.random.default_rng(cap)
        for _ in range(20):
            gt_rows, pred_rows = random_scenario(rng)
            # a frame with gt boxes only, and one with pred boxes only
            gt_rows.append((40, 1, (1.0, 2.0, 3.0, 4.0)))
            pred_rows += [(41, 1, (1.0, 2.0, 3.0, 4.0)), (41, 2, (2.0, 2.0, 3.0, 4.0))]
            gt, pred = recs(gt_rows), recs(pred_rows)
            seq = _prepare(gt[::-1], pred)  # input order does not matter
            frames = sorted({r.frame for r in gt + pred})
            assert seq.gt_start.size - 1 == len(frames)
            assert (seq.iou > 0.0).all()  # only overlapping pairs are kept
            for k, f in enumerate(frames):
                g_pos, p_pos, sim = _frame(seq, k)
                g_boxes = [r.box for r in sorted(gt, key=lambda r: r.track_id) if r.frame == f]
                p_boxes = [r.box for r in sorted(pred, key=lambda r: r.track_id) if r.frame == f]
                scalar = np.array([[iou(a, b) for b in p_boxes] for a in g_boxes])
                assert sim.shape == (len(g_boxes), len(p_boxes))
                assert sim.tobytes() == scalar.tobytes()
                assert len(g_pos) == len(g_boxes) and len(p_pos) == len(p_boxes)


# boxes that touch BOX on an edge (an overlap of zero width on x or on y) or
# at a corner, lie inside it, equal it, or reach below zero
EDGE_CASE_BOXES = [
    BOX,
    (10.0, 0.0, 10.0, 10.0),
    (0.0, 10.0, 10.0, 10.0),
    (10.0, 10.0, 5.0, 5.0),
    (-5.0, -5.0, 5.0, 5.0),
    (-5.0, 2.0, 5.0, 3.0),
    (2.0, 2.0, 3.0, 3.0),
    (0.0, 0.0, 10.0, 3.0),
    (-8.0, -3.0, 9.0, 6.0),
    (-30.0, -30.0, 5.0, 5.0),
    (20.0, 0.0, 10.0, 10.0),
]


def edge_case_scenario(rng):
    """The edge-case boxes on both sides of frame 1, then frames of grid
    boxes (which touch and coincide often) and of random boxes at multiples of
    1/64 with coordinates of either sign, a frame with gt boxes only and one
    with pred boxes only."""
    gt = [(1, i, b) for i, b in enumerate(EDGE_CASE_BOXES)]
    pred = [(1, i, b) for i, b in enumerate(EDGE_CASE_BOXES[::-1])]
    for f in range(2, 8):
        for side in (gt, pred):
            for i in range(int(rng.integers(0, 12))):
                if f % 2:
                    box = [*rng.integers(-4, 5, 2), *rng.integers(1, 4, 2)]
                else:
                    box = [*np.round(rng.uniform(-20.0, 20.0, 2) * 64.0) / 64.0,
                           *np.round(rng.uniform(0.5, 12.0, 2) * 64.0) / 64.0]
                side.append((f, i, box))
    gt.append((8, 0, BOX))
    pred.append((9, 0, BOX))
    return gt, pred


def assert_same_pairs(seq, ref):
    for got, want in zip((seq.frame, seq.gt, seq.pred, seq.iou), ref):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestIouPass:
    @pytest.mark.parametrize("cap", [1, 7, metrics._BLOCK_PAIRS])
    def test_pairs_are_the_unfiltered_pass_bitwise(self, cap, monkeypatch):
        # _prepare takes a full IoU only of pairs that overlap on x
        monkeypatch.setattr(metrics, "_BLOCK_PAIRS", cap)
        rng = np.random.default_rng(cap)
        for _ in range(5):
            gt_rows, pred_rows = edge_case_scenario(rng)
            # tiny and huge scales at which no area or edge over- or underflows
            for scale in (1.0, 1e-150, 1e150):
                gt = recs([(f, t, np.multiply(b, scale)) for f, t, b in gt_rows])
                pred = recs([(f, t, np.multiply(b, scale)) for f, t, b in pred_rows])
                ref = ref_pair_pass(gt, pred)
                assert ref[3].size and (ref[3] == 1.0).any()
                assert_same_pairs(_prepare(gt, pred), ref)
            # past them, _prepare scales by a power of two back into range
            ref = ref_pair_pass(recs(gt_rows), recs(pred_rows))
            for exp in (-900, 600, 1000):
                gt = recs([(f, t, np.ldexp(b, exp)) for f, t, b in gt_rows])
                pred = recs([(f, t, np.ldexp(b, exp)) for f, t, b in pred_rows])
                assert_same_pairs(_prepare(gt, pred), ref)

    @pytest.mark.parametrize("cap", [1, 7, metrics._BLOCK_PAIRS])
    def test_crowded_frames_are_the_unfiltered_pass_bitwise(self, cap, monkeypatch):
        # 64-96 boxes per frame, preds up to 60 wide against gts up to 6, and
        # preds that touch a gt box at the sweep's bounds: a widest pred
        # ending at the gt's left edge (its left edge on gt left - widest) or
        # a float step either side of that, and preds starting at the gt's
        # right edge or a float step before it
        monkeypatch.setattr(metrics, "_BLOCK_PAIRS", cap)
        rng = np.random.default_rng(cap)
        widest = 60.0
        gt_rows, pred_rows = [], []
        for f in range(1, 5):
            for i in range(int(rng.integers(64, 97))):
                box = [rng.uniform(0.0, 300.0), rng.uniform(0.0, 40.0), *rng.uniform(1.0, 6.0, 2)]
                gt_rows.append((f, i, box))
            for i in range(int(rng.integers(64, 97))):
                box = [rng.uniform(-40.0, 300.0), rng.uniform(-10.0, 40.0),
                       rng.uniform(1.0, widest), rng.uniform(1.0, 20.0)]
                pred_rows.append((f, i, box))
            pred_rows.append((f, 1000, [-80.0, 0.0, widest, 400.0]))  # the widest pred
            for _, i, (g_left, g_top, g_w, _) in gt_rows[-8:]:
                touching = [
                    (g_left - widest, widest),
                    (math.nextafter(g_left - widest, math.inf), widest),
                    (math.nextafter(g_left - widest, -math.inf), widest),
                    (g_left + g_w, 3.0),
                    (math.nextafter(g_left + g_w, -math.inf), 3.0),
                ]
                pred_rows += [(f, 1001 + 5 * i + j, [x, g_top, w, 4.0])
                              for j, (x, w) in enumerate(touching)]
        assert max(b[2] for _, _, b in pred_rows) == widest
        ref = ref_pair_pass(recs(gt_rows), recs(pred_rows))
        assert ref[3].size > 500
        for scale in (1.0, 1e-150, 1e150):
            gt = recs([(f, t, np.multiply(b, scale)) for f, t, b in gt_rows])
            pred = recs([(f, t, np.multiply(b, scale)) for f, t, b in pred_rows])
            assert_same_pairs(_prepare(gt, pred), ref_pair_pass(gt, pred))
        for exp in (-900, 600, 1000):
            gt = recs([(f, t, np.ldexp(b, exp)) for f, t, b in gt_rows])
            pred = recs([(f, t, np.ldexp(b, exp)) for f, t, b in pred_rows])
            assert_same_pairs(_prepare(gt, pred), ref)

    def test_scaling_by_a_power_of_two_keeps_the_report(self):
        rng = np.random.default_rng(600)
        for _ in range(10):
            gt_rows, pred_rows = random_scenario(rng)
            scaled = [recs([(f, t, np.ldexp(b, 600)) for f, t, b in rows])
                      for rows in (gt_rows, pred_rows)]
            assert evaluate(*scaled) == evaluate(recs(gt_rows), recs(pred_rows))

    @pytest.mark.parametrize("side", [1e-200, 1e155, 1e200, 1e300])
    def test_identical_boxes_at_extreme_scales_match(self, side):
        # w * h and x + w of these boxes over- or underflow unscaled
        gt = recs(straight_track(1, range(1, 4), (side, -side, side, side)))
        rep = evaluate(gt, gt)
        assert (rep.mota, rep.idf1, rep.hota) == (1.0, 1.0, 1.0)


class TestMatchFrames:
    def test_exact_overlap_matches(self):
        assert _match(frame_iou(recs([(1, 1, BOX)]), recs([(1, 7, BOX)])), 0.5) == [(0, 0)]

    def test_below_threshold_is_unmatched(self):
        gt = recs([(1, 1, BOX)])
        pred = recs([(1, 2, (8.0, 0.0, 10.0, 10.0))])  # IoU 1/9
        assert _match(frame_iou(gt, pred), 0.5) == []
        assert _match(frame_iou(gt, pred), 0.1) == [(0, 0)]
        out = mota(gt, pred)
        assert (out.tp, out.fp, out.fn) == (0, 1, 1)

    def test_ties_prefer_smaller_ids(self):
        gt = recs([(1, 1, BOX), (1, 2, BOX)])
        pred = recs([(1, 5, BOX), (1, 6, BOX)])
        assert frame_matches(gt, pred)[1] == [(1, 5), (2, 6)]
        # rows arrive in any order; the tie still goes to the smaller ids
        assert frame_matches(gt[::-1], pred[::-1])[1] == [(1, 5), (2, 6)]

    def test_prefers_more_matches(self):
        # Pairing gt 1 with the closer pred would leave gt 2 unmatched.
        gt = recs([(1, 1, (0.0, 0.0, 10.0, 10.0)), (1, 2, (2.0, 0.0, 10.0, 10.0))])
        pred = recs([
            (1, 1, (1.0, 0.0, 10.0, 10.0)),
            (1, 2, (4.9, 0.0, 10.0, 10.0)),
        ])
        assert frame_matches(gt, pred)[1] == [(1, 1), (2, 2)]
        assert mota(gt, pred).tp == 2

    def test_duplicate_id_in_frame_rejected(self):
        with pytest.raises(ValueError, match="^gt: track 1 appears twice in frame 1$"):
            mota(recs([(1, 1, BOX), (1, 1, BOX)]), [])
        twice = BoxColumns(np.array([1, 2, 2]), np.array([7, 7, 7]), np.ones((3, 4)))
        with pytest.raises(ValueError, match="^result: track 7 appears twice in frame 2$"):
            mota(recs([(1, 1, BOX)]), twice)

    def test_degenerate_box_rejected(self):
        named = r"^gt: track 1 has degenerate box \(0.0, 0.0, 0.0, 5.0\) at frame 1$"
        with pytest.raises(ValueError, match=named):
            mota(recs([(1, 1, (0.0, 0.0, 0.0, 5.0))]), [])
        with pytest.raises(ValueError, match=named.replace("gt", "result")):
            mota(recs([(1, 2, BOX)]), recs([(1, 2, BOX), (1, 1, (0.0, 0.0, 0.0, 5.0))]))

    @pytest.mark.parametrize("side", ["gt", "pred"])
    @pytest.mark.parametrize("coord", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_box_rejected(self, side, coord, bad):
        box = list(BOX)
        box[coord] = bad
        good = recs(straight_track(1, range(1, 4)))
        broken = good[:2] + recs([(3, 1, box)])
        gt, pred = (broken, good) if side == "gt" else (good, broken)
        named = "gt" if side == "gt" else "result"
        with pytest.raises(ValueError, match=f"^{named}: track 1 has degenerate box"):
            evaluate(gt, pred)

    @pytest.mark.parametrize("side", ["gt", "pred"])
    @pytest.mark.parametrize("frame, track, name", [
        (2**63, 1, "frame"),
        (1.5, 1, "frame"),
        (2.0, 1, "frame"),
        (1, 2**63, "track_id"),
        (1, -2**63 - 1, "track_id"),
        (1, 0.5, "track_id"),
    ])
    def test_frame_or_track_id_outside_int64_rejected(self, side, frame, track, name):
        # the bad record comes last, after records that fit
        good = recs(straight_track(1, range(1, 4)))
        broken = good + [BoxRecord(frame, track, BOX)]
        gt, pred = (broken, good) if side == "gt" else (good, broken)
        value = frame if name == "frame" else track
        with pytest.raises(ValueError, match=rf"{name} must be an integer .* got {value!r} in "):
            evaluate(gt, pred)

    def test_int64_bounds_and_numpy_integers_accepted(self):
        rows = [BoxRecord(np.int64(-2**63), np.int32(5), BOX), BoxRecord(2**63 - 1, -2**63, BOX),
                BoxRecord(True, 2**63 - 1, BOX)]
        frame, _, _ = metrics._sorted_records(rows, "gt")
        assert frame.dtype == np.int64 and frame.tolist() == [-2**63, 1, 2**63 - 1]
        assert evaluate(rows, rows).idf1 == 1.0

    @pytest.mark.parametrize("side", ["gt", "pred"])
    @pytest.mark.parametrize("boxes", [
        [(0, 0, 1, 1, 0, 0, 2, 2)],  # eight values, once scored from the first four
        [(0, 0), (1, 1)],  # two values each, once an IndexError
        [(0, 0, 1)],  # three values, once numpy's reshape error
    ])
    def test_box_of_other_than_four_values_rejected(self, side, boxes):
        good = [BoxRecord(1, 1, (0, 0, 1, 1))]
        broken = [BoxRecord(1, t, box) for t, box in enumerate(boxes, 1)]
        gt, pred = (broken, good) if side == "gt" else (good, broken)
        named = rf"box must hold 4 values .* got \({boxes[0][0]}, .* in BoxRecord\(frame=1, "
        with pytest.raises(ValueError, match=named):
            evaluate(gt, pred)

    @pytest.mark.parametrize("shape", [(1, 8), (2, 2), (1, 3), (4,), (1, 4, 1)])
    def test_columns_with_a_box_not_n_by_4_rejected(self, shape):
        n = shape[0] if len(shape) > 1 else 1
        with pytest.raises(ValueError, match=r"box \(n, 4\)"):
            BoxColumns(np.arange(n), np.arange(n), np.ones(shape))


class TestMota:
    def test_perfect_tracking(self):
        gt = recs(straight_track(1, range(1, 6)))
        out = mota(gt, gt)
        assert out.value == 1.0
        assert out.idsw == 0
        assert (out.tp, out.fp, out.fn) == (5, 0, 0)

    def test_id_switch_scenario(self):
        gt, pred = id_switch_scenario()
        out = mota(gt, pred)
        assert out.value == pytest.approx(0.9)
        assert out.idsw == 1

    def test_missing_frames_count_as_fn(self):
        gt = recs(straight_track(1, range(1, 11)))
        pred = recs(straight_track(1, range(1, 8)))
        out = mota(gt, pred)
        assert out.fn == 3
        assert out.value == pytest.approx(0.7)

    def test_spurious_predictions_count_as_fp(self):
        gt = recs(straight_track(1, range(1, 6)))
        pred = gt + recs([(3, 9, (50.0, 50.0, 5.0, 5.0))])
        out = mota(gt, pred)
        assert out.fp == 1
        assert out.value == pytest.approx(0.8)

    def test_switch_counted_across_gap(self):
        gt = recs(straight_track(1, range(1, 11)))
        pred = recs(straight_track(1, range(1, 5)) + straight_track(2, range(7, 11)))
        out = mota(gt, pred)
        assert out.idsw == 1
        assert out.fn == 2
        assert out.value == pytest.approx(0.7)

    def test_persistence_keeps_previous_match(self):
        # Once gt 1 is matched to pred 1, a later exact-overlap pred 2
        # must not steal the pairing while pred 1 stays above threshold.
        gt = recs(straight_track(1, [1, 2, 3]))
        pred = recs(
            [(f, 1, (0.5, 0.0, 10.0, 10.0)) for f in (1, 2, 3)]
            + [(f, 2, BOX) for f in (2, 3)]
        )
        out = mota(gt, pred)
        assert out.idsw == 0
        assert out.fp == 2
        assert frame_matches(gt, pred)[2] == [(1, 2)]  # without persistence the exact box wins

    def test_zero_gt_is_flagged_nan(self):
        out = mota([], recs([(1, 1, BOX)]))
        assert out.undefined
        assert math.isnan(out.value)
        assert out.fp == 1


class TestIdf1:
    def test_perfect(self):
        gt = recs(straight_track(1, range(1, 6)))
        assert idf1(gt, gt).value == 1.0

    def test_split_track_halves_idf1(self):
        gt, pred = id_switch_scenario()
        out = idf1(gt, pred)
        assert out.value == pytest.approx(0.5)
        assert (out.idtp, out.idfp, out.idfn) == (5, 5, 5)

    def test_two_gt_swapped_ids(self):
        # Predictions swap identities halfway; best pairing keeps 6 of 12.
        a = (0.0, 0.0, 10.0, 10.0)
        b = (30.0, 0.0, 10.0, 10.0)
        gt = recs(straight_track(1, range(1, 7), a) + straight_track(2, range(1, 7), b))
        pred = recs(
            [(f, 1, a) for f in range(1, 4)] + [(f, 1, b) for f in range(4, 7)]
            + [(f, 2, b) for f in range(1, 4)] + [(f, 2, a) for f in range(4, 7)]
        )
        out = idf1(gt, pred)
        assert out.idtp == 6
        assert out.value == pytest.approx(0.5)

    def test_empty_both_is_one_flagged(self):
        out = idf1([], [])
        assert out.value == 1.0
        assert out.degenerate

    def test_empty_gt_nonempty_pred(self):
        out = idf1([], recs([(1, 1, BOX)]))
        assert out.value == 0.0
        assert out.idfp == 1


@pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, 2.0, math.nan])
def test_iou_threshold_outside_unit_interval_rejected(threshold):
    gt = recs(straight_track(1, range(1, 4)))
    with pytest.raises(ValueError, match="iou threshold"):
        mota(gt, gt, threshold)
    with pytest.raises(ValueError, match="iou threshold"):
        idf1(gt, gt, threshold)
    with pytest.raises(ValueError, match="iou threshold"):
        evaluate(gt, gt, threshold)


def test_iou_threshold_one_matches_identical_boxes():
    gt = recs(straight_track(1, range(1, 4)))
    assert mota(gt, gt, 1.0).value == 1.0
    assert idf1(gt, gt, 1.0).value == 1.0


class TestHota:
    def test_perfect(self):
        gt = recs(straight_track(1, range(1, 6)))
        out = hota(gt, gt)
        assert out.value == pytest.approx(1.0)
        assert out.deta == pytest.approx(1.0)
        assert out.assa == pytest.approx(1.0)

    def test_id_switch_scenario(self):
        gt, pred = id_switch_scenario()
        out = hota(gt, pred)
        assert out.deta == pytest.approx(1.0)
        assert out.assa == pytest.approx(0.5)
        assert out.value == pytest.approx(math.sqrt(0.5))

    def test_alpha_grid(self):
        assert HOTA_ALPHAS.size == 19
        assert HOTA_ALPHAS[0] == pytest.approx(0.05)
        assert HOTA_ALPHAS[-1] == pytest.approx(0.95)

    def test_zero_gt_flagged(self):
        out = hota([], recs([(1, 1, BOX)]))
        assert out.undefined
        assert math.isnan(out.value)

    def test_missed_detections_lower_both_terms(self):
        gt = recs(straight_track(1, range(1, 11)))
        pred = recs(straight_track(1, range(1, 9)))  # two misses, no id errors
        out = hota(gt, pred)
        assert out.deta == pytest.approx(8.0 / 10.0)
        # the missed frames also count against the matched pair: TPA 8, FNA 2
        assert out.assa == pytest.approx(8.0 / 10.0)
        assert out.value == pytest.approx(8.0 / 10.0)


class TestBruteForceAgreement:
    def test_fifty_random_scenarios(self):
        rng = np.random.default_rng(481516)
        for _ in range(50):
            gt_rows, pred_rows = random_scenario(rng)
            gt = recs(gt_rows)
            pred = recs(pred_rows)

            m = mota(gt, pred)
            rm = ref_mota(gt_rows, pred_rows)
            assert m.value == pytest.approx(rm["mota"], abs=1e-9)
            assert m.idsw == rm["idsw"]
            assert (m.tp, m.fp, m.fn) == (rm["tp"], rm["fp"], rm["fn"])

            i = idf1(gt, pred)
            ri = ref_idf1(gt_rows, pred_rows)
            assert i.value == pytest.approx(ri["idf1"], abs=1e-9)
            assert (i.idtp, i.idfp, i.idfn) == (ri["idtp"], ri["idfp"], ri["idfn"])

            h = hota(gt, pred)
            rh = ref_hota(gt_rows, pred_rows)
            assert h.value == pytest.approx(rh["hota"], abs=1e-9)
            assert h.deta == pytest.approx(rh["deta"], abs=1e-9)
            assert h.assa == pytest.approx(rh["assa"], abs=1e-9)

    def test_match_frames_agrees_with_enumeration(self):
        from reference_metrics import best_frame_assignment, group_frames

        rng = np.random.default_rng(7)
        for _ in range(30):
            gt_rows, pred_rows = random_scenario(rng)
            matches = frame_matches(recs(gt_rows), recs(pred_rows))
            gt_by_f = group_frames(gt_rows)
            pred_by_f = group_frames(pred_rows)
            for f in sorted(set(gt_by_f) | set(pred_by_f)):
                want = best_frame_assignment(gt_by_f.get(f, {}), pred_by_f.get(f, {}), 0.5)
                assert sorted(matches.get(f, [])) == want


class TestInvariants:
    def test_ranges(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            gt_rows, pred_rows = random_scenario(rng)
            rep = evaluate(recs(gt_rows), recs(pred_rows))
            assert rep.mota <= 1.0
            assert 0.0 <= rep.idf1 <= 1.0
            assert 0.0 <= rep.hota <= 1.0
            assert 0.0 <= rep.deta <= 1.0
            assert 0.0 <= rep.assa <= 1.0
            assert rep.idsw >= 0

    def test_perfect_tracker_all_ones(self):
        rng = np.random.default_rng(3)
        gt_rows, _ = random_scenario(rng)
        gt = recs(gt_rows)
        rep = evaluate(gt, gt)
        assert rep.mota == 1.0
        assert rep.idf1 == 1.0
        assert rep.hota == pytest.approx(1.0)
        assert rep.idsw == 0

    def test_pred_relabeling_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            gt_rows, pred_rows = random_scenario(rng)
            gt = recs(gt_rows)
            pred = recs(pred_rows)
            base = evaluate(gt, pred)
            # order-preserving relabel: bitwise identical
            shifted = [BoxRecord(r.frame, r.track_id + 5000, r.box) for r in pred]
            same = evaluate(gt, shifted)
            assert (same.mota, same.idf1, same.hota) == (base.mota, base.idf1, base.hota)
            # order-scrambling relabel: equal up to float reductions
            ids = sorted({r.track_id for r in pred})
            remap = {t: 10_000 - 13 * k for k, t in enumerate(ids)}
            scrambled = [BoxRecord(r.frame, remap[r.track_id], r.box) for r in pred]
            out = evaluate(gt, scrambled)
            assert out.mota == pytest.approx(base.mota, abs=1e-9)
            assert out.idf1 == pytest.approx(base.idf1, abs=1e-9)
            assert out.hota == pytest.approx(base.hota, abs=1e-9)
            assert out.idsw == base.idsw

    def test_removing_matched_prediction_never_raises_mota(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            gt_rows, pred_rows = random_scenario(rng)
            gt = recs(gt_rows)
            pred = recs(pred_rows)
            matched = [
                (f, pid) for f, pairs in frame_matches(gt, pred).items() for _, pid in pairs
            ]
            if not matched:
                continue
            before = mota(gt, pred).value
            f_rm, pid_rm = matched[int(rng.integers(len(matched)))]
            reduced = [r for r in pred if not (r.frame == f_rm and r.track_id == pid_rm)]
            after = mota(gt, reduced).value
            assert after <= before + 1e-12


def test_evaluate_fields_equal_the_separate_scorers():
    rng = np.random.default_rng(2024)
    for threshold in (0.3, 0.5, 0.9):
        for _ in range(10):
            gt_rows, pred_rows = random_scenario(rng)
            gt, pred = recs(gt_rows), recs(pred_rows)
            rep = evaluate(gt, pred, threshold)
            m, i, h = mota(gt, pred, threshold), idf1(gt, pred, threshold), hota(gt, pred)
            assert (rep.mota, rep.idsw, rep.tp, rep.fp, rep.fn, rep.num_gt) == (
                m.value, m.idsw, m.tp, m.fp, m.fn, m.num_gt)
            assert (rep.idf1, rep.idtp, rep.idfp, rep.idfn) == (i.value, i.idtp, i.idfp, i.idfn)
            assert (rep.hota, rep.deta, rep.assa) == (h.value, h.deta, h.assa)
            assert rep.undefined == (m.undefined or h.undefined)


def test_evaluate_memory_stays_bounded():
    # 32 boxes x 600 frames: every same-frame pair at once would need ~90 MiB
    rng = np.random.default_rng(5)
    start = rng.uniform(0.0, 400.0, (32, 2))
    velocity = rng.normal(0.0, 1.0, (32, 2))
    gt, pred = [], []
    for f in range(1, 601):
        for t, (x, y) in enumerate(start + velocity * f):
            gt.append(BoxRecord(f, t, (float(x), float(y), 20.0, 40.0)))
            jitter = rng.normal(0.0, 2.0, 2)
            box = (float(x + jitter[0]), float(y + jitter[1]), 20.0, 40.0)
            pred.append(BoxRecord(f, 100 + t, box))
    tracemalloc.start()
    try:
        evaluate(gt, pred)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def assert_bitwise_equal(got, want):
    """Every field equal with ==, NaN matching NaN; arrays in dtype and bytes."""
    assert type(got) is type(want)
    for field in fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert type(a) is type(b), field.name
            assert a == b or (a != a and b != b), (field.name, a, b)


def assert_scores_match_per_frame_reference(gt, pred, threshold, monkeypatch):
    """The array scorers equal the per-frame reference bit for bit: each
    scorer's result, HOTA's per-alpha arrays, and the evaluate report."""
    seq = _prepare(gt, pred)
    frames = per_frame(seq)
    assert_bitwise_equal(metrics._mota(seq, threshold), per_frame_ref._mota(frames, threshold))
    assert_bitwise_equal(metrics._idf1(seq, threshold), per_frame_ref._idf1(frames, threshold))
    assert_bitwise_equal(metrics._hota(seq), per_frame_ref._hota(frames))
    report = evaluate(gt, pred, threshold)
    with monkeypatch.context() as patched:
        for name in ("_mota", "_idf1", "_hota"):
            ref = getattr(per_frame_ref, name)
            patched.setattr(metrics, name, lambda seq, *args, ref=ref: ref(per_frame(seq), *args))
        assert_bitwise_equal(report, evaluate(gt, pred, threshold))


def dense_scenario(rng, boxes=7, frames=12):
    """Boxes crowded into a small area, so most frames have competing pairs;
    ids drop out, swap and reappear, and some boxes are detected twice."""
    gt, pred = [], []
    centre = rng.uniform(0.0, 30.0, (boxes, 2))
    for f in range(1, frames + 1):
        centre += rng.normal(0.0, 2.0, centre.shape)
        ids = rng.permutation(boxes) + 50
        for t in range(boxes):
            x, y = centre[t]
            if rng.random() < 0.85:
                gt.append((f, t, (x, y, 10.0, 14.0)))
            if rng.random() < 0.8:
                jitter = rng.normal(0.0, rng.choice([0.1, 1.5]), 4)
                box = (x + jitter[0], y + jitter[1], 10.0 + abs(jitter[2]), 14.0 + abs(jitter[3]))
                pred.append((f, int(ids[t]) if rng.random() < 0.3 else t, box))
            if rng.random() < 0.2:  # a near-duplicate detection
                pred.append((f, 100 + t, (x + 0.1, y, 10.0, 14.0)))
    return gt, pred


def tracked_clip(objects, frames, seed):
    """Ground truth records and the tracking result of an untrained model on
    a synthetic clip; the model's mistakes make switches and competing pairs."""
    dim = 16
    scene = SceneAttributes("medium", "static", "on a sunny day")
    cfg = SynthConfig(
        num_objects=objects, num_frames=frames, appearance_dim=dim, appearance_noise=0.08,
        occlusion_rate=0.2, velocity_scale=10.0, box_jitter=0.15, seed=seed,
    )
    detections, _ = gen_sequence(cfg, identity_profile("source", scene, dim))
    params = init_model(np.random.default_rng(seed), ModelConfig(
        message_passing_steps=2, edge_dim=8, text_dim=8, node_dim=16, appearance_dim=dim))
    result = track_video(detections, params, TrackerConfig(level_sizes=[5, 25, 75, 150], knn_k=3))
    gt = [BoxRecord(d.frame, d.gt_id, tuple(d.box)) for d in detections]
    return gt, result


class TestPerFrameReference:
    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.9])
    def test_random_scenarios(self, threshold, monkeypatch):
        rng = np.random.default_rng(int(threshold * 10))
        for _ in range(40):
            gt_rows, pred_rows = random_scenario(rng)
            assert_scores_match_per_frame_reference(
                recs(gt_rows), recs(pred_rows), threshold, monkeypatch)

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.9])
    def test_dense_frames_where_candidates_compete(self, threshold, monkeypatch):
        rng = np.random.default_rng(17)
        contested = 0
        for _ in range(8):
            gt, pred = (recs(rows) for rows in dense_scenario(rng))
            seq = _prepare(gt, pred)
            contested += metrics._contested(seq, seq.iou >= threshold).size
            assert_scores_match_per_frame_reference(gt, pred, threshold, monkeypatch)
        assert contested >= 20  # of 96 frames

    def test_tiny_overlap_sends_the_frame_to_the_solver(self, monkeypatch):
        # In frames 2 and 3, gt 2 and pred 2 overlap by a sliver (IoU ~1e-11 and
        # ~1e-13): no box is shared, but alignment * IoU is below the tie-break
        # margin, so HOTA solves those frames.
        gt_rows, pred_rows = [], []
        for f, sliver in ((1, 5.0), (2, 1e-9), (3, 1e-11), (4, 5.0)):
            gt_rows += [(f, 1, BOX), (f, 2, (30.0, 0.0, 10.0, 10.0))]
            pred_rows += [(f, 1, BOX), (f, 2, (40.0 - sliver, 0.0, 10.0, 10.0))]
        gt, pred = recs(gt_rows), recs(pred_rows)
        seq = _prepare(gt, pred)
        assert metrics._contested(seq, slice(None)).size == 0
        assert 0.0 < seq.iou.min() <= 1e-12
        calls = []
        real = metrics.linear_sum_assignment
        monkeypatch.setattr(
            metrics, "linear_sum_assignment", lambda cost: calls.append(cost.shape) or real(cost))
        metrics._hota(seq)
        assert calls == [(2, 2), (2, 2)]
        monkeypatch.undo()
        for threshold in (1e-12, 0.3, 0.5):
            assert_scores_match_per_frame_reference(gt, pred, threshold, monkeypatch)

    def test_match_carried_across_a_frame_gap(self, monkeypatch):
        # gt 1 holds pred 1 through frame 2; frame 3 has no boxes, so frame 4's
        # previous entry is frame 2, and pred 1 is kept although pred 2 fits better.
        # In frames 6-8 a gt-only frame 7 comes between: nothing is carried into 8.
        near = (1.0, 0.0, 10.0, 10.0)
        gt_rows = [(f, 1, BOX) for f in (1, 2, 4, 5, 6, 7, 8)]
        pred_rows = [(f, 1, near) for f in (1, 2, 4, 5, 6, 8)] + [(f, 2, BOX) for f in (4, 5, 8)]
        gt, pred = recs(gt_rows), recs(pred_rows)
        out = mota(gt, pred)
        assert (out.idsw, out.tp, out.fp, out.fn) == (1, 6, 3, 1)
        for threshold in (0.5, 0.9):
            assert_scores_match_per_frame_reference(gt, pred, threshold, monkeypatch)

    @pytest.mark.parametrize("objects,frames", [(4, 1200), (32, 150)])
    def test_tracked_clip(self, objects, frames, monkeypatch):
        gt, result = tracked_clip(objects, frames, seed=7)
        pred = records_from_result(result)
        seq = _prepare(gt, pred)
        assert metrics._contested(seq, seq.iou >= 0.5).size > 0
        assert mota(gt, pred).idsw > 0
        assert_scores_match_per_frame_reference(gt, pred, 0.5, monkeypatch)


def crowded_scenario(rng, pred_counts, gt_count=24):
    """One frame per pred count, its preds in a row along x (pred j at 6j,
    10 wide, so neighbours overlap) with ids in x order; the first gt box
    spans the first preds, so column 0 has a gt that overlaps 3 or more preds,
    and the other gt boxes lie at random, up to 60 wide.  A frame of one pred
    has 2 * ``gt_count`` gt boxes that all overlap it."""
    gt, pred = [], []
    for f, count in enumerate(pred_counts, 1):
        for j in range(count):
            x, y = 6.0 * j + rng.normal(0.0, 0.5), rng.normal(0.0, 0.5)
            pred.append((f, j, (x, y, 10.0 * rng.uniform(0.9, 1.1), 20.0 * rng.uniform(0.9, 1.1))))
        if count == 1:
            for t in range(2 * gt_count):
                gt.append((f, t, (rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0), 10.0, 20.0)))
            continue
        gt.append((f, 0, (rng.uniform(0.0, 1.0), 0.0, rng.uniform(18.0, 24.0), 20.0)))
        for t in range(1, gt_count):
            left = rng.uniform(-5.0, 6.0 * count)
            gt.append((f, t, (left, rng.normal(0.0, 2.0), rng.uniform(5.0, 60.0), 20.0)))
    return gt, pred


class TestFirstPass:
    """HOTA's first pass takes each pair's row and column sums without a
    matrix per frame, with the bits a frame's matrix gives them."""

    PRED_COUNTS = [8, 9, 16, 17, 129, 300, 1, 1, 3]

    @pytest.mark.parametrize("cap", [1, 7, metrics._BLOCK_PAIRS])
    def test_crowded_frames_match_the_per_frame_reference(self, cap, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK_PAIRS", cap)
        rng = np.random.default_rng(cap)
        for gt_count in (9, 24):
            gt, pred = (recs(rows) for rows in crowded_scenario(rng, self.PRED_COUNTS, gt_count))
            seq = _prepare(gt, pred)
            per_gt = np.bincount(seq.gt, minlength=seq.gt_pos.size)
            # gt boxes that overlap 3 or more preds, among them preds in column 0
            first = seq.gt[seq.pred == seq.pred_start[seq.frame]]
            assert (per_gt >= 3).sum() >= 10 and (per_gt[first] >= 3).any()
            assert per_gt.max() >= 9
            assert metrics._similarity(seq).tobytes() == pair_similarity(seq).tobytes()
            assert_bitwise_equal(metrics._hota(seq), per_frame_ref._hota(per_frame(seq)))
            assert_scores_match_per_frame_reference(gt, pred, 0.5, monkeypatch)

    @pytest.mark.parametrize("rows", [1, 2, 7, 8, 10_000])
    def test_stacked_row_sums_are_the_per_frame_row_sums(self, rows, monkeypatch):
        # rows of one width, split into frames of 1-40 rows, with 1-12 entries
        # each of widely spread magnitudes, so that the order of the sum shows
        rng = np.random.default_rng(rows)
        for width in (3, 8, 9, 16, 17, 129, 300):
            vector, place, value, want = [], [], [], []
            r = 0
            while r < rows:
                g = min(rows - r, int(rng.integers(1, 41)))
                sim = np.zeros((g, width))
                for i in range(g):
                    k = int(rng.integers(1, min(width, 12) + 1))
                    sim[i, rng.choice(width, k, replace=False)] = rng.uniform(0.0, 1.0, k) ** 4
                sim[0, 0] = 0.5
                i, j = np.nonzero(sim)
                vector.append(r + i)
                place.append(j)
                value.append(sim[i, j])
                want.append(sim.sum(axis=1)[i])
                r += g
            vector, place, value, want = map(np.concatenate, (vector, place, value, want))
            for cap in (1, 7, metrics._BLOCK_PAIRS):
                monkeypatch.setattr(metrics, "_BLOCK_PAIRS", cap)
                got = metrics._vector_sums(vector, place, np.full(vector.size, width), value)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("boxes", [1, 7, 8, 9, 17, 129, 300])
    def test_a_one_column_matrix_sums_as_one_row(self, boxes):
        rng = np.random.default_rng(boxes)
        column = rng.uniform(0.0, 1.0, (boxes, 1)) ** 4 * (rng.random((boxes, 1)) < 0.7)
        i = np.flatnonzero(column)
        one = np.zeros(i.size, np.int64)
        got = metrics._vector_sums(one, i, np.full(i.size, boxes), column[i, 0])
        assert (got == column.sum(axis=0)[0]).all()

    def test_vectors_of_mixed_widths_keep_their_entries(self):
        # widths interleave and a vector's entries need not be sorted by place
        vector = np.array([4, 4, 2, 9, 9, 9, 7])
        place = np.array([2, 0, 1, 0, 5, 3, 0])
        width = np.array([3, 3, 2, 6, 6, 6, 1])
        value = np.array([0.25, 0.5, 1.0, 0.125, 2.0, 4.0, 8.0])
        got = metrics._vector_sums(vector, place, width, value)
        assert got.tolist() == [0.75, 0.75, 1.0, 6.125, 6.125, 6.125, 8.0]

    def test_first_pass_memory_stays_linear(self):
        # frames of 600 boxes a side, each gt overlapping 3-4 preds: one dense
        # IoU matrix of a frame takes 600 * 600 * 8 B = 2.9 MB, and the pass
        # from per-frame matrices peaked at 11.8 MB on 8 such frames
        gt, pred = [], []
        for f in range(1, 5):
            for j in range(600):
                pred.append(BoxRecord(f, j, (6.0 * j, 0.0, 10.0, 20.0)))
                gt.append(BoxRecord(f, j, (6.0 * j + 3.0, 1.0, 12.0, 20.0)))
        seq = _prepare(gt, pred)
        assert seq.iou.size >= 3 * 2400
        tracemalloc.start()
        try:
            metrics._similarity(seq)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # about 92 B per pair, and two blocks of stacked rows
        assert peak < 150 * seq.iou.size + 16 * metrics._BLOCK_PAIRS


def stacked_scenario(rng):
    """Runs of contested frames: frames 1-12 and 16-20 crowd 2-9 gt boxes and
    2-10 preds, of mixed counts, into a small area; frame 13 matches one box
    exactly; frames 14 and 15 hold 130 gt boxes and 140 preds in a row, each
    gt box overlapping 2-3 preds, so that one frame has 18200 cells."""
    gt, pred = [], []
    for f in [*range(1, 13), *range(16, 21)]:
        for t in range(int(rng.integers(2, 10))):
            x, y = rng.uniform(0.0, 25.0, 2)
            gt.append((f, t, (x, y, 10.0, 14.0)))
        for t in range(int(rng.integers(2, 11))):
            x, y = rng.uniform(0.0, 25.0, 2)
            pred.append((f, int(rng.integers(0, 12)) * 20 + t, (x, y, 10.0, 14.0)))
    gt.append((13, 0, BOX))
    pred.append((13, 0, BOX))
    for f in (14, 15):
        gt += [(f, 100 + j, (6.0 * j + 3.0 + rng.normal(0.0, 0.5), 1.0, 12.0, 20.0))
               for j in range(130)]
        pred += [(f, 100 + j, (6.0 * j, 0.0, 10.0, 20.0)) for j in range(140)]
    return recs(gt), recs(pred)


class TestSecondPass:
    """HOTA's second pass solves its frames from padded stacks, with the bits
    of one dense matrix and one solver call per frame."""

    @pytest.mark.parametrize("cap", [1, 7, 300, metrics._BLOCK_PAIRS])
    def test_stacked_frames_match_the_per_frame_reference(self, cap, monkeypatch):
        gt, pred = stacked_scenario(np.random.default_rng(23))
        runs = []
        real = metrics._solve_stack
        monkeypatch.setattr(metrics, "_BLOCK_PAIRS", cap)
        monkeypatch.setattr(metrics, "_solve_stack",
                            lambda seq, a, k0, k1: runs.append((k0, k1)) or real(seq, a, k0, k1))
        seq = _prepare(gt, pred)
        metrics._hota(seq)
        monkeypatch.setattr(metrics, "_solve_stack", real)
        shapes = [[(seq.gt_start[k + 1] - seq.gt_start[k], seq.pred_start[k + 1] - seq.pred_start[k])
                   for k in range(k0, k1 + 1)] for k0, k1 in runs]
        solved = [k for k0, k1 in runs for k in range(k0, k1 + 1)]
        # frame indices: frame 13 (index 12) is matched without the solver
        assert solved == sorted(set(solved)) and 12 not in solved and {13, 14} <= set(solved)
        for frames in shapes:
            g, p = max(g for g, _ in frames), max(p for _, p in frames)
            assert len(frames) == 1 or len(frames) * g * p <= cap
        assert [(130, 140)] in shapes  # frames 14 and 15 are larger than any cap here
        if cap >= 300:
            assert any(len(set(frames)) > 1 for frames in shapes)  # runs of mixed shapes
        assert_scores_match_per_frame_reference(gt, pred, 0.5, monkeypatch)

    def test_second_pass_memory_stays_bounded(self):
        # 4 frames of 600 boxes a side, 600 ids each: the dense (19, gt ids,
        # pred ids) match counts and their float copy peaked at 119 MB
        gt, pred = [], []
        for f in range(1, 5):
            for j in range(600):
                pred.append(BoxRecord(f, j, (6.0 * j, 0.0, 10.0, 20.0)))
                gt.append(BoxRecord(f, j, (6.0 * j + 3.0, 1.0, 12.0, 20.0)))
        seq = _prepare(gt, pred)
        assert (seq.gt_count.size, seq.pred_count.size) == (600, 600)
        tracemalloc.start()
        try:
            metrics._hota(seq)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestColumns:
    """Predictions as ``BoxColumns`` take the checks and give the bits of the
    same boxes as ``BoxRecord``s."""

    def test_tracked_clip_columns_equal_the_record_list(self):
        gt, result = tracked_clip(8, 150, seed=3)
        cols = records_from_result(result)
        listed = records_list(result)
        assert isinstance(cols, BoxColumns) and cols.frame.size == len(listed)
        assert (cols.frame.dtype, cols.track_id.dtype, cols.box.dtype, cols.box.shape) == (
            np.int64, np.int64, np.float64, (len(listed), 4))
        got, want = _prepare(gt, cols), _prepare(gt, listed)
        for field in fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
        assert render_report(evaluate(gt, cols)) == render_report(evaluate(gt, listed))
        pooled = evaluate_sequences({"a": (gt, cols), "b": (listed, cols)})
        assert pooled == evaluate_sequences({"a": (gt, listed), "b": (listed, listed)})

    @pytest.mark.parametrize("side", ["gt", "pred"])
    @pytest.mark.parametrize("rows", [
        [(1, 1, (0.0, 0.0, math.nan, 10.0))],
        [(1, 1, (0.0, 0.0, 0.0, 10.0))],
        [(2.0, 1, BOX)],
        [(1, 1.0, BOX)],
        [(1, 1, BOX), (1, 1, (5.0, 0.0, 10.0, 10.0))],
    ], ids=["nan", "zero-width", "float-frame", "float-id", "repeated"])
    def test_bad_columns_rejected_as_records_are(self, side, rows):
        good = recs(straight_track(1, range(1, 4)))
        frame, track, box = (np.array(column) for column in zip(*rows))
        for make in (lambda: [BoxRecord(*row) for row in rows],
                     lambda: BoxColumns(frame, track, box)):
            with pytest.raises(ValueError):
                broken = make()
                evaluate(*((broken, good) if side == "gt" else (good, broken)))

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="columns must be"):
            BoxColumns(np.arange(2), np.arange(3), np.ones((2, 4)))
        with pytest.raises(ValueError, match="columns must be"):
            BoxColumns(np.arange(3), np.arange(3), np.ones((2, 4)))
        with pytest.raises(ValueError, match="columns must be"):
            BoxColumns(np.zeros((3, 1), np.int64), np.arange(3), np.ones((3, 4)))

    def test_columns_take_integer_and_float_dtypes_that_cast_safely(self):
        cols = BoxColumns(np.array([2, 1], np.int32), np.array([5, 5], np.uint8),
                          np.array([[0, 0, 10, 10], [1, 0, 10, 10]], np.int16))
        assert (cols.frame.dtype, cols.track_id.dtype, cols.box.dtype) == (
            np.int64, np.int64, np.float64)
        listed = [BoxRecord(2, 5, (0.0, 0.0, 10.0, 10.0)), BoxRecord(1, 5, (1.0, 0.0, 10.0, 10.0))]
        assert evaluate(listed, cols) == evaluate(listed, listed)
        with pytest.raises(ValueError, match="frame must hold int64"):
            BoxColumns(np.array([1], np.uint64), np.array([1]), np.ones((1, 4)))


def test_clean_sequence_calls_the_solver_only_for_idf1(monkeypatch):
    # 600 frames of 6 far-apart objects, each matched exactly: no frame is
    # contested, so only IDF1's global assignment reaches the solver
    gt = [BoxRecord(f, t, (100.0 * t + f, 50.0, 20.0, 40.0)) for f in range(600) for t in range(6)]
    pred = [BoxRecord(r.frame, 10 + r.track_id, r.box) for r in gt]
    calls = []
    real = metrics.linear_sum_assignment
    monkeypatch.setattr(
        metrics, "linear_sum_assignment", lambda cost: calls.append(cost.shape) or real(cost))
    report = evaluate(gt, pred)
    assert calls == [(12, 12)]
    assert (report.mota, report.idf1, report.idsw) == (1.0, 1.0, 0)
    assert report.hota == pytest.approx(1.0)


class TestAggregation:
    def test_single_sequence_matches_evaluate(self):
        gt, pred = id_switch_scenario()
        solo = evaluate(gt, pred)
        pooled = evaluate_sequences({"only": (gt, pred)})
        assert pooled.mota == pytest.approx(solo.mota)
        assert pooled.idf1 == pytest.approx(solo.idf1)
        assert pooled.hota == pytest.approx(solo.hota)
        assert pooled.idsw == solo.idsw

    def test_two_sequences_pool_counts(self):
        gt_a = recs(straight_track(1, range(1, 6)))
        gt_b, pred_b = id_switch_scenario()
        rep = evaluate_sequences({"a": (gt_a, gt_a), "b": (gt_b, pred_b)})
        assert rep.num_gt == 15
        assert rep.mota == pytest.approx(1.0 - 1.0 / 15.0)
        assert rep.idf1 == pytest.approx(2.0 * 10.0 / 30.0)
        # DetA pooled stays 1.0; AssA pools TP-weighted: (5*1 + 10*0.5)/15
        assert rep.deta == pytest.approx(1.0)
        assert rep.assa == pytest.approx(10.0 / 15.0)
        assert rep.hota == pytest.approx(math.sqrt(10.0 / 15.0))

    def test_name_order_fixed(self):
        gt_a = recs(straight_track(1, range(1, 6)))
        gt_b, pred_b = id_switch_scenario()
        one = evaluate_sequences({"a": (gt_a, gt_a), "b": (gt_b, pred_b)})
        two = evaluate_sequences({"b": (gt_b, pred_b), "a": (gt_a, gt_a)})
        assert render_report(one) == render_report(two)

    def test_sequences_without_ground_truth_follow_evaluate(self):
        # no boxes at all score IDF1 1.0, predictions alone 0.0, as in evaluate
        pred = recs(straight_track(1, range(1, 4)))
        for sequences in ({"a": ([], [])}, {"a": ([], pred)}, {"a": ([], []), "b": ([], pred)}):
            pooled = evaluate_sequences(sequences)
            every = [r for _, p in sequences.values() for r in p]
            assert render_report(pooled) == render_report(evaluate([], every))

    def test_empty_mapping_rejected(self):
        with pytest.raises(ValueError):
            evaluate_sequences({})


class TestReportRendering:
    def test_key_value_lines(self):
        gt, pred = id_switch_scenario()
        text = render_report(evaluate(gt, pred))
        lines = text.strip().split("\n")
        asdict = dict(line.split("=", 1) for line in lines)
        assert asdict["mota"] == "0.9"
        assert asdict["idf1"] == "0.5"
        assert asdict["idsw"] == "1"
        assert asdict["undefined"] == "false"
        assert float(asdict["hota"]) == pytest.approx(math.sqrt(0.5))

    def test_rendering_is_deterministic(self):
        gt, pred = id_switch_scenario()
        a = render_report(evaluate(gt, pred))
        b = render_report(evaluate(gt, pred))
        assert a == b

    def test_table_has_row_per_run(self):
        gt, pred = id_switch_scenario()
        rep = evaluate(gt, pred)
        table = render_table({"baseline": rep, "guided": rep})
        lines = table.strip().split("\n")
        assert lines[0].startswith("run")
        assert any(ln.startswith("baseline") for ln in lines)
        assert any(ln.startswith("guided") for ln in lines)
        assert "0.9000" in table
