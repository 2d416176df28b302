"""Association graphs over tracklets.

Detections are lifted to single-detection tracklets, tracklets become graph
nodes, and candidate edges connect temporally disjoint nodes of one window
(earlier node ends before the later one starts).  A level's tracklets are
one ``TrackletRows``: rows of the clip's detection arrays (frames, boxes,
appearance with its row norms and unit rows, and ground-truth ids, built
once per clip and shared by every level), tracklet by tracklet in frame
order, so sorting, gathering and merging tracklets move index arrays, and a
``Tracklet`` object is made only when one is indexed.  A fixed pruning
score keeps each node's candidate set at the k most plausible successors so
graph construction is deterministic and cheap: ``build_graph`` scores
each node only against its successors, a suffix of its window, as arrays
of gathered unit rows in blocks of rows (of several windows at once where
windows are small), and ranks only each row's near-ties to its k-th score,
gathered over many blocks, with the exact per-pair key (score, frame gap,
node index), so the graph is the one a per-pair ranking gives, bit for
bit; the array score takes its centre term as ``sqrt(a*a + b*b)`` of
offsets already divided by the mean height, the exact key as ``hypot``.
This module alone
knows how a level tiles a clip: level sizes nest by integer factors and
grow until one window covers the whole clip, each tracklet belongs to the
window its first frame falls in, and one ``build_graph`` call gives a
level's graph, the disjoint union of its window graphs, whose windows
``window_offsets`` slices into contiguous node ranges.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy import sparse

from .autodiff import Incidence

__all__ = [
    "Detection",
    "DetectionArrays",
    "Tracklet",
    "TrackletRows",
    "TrackGraph",
    "check_level_sizes",
    "clip_level_sizes",
    "detection_order",
    "lift_detections",
    "build_graph",
    "tracklet_order",
    "window_offsets",
]

EDGE_FEATURE_DIM = 6

_INF = math.inf

# Pruning-score weights: appearance dominates, geometry and gap break near-ties.
_PRUNE_CENTER_WEIGHT = 0.05
_PRUNE_GAP_WEIGHT = 0.01

# A block of pruning scores, each of its gathered appearance arrays, and each
# gathered part of a band being ranked hold at most this many elements (or
# one row), and a band is ranked once it holds this many pairs, so graph
# building needs memory linear in nodes per window, not quadratic; 1 << 15
# float64 is 256 KB.
_BLOCK_SCORES = 1 << 15

# Relative width of the band kept around a row's k-th array score, with an
# absolute floor of the same size.  The array score is off from the exact
# one by a few ulp plus about one ulp per appearance dimension (the summation
# order of the dot product), far inside this margin, so the exact top k
# always lies in the band.  Its centre term, sqrt(a*a + b*b) of the offsets
# over the mean height, is within a few ulp of the exact key's hypot of the
# offsets over it while a*a + b*b is normal; where that underflows, both are
# below 2**-511, under the floor.  Where it overflows, the array term is inf
# and the exact one 6.7e152 or more, so a row whose k-th array score passes
# _SQUARE_SAFE keeps every successor in its band, and any other row has k
# successors scored below every overflowed pair.
_TIE_BAND = 1e-9
_SQUARE_SAFE = 1e150

# A block of rows is cut short where scoring the rows after the cut apart
# saves this many pairs: about what one block's fixed numpy calls cost.
_BLOCK_SAVING = 2048

# An end frame after every frame: padded rows end there.
_NEVER = np.iinfo(np.int64).max

# Frames and level sizes stay at or below this, so the level loop's int64
# arithmetic cannot overflow: a window that holds a frame ends before twice the
# larger of that frame and the window's size, and the doubled top level is
# under twice the last frame, both below 2**63.
_MAX_FRAME = 1 << 62


@dataclass(eq=False)
class Detection:
    """One detected box in one frame, with its appearance vector."""

    frame: int
    box: tuple[float, float, float, float]  # (left, top, width, height)
    appearance: np.ndarray
    confidence: float = 1.0
    visibility: float = 1.0
    gt_id: int | None = None

    def __post_init__(self):
        try:
            frame = operator.index(self.frame)
        except TypeError:
            raise ValueError(f"frame index must be an integer, got {self.frame!r}") from None
        if not 1 <= frame <= _MAX_FRAME:
            raise ValueError(f"frame index must lie in [1, 2**62], got {self.frame}")
        left, top, width, height = self.box
        # NaN fails every comparison, so this one test passes only finite boxes
        # of positive size; the messages tell the two faults apart
        if not (abs(left) < _INF and abs(top) < _INF
                and 0.0 < width < _INF and 0.0 < height < _INF):
            if not all(map(math.isfinite, self.box)):
                raise ValueError(f"box coordinates must be finite, got {self.box}")
            raise ValueError(f"box must have positive size, got {self.box}")
        if self.gt_id is not None and not -(1 << 63) <= self.gt_id < 1 << 63:
            raise ValueError(f"gt id must fit in 64 bits, got {self.gt_id}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence outside [0, 1]: {self.confidence}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility outside [0, 1]: {self.visibility}")
        self.appearance = np.asarray(self.appearance, dtype=np.float64).ravel()


@dataclass(eq=False)
class Tracklet:
    """A partial trajectory: detections at strictly increasing frames."""

    detections: list[Detection]

    def __post_init__(self):
        if not self.detections:
            raise ValueError("tracklet needs at least one detection")
        frames = [d.frame for d in self.detections]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError(f"detection frames must strictly increase, got {frames}")

    @property
    def start_frame(self) -> int:
        return self.detections[0].frame

    @property
    def end_frame(self) -> int:
        return self.detections[-1].frame

    @property
    def gt_id(self) -> int | None:
        """The common ground-truth id of all detections, or None if mixed/absent."""
        ids = {d.gt_id for d in self.detections}
        if len(ids) == 1:
            return next(iter(ids))
        return None


@dataclass(frozen=True, eq=False)
class DetectionArrays:
    """A clip's detections and, row by row, their frames, boxes, ground-truth
    ids (``gt`` is 0 where ``has_gt`` is False) and appearance rows, stacked
    on first use, so a clip that is only sorted never stacks them; so are
    the rows' norms and unit rows, which every level's graph gathers."""

    detections: list[Detection]
    frames: np.ndarray
    boxes: np.ndarray
    gt: np.ndarray
    has_gt: np.ndarray

    @classmethod
    def of(cls, detections: Sequence[Detection]) -> "DetectionArrays":
        dets = list(detections)
        n = len(dets)
        return cls(
            dets,
            np.fromiter((d.frame for d in dets), np.int64, n),
            np.array([d.box for d in dets], dtype=np.float64).reshape(n, 4),
            np.fromiter((d.gt_id or 0 for d in dets), np.int64, n),
            np.fromiter((d.gt_id is not None for d in dets), bool, n),
        )

    @functools.cached_property
    def app(self) -> np.ndarray:
        dets = self.detections
        return np.stack([d.appearance for d in dets]) if dets else np.zeros((0, 0))

    @functools.cached_property
    def norms(self) -> np.ndarray:
        """``app``'s row norms by ``vecdot``, which runs the BLAS dot of
        ``np.dot`` and of ``np.linalg.norm`` on one row."""
        return np.sqrt(np.vecdot(self.app, self.app))

    @functools.cached_property
    def unit_app(self) -> np.ndarray:
        """``app``'s rows divided by ``norms``; zero rows stay zero."""
        norms = self.norms[:, None]
        return np.divide(self.app, norms, out=np.zeros_like(self.app), where=norms > 0.0)

    def take(self, order: np.ndarray) -> "DetectionArrays":
        """The detections ``order`` lists, in that order."""
        return DetectionArrays(
            [self.detections[i] for i in order.tolist()], self.frames[order],
            self.boxes[order], self.gt[order], self.has_gt[order],
        )


class TrackletRows(Sequence[Tracklet]):
    """Tracklets as rows of one clip's ``DetectionArrays``: tracklet i is the
    detections ``clip.detections[r]`` for r in ``rows[offsets[i]:offsets[i +
    1]]``, in frame order.  Indexing makes that ``Tracklet``; slicing gives a
    view that shares the clip."""

    __slots__ = ("clip", "rows", "offsets", "_members")

    def __init__(self, clip: DetectionArrays, rows: np.ndarray, offsets: np.ndarray):
        self.clip = clip
        self.rows = np.asarray(rows, dtype=np.intp)
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self._members = None

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            a, b, step = i.indices(len(self))
            if step != 1:
                return self.take(np.arange(a, b, step))
            b = max(a, b)
            o = self.offsets
            return TrackletRows(self.clip, self.rows[o[a]:o[b]], o[a:b + 1] - o[a])
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError(f"tracklet {i} of {len(self)}")
        i %= len(self)
        rows = self.rows[self.offsets[i]:self.offsets[i + 1]].tolist()
        return Tracklet([self.clip.detections[r] for r in rows])

    def __iter__(self) -> Iterator[Tracklet]:
        dets, rows, offsets = self.clip.detections, self.rows.tolist(), self.offsets.tolist()
        for a, b in zip(offsets[:-1], offsets[1:]):
            yield Tracklet([dets[r] for r in rows[a:b]])

    @property
    def sizes(self) -> np.ndarray:
        """Detections per tracklet."""
        return np.diff(self.offsets)

    @property
    def firsts(self) -> np.ndarray:
        """Each tracklet's first detection row."""
        return self.rows[self.offsets[:-1]]

    @property
    def lasts(self) -> np.ndarray:
        """Each tracklet's last detection row."""
        return self.rows[self.offsets[1:] - 1]

    def members(self) -> sparse.csr_array:
        """The 0/1 (tracklets, clip rows) CSR matrix whose row i lists
        tracklet i's rows in order; checked and built on first use and kept,
        however many products use it."""
        if self._members is None:
            sizes, num_rows = self.sizes, len(self.clip.detections)
            if self.offsets[-1] != self.rows.size:
                raise ValueError(f"sizes add up to {sizes.sum()}, not to the {self.rows.size} rows")
            if sizes.size and sizes.min() < 1:
                raise ValueError(f"every tracklet needs at least one row, got size {sizes.min()}")
            if self.rows.size and (self.rows.min() < 0 or self.rows.max() >= num_rows):
                raise IndexError(f"tracklet row out of range for {num_rows} rows")
            m = sparse.csr_array((np.ones(self.rows.size), self.rows, self.offsets),
                                 (len(self), num_rows))
            self._members = [m, None]
        return self._members[0]

    def members_t(self) -> sparse.csr_array:
        """:meth:`members`' transpose as CSR, built on first use and kept."""
        m = self.members()
        if self._members[1] is None:
            self._members[1] = m.T.tocsr()
        return self._members[1]

    def take(self, order: np.ndarray, group: np.ndarray | None = None) -> "TrackletRows":
        """The tracklets ``order`` lists, in that order; where ``group`` (one
        value per listed tracklet) is given, each run of equal values joins
        into one tracklet."""
        sizes = self.sizes[order]
        starts = np.cumsum(sizes) - sizes
        gather = np.repeat(self.offsets[order] - starts, sizes) + np.arange(sizes.sum())
        if group is not None:
            joined = np.zeros(len(group), dtype=bool)
            joined[1:] = group[1:] == group[:-1]
            starts = starts[~joined]
        return TrackletRows(self.clip, self.rows[gather], np.append(starts, gather.size))

    def node_gt(self) -> tuple[np.ndarray, np.ndarray]:
        """Each tracklet's first ground-truth id (0 for none), and whether all
        its detections carry that one id (``Tracklet.gt_id`` is not None)."""
        gt = self.clip.gt[self.firsts]
        node = np.repeat(np.arange(len(self)), self.sizes)
        differs = (self.clip.gt[self.rows] != gt[node]) | ~self.clip.has_gt[self.rows]
        return gt, np.bincount(node, weights=differs, minlength=len(self)) == 0


def _lexsort_runs(keys: list[np.ndarray], tie_key: Callable[[int], object]) -> np.ndarray:
    """The stable order of ``keys``, most significant first; runs that tie on
    every key (-0.0 equals 0.0, as in a tuple key) are sorted by ``tie_key``
    of their indices.  Each key after the first re-sorts only the runs that
    tie on the keys before it, so a key that ties nowhere costs no sort."""
    order = np.argsort(keys[0], kind="stable")
    k = keys[0][order]
    same = k[1:] == k[:-1]  # neighbours that tie on the keys so far
    for key in keys[1:]:
        if not same.any():
            return order
        run = np.cumsum(np.concatenate(([True], ~same)))  # run number from 1
        tied = np.flatnonzero(np.bincount(run)[run] > 1)
        order[tied] = order[tied[np.lexsort((key[order[tied]], run[tied]))]]
        k = key[order]
        same &= k[1:] == k[:-1]
    bounds = np.flatnonzero(np.concatenate(([True], ~same, [True])))  # run starts, end
    tied = np.diff(bounds) > 1
    for a, b in zip(bounds[:-1][tied].tolist(), bounds[1:][tied].tolist()):
        order[a:b] = sorted(order[a:b].tolist(), key=tie_key)
    return order


def tracklet_order(nodes: TrackletRows) -> np.ndarray:
    """The permutation that sorts ``nodes`` by start frame, end frame, first
    box and last box (as arrays), then, only within runs that tie on all of
    those, by the first and last detections' appearance bytes; only
    indistinguishable tracklets tie."""
    first, last, clip = nodes.firsts, nodes.lasts, nodes.clip
    return _lexsort_runs(
        [clip.frames[first], clip.frames[last], *clip.boxes[first].T, *clip.boxes[last].T],
        lambda i: (clip.app[first[i]].tobytes(), clip.app[last[i]].tobytes()),
    )


def detection_order(clip: DetectionArrays) -> np.ndarray:
    """The permutation that sorts detections by frame, box, confidence,
    visibility, no gt id before a gt id, gt id, and appearance bytes: the
    numbers as arrays, and appearance bytes only within runs that tie on all
    of them."""
    dets = clip.detections
    n = len(dets)
    confidence = np.fromiter((d.confidence for d in dets), np.float64, n)
    visibility = np.fromiter((d.visibility for d in dets), np.float64, n)
    return _lexsort_runs(
        [clip.frames, *clip.boxes.T, confidence, visibility, ~clip.has_gt, clip.gt],
        lambda i: dets[i].appearance.tobytes(),
    )


@dataclass(eq=False)
class TrackGraph:
    """Immutable candidate graph over the frames of ``frame_span``: one
    window, or a level of windows that no edge crosses.

    Edges are stored as index arrays into ``nodes``; ``edge_u[i]`` always
    ends strictly before ``edge_v[i]`` starts.  ``starts`` and ``ends`` hold
    each node's first and last frame.
    """

    nodes: TrackletRows
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_features: np.ndarray
    frame_span: tuple[int, int]
    starts: np.ndarray = field(init=False, repr=False)
    ends: np.ndarray = field(init=False, repr=False)
    _incidences: tuple[Incidence, Incidence] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.edge_u = np.asarray(self.edge_u, dtype=np.intp)
        self.edge_v = np.asarray(self.edge_v, dtype=np.intp)
        self.edge_features = np.asarray(self.edge_features, dtype=np.float64).reshape(
            -1, EDGE_FEATURE_DIM
        )
        n = len(self.nodes)
        self.starts = self.nodes.clip.frames[self.nodes.firsts]
        self.ends = self.nodes.clip.frames[self.nodes.lasts]
        if not (self.edge_u.shape == self.edge_v.shape == (self.edge_features.shape[0],)):
            raise ValueError("edge arrays must share their length")
        if self.num_edges:
            ids = np.concatenate([self.edge_u, self.edge_v])
            if ids.min() < 0 or ids.max() >= n:
                raise ValueError("edge index out of range")
            if np.any(self.edge_u == self.edge_v):
                raise ValueError("self edges are not allowed")
            if np.any(self.ends[self.edge_u] >= self.starts[self.edge_v]):
                raise ValueError("edges must connect temporally disjoint tracklets")
            if np.unique(self.edge_u * n + self.edge_v).size != self.num_edges:
                raise ValueError("duplicate edges")

    def sliced(self, a: int, b: int, e0: int, e1: int) -> "TrackGraph":
        """Nodes ``a:b`` with edges ``e0:e1`` as a graph, for node ranges no
        edge leaves and whose edges are that contiguous range (a run of
        windows of a level graph).  A part of a checked graph needs no
        checks, so none run."""
        part = object.__new__(TrackGraph)
        part.nodes, part.starts, part.ends = self.nodes[a:b], self.starts[a:b], self.ends[a:b]
        part.edge_u, part.edge_v = self.edge_u[e0:e1] - a, self.edge_v[e0:e1] - a
        part.edge_features, part.frame_span = self.edge_features[e0:e1], self.frame_span
        part._incidences = None
        return part

    def incidences(self) -> tuple[Incidence, Incidence]:
        """``edge_u`` and ``edge_v`` as incidences into the nodes, made on
        first use and kept, so their matrices are built once per graph."""
        if self._incidences is None:
            n = self.num_nodes
            self._incidences = Incidence(self.edge_u, n), Incidence(self.edge_v, n)
        return self._incidences

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.shape[0])


def check_level_sizes(level_sizes: Sequence[int]) -> None:
    """Sizes must lie in [1, 2**62], strictly increase, and each must be a
    multiple of the previous one, so every window is an exact union of child
    windows."""
    sizes = list(level_sizes)
    if not sizes or any(not 1 <= s <= _MAX_FRAME for s in sizes):
        raise ValueError(f"level sizes must be non-empty and lie in [1, 2**62], got {sizes}")
    for prev, cur in zip(sizes, sizes[1:]):
        if cur <= prev or cur % prev != 0:
            raise ValueError(
                f"level sizes must strictly increase by integer factors, got {sizes}"
            )


def clip_level_sizes(num_frames: int, level_sizes: Sequence[int]) -> list[int]:
    """The configured sizes, doubled past the last until one window covers
    [1, num_frames]; a clip no longer than the last size keeps them as given."""
    check_level_sizes(level_sizes)
    sizes = list(level_sizes)
    while sizes[-1] < num_frames:
        sizes.append(2 * sizes[-1])
    return sizes


def window_offsets(starts: np.ndarray, first: int, size: int) -> np.ndarray:
    """Node offsets of the windows of nodes sorted by start frame: windows of
    ``size`` frames tile the frames from ``first``, a node belongs to the one
    its start frame falls in, and window j of those that hold nodes holds
    nodes ``offsets[j]:offsets[j + 1]``."""
    window = (np.asarray(starts) - first) // size
    # a window starts where the window index changes, and at the first node
    return np.append(np.flatnonzero(np.diff(window, prepend=window[:1] - 1)), window.size)


def lift_detections(detections: Sequence[Detection] | DetectionArrays) -> TrackletRows:
    """One single-detection tracklet per detection, in input order."""
    if not isinstance(detections, DetectionArrays):
        detections = DetectionArrays.of(detections)
    n = len(detections.detections)
    return TrackletRows(detections, np.arange(n), np.arange(n + 1))


def _boundary(boxes: np.ndarray) -> tuple[np.ndarray, ...]:
    """Centre x, centre y, height and width of each (left, top, width, height) row."""
    return (
        boxes[:, 0] + boxes[:, 2] / 2.0,
        boxes[:, 1] + boxes[:, 3] / 2.0,
        boxes[:, 3],
        boxes[:, 2],
    )


def _row_blocks(succ: np.ndarray, windows: int, dim: int) -> list[tuple[int, int, int]]:
    """Blocks ``(r0, r1, c)`` of a chunk's rows whose padded successor counts
    ``succ`` do not increase: rows r0:r1 score the last ``c = succ[r0]``
    columns, in at most ``_BLOCK_SCORES`` scores and gathered ``dim``-column
    rows (or one row), cut at the first row where scoring the rows after it
    apart saves ``_BLOCK_SAVING`` pairs or more."""
    steps = np.append(0, np.flatnonzero(succ[1:] != succ[:-1]) + 1)  # rows where succ drops
    at, count = steps.tolist(), succ[steps].tolist()
    blocks, r0, s = [], 0, 0  # rows r0 on hold count[s]
    while r0 < succ.size:
        c = count[s]
        r1 = min(succ.size, r0 + max(1, _BLOCK_SCORES // (windows * max(c, dim))))
        for t in range(s + 1, len(at)):
            if at[t] >= r1:
                break
            if windows * (r1 - at[t]) * (c - count[t]) >= _BLOCK_SAVING:
                r1 = at[t]
                break
        blocks.append((r0, r1, c))
        r0 = r1
        while s + 1 < len(at) and at[s + 1] <= r0:
            s += 1
    return blocks


def _successor_blocks(
    starts: np.ndarray, ends: np.ndarray, offsets: np.ndarray, dim: int
) -> Iterator[tuple[np.ndarray, np.ndarray, list[tuple[int, int, int]]]]:
    """The successor pairs of nodes sorted by start frame, in windows of
    nodes ``offsets[j]:offsets[j + 1]``, by chunks of consecutive windows.

    A node's successors are the nodes of its window from its first successor
    (the first later start) on, so they are a suffix of the window.  Per
    chunk this gives (windows, rows) node indices of the rows that have a
    successor, each window's by first successor; (windows, columns) node
    indices of each window's last nodes; and ``_row_blocks`` over them,
    whose last columns hold every successor of their rows.  Indices are -1
    where a window has fewer rows or columns than the chunk.  A chunk's
    scores, as one block, and its gathered ``dim``-column rows hold at most
    ``_BLOCK_SCORES`` elements (or one window's), and so do its blocks' (or
    one row's)."""
    counts = np.diff(offsets)
    window = np.repeat(np.arange(counts.size), counts)
    end = offsets[1:][window]  # one past the last node of each node's window
    first = np.minimum(np.searchsorted(starts, ends, side="right"), end)
    succ = end - first  # successors per node
    rows = np.flatnonzero(succ)
    rows = rows[np.argsort(first[rows], kind="stable")]  # by window, then first successor
    runs = np.bincount(window[rows], minlength=counts.size)  # rows per window
    run_start = np.cumsum(runs) - runs
    active = np.flatnonzero(runs)
    widest = succ[rows[run_start[active]]]  # columns per active window
    groups, g0, tall, wide = [], 0, 0, 0
    for a, (r, c) in enumerate(zip(runs[active].tolist(), widest.tolist())):
        t, w = max(tall, r), max(wide, c)
        if a > g0 and (a + 1 - g0) * max(t, w) * max(w, dim) > _BLOCK_SCORES:
            groups.append((g0, a))
            g0, t, w = a, r, c
        tall, wide = t, w
    if active.size:
        groups.append((g0, active.size))
    for g0, g1 in groups:
        ws, w = active[g0:g1], int(widest[g0:g1].max())
        i = np.arange(runs[ws].max())
        real = i < runs[ws, None]
        chunk_rows = np.where(real, rows[np.where(real, run_start[ws, None] + i, 0)], -1)
        cols = offsets[ws + 1, None] - w + np.arange(w)
        cols[cols < offsets[ws, None]] = -1
        padded = np.where(real, succ[chunk_rows], 0).max(axis=0)  # does not increase
        yield chunk_rows, cols, _row_blocks(padded, ws.size, dim)


def build_graph(
    tracklets: TrackletRows, knn_k: int, window: tuple[int, int], size: int | None = None
) -> TrackGraph:
    """Connect each tracklet to its knn_k best temporal successors in its window.

    Windows of ``size`` frames tile ``window`` from its first frame (the
    last may be shorter); each tracklet belongs to the one its first frame
    falls in and must end inside it.  Without ``size`` the whole ``window``
    is one window.  So one call builds a whole level: its graph is the union
    of the window graphs, window by window, and
    ``window_offsets(graph.starts, window[0], size)`` slices it into them.

    Nodes are sorted by :func:`tracklet_order` first, so the result does
    not depend on input order.  A successor ``v`` of ``u`` starts after
    ``u`` ends; with ``du`` the last detection of ``u`` and ``dv`` the first
    of ``v`` it is ranked by

        cos(du, dv) + 0.05 * |centre offset| / mean height + 0.01 * gap

    (lower is better), ties broken by (frame gap, sorted node index), where
    ``cos(a, b) = 1 - dot(a, b) / (|a| |b|)``, or 1 if either row is zero.
    A node's successors are the nodes of its window from its first
    successor on, so scores are computed as arrays over blocks of rows that
    score only their windows' last columns, as many as the block's first row
    has successors (``_successor_blocks``): a chunk's rows, several small
    windows padded to one shape, are sorted by first successor, and a block
    is cut where the count drops enough to pay for another block.  Every
    block stays under ``_BLOCK_SCORES`` elements, so memory grows linearly in
    nodes; a successor is a pair with a positive frame gap, padded columns
    and rows having none.  The array score's centre term is ``sqrt(a*a +
    b*b)`` of the offsets a and b already divided by the mean height, where
    the exact key takes ``hypot`` of the raw offsets and then divides.  The
    products and that term round differently from the exact per-pair key, so
    they only pick each row's band: the successors within a tiny margin of
    its k-th score (all of them where that score is huge, see
    ``_TIE_BAND``), which always holds the exact top k.  The bands of many
    blocks, up to ``_BLOCK_SCORES`` pairs, are ranked at once by the exact
    key and each row's first knn_k are kept.  Edges come out ordered by
    ``u``, then by rank.

    Edge features, 6 per edge: the centre offsets x and y over the mean
    box height, the log height and width ratios ``du / dv``, the frame gap,
    and the exact cosine distance of the ranking.
    """
    if knn_k < 1:
        raise ValueError(f"knn_k must be >= 1, got {knn_k}")
    lo, hi = window
    if size is None:
        size = max(hi - lo + 1, 1)
    elif size < 1:
        raise ValueError(f"window size must be >= 1, got {size}")
    nodes = tracklets.take(tracklet_order(tracklets))
    first, last, clip = nodes.firsts, nodes.lasts, nodes.clip
    starts, ends = clip.frames[first], clip.frames[last]
    own_lo = lo + (starts - lo) // size * size  # each node's window
    own_hi = np.minimum(own_lo + size - 1, hi)
    outside = np.flatnonzero((starts < lo) | (ends > own_hi))
    if outside.size:
        i = outside[0]
        own = window if starts[i] < lo else (int(own_lo[i]), int(own_hi[i]))
        raise ValueError(f"tracklet spans [{starts[i]},{ends[i]}] outside window {own}")
    if not len(nodes):
        no_edges = np.zeros(0, dtype=np.intp)
        return TrackGraph(nodes, no_edges, no_edges, np.zeros((0, EDGE_FEATURE_DIM)), (lo, hi))
    vx, vy, vh, vw = _boundary(clip.boxes[first])
    ux, uy, uh, uw = _boundary(clip.boxes[last])
    # u's rows are app[last], v's app[first], gathered only as needed; each
    # exact cosine is bitwise the per-pair 1 - dot(a, b) / (|a| |b|), and a
    # zero row is at distance 1
    app, unit = clip.app, clip.unit_app
    u_norm, v_norm = clip.norms[last], clip.norms[first]
    offsets = window_offsets(starts, lo, size)
    dim = app.shape[1]

    kept = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
    band_u, band_v, gathered = [], [], 0

    def rank_band():
        """Rank the gathered band by the exact per-pair key; keep each row's first knn_k."""
        bu, bv = np.concatenate(band_u), np.concatenate(band_v)
        band_u.clear()
        band_v.clear()
        gap = starts[bv] - ends[bu]
        heights = uh[bu] + vh[bv]
        un, vn = u_norm[bu], v_norm[bv]
        dot = np.empty(bu.size)
        step = max(1, _BLOCK_SCORES // max(dim, 1))  # gathered rows stay bounded
        for s in range(0, bu.size, step):
            dot[s:s + step] = np.vecdot(app[last[bu[s:s + step]]], app[first[bv[s:s + step]]])
        cos = 1.0 - np.divide(dot, un * vn, out=np.zeros(bu.size),
                              where=(un != 0.0) & (vn != 0.0))
        exact = (
            cos
            + _PRUNE_CENTER_WEIGHT * (np.hypot(vx[bv] - ux[bu], vy[bv] - uy[bu]) / (heights / 2.0))
            + _PRUNE_GAP_WEIGHT * gap
        )
        # a row's band comes out in column order, which is (gap, v) order, so
        # two stable sorts give the order of (u, exact key, gap, v)
        order = np.argsort(exact, kind="stable")
        order = order[np.argsort(bu[order], kind="stable")]
        ranked_u = bu[order]
        rank = np.arange(order.size) - np.searchsorted(ranked_u, ranked_u, side="left")
        keep = order[rank < knn_k]
        kept.append((bu[keep], bv[keep], cos[keep]))

    for rows, cols, blocks in _successor_blocks(starts, ends, offsets, dim):
        # a chunk's blocks share its columns
        v_unit = unit[first[cols]].transpose(0, 2, 1)
        c = cols[:, None, :]
        cx, cy, ch = vx[c], vy[c], vh[c]
        # a padded column starts before, and a padded row ends after, every
        # frame, so only a real successor has a positive gap
        col_start = np.where(cols >= 0, starts[cols], 0)[:, None, :]
        row_end = np.where(rows >= 0, ends[rows], _NEVER)[..., None]
        for r0, r1, width in blocks:
            r, k = rows[:, r0:r1, None], slice(cols.shape[1] - width, None)
            score = unit[last[r[..., 0]]] @ v_unit[..., k]
            np.subtract(1.0, score, out=score)
            gap = col_start[..., k] - row_end[:, r0:r1]
            # the centre offsets are scaled by the mean height before they are
            # squared, so only a scaled offset near the float range's square root
            # over- or underflows (see _TIE_BAND); in place, which saves time
            # on large blocks
            height = (uh[r] + ch[..., k]) * 0.5
            dx = cx[..., k] - ux[r]
            dx /= height
            dy = cy[..., k] - uy[r]
            dy /= height
            dx *= dx
            dy *= dy
            dx += dy
            score += _PRUNE_CENTER_WEIGHT * np.sqrt(dx, out=dx)
            score += _PRUNE_GAP_WEIGHT * gap
            # NaN, which sorts last and passes no cutoff, marks a non-successor
            score[gap <= 0] = np.nan
            if knn_k < width:
                kth = np.partition(score, knn_k - 1, axis=-1)[..., knn_k - 1]
            else:
                kth = np.full(score.shape[:-1], np.inf)
            cutoff = kth + _TIE_BAND * (1.0 + np.abs(kth))
            # kth is NaN where a row has fewer than knn_k successors
            cutoff[~(kth <= _SQUARE_SAFE)] = np.inf
            # flat indices: (window * rows + row) * width + column
            band = np.flatnonzero(score <= cutoff[..., None])
            band_u.append(rows[:, r0:r1].ravel()[band // width])
            band_v.append(cols[:, k].ravel()[band // (width * (r1 - r0)) * width + band % width])
            gathered += band.size
            if gathered >= _BLOCK_SCORES:
                rank_band()
                gathered = 0
    if band_u:
        rank_band()

    # blocks of a chunk's windows interleave their rows; within one u, kept
    # edges are in rank order
    eu, ev, cos = (np.concatenate(part) for part in zip(*kept))
    order = np.argsort(eu, kind="stable")
    eu, ev, cos = eu[order], ev[order], cos[order]
    heights = uh[eu] + vh[ev]
    features = np.column_stack([
        2.0 * (vx[ev] - ux[eu]) / heights,
        2.0 * (vy[ev] - uy[eu]) / heights,
        np.log(uh[eu] / vh[ev]),
        np.log(uw[eu] / vw[ev]),
        (starts[ev] - ends[eu]).astype(np.float64),
        cos,
    ])
    return TrackGraph(nodes, eu, ev, features, (lo, hi))
