"""Down-closed 2-D rate regions: construction, set ops, and gap metrics.

A region is stored as its own breakpoints r2max(r1), r1 ascending. Inner
(achievable) regions are chords between them, reachable by time sharing;
outer regions interpolate step-up (each cell takes its left breakpoint's
value), which never understates the boundary. A bound exact at its
breakpoints therefore stays an upper bound, and every outer bound of the
package is built that way, never sampled from below. A uniform table
(`RateRegion.on_grid`) is made only for CSV and JSON output.

The additive and multiplicative gaps are computed in closed form, not
searched: each outer breakpoint is shifted (or scaled) onto the inner
region's boundary polygon, its breakpoints joined by chords and closed
down to (r1_max, 0). They are exact over the outer breakpoints.
"""

from __future__ import annotations

import enum
import io
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import EmptyInput, MixedKinds

R1_GRID_DEFAULT = 2048

_FLOAT_FMT = "%.12e"
_MONO_SNAP = 1e-9


class Kind(enum.Enum):
    INNER = "inner"
    OUTER = "outer"


@dataclass(frozen=True, eq=False)
class RateRegion:
    """Boundary breakpoints of a down-closed rate region, in bits."""

    kind: Kind
    r1: np.ndarray
    r2: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        r1 = np.asarray(self.r1, dtype=float)
        r2 = np.asarray(self.r2, dtype=float)
        if r1.ndim != 1 or r1.shape != r2.shape or r1.size == 0:
            raise ValueError("r1/r2 must be matching 1-D arrays")
        if r1[0] < 0 or (r1.size > 1 and np.any(np.diff(r1) <= 0)):
            raise ValueError("r1 must ascend from 0")
        if np.any(r2 < -_MONO_SNAP) or np.any(~np.isfinite(r2)):
            raise ValueError("r2 must be finite and nonnegative")
        bumps = np.diff(r2)
        if bumps.size and bumps.max() > _MONO_SNAP:
            raise ValueError(f"r2 not non-increasing (bump {bumps.max():.3e})")
        r2 = np.minimum.accumulate(np.clip(r2, 0.0, None))
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "r2", r2)

    @property
    def r1_max(self) -> float:
        return float(self.r1[-1])

    @property
    def region_id(self) -> str:
        return self.meta.get("id", "")

    def boundary_at(self, x, outside=np.nan):
        """r2max at query points, per this kind's interpolation rule."""
        x = np.asarray(x, dtype=float)
        if self.kind is Kind.INNER:
            vals = np.interp(x, self.r1, self.r2)
        else:
            idx = np.clip(np.searchsorted(self.r1, x, side="right") - 1,
                          0, self.r1.size - 1)
            vals = self.r2[idx]
        return np.where((x >= -1e-12) & (x <= self.r1_max * (1 + 1e-12) + 1e-12),
                        vals, outside)

    def contains_points(self, x, y, tol: float = 0.0) -> np.ndarray:
        """Elementwise membership of (x, y) pairs, with slack tol in bits."""
        b = self.boundary_at(x, outside=-np.inf)
        return np.asarray(y, float) <= b + tol

    def on_grid(self, grid: int) -> "RateRegion":
        """This region read at `grid` uniform r1 nodes on [0, r1_max], for
        CSV and JSON output: r2 by this kind's interpolation rule, and at
        each node the params of the breakpoint at or left of it."""
        gx = _uniform_grid(self.r1_max, grid)
        sel = np.maximum(np.searchsorted(self.r1, gx, side="right") - 1, 0)
        meta = dict(self.meta)
        if "params" in meta:
            meta["params"] = {k: v[sel] for k, v in meta["params"].items()}
        return RateRegion(self.kind, gx, self.boundary_at(gx), meta)

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        params = self.meta.get("params", {})
        cols = ["r1", "r2"] + list(params)
        buf = io.StringIO()
        buf.write(",".join(cols) + "\n")
        data = [self.r1, self.r2] + [np.asarray(params[k], float) for k in params]
        for row in zip(*data):
            buf.write(",".join(_FLOAT_FMT % v for v in row) + "\n")
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind.value, "id": self.region_id,
             "r1": self.r1.tolist(), "r2": self.r2.tolist()}
        params = self.meta.get("params", {})
        if params:
            d["params"] = {k: np.asarray(v, float).tolist() for k in params
                           for v in [params[k]]}
        return d

    @classmethod
    def from_csv(cls, text: str, kind: Kind) -> "RateRegion":
        lines = [ln for ln in text.strip().splitlines() if ln]
        header = lines[0].split(",")
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        meta = {}
        if len(header) > 2:
            meta["params"] = {h: rows[:, i] for i, h in enumerate(header) if i >= 2}
        return cls(kind, rows[:, 0], rows[:, 1], meta)

    @classmethod
    def from_json_dict(cls, d: dict) -> "RateRegion":
        meta = {"id": d.get("id", "")}
        if "params" in d:
            meta["params"] = {k: np.asarray(v, float) for k, v in d["params"].items()}
        return cls(Kind(d["kind"]), np.asarray(d["r1"], float),
                   np.asarray(d["r2"], float), meta)


@dataclass(frozen=True)
class GapReport:
    """Additive (bits) and multiplicative (ratio) gap between two regions."""

    additive: float
    multiplicative: float
    worst_r1_additive: float
    worst_r1_multiplicative: float

    def to_json_dict(self) -> dict:
        return {"additive_bits": self.additive,
                "multiplicative": self.multiplicative,
                "worst_r1_additive": self.worst_r1_additive,
                "worst_r1_multiplicative": self.worst_r1_multiplicative}


def _uniform_grid(r1max: float, grid: int) -> np.ndarray:
    """Uniform r1 grid on [0, r1max], collapsed to the origin when it would
    not strictly ascend (zero support, or a subnormal r1max whose spacing
    underflows)."""
    gx = np.linspace(0.0, r1max, grid)
    if gx.size > 1 and not np.all(gx[1:] > gx[:-1]):
        return np.array([0.0])
    return gx


def _bin_index(u: np.ndarray, nbins: int) -> np.ndarray:
    """Each point's bin, int(min(u * nbins, nbins - 1)) for u = x / top in
    [0, 1]: the one binning rule of the envelope reducers. Bins are
    monotone in x, and x = top falls in the last one."""
    return np.minimum(u * nbins, nbins - 1).astype(np.int64)


def _later_max(best: np.ndarray) -> np.ndarray:
    """later[j] = the largest of best[j + 1:], -inf for the last bin."""
    return np.maximum.accumulate(np.append(best[1:], -np.inf)[::-1])[::-1]


def _pareto_filter(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Indices of non-dominated points, ascending in r1 (r2 descending).

    Among equal points the lowest index wins: a stable sort on (r1, -r2)
    and a suffix maximum of r2.
    """
    order = np.lexsort((-r2, r1))
    r1s, r2s = r1[order], r2[order]
    first = np.ones(r1s.size, dtype=bool)
    first[1:] = r1s[1:] != r1s[:-1]
    order, r2s = order[first], r2s[first]
    suffix = np.maximum.accumulate(r2s[::-1])[::-1]
    keep = np.empty(r2s.size, dtype=bool)
    keep[-1] = True
    keep[:-1] = r2s[:-1] > suffix[1:]
    return order[keep]


def _upper_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the upper concave envelope of points sorted by x.

    The first and last points are always kept; every other kept point lies
    strictly above the hull edge it was added against (by the rounded cross
    product), not always above the chord of its final neighbours. Vectorised
    quickhull: each pass adds, per hull edge, the candidate farthest above
    that edge (the first one on ties) and discards those on or below it.
    """
    n = x.size
    if n < 3:
        return np.arange(n)
    # a point on or below the chord of its two neighbours is no vertex
    cross = ((x[1:-1] - x[:-2]) * (y[2:] - y[:-2])
             - (y[1:-1] - y[:-2]) * (x[2:] - x[:-2]))
    cand = np.flatnonzero(cross < 0.0) + 1
    verts = np.array([0, n - 1])
    while cand.size:
        seg = np.searchsorted(verts, cand) - 1
        a, b = verts[seg], verts[seg + 1]
        h = (y[cand] - y[a]) * (x[b] - x[a]) - (y[b] - y[a]) * (x[cand] - x[a])
        above = h > 0.0
        cand, seg, h = cand[above], seg[above], h[above]
        if not cand.size:
            break
        top = np.full(verts.size, -np.inf)
        np.maximum.at(top, seg, h)
        hit = np.flatnonzero(h == top[seg])
        first = hit[np.concatenate(([True], seg[hit[1:]] != seg[hit[:-1]]))]
        verts = np.sort(np.concatenate([verts, cand[first]]))
        rest = np.ones(cand.size, dtype=bool)
        rest[first] = False
        cand = cand[rest]
    return verts


class GroupBlock(NamedTuple):
    """Rows in groups, each in its polygon {r1 <= min(r1_cap, sum_cap),
    r1 + r2 <= sum_cap, r2 <= sum_cap}. rows(keep, width) gives the rows
    of groups `keep` as one block of columns (r1, r2, then a row per
    param), of which the envelope reads the first `width`."""

    rows: Callable
    r1_cap: np.ndarray
    sum_cap: np.ndarray


def _kept_groups(block: GroupBlock, later, top: float, nbins: int):
    """Groups that may pass the cull's first test r2 > later[i]. A row in
    bin i has r1 >= (i - 1) top / nbins, so r2 <= sum_cap less that: a
    group is kept where, on a bin up to its r1 bound's, that exceeds
    later[i] less a 1e-9 max(top, 1) margin, or where a bound is nan."""
    tol = 1e-9 * max(top, 1.0)
    lo = np.maximum(np.arange(-1.0, nbins - 1.0) * (top / nbins), 0.0)
    lim = np.minimum.accumulate(later + lo)
    with np.errstate(over="ignore", invalid="ignore"):
        u = (np.minimum(block.r1_cap, block.sum_cap) + tol) / top
    reach = _bin_index(np.where(u < 1.0, np.maximum(u, 0.0), 1.0), nbins)
    return np.flatnonzero(~(block.sum_cap + tol <= lim[reach]))


def _front_candidates(points, width: int = 2, nbins: int = 4096):
    """Finite points of a cloud, clipped at zero, that may lie on its front.

    `points` is one block, or an iterator of blocks and `GroupBlock`s. A
    block is a float array of columns: its rows are r1, r2, then one per
    param; the first `width` rows are kept, so a cloud may carry params
    its caller does not read. Each block is culled as it arrives against
    the running per-bin maxima of r2, a point's bin being
    `_bin_index(r1 / top)` with `top` the largest r1 seen so far; blocks
    pass whole while it is zero. A block whose largest r1 exceeds `top`
    first rebins the points held so far on its own, so every bin maximum
    is a held point's under the one rule; a point dropped before lies at
    or below a held point of larger r1, so the rebuild loses no cull. A
    culled point lies at or below the best r2 of a later bin, whose points
    all have larger r1, so it is strictly dominated: the front and its
    equal-point ties survive (equal points share a bin). A block is culled
    twice: against the bins of the blocks before it, then, once its
    survivors are scattered into the bins, against those. A point culled
    the first time lies at or below every suffix maximum from its own bin
    down, so it could raise none, and the bins, suffix maxima and survivors
    are those of scattering the whole block. A GroupBlock's groups that
    would fail the first test whole are never evaluated (`_kept_groups`).
    Last, the held points are culled against the final bins: the last bin
    to attain a suffix maximum attains it with a held point, which stays,
    so only points that it strictly dominates go. Returns the survivors'
    `width` rows, in the order they arrived.
    """
    blocks = points if isinstance(points, Iterator) else [points]
    later = np.full(nbins, -np.inf)
    top, supplied, held = 0.0, False, []
    for block in blocks:
        if isinstance(block, GroupBlock):
            block = block.rows(
                _kept_groups(block, later, top, nbins) if top > 0.0
                else np.arange(block.r1_cap.size), width)
        cols = np.asarray(block, dtype=float)
        cols = cols[:width] if cols.size else np.empty((width, 0))
        supplied = supplied or cols.size > 0
        if not np.isfinite(cols[:2]).all():
            cols = cols[:, np.isfinite(cols[:2]).all(axis=0)]
        r1 = np.clip(cols[0], 0.0, None)
        if r1.max(initial=0.0) > top:
            top = r1.max()
            best = np.full(nbins, -np.inf)
            for h in held:
                np.maximum.at(best, _bin_index(h[0] / top, nbins), h[1])
            later = _later_max(best)
        cand = np.arange(cols.shape[1])
        if top > 0.0:
            idx = _bin_index(r1 / top, nbins)
            # later >= 0 wherever it is finite, so a negative r2 meets it
            # as its clipped zero would
            cand = np.flatnonzero(cols[1] > later[idx])
            idx, r2 = idx[cand], np.clip(cols[1, cand], 0.0, None)
            np.maximum.at(best, idx, r2)
            later = _later_max(best)
            cand = cand[r2 > later[idx]]
        cols = cols[:, cand]  # the survivors' columns, copied
        np.clip(cols[:2], 0.0, None, out=cols[:2])
        held.append(cols)
    if not supplied:
        raise EmptyInput("no points supplied")
    cols = np.concatenate(held, axis=1)
    if cols.shape[1] == 0:
        raise EmptyInput("no finite points supplied")
    if top > 0.0:  # the held points that the final bins dominate
        cols = cols[:, cols[1] > later[_bin_index(cols[0] / top, nbins)]]
    return cols


def from_pareto_points(points, names=(), region_id: str = "") -> RateRegion:
    """Build an inner region from achievable sample points.

    `points` is one block of columns (r1, r2, then one row per name of
    `names`), or an iterator of blocks (see `_front_candidates`), so a
    sweep can hand over its cloud one block at a time without holding it.
    Dominated points are discarded and negatives clamped to zero; the
    boundary starts at (0, r2 of the first front point) and keeps the
    upper-hull vertices of the front, so the region holds every point of
    the cloud. Each kept vertex's param columns go to meta["params"],
    keyed by `names`; among exactly equal points, the first to arrive
    wins. Outer regions are never sampled: they wrap exact node values
    (`from_boundary`).
    """
    cols = _front_candidates(points, 2 + len(names))
    cols = cols[:, _pareto_filter(cols[0], cols[1])]

    # coalesce r1 ties within 1e-9 * max(r1_max, 1), keeping the first (the
    # largest r2): without it best_inner's top corner drops near-vertically
    # within 1e-13 of r1_max, and a boundary read there falls by bits
    tie = 1e-9 * max(float(cols[0, -1]), 1.0)
    cols = cols[:, np.concatenate([[True], np.diff(cols[0]) > tie])]

    if cols[0, 0] > 0.0:  # start on the r2 axis
        cols = np.concatenate([cols[:, :1], cols], axis=1)
        cols[0, 0] = 0.0
    cols = cols[:, _upper_hull(cols[0], cols[1])]

    meta: dict = {"id": region_id}
    if names:
        meta["params"] = dict(zip(names, cols[2:]))
    return RateRegion(Kind.INNER, cols[0], cols[1], meta)


def from_boundary(r1_grid, r2_vals, kind: Kind, region_id: str = "",
                  params: dict | None = None) -> RateRegion:
    """Wrap an exactly evaluated boundary (no resampling)."""
    meta: dict = {"id": region_id}
    if params:
        meta["params"] = {k: np.asarray(v, float) for k, v in params.items()}
    return RateRegion(kind, np.asarray(r1_grid, float),
                      np.asarray(r2_vals, float), meta)


def _common_kind(regions, op: str) -> Kind:
    if not regions:
        raise EmptyInput(f"{op} of nothing")
    kinds = {r.kind for r in regions}
    if len(kinds) != 1:
        raise MixedKinds("regions must share a kind")
    return kinds.pop()


def union(regions) -> RateRegion:
    """Inner members give the time-sharing hull of all their breakpoints;
    outer ones the largest boundary, exact at their merged breakpoints."""
    regions = list(regions)
    kind = _common_kind(regions, "union")
    rid = "|".join(r.region_id for r in regions)
    if kind is Kind.INNER:
        return from_pareto_points(
            np.concatenate([[r.r1, r.r2] for r in regions], axis=1),
            region_id=rid)
    xs = np.unique(np.concatenate([r.r1 for r in regions]))
    ys = np.max([r.boundary_at(xs, outside=-np.inf) for r in regions], axis=0)
    return RateRegion(kind, xs, np.clip(ys, 0.0, None), {"id": rid})


def intersect(regions) -> RateRegion:
    """Smallest boundary at the breakpoints of the (first) member of least
    support: exact where members share them, as the outer bounds on one
    `r1_grid` do, and otherwise erring outward for outer members."""
    regions = list(regions)
    kind = _common_kind(regions, "intersection")
    gx = min(regions, key=lambda r: r.r1_max).r1
    gy = np.min([r.boundary_at(gx, outside=np.inf) for r in regions], axis=0)
    return RateRegion(kind, gx, np.clip(gy, 0.0, None),
                      {"id": "&".join(r.region_id for r in regions)})


def contains(outer: RateRegion, inner: RateRegion, tol: float = 0.0):
    """Check inner boundary <= outer boundary + tol on the merged grid.

    Returns (ok, violations) with violations as (r1, excess_bits) pairs.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    xs = np.unique(np.concatenate([inner.r1, outer.r1]))
    xs = xs[xs <= inner.r1_max * (1 + 1e-12) + 1e-12]
    iv = inner.boundary_at(xs, outside=0.0)
    ov = outer.boundary_at(xs, outside=-np.inf)
    excess = iv - (ov + tol)
    bad = excess > 0
    violations = list(zip(xs[bad].tolist(), (iv[bad] - ov[bad]).tolist()))
    return not bad.any(), violations


def _inner_polygon(inner: RateRegion):
    """Inner boundary vertices, from (0, r2(0)) down to (r1_max, 0)."""
    if inner.kind is not Kind.INNER:
        raise MixedKinds("gaps are measured against an inner region")
    return (np.concatenate(([0.0], inner.r1, [inner.r1_max])),
            np.concatenate((inner.r2[:1], inner.r2, [0.0])))


def additive_gap(outer: RateRegion, inner: RateRegion) -> tuple[float, float]:
    """Smallest per-coordinate shift delta putting every outer sample in inner.

    Returns (delta_bits, worst_r1); shifted rates clamp at zero. A shift
    keeps r1 - r2, which rises along the inner polygon, so each sample
    exits where the polygon has its r1 - r2, or past an end at its corner.
    """
    px, py = _inner_polygon(inner)
    u = outer.r1 - outer.r2
    delta = np.maximum(np.maximum(outer.r1 - np.interp(u, px - py, px),
                                  outer.r2 - np.interp(u, px - py, py)), 0.0)
    i = int(np.argmax(delta))
    return float(delta[i]), float(outer.r1[i])


def multiplicative_gap(outer: RateRegion, inner: RateRegion) -> tuple[float, float]:
    """Smallest M >= 1 with every outer sample, scaled by 1/M, inside inner.

    Returns (M, worst_r1). A sample's ray crosses the inner polygon once, on
    the segment whose end angles bracket its own; it misses (M = inf) only
    when inner has r1_max = 0 or r2(0) = 0.
    """
    px, py = _inner_polygon(inner)
    x, y = outer.r1, outer.r2
    j = np.searchsorted(-np.arctan2(py, px), -np.arctan2(y, x), side="right")
    k = np.clip(j - 1, 0, px.size - 2)
    dx, dy = px[k + 1] - px[k], py[k + 1] - py[k]
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(j == 0, np.inf, (dx * y - dy * x) / (dx * py[k] - dy * px[k]))
        # a ray along an axis runs along the boundary to its far end
        m = np.select([(x == 0.0) & (y == 0.0), x == 0.0, y == 0.0],
                      [0.0, y / py[0], x / px[-1]], m)
    i = int(np.argmax(m))
    return (float(m[i]), float(x[i])) if m[i] > 1.0 else (1.0, float(x[0]))


def gap_report(outer: RateRegion, inner: RateRegion) -> GapReport:
    add, wr_a = additive_gap(outer, inner)
    mul, wr_m = multiplicative_gap(outer, inner)
    return GapReport(add, mul, wr_a, wr_m)
