import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcifc.errors import EmptyInput, MixedKinds
from gcifc.region import (GapReport, GroupBlock, Kind, RateRegion,
                          _front_candidates, _pareto_filter, _upper_hull,
                          additive_gap, contains, from_boundary,
                          from_pareto_points, gap_report, intersect,
                          multiplicative_gap, union)


def line_region(intercept, slope, kind=Kind.INNER, grid=257):
    r1max = intercept / slope
    x = np.linspace(0.0, r1max, grid)
    return from_boundary(x, intercept - slope * x, kind)


# (r1 increment, r2 decrement) steps of a monotone boundary from the r2 axis
_STEPS = st.lists(st.tuples(st.floats(0.01, 1.0),
                            st.one_of(st.just(0.0), st.floats(0.01, 1.0))),
                  min_size=1, max_size=12)


def _staircase(pts):
    """(r1, r2) of the least step-up boundary over a cloud: at 0 and at
    each r1 of the cloud, the largest r2 (clipped at 0) of the points at or
    right of it."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    order = np.argsort(pts[:, 0], kind="stable")
    xs = pts[order, 0]
    tail = np.maximum.accumulate(np.clip(pts[order, 1], 0.0, None)[::-1])[::-1]
    x = np.union1d(0.0, xs)
    return x, tail[np.searchsorted(xs, x)]


def _monotone(steps, kind, concave=False):
    """Boundary from (0, sum of all decrements) that takes the steps after
    the first in turn; with `concave`, its upper concave envelope on the
    same abscissae."""
    dx, dy = np.array(steps).T
    x = np.r_[0.0, np.cumsum(dx[1:])]
    y = np.cumsum(dy[::-1])[::-1]
    if concave:
        hull = _upper_hull(x, y)
        y = np.interp(x, x[hull], y[hull])
    return from_boundary(x, y, kind)


def _concave_clouds(rng, count):
    """Clouds under random concave boundaries h (1 - (r1 / w)^q), q > 1,
    half of the points on the boundary and half below it, then one under
    the kinked boundary min(2 - 0.2 r1, 6 - 3 r1)."""
    for _ in range(count):
        w, h = rng.uniform(0.5, 8.0, 2)
        x = rng.uniform(0.0, w, 300)
        y = h * (1.0 - (x / w) ** rng.uniform(1.2, 4.0))
        below = rng.random(x.size) < 0.5
        yield np.stack([x, y - below * rng.uniform(0.0, 1.0, x.size)], axis=1)
    x = rng.uniform(0.0, 3.0, 300)
    yield np.stack([x, np.minimum(2.0 - 0.2 * x, 6.0 - 3.0 * x)], axis=1)


class TestFromParetoPoints:
    def test_inner_holds_its_cloud(self, rng):
        # the hull vertices are kept, not chords between uniform nodes
        for pts in _concave_clouds(rng, 20):
            reg = from_pareto_points(pts.T)
            assert np.all(reg.contains_points(pts[:, 0], pts[:, 1], tol=1e-12))

    def test_collinear_inner(self):
        reg = from_pareto_points([[0, 1, 2], [2, 1, 0]])
        assert np.allclose(reg.r2, 2.0 - reg.r1, atol=1e-12)

    def test_dominated_point_convexified(self):
        reg = from_pareto_points([[0, 1, 2], [2, 0.5, 0]])
        assert np.allclose(reg.r2, 2.0 - reg.r1, atol=1e-12)

    def test_outer_step_up(self):
        reg = from_boundary([0, 1], [2, 1], Kind.OUTER)
        assert float(reg.boundary_at(0.5)) == pytest.approx(2.0)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            from_pareto_points([])
        with pytest.raises(EmptyInput):
            from_pareto_points([[np.nan], [1.0]])

    def test_negative_rates_clamped(self):
        reg = from_pareto_points([[1.0, 0.5], [-0.5, 0.25]])
        assert reg.r2.min() >= 0.0
        assert reg.r1_max == pytest.approx(1.0)

    def test_params_carried(self):
        reg = from_pareto_points([[0, 2], [2, 0], [0.0, 1.0]], ("alpha",))
        assert list(reg.meta["params"]) == ["alpha"]
        assert reg.meta["params"]["alpha"].tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("kind", [Kind.INNER, Kind.OUTER])
    def test_subnormal_scale_large_cloud(self, kind):
        # more points than the pre-cull has bins, and r1 below 2.3e-305,
        # where scaling r1 by nbins / top would overflow to inf
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 1e-306, 5000)
        y = 3.0 - x * 1e306 + rng.uniform(0.0, 0.5, x.size)
        pts = np.stack([x, y], axis=1)
        reg = (from_pareto_points(pts.T) if kind is Kind.INNER
               else from_boundary(*_staircase(pts), kind))
        assert reg.kind is kind and reg.r1[0] == 0.0
        assert 0.0 < reg.r1_max <= x.max()
        assert reg.r2[0] == y.max()
        assert np.all(np.isfinite(reg.r2)) and np.all(np.diff(reg.r2) <= 0.0)


class TestSetOps:
    def test_union_upper_envelope_with_hull(self):
        a = line_region(1.0, 1.0)
        b = line_region(2.0, 2.0)
        u = union([a, b])
        # hull of the two lines: straight between (0,2) and (1,0)
        assert float(u.boundary_at(0.5)) == pytest.approx(1.0, abs=1e-3)
        assert float(u.boundary_at(0.0)) == pytest.approx(2.0, abs=1e-12)

    def test_intersect_idempotent(self):
        x = line_region(2.0, 1.0, Kind.OUTER, grid=2048)
        both = intersect([x, x])
        assert np.allclose(both.r2, x.r2, atol=0)

    def test_intersect_resample_is_conservative(self):
        # other breakpoints are read at the first least-support member's
        # and held step-up: never below, within one of its cells
        x = line_region(2.0, 1.0, Kind.OUTER, grid=257)
        y = line_region(2.0, 1.0, Kind.OUTER, grid=2048)
        both = intersect([x, y])
        assert np.array_equal(both.r1, x.r1)
        xs = np.union1d(x.r1, y.r1)
        exact = np.minimum(x.boundary_at(xs), y.boundary_at(xs))
        vals = both.boundary_at(xs)
        cell = 2.0 / 256
        assert np.all(vals >= exact - 1e-12)
        assert np.max(vals - exact) <= cell + 1e-12

    def test_inner_union_is_the_hull_of_the_clouds(self, rng):
        clouds = list(_concave_clouds(rng, 6))
        for a, b in zip(clouds[:-1], clouds[1:]):
            u = union([from_pareto_points(a.T), from_pareto_points(b.T)])
            want = from_pareto_points(np.concatenate([a, b]).T)
            assert np.array_equal(u.r1, want.r1)
            assert np.array_equal(u.r2, want.r2)

    def test_outer_union_is_the_max_at_merged_breakpoints(self, rng):
        clouds = list(_concave_clouds(rng, 6))
        for a, b in zip(clouds[:-1], clouds[1:]):
            ra, rb = (from_boundary(*_staircase(c), Kind.OUTER)
                      for c in (a, b))
            u = union([ra, rb])
            xs = np.union1d(ra.r1, rb.r1)
            assert np.array_equal(u.r1, xs)
            for x in (xs, (xs[1:] + xs[:-1]) / 2.0):
                want = np.maximum(ra.boundary_at(x, outside=-np.inf),
                                  rb.boundary_at(x, outside=-np.inf))
                assert np.array_equal(u.boundary_at(x), want)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(MixedKinds):
            intersect([line_region(1, 1, Kind.INNER),
                       line_region(1, 1, Kind.OUTER)])
        with pytest.raises(MixedKinds):
            union([line_region(1, 1, Kind.INNER),
                   line_region(1, 1, Kind.OUTER)])

    # the inner union coalesces the r1 tie at 5e-324; the intersection
    # keeps the member's own breakpoints
    def test_union_subnormal_support(self):
        tiny = from_boundary([0.0, 5e-324], [1.0, 0.5], Kind.INNER)
        u = union([tiny, tiny])
        assert u.r1.tolist() == [0.0] and u.r2.tolist() == [1.0]

    def test_intersect_subnormal_support(self):
        tiny = from_boundary([0.0, 5e-324], [1.0, 0.5], Kind.OUTER)
        cut = intersect([tiny, line_region(2.0, 1.0, Kind.OUTER)])
        assert cut.r1.tolist() == [0.0, 5e-324]
        assert cut.r2.tolist() == [1.0, 0.5]

    def test_intersect_shared_grid_exact(self):
        x = np.linspace(0, 1, 65)
        a = from_boundary(x, 2 - x, Kind.OUTER)
        b = from_boundary(x, 1.5 - 0.25 * x, Kind.OUTER)
        cut = intersect([a, b])
        assert np.allclose(cut.r2, np.minimum(a.r2, b.r2), atol=0)


class TestOnGrid:
    @pytest.mark.parametrize("kind", [Kind.INNER, Kind.OUTER])
    def test_table_reads_the_region(self, rng, kind):
        # at its nodes the table is the region, with the params of the
        # breakpoint at or left of each node; between nodes an inner table
        # lies on or below the region and an outer one on or above it
        for pts in _concave_clouds(rng, 10):
            if kind is Kind.INNER:
                reg = from_pareto_points(
                    np.vstack([pts.T, np.arange(len(pts))]), ("i",))
            else:
                x, y = _staircase(pts)
                reg = from_boundary(x, y, kind, params={"i": np.arange(x.size)})
            xs = np.union1d(reg.r1, np.linspace(0.0, reg.r1_max, 1001))
            for g in (2, 33, 129):
                tab = reg.on_grid(g)
                assert tab.r1.size == g and tab.r1[-1] == reg.r1_max
                assert np.array_equal(tab.r2, reg.boundary_at(tab.r1))
                left = np.searchsorted(reg.r1, tab.r1, side="right") - 1
                assert np.array_equal(tab.meta["params"]["i"],
                                      reg.meta["params"]["i"][left])
                diff = tab.boundary_at(xs) - reg.boundary_at(xs)
                if kind is Kind.INNER:
                    assert diff.max() <= 1e-12
                else:
                    assert diff.min() >= 0.0

    def test_collapses_on_a_subnormal_support(self):
        tiny = from_boundary([0.0, 5e-324], [1.0, 0.5], Kind.OUTER)
        tab = tiny.on_grid(9)
        assert tab.r1.tolist() == [0.0] and tab.r2.tolist() == [1.0]


class TestContains:
    def test_self_containment(self):
        x = line_region(2.0, 1.0)
        ok, viol = contains(x, x, tol=0.0)
        assert ok

    def test_violation_located(self):
        small = line_region(2.0, 1.0, Kind.OUTER)
        big = line_region(3.0, 1.0)
        ok, viol = contains(small, big, tol=0.0)
        assert not ok
        r1s = [v[0] for v in viol]
        assert min(r1s) == pytest.approx(0.0)
        excess_at_zero = dict((round(v[0], 12), v[1]) for v in viol)[0.0]
        assert excess_at_zero == pytest.approx(1.0, abs=1e-9)


class TestGaps:
    def test_identical_regions(self):
        x = line_region(2.0, 1.0)
        o = line_region(2.0, 1.0, Kind.OUTER)
        rep = gap_report(o, x)
        assert rep.additive == pytest.approx(0.0, abs=1e-6)
        assert rep.multiplicative == pytest.approx(1.0, abs=1e-6)

    def test_half_bit_diagonal_shift(self):
        # inner is the outer shifted diagonally inward by 0.5 (with the
        # zero-clamped tail), so the per-coordinate shift is exactly 0.5
        outer = line_region(2.0, 1.0, Kind.OUTER)
        x = np.linspace(0.0, 2.0, 257)
        inner = from_boundary(x, np.maximum(1.5 - x, 0.0), Kind.INNER)
        gap, _ = additive_gap(outer, inner)
        assert gap == pytest.approx(0.5, abs=1e-5)

    def test_shift_clamp_binds_at_origin_corner(self):
        # with inner r2 = (1 - r1)^+ the r1 clamp pins the worst case to
        # the (0, 2) outer corner, which needs a full 1-bit shift
        outer = line_region(2.0, 1.0, Kind.OUTER)
        x = np.linspace(0.0, 2.0, 257)
        inner = from_boundary(x, np.maximum(1.0 - x, 0.0), Kind.INNER)
        gap, worst = additive_gap(outer, inner)
        assert gap == pytest.approx(1.0, abs=1e-5)
        assert worst == pytest.approx(0.0, abs=1e-9)

    def test_multiplicative_known_ratio(self):
        outer = line_region(2.0, 1.0, Kind.OUTER)
        inner = line_region(1.0, 0.5)  # same shape, half scale
        m, _ = multiplicative_gap(outer, inner)
        assert m == pytest.approx(2.0, abs=1e-6)

    def test_multiplicative_degenerate_inner(self):
        outer = line_region(2.0, 1.0, Kind.OUTER)
        inner = from_pareto_points([[1.0], [0.0]])
        m, _ = multiplicative_gap(outer, inner)
        assert math.isinf(m)

    def test_gap_zero_implies_equality(self):
        x = line_region(2.0, 1.0)
        o = line_region(2.0, 1.0, Kind.OUTER)
        gap, _ = additive_gap(o, x)
        assert gap <= 1e-6
        ok, _ = contains(o, x, tol=1e-9)
        assert ok

    @settings(max_examples=200, deadline=None)
    @given(inner_steps=_STEPS, outer_steps=_STEPS, concave=st.booleans())
    def test_gaps_by_definition(self, inner_steps, outer_steps, concave):
        # every outer sample is inside once shifted by delta (scaled by
        # 1/M), and the worst one is outside just short of it
        inner = _monotone(inner_steps, Kind.INNER, concave)
        outer = _monotone(outer_steps, Kind.OUTER)
        x, y = outer.r1, outer.r2
        delta, worst = additive_gap(outer, inner)
        w = int(np.flatnonzero(x == worst)[0])
        assert np.all(inner.contains_points(np.clip(x - delta, 0.0, None),
                                            np.clip(y - delta, 0.0, None),
                                            tol=1e-12))
        if delta > 1e-9:
            short = delta - 1e-9
            assert not inner.contains_points(max(x[w] - short, 0.0),
                                             max(y[w] - short, 0.0))
        m, worst = multiplicative_gap(outer, inner)
        if math.isinf(m):
            assert inner.r1_max == 0.0 or inner.r2[0] == 0.0
            return
        w = int(np.flatnonzero(x == worst)[0])
        assert np.all(inner.contains_points(x / m, y / m, tol=1e-12))
        if m > 1.0:
            short = m * (1.0 - 1e-9)
            assert not inner.contains_points(x[w] / short, y[w] / short)

    @pytest.mark.parametrize("inner_pts, outer_pts, delta, w_add, m, w_mul", [
        # inner region at the origin only
        ([(0.0, 0.0)], [(0.0, 1.0), (1.0, 0.5), (2.0, 0.0)],
         2.0, 2.0, math.inf, 0.0),
        # r1_max = 0 with r2(0) > 0: only the r2 axis is covered
        ([(0.0, 0.7)], [(0.0, 1.0), (1.0, 0.5), (2.0, 0.0)],
         2.0, 2.0, math.inf, 1.0),
        ([(0.0, 0.7)], [(0.0, 1.4)], 0.7, 0.0, 2.0, 0.0),
        # r2 = 0: only the r1 axis is covered, out to r1_max
        ([(0.0, 0.0), (1.0, 0.0)], [(0.0, 1.0), (1.0, 0.5), (2.0, 0.0)],
         1.0, 0.0, math.inf, 0.0),
        ([(0.0, 0.0), (1.0, 0.0)], [(0.0, 0.0), (2.0, 0.0)],
         1.0, 2.0, 2.0, 2.0),
        # an outer sample at the origin needs neither shift nor scale
        ([(0.0, 0.0)], [(0.0, 0.0)], 0.0, 0.0, 1.0, 0.0),
        ([(0.0, 1.0), (1.0, 0.0)], [(0.0, 0.0)], 0.0, 0.0, 1.0, 0.0),
        # a sample beyond the inner support shifts by x - r1_max
        ([(0.0, 1.0), (1.0, 0.0)], [(0.0, 0.5), (3.0, 0.5)],
         2.0, 3.0, 3.5, 3.0),
    ])
    def test_degenerate_cases(self, inner_pts, outer_pts, delta, w_add, m,
                              w_mul):
        inner = from_boundary(*zip(*inner_pts), Kind.INNER)
        outer = from_boundary(*zip(*outer_pts), Kind.OUTER)
        assert additive_gap(outer, inner) == (pytest.approx(delta, abs=1e-15),
                                              w_add)
        assert multiplicative_gap(outer, inner) == (pytest.approx(m, rel=1e-15),
                                                    w_mul)

    def test_gaps_need_an_inner_region(self):
        o = line_region(2.0, 1.0, Kind.OUTER)
        with pytest.raises(MixedKinds):
            additive_gap(o, o)
        with pytest.raises(MixedKinds):
            multiplicative_gap(o, o)


class TestInvariantsAndSerialization:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 10), st.floats(0, 10)),
                    min_size=1, max_size=40))
    @example(pts=[(5e-324, 0.0)])
    def test_boundary_monotone(self, pts):
        for reg in (from_pareto_points(np.transpose(pts)),
                    from_boundary(*_staircase(pts), Kind.OUTER)):
            assert np.all(np.diff(reg.r2) <= 1e-12)
            assert reg.r1[0] == 0.0

    def test_inner_refinement_never_shrinks_much(self, rng):
        # the 512-node table sits within 1e-3 bits of the 2048 one
        for _ in range(10):
            pts = np.abs(rng.normal(size=(60, 2))) * 3
            reg = from_pareto_points(pts.T)
            lo, hi = reg.on_grid(512), reg.on_grid(2048)
            drift = np.max(np.abs(hi.boundary_at(lo.r1) - lo.r2))
            assert drift <= 1e-3

    def test_outer_coarsening_never_decreases(self, rng):
        for _ in range(10):
            pts = np.abs(rng.normal(size=(60, 2))) * 3
            reg = from_boundary(*_staircase(pts), Kind.OUTER)
            fine, coarse = reg.on_grid(2048), reg.on_grid(128)
            assert np.all(coarse.boundary_at(fine.r1) >= fine.r2 - 1e-12)

    def test_bump_rejected(self):
        with pytest.raises(ValueError):
            RateRegion(Kind.INNER, np.array([0.0, 1.0, 2.0]),
                       np.array([1.0, 0.5, 0.8]))

    def test_csv_roundtrip_fidelity(self, rng):
        pts = np.abs(rng.normal(size=(40, 2))) * 5
        reg = from_pareto_points(np.vstack([pts.T, rng.uniform(size=40)]),
                                 ("alpha",))
        back = RateRegion.from_csv(reg.to_csv(), Kind.INNER)
        assert np.allclose(back.r1, reg.r1, rtol=1e-12, atol=1e-300)
        assert np.allclose(back.r2, reg.r2, rtol=1e-12, atol=1e-300)
        assert np.allclose(back.meta["params"]["alpha"],
                           reg.meta["params"]["alpha"], rtol=1e-12)

    def test_json_roundtrip(self):
        reg = from_boundary([0, 2], [2, 0], Kind.OUTER)
        back = RateRegion.from_json_dict(reg.to_json_dict())
        assert back.kind is Kind.OUTER
        assert np.allclose(back.r2, reg.r2)

    def test_gap_report_fields(self):
        rep = GapReport(0.1, 1.2, 0.3, 0.4)
        d = rep.to_json_dict()
        assert d["additive_bits"] == 0.1
        assert d["multiplicative"] == 1.2


def _hull_by_definition(x, y):
    """Vertices by definition: the ends, and every point strictly above
    each chord between a point before it and a point after it."""
    out = []
    for i in range(x.size):
        j, k = np.meshgrid(np.arange(i), np.arange(i + 1, x.size),
                           indexing="ij")
        h = (y[i] - y[j]) * (x[k] - x[j]) - (y[k] - y[j]) * (x[i] - x[j])
        if i in (0, x.size - 1) or np.all(h > 0):
            out.append(i)
    return np.asarray(out, dtype=int)


def _pareto_lexsort(r1, r2):
    """Plain sort-based Pareto filter (lowest index wins among equals)."""
    order = np.lexsort((-r2, r1))
    r1s, r2s = r1[order], r2[order]
    first = np.r_[True, r1s[1:] != r1s[:-1]]
    order, r2s = order[first], r2s[first]
    suffix = np.maximum.accumulate(r2s[::-1])[::-1]
    return order[np.r_[r2s[:-1] > suffix[1:], True]]


def _clouds(rng, count):
    """Clouds with exact cross products (coordinates on a binary grid) in
    five shapes: plain, all-zero r2, collinear, near-vertical ends (r1
    bunched within 2^-26 of 0 and of 1), collinear runs. Duplicate r1
    values are common; the first cloud is a single point."""
    for trial in range(count):
        n = 1 if trial == 0 else int(rng.integers(2, 40))
        x = rng.integers(0, 12, n).astype(float)
        y = rng.integers(0, 12, n).astype(float)
        shape = trial % 5
        if shape == 1:
            y[:] = 0.0
        elif shape == 2:
            y = 20.0 - 2.0 * x
        elif shape == 3:
            x = np.where(rng.random(n) < 0.5, x, 2.0 ** 30 - x) * 2.0 ** -30
        elif shape == 4:
            y = np.where(rng.random(n) < 0.5, 20.0 - 2.0 * x, y)
        yield x, y


class TestEnvelopeKernels:
    def test_hull_matches_definition(self, rng):
        for trial, (x, y) in enumerate(_clouds(rng, 400)):
            pts = np.unique(np.stack([x, y], axis=1), axis=0)
            if trial % 2:  # ties in x also arrive with r2 descending
                pts = pts[np.lexsort((-pts[:, 1], pts[:, 0]))]
            hx, hy = pts[:, 0].copy(), pts[:, 1].copy()
            assert np.array_equal(_upper_hull(hx, hy),
                                  _hull_by_definition(hx, hy))

    def test_hull_vertices_lie_above_their_edge(self, rng):
        """Every interior vertex lies strictly above, by the hull's rounded
        cross product, the chord of two other vertices, one on either side
        (the edge it was added against), though not always above the chord
        of its final neighbours: on scheme E at (0.7, 0, 3, 7) some sit
        exactly on it, and on scheme F at (-0.6+0.2j, 1.7, 1e308, 1e308) one
        sits below it by rounding."""
        def check(x, y, v, only=None):
            for m in range(1, v.size - 1) if only is None else only:
                a, b = v[:m, None], v[None, m + 1:]
                h = ((y[v[m]] - y[a]) * (x[b] - x[a])
                     - (y[b] - y[a]) * (x[v[m]] - x[a]))
                assert (h > 0.0).any(), (m, v.size)

        def neighbour_cross(x, y):
            return ((y[1:-1] - y[:-2]) * (x[2:] - x[:-2])
                    - (y[2:] - y[:-2]) * (x[1:-1] - x[:-2]))

        for trial in range(300):
            # near-collinear runs, whose cross products round
            n = int(rng.integers(3, 40))
            x = np.sort(rng.uniform(0.0, rng.uniform(0.1, 10.0), n))
            y = rng.uniform(1.0, 3.0) - rng.uniform(0.1, 3.0) * x
            if trial % 2:
                y = y - rng.random(n) * 1e-15 * (trial % 4 == 1)
            v = _upper_hull(x, y)
            assert v[0] == 0 and v[-1] == n - 1
            check(x, y, v)
        from gcifc import inner
        from gcifc.channel import ChannelParams
        for build, ch, sign in (
                (inner.scheme_e, ChannelParams(0.7, 0.0, 3.0, 7.0), 0),
                (inner.scheme_f, ChannelParams(-0.6 + 0.2j, 1.7, 1e308,
                                               1e308), -1)):
            reg = build(ch)
            h = neighbour_cross(reg.r1, reg.r2)
            odd = np.flatnonzero(np.sign(h) == sign) + 1
            assert odd.size
            check(reg.r1, reg.r2, np.arange(reg.r1.size), odd)

    def test_final_recull_drops_only_dominated(self, rng):
        """On streams whose later blocks dominate held points of earlier
        ones, every source point that `_front_candidates` does not return
        is strictly dominated by one that it does, and no returned point
        lies at or below the largest r2 of a later bin: the final cull
        leaves no point that the final bins dominate."""
        def stream(trial):
            start = 0
            for k in range(int(rng.integers(1, 7))):
                n = int(rng.integers(0, 50))
                top = rng.uniform(0.5, 2.0) * (1.0 + k / 2)
                x = rng.uniform(0.0, top, n)
                y = (1.0 + k / 3) * top * (1.0 - (x / top) ** 2)
                y -= rng.uniform(0.0, 0.5, n) * (rng.random(n) < 0.5)
                if trial % 2:  # a binary grid, with exact ties
                    x, y = np.round(x * 8) / 8, np.round(y * 8) / 8
                rows = np.stack([x, y, start + np.arange(n)])
                start += n
                inf = np.full(1, np.inf)
                yield (rows if k % 2 else
                       GroupBlock(lambda keep, width, rows=rows: rows,
                                  inf, inf))

        for trial in range(150):
            blocks = list(stream(trial))
            pts = np.concatenate(
                [b.rows(None, 3) if isinstance(b, GroupBlock) else b
                 for b in blocks], axis=1)
            if not pts.size:
                continue
            for nbins in (1, 8, 4096):
                cols = _front_candidates(iter(blocks), 3, nbins)
                kept = cols[2].astype(int)
                x, y = np.clip(pts[:2], 0.0, None)
                gone = np.setdiff1d(np.arange(x.size), kept)
                ge = ((x[kept] >= x[gone, None]) & (y[kept] >= y[gone, None])
                      & ((x[kept] > x[gone, None]) | (y[kept] > y[gone, None])))
                assert ge.any(axis=1).all()
                top = x.max()
                if top > 0.0:
                    b = np.minimum(cols[0] / top * nbins, nbins - 1).astype(int)
                    best = np.full(nbins, -np.inf)
                    np.maximum.at(best, b, cols[1])
                    later = np.r_[np.maximum.accumulate(best[::-1])[::-1][1:],
                                  -np.inf]
                    assert np.all(cols[1] > later[b])

    def test_pareto_filter_matches_lexsort(self, rng):
        for x, y in _clouds(rng, 400):
            assert np.array_equal(_pareto_filter(x, y), _pareto_lexsort(x, y))
        for trial in range(6):  # large clouds, the last on a tiny support
            x = rng.integers(0, 2000, 20000) / 7.0
            y = np.floor(30.0 - x / 10.0 + rng.integers(0, 5, x.size))
            if trial == 5:
                x = x * 1e-308
            assert np.array_equal(_pareto_filter(x, y), _pareto_lexsort(x, y))

    def test_streamed_cull_matches_lexsort_filter(self, rng):
        # blocks cut at random and handed over in random order; non-finite
        # rows, an all-zero first block, and a subnormal first block ahead
        # of r1 near 5, 1e324 times its top
        def cases():
            for trial, (x, y) in enumerate(_clouds(rng, 300)):
                pts = np.stack([x, y], axis=1)
                if trial % 3 == 1:
                    pts[rng.random(len(pts)) < 0.2, trial % 2] = \
                        (np.nan, np.inf, -np.inf)[trial % 9 // 3]
                yield pts, trial % 2 == 0
            for trial in range(4):
                x = rng.integers(0, 2000, 20000) / 7.0
                y = np.floor(30.0 - x / 10.0 + rng.integers(0, 5, x.size))
                yield np.stack([x, y], axis=1), trial % 2 == 0
            for lead in ([[0.0, 3.0], [0.0, 1.0]], [[5e-324, 2.0], [0.0, 1.0]]):
                for x, y in _clouds(rng, 20):
                    tail = np.stack([5.0 + x / 16.0, y], axis=1)
                    yield np.concatenate([lead, tail]), False

        def growing():
            # each block's largest r1, at r2 = 0, exceeds the one before it
            # by one ulp, by large factors, or from a subnormal first top,
            # so every block rebins the points held so far
            tops = (1.0 + np.arange(4) * np.spacing(1.0),
                    np.array([1.0, 1e3, 1e150, 1e300]),
                    np.array([5e-324, 2e-323, 1e-310, 1.0]))
            for trial, (x, y) in enumerate(_clouds(rng, 90)):
                top = tops[trial % 3]
                rows = [np.stack([np.r_[1.0, x / 12.0] * t,
                                  np.r_[0.0, np.roll(y, k)]], axis=1)
                        for k, t in enumerate(top)]
                starts = np.cumsum([0] + [len(r) for r in rows[:-1]])
                yield np.concatenate(rows), list(zip(starts, rows))

        def offset(start, rows):
            # one uncapped group, each row carrying its source index
            inf = np.full(1, np.inf)
            cols = np.vstack([rows.T, start + np.arange(len(rows))])
            return GroupBlock(lambda keep, width: cols, inf, inf)

        def split(pts, shuffle):
            cuts = np.sort(rng.integers(0, len(pts) + 1, 3))
            if not shuffle and len(pts) > 2:
                cuts[0] = 2  # the lead block stays first and whole
                cuts.sort()
            blocks = list(zip(np.r_[0, cuts], np.split(pts, cuts)))
            if shuffle:
                blocks = [blocks[i] for i in rng.permutation(len(blocks))]
            return pts, blocks

        for pts, blocks in [*(split(*c) for c in cases()), *growing()]:
            # source indices in arrival order: the first to arrive of equal
            # points wins
            order = np.concatenate([start + np.arange(len(rows))
                                    for start, rows in blocks])
            fin = order[np.isfinite(pts[order]).all(axis=1)]
            if not fin.size:
                continue
            x, y = np.clip(pts[fin, 0], 0, None), np.clip(pts[fin, 1], 0, None)
            want = fin[_pareto_lexsort(x, y)]
            for nbins in (1, 3, 8, 4096):
                cols = _front_candidates(
                    iter([offset(*b) for b in blocks]), 3, nbins)
                assert np.array_equal(cols[2][_pareto_filter(*cols[:2])], want)
            one = from_pareto_points(pts.T)
            # without the index column, and with it as a param: each vertex
            # is its own row's point (the first also at r1 = 0)
            for stream in ([offset(*b) for b in blocks],
                           [rows.T for _, rows in blocks]):
                got = from_pareto_points(iter(stream))
                assert np.array_equal(got.r1, one.r1)
                assert np.array_equal(got.r2, one.r2)
            got = from_pareto_points(iter([offset(*b) for b in blocks]),
                                     ("i",))
            i = got.meta["params"]["i"].astype(int)
            assert np.array_equal(got.r2, np.clip(pts[i, 1], 0, None))
            assert np.array_equal(got.r1[1:], np.clip(pts[i[1:], 0], 0, None))
