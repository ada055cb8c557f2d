import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gcifc import gaussmi, inner, outer, region
from gcifc.channel import ChannelParams
from gcifc.errors import (InvalidTransform, PowerOverflow, RegimeMismatch,
                          SingularPreset)
from gcifc.util import alpha_of_r1, cap, r1_grid
from conftest import EDGE_CHANNELS, channel_draw, correlated_input_system


def matched_alpha(reg):
    return alpha_of_r1(reg.r1, None) if False else reg.meta["params"]["alpha"]


class TestWeakStrongUnified:
    def test_weak_endpoints(self):
        ch = ChannelParams(0.3, 0.8, 4.0, 9.0)
        reg = outer.weak_outer(ch)
        # alpha = 1: no cooperation cross term
        want_top = cap(ch.b ** 2 * ch.p1 + ch.p2) - cap(ch.b ** 2 * ch.p1)
        assert reg.r2[-1] == pytest.approx(float(want_top), abs=1e-12)
        # alpha = 0: full beamforming
        want0 = cap(ch.b ** 2 * ch.p1 + ch.p2
                    + 2 * math.sqrt(ch.b ** 2 * ch.p1 * ch.p2))
        assert reg.r2[0] == pytest.approx(float(want0), abs=1e-12)
        assert reg.r1_max == pytest.approx(float(cap(ch.p1)))

    def test_weak_regime_gate(self):
        with pytest.raises(RegimeMismatch):
            outer.weak_outer(ChannelParams(0.0, 1.5, 1.0, 1.0))
        with pytest.raises(RegimeMismatch):
            outer.strong_outer(ChannelParams(0.0, 0.5, 1.0, 1.0))

    def test_strong_alpha1_point(self):
        # p1 = p2 = 6, b = sqrt(2): r1 = log2 7, sum = log2 19
        ch = ChannelParams(0.3, math.sqrt(2.0), 6.0, 6.0)
        reg = outer.strong_outer(ch)
        assert reg.r1_max == pytest.approx(math.log2(7.0), abs=1e-12)
        assert reg.r2[-1] == pytest.approx(math.log2(19.0) - math.log2(7.0),
                                           abs=1e-12)

    def test_unified_reduces_to_weak_and_strong(self, rng):
        for _ in range(30):
            ch = channel_draw(rng)
            uni = outer.unified_outer(ch)
            other = (outer.weak_outer(ch) if ch.b <= 1
                     else outer.strong_outer(ch))
            assert np.max(np.abs(uni.r2 - other.r2)) < 1e-9

    def test_unified_plus_term_zero_at_b1(self):
        ch = ChannelParams(0.7, 1.0, 5.0, 3.0)
        uni = outer.unified_outer(ch)
        weak = outer.weak_outer(ch)
        assert np.max(np.abs(uni.r2 - weak.r2)) < 1e-12

    def test_gamma_argmin_matches_closed_form(self, rng):
        # 1-D numeric minimization of the noise-correlation quotient
        for _ in range(100):
            b = rng.uniform(0.05, 5.0)

            def quotient(g):
                return (b ** 2 + 1 - 2 * b * g) / (1 - g ** 2)

            res = minimize_scalar(quotient, bounds=(-0.999999, 0.999999),
                                  method="bounded",
                                  options={"xatol": 1e-12})
            assert res.x == pytest.approx(min(b, 1 / b), abs=1e-6)

    def test_weak_point_against_oracle(self):
        # p1 = p2 = 10, b = 0.8, split near 0.5, noise corr min(b, 1/b)
        ch = ChannelParams(0.35, 0.8, 10.0, 10.0)
        reg = outer.weak_outer(ch)
        al = reg.meta["params"]["alpha"]
        i = int(np.argmin(np.abs(al - 0.5)))
        alpha = float(al[i])
        sys = correlated_input_system(ch, math.sqrt(1 - alpha),
                                      gamma=min(ch.b, 1 / ch.b))
        r1 = gaussmi.mutual_info(sys, "Y1", "X1", "X2")
        sum_rate = (gaussmi.mutual_info(sys, "Y2", ["X1", "X2"])
                    + gaussmi.mutual_info(sys, "Y1", "X1", ["Y2", "X2"]))
        assert r1 == pytest.approx(float(reg.r1[i]), abs=1e-9)
        assert sum_rate - r1 == pytest.approx(float(reg.r2[i]), abs=1e-9)

    def test_strong_sum_against_oracle(self, rng):
        for _ in range(25):
            ch = channel_draw(rng, b_low=1.001)
            reg = outer.strong_outer(ch)
            al = reg.meta["params"]["alpha"]
            i = int(rng.integers(0, al.size))
            sys = correlated_input_system(ch, math.sqrt(1 - float(al[i])))
            want = gaussmi.mutual_info(sys, "Y2", ["X1", "X2"])
            got = float(reg.r2[i] + reg.r1[i])
            assert got == pytest.approx(want, abs=1e-9)


class TestBcDms:
    def test_degraded_threshold(self):
        thr = outer.bc_dms_degraded_threshold(2.0, 2.0)
        assert thr == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)

    def test_degraded_alpha0_is_point_a(self):
        ch = ChannelParams(1 / 3.0, 3.0, 1.0, 1.0)
        reg = outer.bc_dms_degraded_outer(ch)
        peq = (math.sqrt(ch.b ** 2 * ch.p1) + math.sqrt(ch.p2)) ** 2
        assert reg.r2[0] == pytest.approx(float(cap(peq)), abs=1e-12)
        assert reg.r1[0] == 0.0

    def test_degraded_gate(self):
        with pytest.raises(RegimeMismatch):
            outer.bc_dms_degraded_outer(ChannelParams(0.5, 3.0, 1.0, 1.0))

    def test_s_threshold(self):
        assert outer.bc_dms_s_threshold(10.0) == pytest.approx(math.sqrt(11.0))

    def test_s_alpha1_no_cooperation(self):
        ch = ChannelParams(0.0, 4.0, 10.0, 10.0)
        reg = outer.bc_dms_s_outer(ch)
        assert reg.r2[-1] == pytest.approx(float(cap(ch.p2)), abs=1e-12)

    def test_s_gate(self):
        with pytest.raises(RegimeMismatch):
            outer.bc_dms_s_outer(ChannelParams(0.5, 4.0, 1.0, 1.0))

    def test_s_single_parameter_form_identity(self):
        # the one-parameter cooperative form equals the r2 bound after the
        # split reparameterization, checked over the alpha grid
        p1, p2, b = 10.0, 10.0, 4.0
        al = np.linspace(0.0, 1.0, 1001)
        den = 1.0 + al * p1
        direct = cap(p2 + b ** 2 * p1 * (1 - al) / den
                     + 2 * np.sqrt((1 - al) * b ** 2 * p1 * p2 / den))
        one_param = cap((np.sqrt(b ** 2 * (1 - al) * p1 / den)
                         + math.sqrt(p2)) ** 2)
        assert np.max(np.abs(direct - one_param)) < 1e-12

    def test_degraded_oracle_point(self, rng):
        # equivalent degraded broadcast layering reproduces the r2 bound
        for _ in range(10):
            b = rng.uniform(1.2, 4.0)
            p1, p2 = 10.0 ** rng.uniform(-0.5, 1.5, 2)
            ch = ChannelParams(1 / b, b, p1, p2)
            alpha = rng.uniform(0.0, 1.0)
            peq = (math.sqrt(b ** 2 * p1) + math.sqrt(p2)) ** 2
            ap = (alpha * p1 / (1 + alpha * p1)) * (1 + b ** 2 / peq)
            sys = gaussmi.build_system(
                [("Xeq", {"U": 1.0, "V": 1.0}),
                 ("Y2", {"Xeq": 1.0, "Z2": 1.0})],
                [("U", ap * peq), ("V", (1 - ap) * peq), ("Z2", 1.0)])
            r2_oracle = gaussmi.mutual_info(sys, "Y2", "V", "U")
            r2_bc = cap((p2 + (1 - alpha) * b ** 2 * p1
                         + 2 * math.sqrt(b ** 2 * p1 * p2)) / (1 + alpha * p1))
            assert r2_oracle == pytest.approx(float(r2_bc), abs=1e-9)


class TestPiecewiseLinear:
    def test_corners(self):
        ch = ChannelParams(0.3, math.sqrt(2.0), 6.0, 6.0)
        pts = outer.pl_si_points(ch)
        assert pts["A"][1] == pytest.approx(
            math.log2(1 + 18 + 2 * math.sqrt(72)), abs=1e-12)
        assert pts["B"][0] == pytest.approx(math.log2(7.0))
        assert pts["C"][1] == pytest.approx(
            math.log2(19.0) - math.log2(7.0), abs=1e-12)

    def test_contains_strong(self, rng):
        for _ in range(100):
            ch = channel_draw(rng, b_low=1.001)
            ok, _ = region.contains(outer.piecewise_linear_outer(ch),
                                    outer.strong_outer(ch), tol=1e-6)
            assert ok

    def test_corner_difference_bounded_by_one_bit(self, rng):
        # the relaxation's corner B sits at most one bit above C, with the
        # numeric maximum of the difference at b^2 p1 = p2 + 1
        p2 = 5.0
        u = np.linspace(0.01, 40.0, 20001)
        diff = cap(2 * np.sqrt(u * p2) / (1 + u + p2))
        assert diff.max() <= 1.0 + 1e-12
        u_star = u[int(np.argmax(diff))]
        assert u_star == pytest.approx(p2 + 1.0, abs=3 * (u[1] - u[0]))
        for _ in range(50):
            ch = channel_draw(rng, b_low=1.001)
            pts = outer.pl_si_points(ch)
            assert pts["B"][1] - pts["C"][1] <= 1.0 + 1e-12

    def test_point_a_oracle(self):
        ch = ChannelParams(0.3, math.sqrt(2.0), 6.0, 6.0)
        sys = correlated_input_system(ch, 1.0)
        want = gaussmi.mutual_info(sys, "Y2", ["X1", "X2"])
        assert outer.pl_si_points(ch)["A"][1] == pytest.approx(want, abs=1e-9)

    def test_gate(self):
        with pytest.raises(RegimeMismatch):
            outer.piecewise_linear_outer(ChannelParams(0.0, 0.9, 1.0, 1.0))


class TestBcPr:
    def test_p2_zero_degraded_bc(self):
        # primary silent: the cooperative bound collapses to the degraded
        # broadcast region of the cognitive input
        ch = ChannelParams(0.5, 2.0, 6.0, 0.0)
        reg = outer.bc_pr_outer(ch)
        al = np.linspace(0, 1, 101)
        r1_bc = cap(al * ch.p1 / ((1 - al) * ch.p1 + 1.0))
        r2_bc = cap((1 - al) * ch.b ** 2 * ch.p1)
        got = reg.boundary_at(r1_bc)
        assert np.all(got >= r2_bc - 1e-6)
        gap, _ = region.additive_gap(reg, region.from_pareto_points(
            np.stack([r1_bc, r2_bc], 1), region.Kind.INNER))
        assert gap < 5e-3

    def test_isolated_antennas_rectangle(self):
        ch = ChannelParams(0.0, 0.0, 3.0, 7.0)
        reg = outer.bc_pr_outer(ch)
        assert reg.r1_max == pytest.approx(float(cap(3.0)), abs=1e-9)
        assert reg.r2[0] == pytest.approx(float(cap(7.0)), abs=1e-6)
        assert reg.r2[-1] == pytest.approx(float(cap(7.0)), rel=1e-3)

    def test_crossing_below_degraded_threshold(self):
        # below the threshold neither bound contains the other
        ch = ChannelParams(1 / 2.0, 2.0, 1.0, 1.0)
        so = outer.strong_outer(ch)
        bp = outer.bc_pr_outer(ch)
        d = bp.boundary_at(so.r1) - so.r2
        assert d.min() < -1e-2 and d.max() > 1e-2

    def test_containment_above_threshold_touching_a(self):
        ch = ChannelParams(1 / 3.0, 3.0, 1.0, 1.0)
        so = outer.strong_outer(ch)
        bp = outer.bc_pr_outer(ch)
        d = bp.boundary_at(so.r1) - so.r2
        assert d[0] == pytest.approx(0.0, abs=1e-6)  # point A
        assert d.min() < -0.3                         # strictly tighter inside
        assert d.max() < 5e-3                         # never meaningfully above

    def test_general_channel_pokes_out_near_c(self):
        ch = ChannelParams(0.5, 3.0, 1.0, 1.0)
        so = outer.strong_outer(ch)
        bp = outer.bc_pr_outer(ch)
        d = bp.boundary_at(so.r1) - so.r2
        assert d.min() < -1e-2 and d.max() > 1e-2

    def test_dpc_rate_oracle(self, rng):
        """Rate pairs of random covariance splits, both precoding orders,
        as exact covariance MI on real and complex channels: each obeys
        every slope's support, and lies inside the region wherever
        r1 <= cap(p1)."""
        inside = 0
        for k in range(24):
            complex_a = k % 2 == 1
            ch = channel_draw(rng, complex_a=complex_a)
            reg = outer.bc_pr_outer(ch)
            h = outer._bc_support(ch, outer._BC_SLOPES)
            for _ in range(4):
                a1, a2 = rng.uniform(0.0, 1.0, 2)
                phase = (np.exp(1j * rng.uniform(-math.pi, math.pi, 2))
                         if complex_a else rng.choice([-1.0, 1.0], 2))
                q1, q2 = rng.uniform(0.0, 0.99, 2) * phase
                sys = gaussmi.build_system(
                    [("X1", {"V1": 1.0, "W1": 1.0}),
                     ("X2", {"V2": 1.0, "W2": 1.0}),
                     ("Y1", {"X1": 1.0, "X2": ch.a, "Z1": 1.0}),
                     ("Y2", {"X1": ch.b, "X2": 1.0, "Z2": 1.0})],
                    [("V1", a1 * ch.p1,
                      {"V2": q1 * math.sqrt(a1 * ch.p1 * a2 * ch.p2)}),
                     ("V2", a2 * ch.p2),
                     ("W1", (1 - a1) * ch.p1,
                      {"W2": q2 * math.sqrt((1 - a1) * ch.p1
                                            * (1 - a2) * ch.p2)}),
                     ("W2", (1 - a2) * ch.p2),
                     ("Z1", 1.0), ("Z2", 1.0)])
                v, w = ["V1", "V2"], ["W1", "W2"]
                # order 1 precodes V against W, order 2 W against V
                pts = np.array([
                    [gaussmi.mutual_info(sys, "Y1", v, w),
                     gaussmi.mutual_info(sys, "Y2", w)],
                    [gaussmi.mutual_info(sys, "Y1", v),
                     gaussmi.mutual_info(sys, "Y2", w, v)]])
                support = (np.multiply.outer(pts[:, 0], np.cos(outer._BC_SLOPES))
                           + np.multiply.outer(pts[:, 1], np.sin(outer._BC_SLOPES)))
                assert np.all(support <= h + 1e-9), ch
                low = pts[:, 0] <= reg.r1_max
                inside += int(low.sum())
                assert reg.contains_points(pts[low, 0], pts[low, 1],
                                           tol=1e-9).all(), ch
        assert inside > 40

    def test_silent_primary_without_cross_gain(self):
        # rx2 hears nothing (b = 0, p2 = 0): where r2 weighs more, the
        # stationarity quadratic vanishes and the support is the x = 0 end
        ch = ChannelParams(0.5, 0.0, 3.0, 0.0)
        h = outer._bc_support(ch, outer._BC_SLOPES)
        assert np.allclose(h, np.cos(outer._BC_SLOPES) * float(cap(3.0)),
                           rtol=0.0, atol=1e-9)

    def test_reference_support(self):
        """The certificate at theta = 0.135 on this channel matches a
        600-start search over DPC covariances (5.7250)."""
        from gcifc.verify import random_channels
        ch = random_channels(30, 42)[26]
        h = outer._bc_support(ch, np.array([0.135]))
        assert float(h[0]) == pytest.approx(5.72499, abs=1e-4)

    def test_mac_max_matches_dense_search(self, rng):
        """The closed-form MAC maximiser agrees with a dense power grid."""
        x = np.linspace(0.0, 1.0, 200001)
        for _ in range(200):
            mu = np.sort(rng.uniform(0.0, 1.0, 2))
            c_lo, c_hi = 10.0 ** rng.uniform(-2, 3, 2)
            r = math.sqrt(c_lo * c_hi) * rng.uniform(0.0, 1.0)
            f = (mu[0] * np.log1p(c_lo * (1 - x) + c_hi * x + r * r * x * (1 - x))
                 + (mu[1] - mu[0]) * np.log1p(c_hi * x))
            got = float(outer._mac_max(*(np.array([v]) for v in
                                         (mu[0], mu[1], c_lo, c_hi, r)))[0])
            assert got >= f.max() - 1e-12
            assert got <= f.max() + 1e-9

    @pytest.mark.parametrize("ch", [ch for _, ch in EDGE_CHANNELS] + [
        ChannelParams(0.5, 1.5, 1e160, 1e160),
        ChannelParams(0.5, 1.5, 1e200, 1.0),
        ChannelParams(0.5, 1.5, 1e300, 1e300),
        ChannelParams(0.5, 1.5, 1e306, 1.0)],
        ids=[name for name, _ in EDGE_CHANNELS] + [
            "p=1e160", "p=(1e200,1)", "p=1e300", "p=(1e306,1)"])
    def test_finite_without_warnings(self, ch):
        with warnings.catch_warnings(), np.errstate(over="raise",
                                                    divide="raise",
                                                    invalid="raise"):
            warnings.simplefilter("error")
            reg = outer.bc_pr_outer(ch)
        assert np.isfinite(reg.r2).all()
        assert reg.r1_max == float(cap(ch.p1))

    def test_typed_error_when_every_multiplier_overflows(self):
        """At p1 = p2 = 1e308 no multiplier keeps both SNRs finite."""
        with pytest.raises(PowerOverflow):
            outer.bc_pr_outer(ChannelParams(0.5, 1.5, 1e308, 1e308))

    @pytest.mark.parametrize("p1", [1e20, 1e100, 1e160, 1e200])
    @pytest.mark.parametrize("a,b", [(0.5, 1.5), (0.0, 3.0), (2.0, 0.3)])
    def test_holds_the_no_cooperation_point(self, a, b, p1):
        """Without cooperation, Rx1 treats x2 as noise and Rx2 decodes and
        strips x1 when it can, else treats it as noise. That point is
        achievable, so the certificate must hold it, huge powers included
        (there the MAC maximiser's quadratic once underflowed)."""
        ch = ChannelParams(a, b, p1, 1.0)
        r1 = float(cap(p1 / (1.0 + abs(a) ** 2)))
        if float(cap(b ** 2 * p1 / 2.0)) >= r1:
            r2 = float(cap(1.0))
        else:
            r2 = float(cap(1.0 / (1.0 + b ** 2 * p1)))
        reg = outer.bc_pr_outer(ch)
        assert reg.contains_points(r1, r2, tol=1e-9 * r1)


class TestTransforms:
    def test_identity_triple(self):
        ch = ChannelParams(0.4, 1.7, 2.0, 3.0)
        tgt = outer.transform_target(ch, outer.TransformTriple(1.0, 0.0, 1.0))
        assert tgt.a == pytest.approx(ch.a)
        assert tgt.b == pytest.approx(ch.b)
        assert tgt.p1 == pytest.approx(ch.p1)
        assert tgt.p2 == pytest.approx(ch.p2)

    def test_to_s_target(self):
        ch = ChannelParams(0.5, 1.8, 2.0, 3.0)
        tgt = outer._preset_target(ch, "tos")
        assert tgt.a == 0.0
        assert tgt.b == pytest.approx(ch.b)
        assert tgt.p1 == pytest.approx(
            (math.sqrt(ch.p1) + 0.5 * math.sqrt(ch.p2)) ** 2)
        assert tgt.p2 == pytest.approx(abs(1 - 0.5 * 1.8) ** 2 * ch.p2)

    def test_to_s_degenerate_on_degraded_line(self):
        with pytest.raises(SingularPreset):
            outer.preset_triple(ChannelParams(0.5, 2.0, 2.0, 3.0), "tos")

    def test_to_weak_target_lands_weak(self):
        ch = ChannelParams(2.0, 0.4, 1.0, 1.0)
        tgt = outer._preset_target(ch, "toweak")
        assert tgt.b == pytest.approx(1.0)
        assert tgt.a == pytest.approx(ch.a)

    def test_to_weak_degenerate_channel(self):
        with pytest.raises(SingularPreset):
            outer.preset_triple(ChannelParams(2.0, 0.5, 1.0, 1.0), "toweak")

    def test_to_vs_target_on_boundary(self):
        ch = ChannelParams(0.7, 2.0, 1.5, 1.5)
        tgt = outer._preset_target(ch, "tovs")
        assert tgt.a == pytest.approx(tgt.b)
        assert tgt.p1 == tgt.p2
        from gcifc.channel import very_strong_condition
        ok, margin = very_strong_condition(tgt)
        assert ok and margin >= -1e-9

    def test_invalid_triple_rejected(self):
        ch = ChannelParams(0.4, 1.7, 2.0, 3.0)
        with pytest.raises(InvalidTransform):
            outer.transform_target(ch, outer.TransformTriple(0.5, 0.0, 1.0))

    def test_transform_regions_contain_capacity(self, rng):
        # any valid preset region must contain every achievable region
        hits = 0
        for _ in range(30):
            ch = channel_draw(rng)
            for preset in ("tos", "toweak", "tovs"):
                try:
                    reg = outer.transformed_outer(ch, preset=preset)
                except (SingularPreset, InvalidTransform, RegimeMismatch):
                    continue
                hits += 1
                for scheme in (inner.scheme_b(ch), inner.scheme_d(ch)):
                    ok, viol = region.contains(reg, scheme, tol=1e-5)
                    assert ok, (ch, preset, viol[:3])
        assert hits > 10


class TestBestOuter:
    def test_weak_channel_equals_capacity(self):
        ch = ChannelParams(0.4, 0.7, 5.0, 5.0)
        bo = outer.best_outer(ch)
        weak = outer.weak_outer(ch)
        assert np.max(np.abs(bo.r2 - weak.r2)) < 5e-3
        assert np.all(bo.r2 <= weak.r2 + 1e-12)

    def test_degraded_strictly_tighter_than_strong(self):
        ch = ChannelParams(1 / 3.0, 3.0, 2.0, 2.0)  # b > 1 + sqrt(2)
        bo = outer.best_outer(ch)
        so = outer.strong_outer(ch)
        assert np.max(so.r2 - bo.boundary_at(so.r1)) > 0.1

    def test_coincides_with_strong_at_point_a(self):
        for ch in (ChannelParams(0.0, 2.5, 4.0, 3.0),
                   ChannelParams(1 / 3.0, 3.0, 1.0, 1.0)):
            bo = outer.best_outer(ch)
            so = outer.strong_outer(ch)
            assert float(bo.r2[0]) == pytest.approx(float(so.r2[0]), abs=2e-4)

    @pytest.mark.parametrize("grid", [2048, 512])
    def test_members_left_out_never_bind(self, rng, grid):
        """For b > 1 best_outer leaves out strong_outer, which
        unified_outer equals, and piecewise_linear_outer, which lies above
        it: both within 1e-12 bits on the shared grid, b just above 1
        included."""
        chans = [channel_draw(rng, b_low=1.0) for _ in range(30)] + [
            ChannelParams(a, b, p1, p2)
            for b in (1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-7)
            for a, p1, p2 in ((0.5, 4.0, 3.0), (-2.0, 0.3, 80.0),
                              (1.0 / b, 5.0, 5.0), (0.2 + 0.9j, 60.0, 0.2))]
        for ch in chans:
            assert ch.b > 1.0
            uni = outer.unified_outer(ch, grid)
            strong = outer.strong_outer(ch, grid)
            pl = outer.piecewise_linear_outer(ch, grid)
            assert np.array_equal(uni.r1, strong.r1)
            assert np.array_equal(uni.r1, pl.r1)
            assert np.all(np.abs(uni.r2 - strong.r2) <= 1e-12), ch
            assert np.all(pl.r2 >= strong.r2 - 1e-12), ch

    @pytest.mark.parametrize("grid", [2048, 512])
    def test_members_share_the_r1_nodes(self, rng, grid):
        """bc-pr is evaluated on the closed forms' nodes r1_grid(p1, grid),
        so the intersection samples every such member exactly there."""
        chans = [ch for _, ch in EDGE_CHANNELS] + [
            channel_draw(rng, complex_a=k % 2 == 1) for k in range(8)]
        for ch in chans:
            nodes = r1_grid(ch.p1, grid)
            assert np.array_equal(outer.bc_pr_outer(ch, grid).r1, nodes)
            assert np.array_equal(outer.best_outer(ch, grid).r1, nodes), ch

    def test_bound_id_strings_all_buildable(self):
        from gcifc.cli import BUILDERS
        ch = ChannelParams(0.0, 2.5, 4.0, 3.0)
        built = 0
        for rid, (kind, fn) in BUILDERS.items():
            if kind is not region.Kind.OUTER:
                continue
            try:
                reg = fn(ch, 256)
            except (RegimeMismatch, SingularPreset, InvalidTransform):
                continue
            built += 1
            assert reg.r2[0] >= reg.r2[-1]
        assert built >= 6
