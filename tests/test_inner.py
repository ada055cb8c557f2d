import hashlib
import math
import platform
import resource
import tracemalloc

import numpy as np
import pytest

from gcifc import gaussmi, inner, outer, region
from gcifc.channel import ChannelParams
from gcifc.errors import DegenerateDenominator, GcifcError
from gcifc.util import cap
from gcifc.verify import random_channels
from conftest import (EDGE_CHANNELS, HUGE_CHANNELS, channel_draw,
                      scheme_c_system, scheme_d_system, scheme_e_system,
                      scheme_f_system)

FIG4_CH = ChannelParams(math.sqrt(0.3), math.sqrt(2.0), 6.0, 6.0)


class TestLambdaCosta:
    def test_zero_private_power(self):
        assert inner.lambda_costa(1.5, 1.0, 0.0, 10.0) == 0.0

    def test_noiseless_limit(self):
        assert inner.lambda_costa(1.5 + 0.5j, 0.0, 0.5, 10.0) == 1.5 + 0.5j

    def test_degenerate(self):
        with pytest.raises(DegenerateDenominator):
            inner.lambda_costa(1.0, 0.0, 0.0, 10.0)

    def test_reference_values(self):
        # alpha = 0.5, p1 = p2 = 6, a = sqrt(0.3), b = sqrt(2)
        info = inner.dpc_info(FIG4_CH, 0.5)
        want1 = 0.75 * (math.sqrt(0.3) + math.sqrt(0.5))
        assert info.lambda_costa1 == pytest.approx(want1, abs=1e-4)
        assert abs(info.lambda_costa1 - 0.9411) < 1e-4
        assert abs(info.lambda_costa2 - 1.2122) < 1e-4
        assert info.f_value == pytest.approx(float(cap(3.0)), abs=1e-12)


class TestFDpc:
    def test_costa_point_max(self, rng):
        for _ in range(30):
            h = rng.normal() + 1j * rng.normal()
            sig = rng.uniform(0.1, 3.0)
            al = rng.uniform(0.05, 1.0)
            p1, p2 = 10.0 ** rng.uniform(-0.5, 1.5, 2)
            lc = inner.lambda_costa(h, sig, al, p1)
            f_at_c = float(inner.f_dpc(h, sig, lc, al, p1, p2))
            assert f_at_c == pytest.approx(math.log2(1 + al * p1 / sig),
                                           abs=1e-9)
            lam = lc * (1 + rng.uniform(-0.5, 0.5))
            assert float(inner.f_dpc(h, sig, lam, al, p1, p2)) <= f_at_c + 1e-12

    def test_printed_closed_form(self, rng):
        # det-ratio evaluation equals the textbook expression
        for _ in range(200):
            h = rng.normal() + 1j * rng.normal() * rng.integers(0, 2)
            sig = rng.uniform(0.05, 3.0)
            al = rng.uniform(0.05, 1.0)
            p1, p2 = 10.0 ** rng.uniform(-0.5, 1.5, 2)
            lam = (rng.normal() + 1j * rng.normal()) * 0.7
            a_pow = al * p1
            lc = inner.lambda_costa(h, sig, al, p1)
            if abs(lc) < 1e-9:
                continue
            k = a_pow * abs(h) ** 2 * p2 / (a_pow + abs(h) ** 2 * p2 + sig)
            want = math.log2((sig + a_pow)
                             / (sig + k * abs(lam / lc - 1.0) ** 2))
            got = float(inner.f_dpc(h, sig, lam, al, p1, p2))
            assert got == pytest.approx(max(want, 0.0), abs=1e-9)

    def test_zero_lambda_form(self):
        h, sig, al, p1, p2 = 1.3, 1.0, 0.5, 4.0, 9.0
        a_pow = al * p1
        want = math.log2((sig + a_pow) /
                         (sig + a_pow * h ** 2 * p2
                          / (a_pow + h ** 2 * p2 + sig)))
        assert float(inner.f_dpc(h, sig, 0.0, al, p1, p2)) == pytest.approx(
            want, abs=1e-12)

    def test_clamped_far_from_costa(self):
        assert float(inner.f_dpc(1.0, 1.0, 50.0, 0.5, 4.0, 9.0)) == 0.0

    def test_oracle_equivalence(self, rng):
        # f equals I(X1c + h X2 + Z; U1c) - I(U1c; X2) under the scheme
        for _ in range(50):
            ch = channel_draw(rng)
            al = rng.uniform(0.05, 0.95)
            lam = rng.normal() * 0.5
            sys = scheme_e_system(ch, al, lam)
            try:
                want = (gaussmi.mutual_info(sys, "Y1", "U1c")
                        - gaussmi.mutual_info(sys, "U1c", "X2"))
            except Exception:
                continue
            h1 = ch.a + math.sqrt((1 - al) * ch.p1 / ch.p2)
            got = float(inner.f_dpc(h1, 1.0, lam, al, ch.p1, ch.p2))
            assert got == pytest.approx(max(want, 0.0), abs=1e-9)

    @pytest.mark.parametrize("p", [1e8, 1e12, 1e160])
    def test_matches_extended_precision(self, p, monkeypatch):
        """On the inputs scheme E's sweep and scheme C's bounds hand it, the
        Gram-form kernel is within 1e-12 bits of the textbook
        var(S) var(U) - |cov|^2 form evaluated in 400 digits."""
        mpmath = pytest.importorskip("mpmath")
        ch = ChannelParams(-0.6 + 0.2j, 1.7, p, p)
        calls = []
        kernel = inner._f_mi

        def spy(c1, u2, sigma_sq, w, a_pow, su_sq=0.0, clamp=True):
            calls.append((c1, u2, sigma_sq, w, a_pow, su_sq))
            return kernel(c1, u2, sigma_sq, w, a_pow, su_sq, clamp)

        monkeypatch.setattr(inner, "_f_mi", spy)
        al = inner.default_alpha_grid(ch)[::67]
        for _ in inner._scheme_e_cloud(ch, al, "sweep", 5)[0]:
            pass
        for s1 in (0.25, 1.0):
            for c1 in (-1.0, ch.a.real, 0.8):
                inner.scheme_c_rates(ch, al, s1, 1.0, c1=c1)
        assert {c[5] for c in calls} == {0.0, 0.25, 1.0}

        worst = 0.0
        for c1, u2, sigma_sq, w, a_pow, su_sq in calls:
            got = kernel(c1, u2, sigma_sq, w, a_pow, su_sq, clamp=False)
            rows = np.broadcast_arrays(got, c1, u2, w, a_pow)
            for g, c, u, ww, a in zip(*(v.ravel() for v in rows)):
                with mpmath.workdps(400):
                    c, u, ww = (mpmath.mpc(complex(v)) for v in (c, u, ww))
                    a, s, su = (mpmath.mpf(float(v))
                                for v in (a, sigma_sq, su_sq))
                    if a + su == 0:  # U is a function of Xi: 0 by definition
                        continue
                    var_s = abs(c) ** 2 * a + abs(u) ** 2 + s
                    cov = c * a + u * mpmath.conj(ww)
                    det = var_s * (a + abs(ww) ** 2 + su) - abs(cov) ** 2
                    err = float(g) - mpmath.log(var_s * (a + su) / det, 2)
                worst = max(worst, abs(float(err)))
        assert worst <= 1e-12


class TestSchemeA:
    def test_weak_branch_endpoints(self):
        ch = ChannelParams(0.5, 0.8, 4.0, 9.0)
        reg = inner.scheme_a(ch)
        assert reg.r1_max == pytest.approx(float(cap(4.0)), abs=1e-9)
        assert float(reg.boundary_at(reg.r1_max)) == pytest.approx(0.0, abs=1e-9)

    def test_strong_branch_endpoints(self):
        ch = ChannelParams(0.5, 2.0, 4.0, 9.0)
        reg = inner.scheme_a(ch)
        assert reg.r1_max == pytest.approx(float(cap(4.0)), abs=1e-9)
        assert reg.r2[0] == pytest.approx(float(cap(16.0)), abs=1e-9)

    def test_primary_power_ignored(self):
        lo = inner.scheme_a(ChannelParams(0.5, 2.0, 4.0, 0.1))
        hi = inner.scheme_a(ChannelParams(0.5, 2.0, 4.0, 100.0))
        assert np.allclose(lo.r2, hi.r2, atol=1e-12)


class TestSchemeB:
    def test_equals_weak_capacity(self, rng):
        for _ in range(20):
            ch = channel_draw(rng, b_high=1.0)
            reg = inner.scheme_b(ch)
            bound = outer.weak_outer(ch)
            gap, _ = region.additive_gap(bound, reg)
            assert gap <= 1e-4
            ok, _ = region.contains(bound, reg, tol=1e-6)
            assert ok

    def test_alpha1_corner(self):
        ch = ChannelParams(0.4, 0.9, 5.0, 7.0)
        r1, r2 = inner.scheme_b_rates(ch, 1.0)
        assert float(r1) == pytest.approx(float(cap(5.0)))
        want = cap(0.81 * 5 + 7) - cap(0.81 * 5)
        assert float(r2) == pytest.approx(float(want))

    def test_oracle_equivalence(self, rng):
        # r2 equals I(Y2; X2) under the pre-coded private assignment
        for _ in range(50):
            ch = channel_draw(rng)
            al = rng.uniform(0.02, 0.98)
            sys = scheme_c_system(ch, al, 1.0, 1.0, 0.0)
            want = gaussmi.mutual_info(sys, "Y2", "X2")
            _, r2 = inner.scheme_b_rates(ch, al)
            assert float(r2) == pytest.approx(want, abs=1e-9)

    def test_dominated_by_perfect_cancel_common(self):
        # with b > 1 the common pre-coded strategy covers this one
        ch = ChannelParams(0.5, 2.0, 6.0, 6.0)
        b_reg = inner.scheme_b(ch)
        e_reg = inner.scheme_e(ch, lambda_policy="costa1")
        diff = e_reg.boundary_at(b_reg.r1) - b_reg.r2
        assert diff.min() >= -1e-6
        lo = float(cap(ch.p1 / (1 + abs(ch.a) ** 2 * ch.p2)))
        sel = (b_reg.r1 >= lo) & (b_reg.r1 <= float(cap(ch.p1)))
        assert diff[sel].max() > 0.05


class TestSchemeD:
    def test_very_strong_meets_converse(self):
        ch = ChannelParams(3.0, 1.2, 1.0, 1.0)
        gap, _ = region.additive_gap(outer.strong_outer(ch),
                                     inner.scheme_d(ch))
        assert gap <= 1e-4

    def test_rho_zero_bounds(self):
        ch = ChannelParams(1.5, 1.1, 3.0, 4.0)
        r1, s = inner.scheme_d_rates(ch, 0.0)
        assert float(r1) == pytest.approx(float(cap(3.0)))
        assert float(s) == pytest.approx(
            float(cap(ch.b ** 2 * 3.0 + 4.0)), abs=1e-12)

    def test_s_channel_sum_pinch(self):
        # a = 0 pins the sum through the cognitive receiver: r2 -> 0 at
        # the solo-cognitive corner
        ch = ChannelParams(0.0, 1.5, 4.0, 9.0)
        reg = inner.scheme_d(ch)
        assert float(reg.boundary_at(reg.r1_max)) <= 1e-9
        r1, s = inner.scheme_d_rates(ch, 0.0)
        assert float(s) == pytest.approx(float(cap(ch.p1)))

    def test_oracle_equivalence(self, rng):
        for _ in range(50):
            ch = channel_draw(rng)
            rho = rng.uniform(-0.98, 0.98)
            sys = scheme_d_system(ch, rho)
            i_y1 = gaussmi.mutual_info(sys, "Y1", ["X1", "X2"])
            i_y2 = gaussmi.mutual_info(sys, "Y2", ["X1", "X2"])
            i_r1 = gaussmi.mutual_info(sys, "Y1", "X1", "X2")
            i_r1b = gaussmi.mutual_info(sys, "Y2", "X1", "X2")
            r1, s = inner.scheme_d_rates(ch, rho)
            assert float(r1) == pytest.approx(min(i_r1, i_r1b), abs=1e-9)
            assert float(s) == pytest.approx(min(i_y1, i_y2), abs=1e-9)


class TestSchemeE:
    def test_pdc_meets_converse_everywhere(self):
        ch = ChannelParams(0.0, 1.3, 10.0, 10.0)
        so = outer.strong_outer(ch)
        reg = inner.scheme_e(ch, lambda_policy="costa1")
        gap, _ = region.additive_gap(so, reg)
        assert gap <= 1e-4

    def test_lambda_shape_facts(self):
        # r1 concave with max at costa1; r2 convex with min at costa2
        info = inner.dpc_info(FIG4_CH, 0.5)
        lam = np.linspace(0.0, 2.5, 2501)
        f1, r2, _ = inner.scheme_e_rates(FIG4_CH, 0.5, lam)
        i1 = int(np.argmax(f1))
        assert lam[i1] == pytest.approx(info.lambda_costa1.real, abs=1e-3)
        i2 = int(np.argmin(r2))
        assert lam[i2] == pytest.approx(info.lambda_costa2.real, abs=1e-3)

    def test_sweep_contains_fixed_policies(self):
        ch = FIG4_CH
        sweep = inner.scheme_e(ch, lambda_policy="sweep")
        for policy in ("costa1", "zero"):
            fixed = inner.scheme_e(ch, lambda_policy=policy)
            ok, _ = region.contains(sweep, fixed, tol=1e-3)
            assert ok, policy
        # and the sweep is strictly larger than costa1 somewhere
        costa = inner.scheme_e(ch, lambda_policy="costa1")
        diff = sweep.boundary_at(costa.r1) - costa.r2
        assert diff.max() > 1e-2

    def test_no_dpc_s_channel_rates(self):
        # lambda = 0 on the S channel reduces to plain superposition
        ch = ChannelParams(0.0, 4.0, 10.0, 10.0)
        al = 0.7
        f1, r2, ss = inner.scheme_e_rates(ch, al, 0.0)
        assert float(f1) == pytest.approx(
            math.log2(1 + al * ch.p1 / (1 + (1 - al) * ch.p1)), abs=1e-9)
        want_r2 = cap((math.sqrt(ch.p2)
                       + math.sqrt((1 - al) * ch.b ** 2 * ch.p1)) ** 2)
        assert float(r2) == pytest.approx(float(want_r2), abs=1e-9)

    def test_oracle_equivalence(self, rng):
        for _ in range(60):
            ch = channel_draw(rng)
            al = rng.uniform(0.02, 0.98)
            lam = rng.normal() * 0.8
            sys = scheme_e_system(ch, al, lam)
            f1w = (gaussmi.mutual_info(sys, "Y1", "U1c")
                   - gaussmi.mutual_info(sys, "U1c", "X2"))
            sumw = gaussmi.mutual_info(sys, "Y2", ["U1c", "X2"])
            r2w = sumw - (gaussmi.mutual_info(sys, "Y2", "U1c")
                          - gaussmi.mutual_info(sys, "U1c", "X2"))
            f1, r2, ss = inner.scheme_e_rates(ch, al, lam)
            assert float(f1) == pytest.approx(max(f1w, 0.0), abs=1e-9)
            assert float(ss) == pytest.approx(sumw, abs=1e-9)
            assert float(r2) == pytest.approx(r2w, abs=1e-9)


class TestSchemeC:
    def test_one_bit_structure(self, rng):
        # the (1, 0) test-channel choice: r1 shortfall from cap(alpha p1)
        # is the per-split gap, and it never exceeds one bit
        for _ in range(20):
            ch = channel_draw(rng, b_low=1.001)
            al = np.linspace(0.0, 1.0, 101)
            m1, m2, ms = inner.scheme_c_rates(ch, al, 1.0, 0.0)
            from gcifc.verify import scheme_c_alpha_gap
            gaps = scheme_c_alpha_gap(ch, al)
            assert np.all(gaps <= 1.0 + 1e-12)
            assert np.allclose(m1, np.maximum(cap(al * ch.p1) - gaps, 0.0),
                               atol=1e-9)
            # with zero broadcast noise the sum bound is converse-tight
            # minus the same gap
            want = (cap(ch.b ** 2 * ch.p1 + ch.p2
                        + 2 * np.sqrt((1 - al) * ch.b ** 2 * ch.p1 * ch.p2))
                    - gaps)
            assert np.allclose(ms, np.maximum(want, 0.0), atol=1e-9)

    def test_alpha1_no_cross_term(self):
        ch = ChannelParams(0.7, 1.4, 3.0, 5.0)
        sys = scheme_c_system(ch, 1.0, 1.0, 0.0, 0.0)
        v = sys.subcov(["X1", "X2"])
        assert abs(v[0, 1]) < 1e-12

    def test_oracle_equivalence(self, rng):
        # the last 40 draws have complex a and a complex auxiliary c1
        for k in range(80):
            cplx = k >= 40
            ch = channel_draw(rng, complex_a=cplx)
            al = rng.uniform(0.05, 0.95)
            s1 = rng.uniform(0.2, 2.0)
            s2 = rng.uniform(0.0, 2.0)
            c1 = complex(rng.normal(), rng.normal()) * 2.0 if cplx else None
            c2 = ch.b
            rho = (-min(1.0, c2 * al * ch.p1 / math.sqrt(s1 * s2))
                   if s1 * s2 > 0 else 0.0)
            sys = scheme_c_system(ch, al, s1, s2, rho, c1=c1)
            m1, m2, ms = inner.scheme_c_rates(ch, al, s1, s2, c1=c1)
            w1 = (gaussmi.mutual_info(sys, "Y1", "U1pb")
                  - gaussmi.mutual_info(sys, "U1pb", "X2"))
            w2 = gaussmi.mutual_info(sys, "Y2", ["U2pb", "X2"])
            ws = w2 + gaussmi.mutual_info(sys, "Y1", "U1pb") \
                - gaussmi.mutual_info(sys, "U1pb", ["U2pb", "X2"])
            assert float(m1) == pytest.approx(max(w1, 0.0), abs=1e-9)
            assert float(m2) == pytest.approx(w2, abs=1e-9)
            assert float(ms) == pytest.approx(max(ws, 0.0), abs=1e-9)

    def test_tuned_auxiliaries_improve_high_power_degraded(self):
        # Fig-19 behavior: freeing the mixing coefficients helps a lot
        ch = ChannelParams(0.5, 2.0, 100.0, 100.0)
        base = inner.scheme_c(ch)
        tuned = inner.scheme_c46(ch)
        diff = tuned.boundary_at(base.r1) - base.r2
        assert diff.min() > -1e-6
        assert diff.max() > 0.5


class TestSchemeF:
    def test_collapses_to_all_common(self):
        ch = ChannelParams(2.0, 3.0, 1.0, 1.0)
        for al in (0.0, 0.3, 0.7, 1.0):
            m1, ms, _ = inner.scheme_f_rates(ch, al, 1.0, 1.0, 0.0)
            r1d, sd = inner.scheme_d_rates(ch, math.sqrt(1 - al))
            assert float(m1) == pytest.approx(float(r1d), abs=1e-12)
            assert float(ms) == pytest.approx(float(sd), abs=1e-12)

    def test_collapses_to_precoded_common(self):
        ch = ChannelParams(2.0, 3.0, 1.0, 1.0)
        for al in (0.25, 0.75):
            for lam in (0.0, 0.4, 1.1):
                w = lam * math.sqrt(ch.p2)
                m1, _, _ = inner.scheme_f_rates(ch, al, 0.0, 0.0, w)
                f1, _, _ = inner.scheme_e_rates(ch, al, lam)
                assert float(m1) == pytest.approx(float(f1), abs=1e-12)

    def test_dominates_union_fig16(self):
        ch = ChannelParams(2.0, 3.0, 1.0, 1.0)
        f = inner.scheme_f(ch)
        de = region.union([inner.scheme_d(ch), inner.scheme_e(ch)])
        ok, _ = region.contains(f, de, tol=1e-4)
        assert ok
        # both boundaries are piecewise linear: their difference peaks at
        # a breakpoint of one of them
        xs = np.union1d(f.r1, de.r1)
        diff = f.boundary_at(xs) - de.boundary_at(xs)
        assert diff.max() > 1e-2

    def test_oracle_equivalence(self, rng):
        # the last 40 draws have complex a and complex lambda
        for k in range(65):
            cplx = k >= 25
            ch = channel_draw(rng, complex_a=cplx)
            al, be, ga = rng.uniform(0.05, 0.95, 3)
            lam = rng.normal() * 0.6
            if cplx:
                lam += 0.6j * rng.normal()
            sys = scheme_f_system(ch, al, be, ga, lam)
            w = lam * math.sqrt((1 - be) * ch.p2)
            m1, ms, m2r = inner.scheme_f_rates(ch, al, be, ga, w)
            b29a = (gaussmi.mutual_info(sys, "Y1", "U1c", "X2c")
                    - gaussmi.mutual_info(sys, "X2", "U1c", "X2c"))
            b29b = gaussmi.mutual_info(sys, "Y2", ["U1c", "X2"], "X2c")
            b29c = gaussmi.mutual_info(sys, "Y2", ["X2c", "X2", "X1c"])
            b29d = (gaussmi.mutual_info(sys, "Y2", "X2", ["U1c", "X2c"])
                    + gaussmi.mutual_info(sys, "Y1", ["U1c", "X2c"]))
            b29e = (b29b + gaussmi.mutual_info(sys, "Y1", ["U1c", "X2c"])
                    - gaussmi.mutual_info(sys, "X2", "U1c", "X2c"))
            assert float(m1) == pytest.approx(
                min(max(b29a, 0), b29b), abs=1e-9)
            assert float(ms) == pytest.approx(min(b29c, b29d), abs=1e-9)
            assert float(m2r) == pytest.approx(max(b29e, 0.0), abs=1e-9)


class TestTdmaAndAggregates:
    def test_tdma_endpoints(self):
        ch = ChannelParams(0.5, math.sqrt(2.0), 6.0, 6.0)
        reg = inner.tdma_inner(ch)
        peq = (math.sqrt(2.0 * 6.0) + math.sqrt(6.0)) ** 2
        assert reg.r2[0] == pytest.approx(float(cap(peq)), abs=1e-12)
        assert float(reg.boundary_at(reg.r1_max)) == pytest.approx(0.0,
                                                                   abs=1e-12)

    def test_doubling_covers_relaxed_converse(self, rng):
        for _ in range(40):
            ch = channel_draw(rng, b_low=1.001)
            pl = outer.piecewise_linear_outer(ch)
            td = inner.tdma_inner(ch)
            assert bool(np.all(td.contains_points(pl.r1 / 2, pl.r2 / 2,
                                                  tol=1e-9)))

    def test_scheme_monotonicity_in_grids(self):
        ch = ChannelParams(0.8, 1.7, 5.0, 3.0)
        coarse = inner.scheme_e(ch, alpha_grid=np.linspace(0, 1, 51),
                                n_lambda=21)
        fine = inner.scheme_e(ch, alpha_grid=np.linspace(0, 1, 201),
                              n_lambda=81)
        assert np.all(fine.boundary_at(coarse.r1) >= coarse.r2 - 1e-6)

    def test_every_scheme_inside_best_outer(self, rng):
        for _ in range(10):
            ch = channel_draw(rng)
            bi = inner.best_inner(ch, fast=True)
            bo = outer.best_outer(ch)
            ok, viol = region.contains(bo, bi, tol=1e-6)
            assert ok, viol[:3]

    def test_best_inner_equals_capacity_weak(self):
        ch = ChannelParams(0.6, 0.8, 4.0, 9.0)
        bi = inner.best_inner(ch)
        bound = outer.weak_outer(ch)
        gap, _ = region.additive_gap(bound, bi)
        assert gap <= 1e-4


_CLOUD_BUILDS = [
    pytest.param(lambda ch: inner.scheme_e(ch, lambda_policy="sweep"), 128,
                 id="e"),
    pytest.param(lambda ch: inner.scheme_f(ch), 64, id="f"),
]
_LARGEST_CLOUDS = pytest.mark.parametrize("build,bound_mb", _CLOUD_BUILDS)
_COMPLEX_CH = ChannelParams(-0.6 + 0.2j, 1.7, 10.0, 10.0)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="malloc thresholds are pinned on glibc only")
@_LARGEST_CLOUDS
def test_repeated_build_faults_no_pages(build, bound_mb):
    """Importing gcifc pins glibc's malloc thresholds, so a repeated build
    reuses the heap its first run grew. Under glibc's dynamic thresholds
    each repeat of these builds faults 5000-8000 pages back in."""
    build(_COMPLEX_CH)
    build(_COMPLEX_CH)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    build(_COMPLEX_CH)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 256


# after the page-fault test: a best_inner run under tracemalloc can leave
# the heap so that the next repeated scheme-E build faults pages back in
@pytest.mark.parametrize("build,bound_mb", _CLOUD_BUILDS + [
    pytest.param(lambda ch: inner.best_inner(ch, fast=True), 32,
                 id="best-fast"),
    pytest.param(lambda ch: outer.bc_pr_outer(ch), 16, id="bc-pr"),
    pytest.param(lambda ch: outer.best_outer(ch), 16, id="best-outer")])
def test_largest_clouds_are_streamed(build, bound_mb):
    """Schemes E and F hand their clouds over one lambda fan at a time,
    and best_inner streams every scheme's cloud into one envelope, so the
    peak allocation stays far below a whole cloud (about 1 M rows on a
    complex channel at default grids). The bc-pr certificate holds a few
    (slope, offset) tables and one (slope, r1 node) table."""
    ch = _COMPLEX_CH
    tracemalloc.start()
    try:
        build(ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2 ** 20


_BOX_CHANNELS = (
    [pytest.param(ch, id=f"real{k}")
     for k, ch in enumerate(random_channels(40, 42))]
    + [pytest.param(ch, id=f"complex{k}")
       for k, ch in enumerate(random_channels(10, 42, complex_a=True))]
    + [pytest.param(ch, id=name)
       for name, ch in EDGE_CHANNELS + HUGE_CHANNELS]
    + [pytest.param(ChannelParams(0.5 + 0.5j, 1.5, 1e160, 1e160),
                    id="complex-p=1e160"),
       pytest.param(ChannelParams(3.0, 0.2, 1e12, 1e-3), id="p1=1e12")])


@pytest.mark.parametrize("ch", _BOX_CHANNELS)
def test_best_inner_lies_in_the_tdma_box(ch):
    """No scheme beats the solo cognitive rate or the beamforming sum rate:
    best_inner has r1_max <= cap(p1) and r2(0) <= cap(peq), within 1e-12
    relative, huge powers included."""
    bi = inner.best_inner(ch, fast=True)
    peq = (math.sqrt(ch.b ** 2 * ch.p1) + math.sqrt(ch.p2)) ** 2
    assert bi.r1_max <= float(cap(ch.p1)) * (1.0 + 1e-12)
    assert bi.r2[0] <= float(cap(peq)) * (1.0 + 1e-12)


# powers next to the double range: p (1 + e^40) and a_pow u overflow
_HUGER_CHANNELS = [
    ("p=1e300", ChannelParams(0.5, 1.5, 1e300, 1e300)),
    ("p=(1e306,1)", ChannelParams(0.5, 1.5, 1e306, 1.0)),
    ("complex-p=1e300", ChannelParams(0.5 + 0.5j, 1.5, 1e300, 1e300)),
]


@pytest.mark.parametrize("ch", [pytest.param(ch, id=name) for name, ch
                                in HUGE_CHANNELS + _HUGER_CHANNELS])
def test_huge_powers_build_finite_regions(ch):
    """Every public builder either raises a typed error for the channel's
    regime or returns a finite region, with no numpy warning, scheme E's
    costa1 pre-coding reaches r1 = cap(p1), and best_inner lies inside
    best_outer."""
    from gcifc.cli import BUILDERS
    builds = {rid: build for rid, (_, build) in BUILDERS.items()}
    builds["capacity"] = outer.capacity_region
    regions = {}
    for name, build in builds.items():
        try:
            reg = regions[name] = build(ch, region.R1_GRID_DEFAULT)
        except GcifcError:
            continue
        assert np.all(np.isfinite(reg.r1)) and np.all(np.isfinite(reg.r2)), name
    assert regions["e:costa1"].r1_max == pytest.approx(float(cap(ch.p1)),
                                                       rel=1e-12)
    ok, viol = region.contains(regions["outer:best"], regions["inner:best"],
                               1e-9)
    assert ok, viol[:3]


def _members(ch, fast):
    """The public scheme builders on the grids `best_inner` sweeps."""
    if fast:
        al = inner.default_alpha_grid(ch, matched=257, uniform=245)
        e_f = [inner.scheme_e(ch, al, n_lambda=101),
               inner.scheme_f(ch, face_lambda=101)]
    else:
        al = None
        e_f = [inner.scheme_e(ch), inner.scheme_f(ch)]
    return [inner.scheme_a(ch, al), inner.scheme_b(ch, al),
            inner.scheme_c(ch, al), inner.scheme_d(ch), *e_f,
            inner.tdma_inner(ch)]


_rng_env = np.random.default_rng(20261019)
_ENVELOPE_CHANNELS = (
    [pytest.param(channel_draw(_rng_env), id=f"draw{k}") for k in range(20)]
    + [pytest.param(ch, id=name) for name, ch in EDGE_CHANNELS])


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "default"])
@pytest.mark.parametrize("ch", _ENVELOPE_CHANNELS)
def test_best_inner_is_the_envelope_of_its_members(ch, fast):
    """best_inner is one hull over every member's cloud: it contains each
    member and their union, the hull of the members' vertices, and lies
    no higher than that union.

    The tie rule of from_pareto_points coalesces front points within
    t = 1e-9 * max(r1_max, 1) of the previous one, and over the merged
    cloud such ties chain, so regions are compared shifted by 2t: on the
    p = 1e8 channel the envelope ends 1.6t short of scheme D's corner.
    """
    members = _members(ch, fast)
    best = inner.best_inner(ch, fast=fast)
    un = region.union(members)
    shift = 2e-9 * max(best.r1_max, 1.0)
    for m in members + [un]:
        assert m.r1_max - best.r1_max <= shift
        # both boundaries are piecewise linear: compare at every breakpoint
        xs = np.union1d(best.r1, np.maximum(m.r1 - shift, 0.0))
        got = m.boundary_at(xs + shift, outside=-np.inf)
        assert np.all(got <= best.boundary_at(xs) + 1e-12), m.region_id
    xs = np.union1d(best.r1, un.r1)
    assert np.all(best.boundary_at(xs)
                  <= un.boundary_at(np.maximum(xs - shift, 0.0)) + 1e-12)


_rng_real = np.random.default_rng(20261020)
_REAL_CHANNELS = ([channel_draw(_rng_real) for _ in range(6)]
                  + [ch for _, ch in EDGE_CHANNELS if ch.a.imag == 0.0])


@pytest.mark.parametrize("ch", _REAL_CHANNELS)
def test_real_channels_take_the_float64_kernels(ch):
    """With real a the rate kernels run in float64, and agree within
    1e-12 bits with the same call given complex-typed inputs."""
    al = np.linspace(0.0, 1.0, 33)
    lam = inner._scheme_e_costa1(ch, al) * np.linspace(0.0, 2.0, 5)[:, None]
    grid = np.linspace(0.0, 1.0, 5)
    av, bv, gv = (v.ravel() for v in np.meshgrid(grid, grid, grid,
                                                 indexing="ij"))
    w = np.multiply.outer(np.linspace(0.0, 2.0, 3), av * bv * gv)
    calls = [
        (lambda x: inner.scheme_e_rates(ch, al, x), lam),
        (lambda x: inner.scheme_f_rates(ch, av, bv, gv, x), w),
        (lambda x: inner.scheme_c_rates(ch, al, 1.0, 1.0, c1=x), ch.a.real),
    ]
    for call, arg in calls:
        real, cplx = call(arg), call(np.asarray(arg) + 0j)
        for r, c in zip(real, cplx):
            assert r.dtype == np.float64
            assert np.array_equal(np.isfinite(r), np.isfinite(c))
            fin = np.isfinite(r)
            assert np.all(np.abs(r[fin] - c[fin]) <= 1e-12)
    for r in inner.scheme_c_rates(ch, al, 1.0, 0.0):
        assert r.dtype == np.float64
    # the amplitudes behind them are real too, not complex with zero imag
    assert inner._scheme_e_costa1(ch, al).dtype == np.float64
    assert inner._scheme_e_amplitudes(ch, al)[0].dtype == np.float64


_PINNED_CH = ChannelParams(0.5 + 1e-13j, 1.3, 6.0, 4.0)
# sha256 prefixes of (r1, r2, params) of each region's uniform table at
# the default grid, computed in complex128 (c, c46, e and f with the
# Gram-form rate kernels)
_PINNED_DIGESTS = {
    "a": "e6983aa2131a737b", "b": "5eacae3433a71a84",
    "c": "f3f4e820f667629c", "c46": "3e916582b7b2dd6f",
    "d": "8fabd512f565e12c", "e:sweep": "2d950cf14c260668",
    "e:costa1": "94b53663ea4a552d", "e:zero": "3f772cfc7e0dd3f2",
    "f": "37de0de0efdf7645", "tdma": "d0b44682c4e93457",
}


def test_complex_channel_keeps_its_bytes():
    """A complex a keeps every public builder in complex128, byte for byte,
    even with an imaginary part too small to turn on the phase fans."""
    builds = {
        "a": inner.scheme_a, "b": inner.scheme_b, "c": inner.scheme_c,
        "c46": inner.scheme_c46, "d": inner.scheme_d,
        "e:sweep": inner.scheme_e,
        "e:costa1": lambda ch: inner.scheme_e(ch, lambda_policy="costa1"),
        "e:zero": lambda ch: inner.scheme_e(ch, lambda_policy="zero"),
        "f": inner.scheme_f, "tdma": inner.tdma_inner,
    }
    got = {}
    for name, build in builds.items():
        reg = build(_PINNED_CH).on_grid(region.R1_GRID_DEFAULT)
        h = hashlib.sha256(reg.r1.tobytes() + reg.r2.tobytes())
        for k, v in sorted(reg.meta.get("params", {}).items()):
            h.update(k.encode() + v.tobytes())
        got[name] = h.hexdigest()[:16]
    assert got == _PINNED_DIGESTS
