import collections
import hashlib
import itertools
import math
import platform
import resource
import tracemalloc
from functools import partial

import numpy as np
import pytest

from gcifc import inner, outer, region
from gcifc.channel import ChannelParams
from gcifc.errors import GcifcError
from gcifc.util import cap, coop_sum_cap, units
from gcifc.verify import random_channels
import gaussmi
from conftest import (EDGE_CHANNELS, HUGE_CHANNELS, channel_draw,
                      scheme_c_system, scheme_d_system, scheme_e_system,
                      scheme_f_system)

FIG4_CH = ChannelParams(math.sqrt(0.3), math.sqrt(2.0), 6.0, 6.0)


class TestLambdaCosta:
    def test_zero_private_power(self):
        assert inner._costa(0.0, 1.5, 1.0) == 0.0

    def test_noiseless_limit(self):
        assert inner._costa(5.0, 1.5 + 0.5j, 0.0) == 1.5 + 0.5j

    def test_reference_values(self):
        # alpha = 0.5, p1 = p2 = 6, a = sqrt(0.3), b = sqrt(2)
        lc1, lc2 = inner.costa_lambdas(FIG4_CH, 0.5)
        want1 = 0.75 * (math.sqrt(0.3) + math.sqrt(0.5))
        assert lc1 == pytest.approx(want1, abs=1e-4)
        assert abs(lc1 - 0.9411) < 1e-4
        assert abs(lc2 - 1.2122) < 1e-4
        f1 = inner.scheme_e_rates(FIG4_CH, 0.5, lc1)[0]
        assert float(f1) == pytest.approx(float(cap(3.0)), abs=1e-12)

    def test_zero_conventions(self):
        """Both are 0 at p2 = 0, as E's params are, and costa2 at b = 0,
        where the r2 bound is least at lambda = 0."""
        edge, al = dict(EDGE_CHANNELS), np.array([0.0, 0.5, 1.0])
        assert not np.any(inner.costa_lambdas(edge["p2=0"], al))
        assert not np.any(inner.costa_lambdas(edge["b=0"], al)[1])
        r2 = inner.scheme_e_rates(edge["b=0"], 0.5, np.linspace(-1, 1, 201))[1]
        assert r2[100] == r2.min()


class TestFDpc:
    def test_costa_point_max(self, rng):
        for _ in range(30):
            h = rng.normal() + 1j * rng.normal()
            sig = rng.uniform(0.1, 3.0)
            al = rng.uniform(0.05, 1.0)
            p1, p2 = 10.0 ** rng.uniform(-0.5, 1.5, 2)
            u, a_pow = h * math.sqrt(p2), al * p1
            wc = inner._costa(a_pow, u, sig)
            f_at_c = float(inner._f_mi(1.0, u, sig, wc, a_pow))
            assert f_at_c == pytest.approx(math.log2(1 + a_pow / sig),
                                           abs=1e-9)
            w = wc * (1 + rng.uniform(-0.5, 0.5))
            assert float(inner._f_mi(1.0, u, sig, w, a_pow)) <= f_at_c + 1e-12

    def test_printed_closed_form(self, rng):
        # det-ratio evaluation equals the textbook expression
        for _ in range(200):
            h = rng.normal() + 1j * rng.normal() * rng.integers(0, 2)
            sig = rng.uniform(0.05, 3.0)
            al = rng.uniform(0.05, 1.0)
            p1, p2 = 10.0 ** rng.uniform(-0.5, 1.5, 2)
            lam = (rng.normal() + 1j * rng.normal()) * 0.7
            a_pow, sp2 = al * p1, math.sqrt(p2)
            lc = inner._costa(a_pow, h, sig)
            if abs(lc) < 1e-9:
                continue
            k = a_pow * abs(h) ** 2 * p2 / (a_pow + abs(h) ** 2 * p2 + sig)
            want = math.log2((sig + a_pow)
                             / (sig + k * abs(lam / lc - 1.0) ** 2))
            got = float(inner._f_mi(1.0, h * sp2, sig, lam * sp2, a_pow))
            assert got == pytest.approx(max(want, 0.0), abs=1e-9)

    def test_zero_lambda_form(self):
        h, sig, al, p1, p2 = 1.3, 1.0, 0.5, 4.0, 9.0
        a_pow = al * p1
        want = math.log2((sig + a_pow) /
                         (sig + a_pow * h ** 2 * p2
                          / (a_pow + h ** 2 * p2 + sig)))
        got = inner._f_mi(1.0, h * math.sqrt(p2), sig, 0.0, a_pow)
        assert float(got) == pytest.approx(want, abs=1e-12)

    def test_clamped_far_from_costa(self):
        # h = 1, lambda = 50 at p1 = 4, p2 = 9 and alpha = 0.5
        assert float(inner._f_mi(1.0, 3.0, 1.0, 150.0, 2.0)) == 0.0

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
            sp2 = math.sqrt(ch.p2)
            u1 = (ch.a + math.sqrt((1 - al) * ch.p1 / ch.p2)) * sp2
            got = float(inner._f_mi(1.0, u1, 1.0, lam * sp2, al * ch.p1))
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

        def spy(c1, u2, sigma_sq, w, a_pow, su_sq=0.0, clamp=True, **terms):
            calls.append((c1, u2, sigma_sq, w, a_pow, su_sq))
            return kernel(c1, u2, sigma_sq, w, a_pow, su_sq, clamp, **terms)

        monkeypatch.setattr(inner, "_f_mi", spy)
        al = inner.default_alpha_grid(ch)[::67]
        for block in inner._scheme_e_cloud(ch, al, "sweep", 5):
            block.rows(np.arange(block.r1_cap.size), 4)
        for s1 in (0.25, 1.0):
            for c1 in (-1.0, ch.a.real, 0.8):
                inner.scheme_c_rates(ch, al, s1, 1.0, c1=c1)
        # U1's noise s1 in noise units
        n = units(ch).n
        assert {c[5] for c in calls} == {0.0, 0.25 * n, n}

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
        lc1, lc2 = inner.costa_lambdas(FIG4_CH, 0.5)
        lam = np.linspace(0.0, 2.5, 2501)
        f1, r2, _ = inner.scheme_e_rates(FIG4_CH, 0.5, lam)
        i1 = int(np.argmax(f1))
        assert lam[i1] == pytest.approx(lc1, abs=1e-3)
        i2 = int(np.argmin(r2))
        assert lam[i2] == pytest.approx(lc2, abs=1e-3)

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
            bi = inner.best_inner(ch)
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
    pytest.param(lambda ch: inner.best_inner(ch), 32, id="best-fast"),
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


# p1 = p2 = 1e308, where the beamforming SNR and b^2 p1 pass the double
# range, and p2 = 1e-300 beside p1 = 1e308, which underflows in noise units
_P1E308_CHANNELS = [
    ("p=1e308", ChannelParams(0.5, 1.5, 1e308, 1e308)),
    ("b=1-p=1e308", ChannelParams(0.5, 1.0, 1e308, 1e308)),
    ("weak-p=1e308", ChannelParams(0.5, 0.5, 1e308, 1e308)),
    ("complex-p=1e308", ChannelParams(-0.6 + 0.2j, 1.7, 1e308, 1e308)),
    ("s-p=(1e308,1e-300)", ChannelParams(0.0, 1.5, 1e308, 1e-300)),
]

_F_CHANNELS = (
    [pytest.param(ch, id=f"real{k}")
     for k, ch in enumerate(random_channels(40, 42))]
    + [pytest.param(ch, id=f"complex{k}")
       for k, ch in enumerate(random_channels(10, 42, complex_a=True))]
    + [pytest.param(ch, id=name) for name, ch in EDGE_CHANNELS + HUGE_CHANNELS])
_BOX_CHANNELS = (
    _F_CHANNELS
    + [pytest.param(ch, id=name) for name, ch in _P1E308_CHANNELS]
    + [pytest.param(ChannelParams(0.5 + 0.5j, 1.5, 1e160, 1e160),
                    id="complex-p=1e160"),
       pytest.param(ChannelParams(3.0, 0.2, 1e12, 1e-3), id="p1=1e12")])


@pytest.mark.parametrize("ch", _BOX_CHANNELS)
def test_best_inner_lies_in_the_tdma_box(ch):
    """No scheme beats the solo cognitive rate or the beamforming sum rate:
    best_inner has r1_max <= cap(p1) and r2(0) <= cap(peq), within 1e-12
    relative, huge powers included (cap(peq) in 50 digits, as peq can
    pass the double range)."""
    import mpmath
    bi = inner.best_inner(ch)
    mp = mpmath.mp.clone()
    mp.dps = 50
    peq = (mp.sqrt(mp.mpf(ch.b) ** 2 * ch.p1) + mp.sqrt(ch.p2)) ** 2
    assert bi.r1_max <= float(cap(ch.p1)) * (1.0 + 1e-12)
    assert bi.r2[0] <= float(mp.log(1 + peq, 2)) * (1.0 + 1e-12)


# p1 = p2 = 1e308: the beamforming SNR (sqrt(b^2 p1) + sqrt(p2))^2 passes
# the double range at both gains, and b^2 p1 does too at b = 1.5
_COOP_OVERFLOW = [pytest.param(ChannelParams(0.5, b, 1e308, 1e308),
                               id=f"b={b:g}") for b in (1.0, 1.5)]


@pytest.mark.parametrize("ch", _COOP_OVERFLOW)
def test_tdma_past_the_double_range(ch):
    """TDMA's beamforming corner stays finite, with no warning (warnings
    are errors here): r2(0) = 2 log2(b sqrt(p1) + sqrt(p2)), since
    1 + s^-2 rounds to 1."""
    reg = inner.tdma_inner(ch)
    s = ch.b * math.sqrt(ch.p1) + math.sqrt(ch.p2)
    assert reg.r1.tolist() == [0.0, float(cap(ch.p1))]
    assert reg.r2[0] == pytest.approx(2.0 * math.log2(s), rel=1e-15)
    assert reg.r2[1] == 0.0


# powers next to the double range: p (1 + e^40) and a_pow u overflow
_HUGER_CHANNELS = [
    ("p=1e300", ChannelParams(0.5, 1.5, 1e300, 1e300)),
    ("p=(1e306,1)", ChannelParams(0.5, 1.5, 1e306, 1.0)),
    ("complex-p=1e300", ChannelParams(0.5 + 0.5j, 1.5, 1e300, 1e300)),
]

@pytest.mark.parametrize("ch", [
    ChannelParams(0.5 + 0.5j, 1.5, 1e100, 1e100),
    ChannelParams(-0.6 + 0.2j, 1.5, 1e300, 1e300),
    ChannelParams(-0.6 + 0.2j, 1.7, 1e308, 1e308),
    ChannelParams(0.5, 1.5, 1e100, 1e100),
    ChannelParams(0.5, 1.5, 1e160, 1e160),
    ChannelParams(0.5, 1.5, 1e300, 1e300),
    ChannelParams(0.5, 0.5, 1e300, 1e300),
    ChannelParams(0.0, 3.0, 1e160, 1.0)])
def test_complex_costa_amplitude_reaches_cap_p1(ch):
    """Costa's amplitude, complex or real, is the real fraction
    a_pow / (a_pow + n) times the interferer's, which is the interferer's
    itself past an SNR of 2^53: the cancellation c1 w - u1 at it stays
    exact, E's r1 bound is Costa's cap(alpha p1) at every split, and
    e:costa1 reaches r1 = cap(p1) (6.1e-6 to 5.5e-5 bits short when numpy
    divided by the reciprocal; 430 of these splits hundreds of bits short
    at p = 1e300 when each part of a_pow u1 was divided by a_pow + n, and
    with real a up to 890 bits short on 41 to 172 of the splits of these
    channels at 1e100 and more when a_pow u1 was). Both Costa coefficients
    lambda are finite at every split."""
    _check_costa_kernel(ch)


@pytest.mark.parametrize("ch", [pytest.param(ch, id=name)
                                for name, ch in _P1E308_CHANNELS])
def test_dpc_info_past_the_double_range(ch):
    """Scheme E's Costa kernel runs in noise units: both Costa
    coefficients are finite, f at costa1 is cap(alpha p1) at every split
    and e:costa1 reaches r1 = cap(p1), with no warning, whatever the power
    ratio p1 / p2."""
    _check_costa_kernel(ch)


def _check_costa_kernel(ch):
    """e:costa1 reaches r1 = cap(p1); on every split of E's default grid
    both Costa coefficients are finite and f at costa1 is cap(alpha p1),
    within 1e-12 max(1, value)."""
    u = units(ch)
    got = inner.scheme_e(ch, lambda_policy="costa1").r1_max
    assert got == pytest.approx(float(u.cap(u.p1)), rel=1e-12)
    al = inner.default_alpha_grid(ch)
    assert np.all(np.isfinite(inner.costa_lambdas(ch, al)))
    f1 = inner._f_mi(1.0, inner._scheme_e_amplitudes(ch, al)[0], u.n,
                     inner._scheme_e_costa1(ch, al), al * u.p1)
    want = u.cap(al * u.p1)
    assert np.all(np.abs(f1 - want) <= 1e-12 * np.maximum(1.0, want))


@pytest.mark.parametrize("ch", [
    pytest.param(ChannelParams(0.0, 3.0, 1e160, 1.0), id="s-p1=1e160"),
    pytest.param(ChannelParams(0.5, 1.5, 1e200, 1.0), id="p=(1e200,1)")])
def test_costa1_bounds_hold_their_exact_values(ch):
    """At every split of E's default grid, E's r1 and r2 bounds at the
    costa1 coefficient are, within 1e-12 max(1, value), no higher than
    their values in 400 digits on the same split, from the channel's own
    numbers and the exact coefficient alpha p1 u1 / (alpha p1 + n): r1
    is that value, Costa's cap(alpha p1), and r2 at most 1 bit below it.
    (With a_pow u1 / (a_pow + n) rounded 1 ulp off u1, r2 exceeded it by
    up to 428 bits on 111 splits at (0, 3, 1e160, 1), rows no coefficient
    reaches.)"""
    mpmath = pytest.importorskip("mpmath")
    u = units(ch)
    al = inner.default_alpha_grid(ch)
    u1, u2 = inner._scheme_e_amplitudes(ch, al)
    f1, r2, _ = inner._scheme_e_bounds(ch, al * u.p1, u1, u2,
                                       inner._scheme_e_costa1(ch, al))
    want = np.empty((2, al.size))
    with mpmath.workdps(400):
        n, b = mpmath.mpf(u.n), mpmath.mpf(ch.b)
        sp2 = mpmath.sqrt(mpmath.mpf(u.p2))

        def f_mi(c, amp, w, a):
            """I(S; U) - I(U; Xi) in the textbook form, as in _f_mi."""
            var_s = c ** 2 * a + amp ** 2 + n
            det = var_s * (a + w ** 2) - (c * a + amp * w) ** 2
            return mpmath.log(var_s * a / det, 2)

        for k, alpha in enumerate(map(mpmath.mpf, al.tolist())):
            a = alpha * mpmath.mpf(u.p1)
            coop = mpmath.sqrt((1 - alpha) * mpmath.mpf(u.p1))
            v1 = mpmath.mpf(ch.a.real) * sp2 + coop
            v2 = sp2 + b * coop
            ssum = mpmath.log(n + b ** 2 * a + v2 ** 2, 2) + u.k2
            w = a * v1 / (a + n)
            e1, e2 = (0, ssum) if a == 0 else (f_mi(1, v1, w, a),
                                                ssum - f_mi(b, v2, w, a))
            want[:, k] = float(max(e1, 0)), float(max(e2, 0))
    tol = 1e-12 * np.maximum(1.0, want)
    assert np.all(np.abs(f1 - want[0]) <= tol[0])
    assert np.all(r2 <= want[1] + tol[1])
    assert np.all(r2 >= want[1] - 1.0)


@pytest.mark.parametrize("ch", [pytest.param(ch, id=name) for name, ch
                                in HUGE_CHANNELS + _HUGER_CHANNELS
                                + _P1E308_CHANNELS])
def test_huge_powers_build_finite_regions(ch):
    """Every public builder either raises a typed error for the channel's
    regime or returns a finite region, with no numpy warning, scheme E's
    costa1 pre-coding reaches r1 = cap(p1), best_inner lies inside
    best_outer, and every verification check runs and holds."""
    from gcifc import verify
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
    assert regions["e:costa1"].r1_max == pytest.approx(
        float(cap(ch.p1)), rel=1e-12)
    ok, viol = region.contains(regions["outer:best"], regions["inner:best"],
                               1e-9)
    assert ok, viol[:3]
    for check in (verify.check_soundness, verify.check_capacity,
                  verify.check_additive_gap, verify.check_multiplicative_gap,
                  verify.check_table3):
        rep = check(ch)
        assert rep.holds, (rep.theorem_id, rep.worst_violation)


def _members(ch):
    """The public scheme builders on the grids `best_inner` sweeps."""
    al = inner.default_alpha_grid(ch, matched=257, uniform=245)
    return [inner.scheme_a(ch, al), inner.scheme_b(ch, al),
            inner.scheme_c(ch, al), inner.scheme_d(ch),
            inner.scheme_e(ch, al, n_lambda=101),
            inner.scheme_f(ch, face_lambda=101), inner.tdma_inner(ch)]


_rng_env = np.random.default_rng(20261019)
_ENVELOPE_CHANNELS = (
    [pytest.param(channel_draw(_rng_env), id=f"draw{k}") for k in range(20)]
    + [pytest.param(ch, id=name) for name, ch in EDGE_CHANNELS])


# best_inner ignores `fast` and `grid`: the "default" cases pass both
@pytest.mark.parametrize("kwargs", [{}, {"fast": False, "grid": 512}],
                         ids=["fast", "default"])
@pytest.mark.parametrize("ch", _ENVELOPE_CHANNELS)
def test_best_inner_is_the_envelope_of_its_members(ch, kwargs):
    """best_inner is one hull over every member's cloud: it contains each
    member and their union, the hull of the members' vertices, and lies
    no higher than that union.

    The tie rule of from_pareto_points coalesces front points within
    t = 1e-9 * max(r1_max, 1) of the previous one, and over the merged
    cloud such ties chain, so regions are compared shifted by 2t: on the
    p = 1e8 channel the envelope ends 1.6t short of scheme D's corner.
    """
    members = _members(ch)
    best = inner.best_inner(ch, **kwargs)
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


def _support(reg, theta):
    """max of cos(theta) r1 + sin(theta) r2 over the breakpoints and
    (r1_max, 0), per slope."""
    r1 = np.append(reg.r1, reg.r1_max)
    r2 = np.append(reg.r2, 0.0)
    return np.max(np.outer(np.cos(theta), r1) + np.outer(np.sin(theta), r2),
                  axis=1)


def _edge_normals(reg):
    """The slopes of the boundary's edge normals, (r1_max, 0) closing it,
    and of both axes: where a difference of two supports can peak."""
    x = np.append(reg.r1, reg.r1_max)
    y = np.append(reg.r2, 0.0)
    return np.concatenate([np.arctan2(np.diff(x), -np.diff(y)),
                           [0.0, np.pi / 2]])


@pytest.mark.parametrize("ch", _ENVELOPE_CHANNELS + [
    pytest.param(ChannelParams(-2.0, 2.5, 0.1, 0.1), id="d-binds")])
def test_scheme_f_holds_scheme_d(ch):
    """Scheme F's beta = gamma = 1 face is scheme D's own cloud, so F's
    region holds D's: its support is no lower at any slope, within 1e-12
    bits, checked at every edge normal of both hulls (where the
    difference of the supports peaks). At (-2, 2.5, 0.1, 0.1) D's rows
    at rho < 0 reach 1.6e-3 bits past F's former positive-rho face."""
    f, d = inner.scheme_f(ch), inner.scheme_d(ch)
    theta = np.concatenate([_edge_normals(f), _edge_normals(d)])
    assert np.all(_support(d, theta) <= _support(f, theta) + 1e-12)


@pytest.mark.parametrize("ch", [
    pytest.param(ch, id=f"real{k}")
    for k, ch in enumerate(random_channels(20, 42))]
    + [pytest.param(ch, id=f"complex{k}")
       for k, ch in enumerate(random_channels(5, 42, complex_a=True))]
    + [pytest.param(ch, id=name) for name, ch in
       EDGE_CHANNELS + HUGE_CHANNELS + _P1E308_CHANNELS])
def test_scheme_b_holds_tdma_corners(ch):
    """TDMA's corners are scheme B's rows at alpha = 1 and alpha = 0, both
    on best_inner's split grid: r1 = cap(p1) bit for bit, and the
    cooperative sum rate within 2 ulps."""
    al = inner.default_alpha_grid(ch, matched=257, uniform=245)
    assert al[0] == 0.0 and al[-1] == 1.0
    (r1, _), (_, r2) = np.transpose(inner.scheme_b_rates(ch, [1.0, 0.0]))
    u = units(ch)
    assert r1 == float(u.cap(u.p1))
    coop = coop_sum_cap(ch)
    assert abs(r2 - coop) <= 2.0 * np.spacing(coop)


def _param_points(ch, rid, params):
    """Per vertex, the points its params give through the public rate
    functions (scheme A's builder on the one split), as an array of
    shape (2, candidates, vertices)."""
    corners = inner._rect_sum_vertices
    n = len(next(iter(params.values())))
    if rid == "a":
        pts = [inner.scheme_a(ch, [al]) for al in params["alpha"]]
        rates = [[r.r1_max for r in pts], [r.r2[-1] for r in pts]]
        return np.array(rates)[:, None]
    if rid == "b":
        return np.array(inner.scheme_b_rates(ch, params["alpha"]))[:, None]
    if rid == "c":
        pts = [corners(*inner.scheme_c_rates(ch, params["alpha"], s1, s2))
               for s1, s2 in inner._SIGMA_PAIRS]
    elif rid == "d":
        r1, s = inner.scheme_d_rates(ch, params["rho_re"])
        pts = [corners(r1, s, s)]
    else:
        pts = [corners(*inner.scheme_e_rates(ch, params["alpha"],
                                             params["lambda_re"]))]
    # each box's two vertices, as two candidates per vertex
    return np.concatenate([p.reshape(2, 2, n) for p in pts], axis=1)


_PARAM_BUILDS = {
    "a": inner.scheme_a, "b": inner.scheme_b, "c": inner.scheme_c,
    "d": inner.scheme_d,
    **{f"e:{policy}": partial(inner.scheme_e, lambda_policy=policy)
       for policy in ("costa1", "zero", "sweep")}}
# at p2 = 0, lambda = w / sqrt(p2) has no value, and scheme E reports
# lambda_re = 0 for rows evaluated at w = t w_c1 != 0
_LAMBDA_AT_P2_0 = pytest.mark.xfail(
    strict=True, reason="lambda_re reads 0 at p2 = 0 for w != 0")
_PARAM_CASES = [
    pytest.param(ch, rid, id=f"{name}-{rid}",
                 marks=_LAMBDA_AT_P2_0 if ch.p2 == 0.0 and rid == "e:sweep"
                 else ())
    for name, ch in [(f"real{k}", ch)
                     for k, ch in enumerate(random_channels(40, 42))]
    + [(name, ch) for name, ch in EDGE_CHANNELS if ch.a.imag == 0.0]
    for rid in _PARAM_BUILDS]


@pytest.mark.parametrize("ch,rid", _PARAM_CASES)
def test_params_rebuild_their_own_vertices(ch, rid):
    """Each vertex of a builder's region lies within 1e-9 bits of, or
    below, a point that its own params give through the public rate
    functions: scheme C's at both test-channel noise pairs, D's at the
    real correlation rho_re, E's at the coefficient lambda_re (a is
    real). A first vertex moved to r1 = 0 keeps the params of its point."""
    reg = _PARAM_BUILDS[rid](ch)
    got = _param_points(ch, rid, reg.meta["params"])
    below = np.all(np.array([reg.r1, reg.r2])[:, None] <= got + 1e-9, axis=0)
    assert np.all(below.any(axis=0)), np.flatnonzero(~below.any(axis=0))


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
    "d": "8fabd512f565e12c", "e:sweep": "22495f8724b00743",
    "e:costa1": "aaf58c2c8bcfab30", "e:zero": "3f772cfc7e0dd3f2",
    "f": "360bff3ef112a603", "tdma": "d0b44682c4e93457",
}


def _digest(reg):
    """sha256 prefix of (r1, r2, params) of a region's uniform table at the
    default grid."""
    reg = reg.on_grid(region.R1_GRID_DEFAULT)
    h = hashlib.sha256(reg.r1.tobytes() + reg.r2.tobytes())
    for k, v in sorted(reg.meta.get("params", {}).items()):
        h.update(k.encode() + v.tobytes())
    return h.hexdigest()[:16]


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
    got = {name: _digest(build(_PINNED_CH)) for name, build in builds.items()}
    assert got == _PINNED_DIGESTS


def test_phase_fan_keeps_its_bytes():
    """Scheme E's sweep with its phase fan on, grouped by ray, run and
    split, keeps the bytes it had when every ray was evaluated whole."""
    assert _digest(inner.scheme_e(_COMPLEX_CH)) == "e6705b4d5e7d6204"


_EDGE = dict(EDGE_CHANNELS)
_BEST_CHANNELS = {
    **{f"real{k}": ch for k, ch in enumerate(random_channels(3, 42))},
    **{f"complex{k}": ch for k, ch
       in enumerate(random_channels(2, 42, complex_a=True))},
    "ab=1": _EDGE["ab=1"], "p=1e8": _EDGE["p=1e8"]}
# sha256 prefixes of best_inner's (r1, r2) breakpoints
_BEST_DIGESTS = {
    "real0": "37c320f92ae0674e", "real1": "60cd4848278260fc",
    "real2": "23b0754204ff8004", "complex0": "d0b697eb4dad99fb",
    "complex1": "b1158e18650131fc", "ab=1": "6361aa74c53effcc",
    "p=1e8": "f071828e2bf64e11",
}


def test_best_inner_keeps_its_bytes():
    """best_inner has one sampling plan: its breakpoints keep their bytes,
    whatever the ignored `fast` and `grid` keywords say."""
    for kwargs in ({}, {"fast": False, "grid": 512}):
        got = {}
        for name, ch in _BEST_CHANNELS.items():
            reg = inner.best_inner(ch, **kwargs)
            got[name] = hashlib.sha256(
                reg.r1.tobytes() + reg.r2.tobytes()).hexdigest()[:16]
        assert got == _BEST_DIGESTS, kwargs


_F_PINNED = {"phase-fan": ChannelParams(-0.6 + 0.2j, 1.7, 10.0, 10.0),
             **{f"real{k}": ch for k, ch in enumerate(random_channels(2, 42))}}
# sha256 prefixes of scheme_f's (r1, r2) breakpoints
_F_DIGESTS = {"phase-fan": "f70b875a435e0bf8", "real0": "3f926f371359fae4",
              "real1": "60cd4848278260fc"}


def test_scheme_f_keeps_its_bytes():
    """Scheme F's block order and its skipped triples move no breakpoint."""
    got = {}
    for name, ch in _F_PINNED.items():
        reg = inner.scheme_f(ch)
        got[name] = hashlib.sha256(
            reg.r1.tobytes() + reg.r2.tobytes()).hexdigest()[:16]
    assert got == _F_DIGESTS


_F_GRID = np.linspace(0.0, 1.0, 11)


def _f_blocks(ch):
    """Scheme F's cloud on best_inner's grids."""
    return inner._scheme_f_cloud(ch, _F_GRID, _F_GRID, _F_GRID, 41, 101)


def _f_triples(ch):
    av, bv, gv = np.meshgrid(_F_GRID, _F_GRID, _F_GRID, indexing="ij")
    return av.ravel(), bv.ravel(), gv.ravel()


def _interior(block):
    """Whether a block of scheme F's cloud is one of its interior fans: a
    GroupBlock of one group per split triple (the face's groups are E's)."""
    return (isinstance(block, region.GroupBlock)
            and block.r1_cap.size == _F_GRID.size ** 3)


def _uncapped(blocks):
    """The block stream with every GroupBlock's caps infinite, so that the
    envelope kernel evaluates all of its groups."""
    for b in blocks:
        if isinstance(b, region.GroupBlock):
            inf = np.full(b.r1_cap.size, np.inf)
            b = b._replace(r1_cap=inf, sum_cap=inf)
        yield b


def _counted(blocks, kept, total, counts=lambda b: True):
    """The block stream, appending to `total` the group count of each
    GroupBlock that `counts` selects and to `kept` the groups the envelope
    kernel evaluates of it."""
    for b in blocks:
        if isinstance(b, region.GroupBlock) and counts(b):
            total.append(b.r1_cap.size)
            b = b._replace(rows=lambda keep, width, rows=b.rows:
                           kept.append(keep.size) or rows(keep, width))
        yield b


def _led(ch, blocks):
    """The block stream after a corner (cap(p1) (1 + 1e-9), 0), past every
    row's r1 (rounding included), so that no block raises the bins' scale:
    a GroupBlock that does has its groups judged on the bins from before."""
    yield np.array([[float(cap(ch.p1)) * (1.0 + 1e-9)], [0.0]])
    yield from blocks


def test_scheme_f_skip_is_exact():
    """Fed scheme F's cloud as group-bounded blocks (D's face as rows,
    then E's face and the interior fans as GroupBlocks) on bins of a fixed
    scale, the envelope kernel returns the same candidates as with every
    group evaluated, while it evaluates only part of the interior
    triples. (Without the lead corner, E's face raises the scale that D's
    face set, so the candidates differ by dominated points; the regions
    are checked against their loop form in test_sweeps.py.)"""
    kept, total = [], []
    for ch in [p.values[0] for p in _F_CHANNELS]:
        want = region._front_candidates(_uncapped(_led(ch, _f_blocks(ch))))
        got = region._front_candidates(
            _counted(_led(ch, _f_blocks(ch)), kept, total, _interior))
        assert np.array_equal(got, want), ch
    assert sum(kept) < 0.5 * sum(total)


def _bits(cols):
    """A block's columns as int64 bit patterns."""
    return np.ascontiguousarray(cols, dtype=float).view(np.int64)


def _bit_sorted(cols):
    """A block's columns as int64 bit patterns, lexsorted by their rows:
    two blocks hold the same multiset of rows, bit for bit, exactly when
    these are equal."""
    bits = _bits(cols)
    return bits[:, np.lexsort(bits[::-1])]


@pytest.mark.parametrize("ch", _F_CHANNELS)
def test_scheme_f_rows_lie_in_their_polygons(ch):
    """Every interior vertex row of a triple, (0, r2c) included, lies in
    the polygon {r1 <= min(r1_cap, sum_cap), r1 + r2 <= sum_cap,
    r2 <= sum_cap} of its group, within 1e-12 max(1, rate). Each block is
    one phase's fan of 41 scales, phases by falling cos(phi) (phi = 0
    first), and holds that fan's rows, bit for bit."""
    blocks = [b for b in _f_blocks(ch) if _interior(b)]
    split = inner._scheme_f_split(ch, *_f_triples(ch))
    w_c = inner._costa(split[0], split[1], units(ch).n)
    scales = np.linspace(0.0, 2.0, 41)[None]
    if inner._phase_fan(ch):
        phi = np.linspace(-np.pi / 2, np.pi / 2, 5)
        scales = np.outer(scales, np.exp(1j * phi)).T
        scales = scales[np.argsort(-np.cos(phi), kind="stable")]
        assert np.array_equal(scales[0], np.linspace(0.0, 2.0, 41))
    assert len(blocks) == len(scales)
    n = w_c.size
    r1_cap = np.minimum(blocks[0].r1_cap, blocks[0].sum_cap)
    s_cap = blocks[0].sum_cap

    def inside(x, cap):
        ok = np.isfinite(x) & np.isfinite(cap)
        return np.all(x[ok] <= cap[ok] + 1e-12 * np.maximum(1.0, np.abs(cap[ok])))

    for block, fan in zip(blocks, scales):
        rows = inner._scheme_f_vertices(ch, split, np.multiply.outer(fan, w_c))
        # the last n are (0, r2c)
        assert rows.shape == (2, (2 * fan.size + 1) * n)
        got = block.rows(np.arange(block.r1_cap.size), 2)
        assert np.array_equal(_bit_sorted(rows), _bit_sorted(got))
        g = np.arange(rows.shape[1]) % n
        r1, r2 = rows
        assert inside(r1, r1_cap[g]) and inside(r1 + r2, s_cap[g])
        assert inside(r2, s_cap[g])


_E_CHANNELS = (
    [pytest.param(ch, id=f"complex{k}")
     for k, ch in enumerate(random_channels(10, 42, complex_a=True))]
    + [pytest.param(ch, id=name) for name, ch in EDGE_CHANNELS + HUGE_CHANNELS])


def _e_candidates(ch, wrap):
    """`_front_candidates` of best_inner's block stream, its phase fan turned
    on whatever a is, and the fan's blocks (the `_scheme_e_blocks` call of
    more than one phase) passed through `wrap`."""
    kernel = inner._scheme_e_blocks

    def blocks(ch, al, base, lin, phases, **kw):
        out = kernel(ch, al, base, lin, phases, **kw)
        return wrap(out) if phases.size > 1 else out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inner, "_phase_fan", lambda ch: True)
        mp.setattr(inner, "_scheme_e_blocks", blocks)
        mp.setattr(inner, "from_pareto_points",
                   lambda pts, **kw: region._front_candidates(pts))
        return inner.best_inner(ch)


def test_scheme_e_skip_is_exact():
    """Fed scheme E's phase fan (without its phi = 0 ray) as group-bounded
    blocks after F's faces, the envelope kernel returns the same
    candidates as from the fan evaluated whole. On the random complex
    draws it evaluates under a tenth of the (ray, run, split) groups
    (3.9%). The edge and huge-power
    channels are not counted: there the fan's polygons often reach the
    front, and every group is kept where p1, p2, a or b is 0 (p1
    subnormal too) and at p = (1e200, 1)."""
    kept, total = [], []
    draws = [0, 0]
    for p in _E_CHANNELS:
        ch = p.values[0]
        kept.clear()
        total.clear()
        want = _e_candidates(ch, _uncapped)
        got = _e_candidates(ch, lambda blocks: _counted(blocks, kept, total))
        assert np.array_equal(got, want), ch
        if p.id.startswith("complex"):
            draws = [draws[0] + sum(kept), draws[1] + sum(total)]
    assert draws[0] < 0.1 * draws[1]


def _face_candidates(ch, wrap):
    """`_front_candidates` of best_inner's block stream, the blocks of every
    `_scheme_e_blocks` call (on a real a, only F's beta = gamma = 0 face)
    passed through `wrap`."""
    kernel = inner._scheme_e_blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inner, "_scheme_e_blocks",
                   lambda *args, **kw: wrap(kernel(*args, **kw)))
        mp.setattr(inner, "from_pareto_points",
                   lambda pts, **kw: region._front_candidates(pts))
        return inner.best_inner(ch)


def test_scheme_f_face_skip_is_exact():
    """Inside best_inner, scheme F's beta = gamma = 0 face, E's grouped
    blocks at 101 real scales, gives the same front points, in the same
    order, as with every group evaluated. On the random real draws the
    kernel evaluates under 45% of the face's (run, split) groups (30.6% on
    these 40 draws, the run holding Costa's vertex first). The candidates
    may differ by dominated points: where E's r1 exceeds A's cap(p1) by
    rounding, the face's first block raises the bins' scale, and its
    groups are judged on the bins from before (before the envelope's
    final cull, 8 and 1 more candidates on two of these channels)."""
    kept, total = [], []
    draws = [0, 0]
    for k, ch in enumerate(random_channels(40, 42) + [
            ch for _, ch in EDGE_CHANNELS + HUGE_CHANNELS]):
        kept.clear()
        total.clear()
        want = _face_candidates(ch, _uncapped)
        got = _face_candidates(ch, lambda blocks: _counted(blocks, kept, total))
        fw = region._pareto_filter(*want)
        fg = region._pareto_filter(*got)
        assert np.array_equal(got[:, fg], want[:, fw]), ch
        if k < 40:
            draws = [draws[0] + sum(kept), draws[1] + sum(total)]
    assert draws[0] < 0.45 * draws[1]


def _e_streams(ch):
    """Scheme E's five row streams, each as (name, blocks, splits, base
    amplitudes, scales): the phase-fan sweep, the costa1 and zero
    coefficients on best_inner's split grid, best_inner's phase fan (the
    sweep's without its phi = 0 ray, peak first), and F's beta = gamma = 0
    face (101 real scales on E's default split grid, peak first)."""
    al = inner.default_alpha_grid(ch, matched=257, uniform=245)
    w_c1 = inner._scheme_e_costa1(ch, al)
    lin = np.linspace(0.0, 2.0, 101)
    phases = np.exp(1j * np.linspace(-np.pi / 2, np.pi / 2, 9))
    for name, base, scales in (("sweep", w_c1, np.outer(lin, phases)),
                               ("costa1", w_c1, np.ones(1)),
                               ("zero", np.zeros_like(w_c1), np.ones(1))):
        yield (name, inner._scheme_e_cloud(ch, al, name, 101), al, base,
               scales.ravel())
    phases = np.delete(phases, 4)
    yield ("best-fan", inner._scheme_e_blocks(ch, al, w_c1, lin, phases,
                                              peak_first=True),
           al, w_c1, np.outer(lin, phases).ravel())
    face = inner.default_alpha_grid(ch)
    # F's stream: D's cloud, then the face, then the interior fans
    yield ("face", itertools.takewhile(
        lambda b: not _interior(b), itertools.islice(_f_blocks(ch), 1, None)),
        face, inner._scheme_e_costa1(ch, face), np.linspace(0.0, 2.0, 101))


@pytest.mark.parametrize("ch", _E_CHANNELS)
def test_scheme_e_rows_lie_in_their_polygons(ch, monkeypatch):
    """In each of scheme E's row streams (`_e_streams`), every row lies in
    the polygon {r1 <= min(r1_cap, sum_cap), r1 + r2 <= sum_cap, r2 <=
    sum_cap} of its group, within 1e-12 max(1, cap), and the stream's rows
    are, bit for bit and as a multiset, the rows of E's bounds on the
    whole (scale, split) grid, each with its params alpha and lambda_re =
    Re(w) / sqrt(p2). Asked for width 2, a block gives the same (r1, r2)
    rows without the params."""
    monkeypatch.setattr(inner, "_phase_fan", lambda ch: True)

    def inside(x, cap):
        ok = np.isfinite(x) & np.isfinite(cap)
        return np.all(x[ok] <= cap[ok] + 1e-12 * np.maximum(1.0, np.abs(cap[ok])))

    sp2 = math.sqrt(units(ch).p2)
    for name, blocks, al, base, scales in _e_streams(ch):
        u1, u2 = inner._scheme_e_amplitudes(ch, al)
        w = np.multiply.outer(scales, base)
        lam_re = np.real(w) / sp2 if sp2 > 0.0 else np.zeros(w.shape)
        whole = inner._rect_sum_vertices(*inner._scheme_e_bounds(
            ch, al * units(ch).p1, u1, u2, w), al, lam_re)
        seen = []
        for block in blocks:
            n = block.r1_cap.size
            rows = block.rows(np.arange(n), 4)
            assert np.array_equal(_bits(block.rows(np.arange(n), 2)),
                                  _bits(rows[:2])), name
            seen.append(rows)
            g = np.arange(rows.shape[1]) % n
            r1, r2 = rows[:2]
            r1_cap = np.minimum(block.r1_cap, block.sum_cap)[g]
            assert inside(r1, r1_cap), name
            assert inside(r1 + r2, block.sum_cap[g]), name
            assert inside(r2, block.sum_cap[g]), name
        assert np.array_equal(_bit_sorted(np.concatenate(seen, axis=1)),
                              _bit_sorted(whole)), name


@pytest.mark.parametrize("ch", [p for p in _E_CHANNELS if p.id[0] == "c"] + [
    pytest.param(ChannelParams(-0.6 + 0.2j, 1.7, float(p), float(p)),
                 id=f"p={p}") for p in ("1e8", "1e300", "1e308", "1e-320")])
def test_fan_zero_ray_rows_are_f_face_rows(ch):
    """best_inner leaves out its phase fan's phi = 0 ray: the ray's rows,
    E's sweep at the phase e^(i 0) = 1 on best_inner's 502 splits and 101
    scales (the first ray of `_scheme_e_cloud`'s sweep: its first two
    blocks and the first 502 groups of its tail block), are, bit for bit,
    a sub-multiset of the (r1, r2) rows of F's beta = gamma = 0 face, on
    E's 1,002 splits at the same scales. So every point of the ray is a
    point of the face, which best_inner streams."""
    al = inner.default_alpha_grid(ch, matched=257, uniform=245)
    assert inner._E_PHASES[4] == 1.0
    sweep = list(inner._scheme_e_cloud(ch, al, "sweep", 101))
    ray = [b.rows(np.arange(b.r1_cap.size), 2) for b in sweep[:2]]
    ray.append(sweep[-1].rows(np.arange(al.size), 2))
    ray = np.concatenate(ray, axis=1)
    assert ray.shape[1] == 2 * 101 * al.size
    face = itertools.takewhile(lambda b: not _interior(b),
                               itertools.islice(_f_blocks(ch), 1, None))
    face = np.concatenate([b.rows(np.arange(b.r1_cap.size), 2)
                           for b in face], axis=1)
    have = collections.Counter(map(tuple, _bits(face).T))
    need = collections.Counter(map(tuple, _bits(ray).T))
    assert all(have[row] >= k for row, k in need.items())
