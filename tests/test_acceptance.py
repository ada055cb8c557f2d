"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with -s to see them live). Tolerances are pinned
here and nowhere else."""

import math
import time

import numpy as np

from gcifc import inner, outer, region, verify
from gcifc.channel import (ChannelParams, classify, s_channel_thresholds,
                           very_strong_condition)
from gcifc.util import cap
import gaussmi
from conftest import (channel_draw, correlated_input_system, scheme_d_system,
                      scheme_e_system)

SEED = 42


def _line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def _draw_until(rng, pred, n, complex_a=False, max_tries=200000):
    out = []
    for _ in range(max_tries):
        ch = channel_draw(rng, complex_a=complex_a)
        if pred(ch):
            out.append(ch)
            if len(out) == n:
                return out
    raise RuntimeError("rejection sampling exhausted")


def test_criterion_1_soundness_sweep():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        ch = channel_draw(rng)
        bi = inner.best_inner(ch)
        bo = outer.best_outer(ch)
        ok, viol = region.contains(bo, bi, tol=1e-6)
        if not ok:
            worst = max(worst, max(v[1] for v in viol))
    elapsed = time.perf_counter() - t0
    _line(1, worst == 0.0 and elapsed <= 300.0,
          f"1000 channels sound (worst excess {worst:.2e}), "
          f"{elapsed:.0f}s <= 300s")


def test_criterion_2_weak_capacity():
    rng = np.random.default_rng(SEED + 2)
    worst_region = 0.0
    worst_point = 0.0
    for ch in _draw_until(rng, lambda c: c.b <= 1.0, 100):
        bound = outer.weak_outer(ch)
        reg = inner.scheme_b(ch)
        gap, _ = region.additive_gap(bound, reg)
        worst_region = max(worst_region, gap)
        al = bound.meta["params"]["alpha"]
        r1, r2 = inner.scheme_b_rates(ch, al)
        worst_point = max(worst_point,
                          float(np.max(np.abs(r1 - bound.r1))),
                          float(np.max(np.abs(r2 - bound.r2))))
    _line(2, worst_region <= 1e-4 and worst_point <= 1e-9,
          f"weak capacity: region gap {worst_region:.2e} <= 1e-4, "
          f"matched-split diff {worst_point:.2e} <= 1e-9")


def test_criterion_3_very_strong_capacity():
    rng = np.random.default_rng(SEED + 3)
    def is_vs(c):
        return very_strong_condition(c)[0]
    chans = (_draw_until(rng, is_vs, 70)
             + _draw_until(rng, is_vs, 30, complex_a=True))
    worst = 0.0
    for ch in chans:
        # endpoint reduction equals the full correlation-envelope sweep
        t = np.linspace(-1.0, 1.0, 101)
        vals = ((abs(ch.a) ** 2 - 1) * ch.p2 - (ch.b ** 2 - 1) * ch.p1
                + 2 * math.sqrt(ch.p1 * ch.p2) * abs(ch.a - ch.b) * t)
        assert bool(np.all(vals >= 0)) == (vals[0] >= 0) and vals[0] >= 0
        gap, _ = region.additive_gap(outer.strong_outer(ch),
                                     inner.scheme_d(ch))
        worst = max(worst, gap)
    _line(3, worst <= 1e-4,
          f"very-strong capacity: worst gap {worst:.2e} <= 1e-4 "
          f"(100 channels, 30 complex)")


def test_criterion_4_pdc_capacity():
    rng = np.random.default_rng(SEED + 4)
    chans = _draw_until(rng, lambda c: classify(c).pdc, 100)
    worst = 0.0
    x = np.linspace(0.0, 1.0, 1001)
    for ch in chans:
        gap, _ = region.additive_gap(outer.strong_outer(ch),
                                     inner.scheme_e(ch, lambda_policy="costa1"))
        worst = max(worst, gap)
        q = verify.q_alpha(ch, np.linspace(0.0, 1.0, 1001))
        assert np.all(q >= -1e-9 * max(1.0, float(np.max(np.abs(q)))))
        # curvature check on the sqrt(1 - alpha) grid, where the
        # certification polynomial is exactly quadratic-concave
        qx = verify.q_alpha(ch, 1.0 - x ** 2)
        assert np.diff(qx, 2).max() <= 1e-9
    _line(4, worst <= 1e-4,
          f"pre-coded-common capacity: worst gap {worst:.2e} <= 1e-4, "
          f"q >= 0 and concave on all 100 channels")


def test_criterion_5_s_channel_capacity():
    rng = np.random.default_rng(SEED + 5)
    low, high = s_channel_thresholds(10.0, 10.0)
    ok_low = abs(low - math.sqrt(21.0 / 11.0)) <= 1e-9
    # the high threshold solves b^2 = 1 + p2 + 2 b sqrt(p1 p2); at
    # p1 = p2 = 10 that is 10 + sqrt(111). (The squared-wrong-side
    # rendering sqrt(10 + sqrt(111)) fails certification: see below.)
    ok_high = abs(high - (10.0 + math.sqrt(111.0))) <= 1e-9

    def s_draw(pred, n):
        out = []
        while len(out) < n:
            p1, p2 = 10.0 ** rng.uniform(-1.0, 2.0, 2)
            lo, hi = s_channel_thresholds(p1, p2)
            b = rng.uniform(0.0, 5.0)
            ch = ChannelParams(0.0, b, p1, p2)
            if pred(ch, lo, hi):
                out.append(ch)
        return out

    worst_a = 0.0
    for ch in s_draw(lambda c, lo, hi: 1.0 < c.b <= lo, 50):
        gap, _ = region.additive_gap(
            outer.best_outer(ch), inner.scheme_e(ch, lambda_policy="costa1"))
        worst_a = max(worst_a, gap)
    worst_b = 0.0
    for _ in range(50):
        p1, p2 = 10.0 ** rng.uniform(-1.0, 1.0, 2)
        _, hi = s_channel_thresholds(p1, p2)
        ch = ChannelParams(0.0, hi * rng.uniform(1.0, 1.5), p1, p2)
        bo = outer.best_outer(ch)
        gap, _ = region.additive_gap(bo, inner.scheme_e(ch,
                                                        lambda_policy="zero"))
        worst_b = max(worst_b, gap)
    _line(5, ok_low and ok_high and worst_a <= 1e-4 and worst_b <= 1e-4,
          f"S-channel capacity: thresholds sqrt(21/11) and 10+sqrt(111) "
          f"exact; branch gaps {worst_a:.2e} / {worst_b:.2e} <= 1e-4")


def test_criterion_5_spec_threshold_rendering_is_a_misprint():
    # a channel between sqrt(10+sqrt(111)) and 10+sqrt(111) has a real
    # gap, so the sqrt-rendered threshold cannot certify at 1e-4
    ch = ChannelParams(0.0, 5.0, 10.0, 10.0)
    assert ch.b > math.sqrt(10.0 + math.sqrt(111.0))
    gap, _ = region.additive_gap(outer.best_outer(ch),
                                 inner.scheme_e(ch, lambda_policy="zero"))
    assert gap > 1e-2


def test_criterion_6_additive_gap():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    worst_curve = 0.0
    for ch in _draw_until(rng, lambda c: c.b > 1.0, 200):
        gap, _ = region.additive_gap(
            outer.strong_outer(ch),
            inner.scheme_c(ch, sigma_pairs=((1.0, 0.0),)))
        worst = max(worst, gap)
        curve = verify.scheme_c_alpha_gap(ch, np.linspace(0, 1, 1001))
        worst_curve = max(worst_curve, float(curve.max()))
    _line(6, worst <= 1.0 and worst_curve <= 1.0,
          f"additive gap: worst region gap {worst:.4f} <= 1 bit, "
          f"worst per-split shortfall {worst_curve:.4f} <= 1 bit")


def test_criterion_7_multiplicative_gap():
    rng = np.random.default_rng(SEED + 7)
    worst = 1.0
    for ch in _draw_until(rng, lambda c: c.b > 1.0, 200):
        pl = outer.piecewise_linear_outer(ch)
        td = inner.tdma_inner(ch)
        assert bool(np.all(td.contains_points(pl.r1 / 2, pl.r2 / 2,
                                              tol=1e-9)))
        m, _ = region.multiplicative_gap(pl, td)
        worst = max(worst, m)
    _line(7, worst <= 2.0 + 1e-3,
          f"multiplicative gap: doubling covers, worst ratio {worst:.6f}")


def test_criterion_8_constant_gap_rows():
    rng = np.random.default_rng(SEED + 8)
    row_pred = {
        "perfect-cancel": lambda c: c.b > 1 and classify(c).margins["31a"] >= 0,
        "partial-cancel": lambda c: c.b > 1 and c.b ** 2 * c.p1 <= c.p2,
        "broadcast-weak": lambda c: c.b <= 1 and c.b ** 2 * c.p1 > c.p2,
        "broadcast-strong": lambda c: c.b > 1 and c.b ** 2 * c.p1 > c.p2,
        "interference-strip": lambda c: (abs(c.a) >= 1 and c.b > 1
                                         and c.b ** 2 * c.p1 <= c.p2),
    }
    summary = []
    all_ok = True
    for row, pred in row_pred.items():
        worst = 0.0
        for ch in _draw_until(rng, pred, 100):
            rep = verify.check_table3(ch)
            detail = next(d for d in rep.details if d["row"] == row)
            worst = max(worst, detail["gap_bits"] - detail["budget"])
        all_ok &= worst <= 1e-9
        summary.append(f"{row}:{worst:+.2e}")
    _line(8, all_ok, "constant-gap rows (gap - budget): " + ", ".join(summary))


def test_criterion_9_oracle_equivalence(rng):
    n = 1000
    worst = 0.0

    def chk(got, want):
        nonlocal worst
        worst = max(worst, abs(float(got) - float(want)))

    for _ in range(n):
        ch = channel_draw(rng)
        al = rng.uniform(0.0, 1.0)
        rho = math.sqrt(1 - al)

        sysc = correlated_input_system(ch, rho, gamma=min(ch.b, 1 / ch.b))
        r1w = gaussmi.mutual_info(sysc, "Y1", "X1", "X2")
        sumw = gaussmi.mutual_info(sysc, "Y2", ["X1", "X2"])
        cond = gaussmi.mutual_info(sysc, "Y1", "X1", ["Y2", "X2"])
        # r1 caps of (weak, strong, unified) and both sum forms
        chk(r1w, cap(al * ch.p1))
        chk(sumw, cap(ch.b ** 2 * ch.p1 + ch.p2
                      + 2 * rho * ch.b * math.sqrt(ch.p1 * ch.p2)))
        plus = max(0.0, float(cap(al * ch.p1) - cap(ch.b ** 2 * al * ch.p1)))
        chk(sumw + cond, sumw + plus)

        # scheme assignments: all-common, pre-coded common, silent-primary
        rr = rng.uniform(-1, 1)
        sysd = scheme_d_system(ch, rr)
        r1d, sd = inner.scheme_d_rates(ch, rr)
        chk(gaussmi.mutual_info(sysd, "Y1", "X1", "X2"),
            cap((1 - rr ** 2) * ch.p1))
        chk(min(gaussmi.mutual_info(sysd, "Y1", ["X1", "X2"]),
                gaussmi.mutual_info(sysd, "Y2", ["X1", "X2"])), sd)

        lam = rng.normal() * 0.8
        ale = rng.uniform(0.02, 0.98)
        syse = scheme_e_system(ch, ale, lam)
        f1, r2b, ss = inner.scheme_e_rates(ch, ale, lam)
        chk(gaussmi.mutual_info(syse, "Y2", ["U1c", "X2"]), ss)
        f1w = (gaussmi.mutual_info(syse, "Y1", "U1c")
               - gaussmi.mutual_info(syse, "U1c", "X2"))
        chk(f1, max(f1w, 0.0))
        sp2 = math.sqrt(ch.p2)
        u1 = (ch.a + math.sqrt((1 - ale) * ch.p1 / ch.p2)) * sp2
        chk(inner._f_mi(1.0, u1, 1.0, lam * sp2, ale * ch.p1), max(f1w, 0.0))

        # silent-primary broadcast layers
        ab = rng.uniform(0.0, 1.0)
        sysa = gaussmi.build_system(
            [("X1", {"Xa": 1.0, "Xb": 1.0}),
             ("Y1", {"X1": 1.0, "Z1": 1.0}),
             ("Y2", {"X1": ch.b, "Z2": 1.0})],
            [("Xa", ab * ch.p1), ("Xb", (1 - ab) * ch.p1),
             ("Z1", 1.0), ("Z2", 1.0)])
        chk(gaussmi.mutual_info(sysa, "Y1", "Xa", "Xb"), cap(ab * ch.p1))
        chk(gaussmi.mutual_info(sysa, "Y2", "Xb"),
            cap((1 - ab) * ch.b ** 2 * ch.p1
                / (1 + ab * ch.b ** 2 * ch.p1)))
        chk(gaussmi.mutual_info(sysa, "Y1", "Xb"),
            cap((1 - ab) * ch.p1 / (1 + ab * ch.p1)))
        chk(gaussmi.mutual_info(sysa, "Y2", "Xa", "Xb"),
            cap(ab * ch.b ** 2 * ch.p1))

        # piecewise-linear corners and the time-sharing chord
        if ch.b > 1:
            pts = outer.pl_si_points(ch)
            sys1 = correlated_input_system(ch, 1.0)
            chk(gaussmi.mutual_info(sys1, "Y2", ["X1", "X2"]), pts["A"][1])
            td = inner.tdma_inner(ch)
            x = rng.uniform(0.0, float(cap(ch.p1)))
            chk(float(td.boundary_at(x)),
                pts["A"][1] * (1 - x / float(cap(ch.p1))))

    # degraded and S-channel cooperative forms, matched reparameterization
    for _ in range(n):
        b = rng.uniform(1.05, 5.0)
        p1, p2 = 10.0 ** rng.uniform(-0.5, 1.5, 2)
        al = rng.uniform(0.0, 1.0)
        peq = (math.sqrt(b * b * p1) + math.sqrt(p2)) ** 2
        ap = (al * p1 / (1 + al * p1)) * (1 + b * b / peq)
        sysb = gaussmi.build_system(
            [("Xeq", {"U": 1.0, "V": 1.0}), ("Y2", {"Xeq": 1.0, "Z": 1.0})],
            [("U", ap * peq), ("V", (1 - ap) * peq), ("Z", 1.0)])
        chk(gaussmi.mutual_info(sysb, "Y2", "V", "U"),
            cap((p2 + (1 - al) * b * b * p1 + 2 * math.sqrt(b * b * p1 * p2))
                / (1 + al * p1)))

        chs = ChannelParams(0.0, b, p1, p2)
        alp = al * (1 + p1) / (1 + al * p1)
        sz = scheme_e_system(chs, alp, 0.0)
        r2w = (gaussmi.mutual_info(sz, "Y2", ["U1c", "X2"])
               - gaussmi.mutual_info(sz, "Y2", "U1c")
               + gaussmi.mutual_info(sz, "U1c", "X2"))
        den = 1 + al * p1
        chk(r2w, cap(p2 + b * b * p1 * (1 - al) / den
                     + 2 * math.sqrt((1 - al) * b * b * p1 * p2 / den)))

    _line(9, worst <= 1e-9,
          f"oracle equivalence: worst |closed form - MI| = {worst:.2e} "
          f"over {n} draws per expression")


def test_criterion_10_structural_identities(rng):
    # bound unification at matched splits
    worst_uni = 0.0
    for _ in range(50):
        ch = channel_draw(rng)
        uni = outer.unified_outer(ch)
        other = outer.weak_outer(ch) if ch.b <= 1 else outer.strong_outer(ch)
        worst_uni = max(worst_uni, float(np.max(np.abs(uni.r2 - other.r2))))
    ok_uni = worst_uni <= 1e-9

    # noise-correlation argmin
    from scipy.optimize import minimize_scalar
    ok_argmin = True
    for _ in range(100):
        b = rng.uniform(0.05, 5.0)
        res = minimize_scalar(lambda g: (b * b + 1 - 2 * b * g) / (1 - g * g),
                              bounds=(-0.999999, 0.999999), method="bounded",
                              options={"xatol": 1e-12})
        ok_argmin &= abs(res.x - min(b, 1 / b)) <= 1e-6

    # corner-difference bound with its maximizer
    p2 = 10.0 ** rng.uniform(-1, 2)
    u = np.linspace(0.01, 10 * (p2 + 1), 200001)
    diff = cap(2 * np.sqrt(u * p2) / (1 + u + p2))
    ok_corner = (float(diff.max()) <= 1.0 + 1e-12
                 and abs(u[int(np.argmax(diff))] - (p2 + 1)) <= 3 * (u[1] - u[0]))

    # cooperative-bound dominance thresholds vs direct comparison
    ok_thr = True
    al = np.linspace(0.0, 1.0, 2001)
    for _ in range(20):
        p1, p2_ = 10.0 ** rng.uniform(-1, 1.5, 2)
        thr_deg = outer.bc_dms_degraded_threshold(p1, p2_)
        for b in np.linspace(max(1.01, 0.5 * thr_deg), 1.5 * thr_deg, 9):
            if abs(b - thr_deg) < 1e-3 * thr_deg:
                continue
            r2_bc = cap((p2_ + (1 - al) * b * b * p1
                         + 2 * np.sqrt(b * b * p1 * p2_)) / (1 + al * p1))
            slack = (cap(b * b * p1 + p2_
                         + 2 * np.sqrt((1 - al) * b * b * p1 * p2_))
                     - cap(al * p1)) - r2_bc
            ok_thr &= bool(np.all(slack >= -1e-9)) == (b >= thr_deg)
        # the S-channel threshold characterizes dominance at the
        # no-cooperation endpoint (the mid-split comparison genuinely
        # flips sign above it; see the notes ledger)
        thr_s = outer.bc_dms_s_threshold(p2_)
        for b in np.linspace(max(1.01, 0.5 * thr_s), 1.5 * thr_s, 9):
            if abs(b - thr_s) < 1e-3 * thr_s:
                continue
            r2_bc1 = cap(p2_ + 0.0)
            slack1 = (cap(b * b * p1 + p2_) - cap(p1)) - r2_bc1
            ok_thr &= (slack1 >= -1e-12) == (b >= thr_s)

    _line(10, ok_uni and ok_argmin and ok_corner and ok_thr,
          f"structural identities: unified diff {worst_uni:.2e}, argmin ok "
          f"{ok_argmin}, corner bound ok {ok_corner}, thresholds ok {ok_thr}")


def test_criterion_11_figure_reproduction():
    # regime atlas at p = 10: a pre-coded-common band above b = 1 that
    # excludes the degraded curve
    cells = verify.atlas(resolution=41, p1=10.0, p2=10.0)
    pdc_cells = [c for c in cells if c.label == "primary-decodes-cognitive"]
    ok_atlas = (len(pdc_cells) > 0 and all(c.b > 1 for c in pdc_cells)
                and not classify(ChannelParams(1 / 1.5, 1.5, 10, 10)).pdc)

    # pre-coding trade-off shape at the reference channel
    ch = ChannelParams(math.sqrt(0.3), math.sqrt(2.0), 6.0, 6.0)
    lc1, lc2 = inner.costa_lambdas(ch, 0.5)
    lam = np.linspace(0.0, 2.5, 2501)
    f1, r2, _ = inner.scheme_e_rates(ch, 0.5, lam)
    ok_fig4 = (abs(lam[int(np.argmax(f1))] - lc1.real) <= 1e-3
               and abs(lam[int(np.argmin(r2))] - lc2.real) <= 1e-3
               and abs(lc1.real - 0.9411) <= 1e-4
               and abs(lc2.real - 1.2122) <= 1e-4)

    # sweep region ordering at the same channel
    sweep = inner.scheme_e(ch, lambda_policy="sweep")
    costa = inner.scheme_e(ch, lambda_policy="costa1")
    zero = inner.scheme_e(ch, lambda_policy="zero")
    xs = np.union1d(sweep.r1, costa.r1)
    ok_fig21 = (region.contains(sweep, costa, tol=1e-3)[0]
                and region.contains(sweep, zero, tol=1e-3)[0]
                and float(np.max(sweep.boundary_at(xs)
                                 - costa.boundary_at(xs))) > 1e-2)

    # split-scheme dominance at the reference strong channel
    chf = ChannelParams(2.0, 3.0, 1.0, 1.0)
    f = inner.scheme_f(chf)
    de = region.union([inner.scheme_d(chf), inner.scheme_e(chf)])
    xs = np.union1d(f.r1, de.r1)
    ok_fig16 = (region.contains(f, de, tol=1e-4)[0]
                and float(np.max(f.boundary_at(xs)
                                 - de.boundary_at(xs))) > 1e-2)

    _line(11, ok_atlas and ok_fig4 and ok_fig21 and ok_fig16,
          f"figures: atlas band {ok_atlas}, precoding shape {ok_fig4}, "
          f"sweep ordering {ok_fig21}, split dominance {ok_fig16}")
