"""Theorem verification harness and regime-atlas generation.

Each check pits a closed-form claim against the region machinery at a
stated tolerance and reports signed worst-case violations. The random
channel distribution is log-uniform in the powers over [0.1, 100],
uniform a in [-5, 5] (real by default), uniform b in [0, 5].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (CapacityResult, ChannelParams, classify,
                      s_channel_thresholds)
from .errors import RegimeMismatch  # noqa: F401 (re-exported)
from . import inner, outer, region
from .region import RateRegion, from_pareto_points
from .util import cap, coop_sum_cap, pos, units

CAPACITY_TOL_BITS = 1e-4
SOUNDNESS_TOL_BITS = 1e-6
ADDITIVE_GAP_BITS = 1.0          # per complex channel
MULTIPLICATIVE_GAP = 2.0

# per-complex-channel gap budgets of the constant-gap rows
ROW_GAPS = {"perfect-cancel": 1.0, "partial-cancel": 3.74,
            "broadcast-weak": 2.0, "broadcast-strong": 3.0,
            "interference-strip": 3.0}


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one verification check over one or more channels."""

    theorem_id: str
    holds: bool
    worst_violation: float
    channels_tested: int
    tolerance: float
    details: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {"theorem_id": self.theorem_id, "holds": self.holds,
                "worst_violation": self.worst_violation,
                "channels_tested": self.channels_tested,
                "tolerance": self.tolerance, "details": list(self.details)}


@dataclass(frozen=True)
class AtlasCell:
    """One (a, b) grid cell of the regime/gap atlas."""

    a: complex
    b: float
    label: str
    capacity_known: bool
    margin_5: float
    margin_31a: float
    margin_31b: float
    gap: float | None = None

    def csv_row(self) -> str:
        gap = "" if self.gap is None else "%.12e" % self.gap
        return ",".join(["%.12e" % self.a.real, "%.12e" % self.a.imag,
                         "%.12e" % self.b, self.label,
                         "%.12e" % self.margin_5, "%.12e" % self.margin_31a,
                         "%.12e" % self.margin_31b, gap])


ATLAS_CSV_HEADER = "a_re,a_im,b,label,margin_5,margin_31a,margin_31b,gap"


def _var1(ch: ChannelParams, alpha):
    """p1 + |a|^2 p2 + 2 Re{a} sqrt((1 - alpha) p1 p2) in noise units."""
    u = units(ch)
    root = np.sqrt(pos(1.0 - np.asarray(alpha, dtype=float)) * u.p1 * u.p2)
    return u.p1 + abs(ch.a) ** 2 * u.p2 + 2.0 * ch.a.real * root


def q_alpha(ch: ChannelParams, alpha):
    """Certification margin polynomial of the pre-coded common strategy.

    q(alpha) = p2 |1-a b|^2 (alpha p1 + 1)
             - (b^2-1)(p1 + |a|^2 p2 + 2 Re{a} sqrt(abar p1 p2) + 1).
    Nonnegative on [0, 1] iff the primary-decodes-cognitive conditions
    hold; concave in alpha (quadratic in sqrt(1 - alpha)). Quadratic in
    the powers with the unit noise n as a power, so it is evaluated in
    noise units and reads +-inf past the double range.
    """
    al = np.asarray(alpha, dtype=float)
    u = units(ch)
    d = abs(1.0 - ch.a * ch.b) ** 2
    q = (u.p2 * d * (al * u.p1 + u.n)
         - (ch.b ** 2 - 1.0) * u.n * (_var1(ch, al) + u.n))
    return u.power(q, 2)


def random_channels(n: int, seed: int, complex_a: bool = False):
    """Seeded channel draws from the reference distribution."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        p1, p2 = 10.0 ** rng.uniform(-1.0, 2.0, 2)
        a = rng.uniform(-5.0, 5.0)
        if complex_a:
            a = complex(a, rng.uniform(-5.0, 5.0))
        out.append(ChannelParams(a, rng.uniform(0.0, 5.0), p1, p2))
    return out


def best_pair(ch: ChannelParams, fast=None,
              grid: int = region.R1_GRID_DEFAULT):
    """(best_outer on `grid` r1 nodes, best_inner), built independently: an
    upper bound by construction and the best achievable region. `fast` is
    accepted for existing callers and ignored."""
    bi = inner.best_inner(ch)
    return outer.best_outer(ch, grid=grid), bi


def _certifying_region(ch: ChannelParams, result: CapacityResult) -> tuple[str, RateRegion]:
    if result in (CapacityResult.Z_TRIVIAL, CapacityResult.WEAK):
        return "b", inner.scheme_b(ch)
    if result is CapacityResult.VERY_STRONG:
        return "d", inner.scheme_d(ch)
    # scheme E's corner at alpha -> 1 is steep at high power; a denser
    # rho fill than the default samples it within CAPACITY_TOL_BITS
    al = inner.default_alpha_grid(ch, uniform=1953)
    low, _ = s_channel_thresholds(ch.p1, ch.p2)
    if result is CapacityResult.PDC or ch.b <= low:
        return "e:costa1", inner.scheme_e(ch, al, lambda_policy="costa1")
    return "e:zero", inner.scheme_e(ch, al, lambda_policy="zero")


def check_capacity(ch: ChannelParams) -> TheoremReport:
    """Certify the known-capacity regimes: the designated scheme meets the
    closed-form capacity region (`outer.capacity_region`) within
    CAPACITY_TOL_BITS. Neither `best_outer` nor `bc_pr_outer` takes part."""
    rep = classify(ch)
    if rep.capacity_known is CapacityResult.UNKNOWN:
        return TheoremReport("capacity-certification", True, 0.0, 0,
                             CAPACITY_TOL_BITS,
                             [{"note": "capacity unknown, nothing to certify"}])
    scheme_id, reg = _certifying_region(ch, rep.capacity_known)
    gap, worst_r1 = region.additive_gap(outer.capacity_region(ch), reg)
    return TheoremReport(
        "capacity-certification", gap <= CAPACITY_TOL_BITS, gap, 1,
        CAPACITY_TOL_BITS,
        [{"regime": rep.capacity_known.value, "scheme": scheme_id,
          "gap_bits": gap, "worst_r1": worst_r1}])


def scheme_c_alpha_gap(ch: ChannelParams, alpha):
    """Per-split shortfall of the double-binning strategy (bits)."""
    u = units(ch)
    var1 = _var1(ch, alpha)
    return np.log2(1.0 + var1 / (u.n + var1))


def check_additive_gap(ch: ChannelParams) -> TheoremReport:
    """Constant additive gap: the double-binning strategy sits within one
    bit (complex channel) of the relevant converse everywhere."""
    al = inner.default_alpha_grid(ch)
    gap_curve = scheme_c_alpha_gap(ch, al)
    details = [{"max_gap_alpha_bits": float(gap_curve.max())}]
    if ch.b <= 1.0:
        bo = outer.weak_outer(ch)
        reg = inner.scheme_b(ch)
    else:
        bo = outer.strong_outer(ch)
        reg = inner.scheme_c(ch, sigma_pairs=((1.0, 0.0),))
    gap, worst_r1 = region.additive_gap(bo, reg)
    details.append({"region_gap_bits": gap, "worst_r1": worst_r1})
    worst = max(gap - ADDITIVE_GAP_BITS, float(gap_curve.max()) - 1.0)
    return TheoremReport("additive-gap", worst <= 1e-9, max(worst, 0.0), 1,
                         ADDITIVE_GAP_BITS, details)


def check_multiplicative_gap(ch: ChannelParams) -> TheoremReport:
    """Factor-two coverage: doubling the time-sharing region covers the
    piecewise-linear converse."""
    if ch.b <= 1.0:
        return TheoremReport("multiplicative-gap", True, 0.0, 0,
                             MULTIPLICATIVE_GAP,
                             [{"note": "weak channel, capacity known"}])
    pl = outer.piecewise_linear_outer(ch)
    td = inner.tdma_inner(ch)
    mul, worst_r1 = region.multiplicative_gap(pl, td)
    return TheoremReport(
        "multiplicative-gap", mul <= MULTIPLICATIVE_GAP + 1e-9,
        max(mul - MULTIPLICATIVE_GAP, 0.0), 1, MULTIPLICATIVE_GAP,
        [{"ratio": mul, "worst_r1": worst_r1}])


def _table_rows(ch: ChannelParams):
    """(row_id, applies, inner_region, outer_region) per constant-gap row."""
    rep = classify(ch)
    u = units(ch)
    b2p1 = ch.b ** 2 * u.p1
    peq_pt = (0.0, coop_sum_cap(ch))
    rows = []

    if ch.b > 1.0:
        so = outer.strong_outer(ch)
        rows.append(("perfect-cancel", rep.margins["31a"] >= 0.0,
                     region.union([inner.scheme_e(ch, lambda_policy="costa1"),
                                   inner.tdma_inner(ch)]), so))

        applies2 = b2p1 <= u.p2
        pts = [peq_pt, (0.0, float(u.cap(u.p2)))]
        if ch.a.real <= 1.0 / ch.b and ch.p1 > 1.0:
            lam = ch.a * (ch.p1 - math.sqrt(ch.p1)) / (ch.p1 + 1.0)
            f1, r2, ss = inner.scheme_e_rates(ch, 1.0, lam)
            pts.append((float(f1), float(min(r2, ss - f1))))
        elif ch.a.real > 1.0 / ch.b and ch.p1 > 3.0:
            lam = ch.a * (ch.p1 + 2.0 * math.sqrt(ch.p1)) / (ch.p1 + 1.0)
            f1, r2, ss = inner.scheme_e_rates(ch, 1.0, lam)
            pts.append((float(f1), float(min(r2, ss - f1))))
        rows.append(("partial-cancel", applies2,
                     from_pareto_points(np.transpose(pts)), so))

        al4 = 1.0 / max(ch.p1, 1.0)  # min(1, 1 / p1); at p1 = 0 the origin
        a_pt = (float(cap((1 - al4) * u.p1 / (u.n + al4 * u.p1))),
                float(u.cap(al4 * b2p1)))
        rows.append(("broadcast-strong", b2p1 > u.p2,
                     from_pareto_points(np.transpose([peq_pt, a_pt])), so))

        c_p1 = float(u.cap(u.p1))
        ssum = min(float(u.cap(u.p1 + abs(ch.a) ** 2 * u.p2)),
                   float(u.cap(b2p1 + u.p2)))
        d_pt = (min(c_p1, ssum), max(ssum - c_p1, 0.0))
        rows.append(("interference-strip", abs(ch.a) >= 1.0 and b2p1 <= u.p2,
                     from_pareto_points(np.transpose([peq_pt, d_pt])), so))
    else:
        rows.append(("broadcast-weak", b2p1 > u.p2,
                     inner.scheme_a(ch), outer.weak_outer(ch)))
    return rows


def check_table3(ch: ChannelParams) -> TheoremReport:
    """Constant-gap rows: each applicable strategy/regime pair meets its
    per-complex-channel budget."""
    details = []
    worst = 0.0
    tested = 0
    for row_id, applies, reg, bo in _table_rows(ch):
        if not applies:
            continue
        tested += 1
        gap, worst_r1 = region.additive_gap(bo, reg)
        budget = ROW_GAPS[row_id]
        details.append({"row": row_id, "gap_bits": gap, "budget": budget,
                        "worst_r1": worst_r1})
        worst = max(worst, gap - budget)
    return TheoremReport("constant-gap-rows", worst <= 1e-9, max(worst, 0.0),
                         tested, 0.0, details)


def check_soundness(ch: ChannelParams) -> TheoremReport:
    """Every achievable region is inside the composed outer bound."""
    bo, bi = best_pair(ch)
    ok, viol = region.contains(bo, bi, SOUNDNESS_TOL_BITS)
    worst = max((v[1] for v in viol), default=0.0)
    return TheoremReport("soundness", ok, worst, 1, SOUNDNESS_TOL_BITS,
                         [{"violations": len(viol)}])


def atlas(a_range=(-5.0, 5.0), b_range=(0.0, 5.0), resolution: int = 41,
          p1: float = 10.0, p2: float = 10.0,
          mode: str = "regime") -> list[AtlasCell]:
    """Regime labels (or best-pair gaps) over an (a, b) grid."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if mode not in ("regime", "gap"):
        raise ValueError("mode must be 'regime' or 'gap'")
    cells = []
    for b in np.linspace(b_range[0], b_range[1], resolution):
        for ar in np.linspace(a_range[0], a_range[1], resolution):
            ch = ChannelParams(float(ar), float(b), p1, p2)
            rep = classify(ch)
            gap = None
            if mode == "gap":
                bo, bi = best_pair(ch, grid=512)
                gap, _ = region.additive_gap(bo, bi)
            cells.append(AtlasCell(
                ch.a, ch.b, rep.capacity_known.value,
                rep.capacity_known is not CapacityResult.UNKNOWN,
                rep.margins["5"], rep.margins["31a"], rep.margins["31b"], gap))
    return cells


def run_verification(n: int = 1000, seed: int = 42,
                     complex_a: bool = False) -> list[TheoremReport]:
    """Full randomized suite: soundness, capacity certification, and the
    constant-gap theorems over n seeded channels."""
    if n <= 0:
        raise ValueError("need at least one channel")
    chans = random_channels(n, seed, complex_a=complex_a)

    results = [[check_soundness(ch), check_capacity(ch),
                check_additive_gap(ch), check_multiplicative_gap(ch),
                check_table3(ch)] for ch in chans]

    merged: dict[str, list] = {}
    for idx, reports in enumerate(results):
        for rep in reports:
            merged.setdefault(rep.theorem_id, []).append((idx, rep))
    out = []
    for tid, items in merged.items():
        worst_idx, worst = max(items, key=lambda t: t[1].worst_violation)
        tested = sum(r.channels_tested for _, r in items)
        holds = all(r.holds for _, r in items)
        out.append(TheoremReport(
            tid, holds, worst.worst_violation, tested, worst.tolerance,
            [{"worst_channel_index": worst_idx,
              "worst_channel": chans[worst_idx].to_json_dict(),
              "seed": seed, "details": worst.details}]))
    return out
