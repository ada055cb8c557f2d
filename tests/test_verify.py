import math

import numpy as np
import pytest

from gcifc.channel import CapacityResult, ChannelParams, classify
from gcifc import inner, outer, region, verify
from gcifc.errors import GcifcError
from gcifc.util import cap
from conftest import EDGE_CHANNELS, HUGE_CHANNELS, channel_draw


class TestQAlpha:
    def test_endpoints_match_condition_margins(self, rng):
        from gcifc.channel import pdc_margins
        for _ in range(50):
            ch = channel_draw(rng)
            m_a, m_b = pdc_margins(ch)
            assert float(verify.q_alpha(ch, 1.0)) == pytest.approx(m_a,
                                                                   rel=1e-12,
                                                                   abs=1e-9)
            assert float(verify.q_alpha(ch, 0.0)) == pytest.approx(m_b,
                                                                   rel=1e-12,
                                                                   abs=1e-9)

    def test_degraded_is_negative_for_strong(self):
        ch = ChannelParams(1 / 1.5, 1.5, 4.0, 4.0)
        al = np.linspace(0, 1, 101)
        assert np.all(verify.q_alpha(ch, al) < 0)

    def test_reference_value(self):
        assert float(verify.q_alpha(ChannelParams(0, 1.3, 10, 10), 0.0)) == \
            pytest.approx(10 - 0.69 * 11, abs=1e-9)

    def test_concavity_second_differences(self, rng):
        # q is quadratic with nonpositive curvature in x = sqrt(1 - alpha),
        # so its second differences on a uniform x grid never go positive
        for _ in range(100):
            ch = channel_draw(rng)
            x = np.linspace(0.0, 1.0, 1001)
            q = verify.q_alpha(ch, 1.0 - x ** 2)
            d2 = np.diff(q, 2)
            assert d2.max() <= 1e-9

    def test_convex_in_alpha_when_a_positive(self):
        # the alpha-space convexity flip that makes the x-space form the
        # right one: a PDC channel with Re{a} > 0
        ch = ChannelParams(0.1, 1.2, 10.0, 10.0)
        assert classify(ch).pdc
        al = np.linspace(0.0, 1.0, 1001)
        d2 = np.diff(verify.q_alpha(ch, al), 2)
        assert d2.max() > 1e-6


KNOWN_REGIMES = [
    (ChannelParams(0.5, 0.8, 5.0, 5.0), CapacityResult.WEAK),
    (ChannelParams(3.0, 1.2, 1.0, 1.0), CapacityResult.VERY_STRONG),
    (ChannelParams(0.0, 1.3, 10.0, 10.0), CapacityResult.PDC),
    (ChannelParams(1.0, 0.0, 2.0, 3.0), CapacityResult.Z_TRIVIAL),
    (ChannelParams(0.0, 21.0, 10.0, 10.0), CapacityResult.S_CHANNEL),
]


class TestCapacityCertification:
    @pytest.mark.parametrize("ch,regime", KNOWN_REGIMES + [
        # high-branch S channel at high power: scheme E's steep corner
        # at alpha -> 1 needs the dense rho fill
        (ChannelParams(0.0, 300.0, 100.0, 100.0), CapacityResult.S_CHANNEL),
    ])
    def test_known_regimes_certify(self, ch, regime):
        assert classify(ch).capacity_known is regime
        rep = verify.check_capacity(ch)
        assert rep.holds, rep.details
        assert rep.worst_violation <= verify.CAPACITY_TOL_BITS

    def test_no_sampled_bound(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("check_capacity built a sampled bound")
        monkeypatch.setattr(outer, "best_outer", refuse)
        monkeypatch.setattr(outer, "bc_pr_outer", refuse)
        for ch, _ in KNOWN_REGIMES:
            assert verify.check_capacity(ch).holds

    @pytest.mark.parametrize("ch,regime", KNOWN_REGIMES)
    def test_gap_is_closed_form_gap(self, ch, regime):
        scheme_id, reg = verify._certifying_region(ch, regime)
        want, worst_r1 = region.additive_gap(outer.capacity_region(ch), reg)
        details = verify.check_capacity(ch).details[0]
        assert details["scheme"] == scheme_id
        assert details["gap_bits"] == want
        assert details["worst_r1"] == worst_r1

    def test_unknown_regime_no_claim(self):
        ch = ChannelParams(1 / 1.5, 1.5, 10.0, 10.0)  # degraded strong
        assert classify(ch).capacity_known is CapacityResult.UNKNOWN
        rep = verify.check_capacity(ch)
        assert rep.holds and rep.channels_tested == 0

    def test_s_channel_mid_band_not_certifiable(self):
        # b between the two thresholds: the no-pre-coding scheme leaves a
        # real gap, so the regime is (correctly) not in the known set
        ch = ChannelParams(0.0, 5.0, 10.0, 10.0)
        assert classify(ch).capacity_known is CapacityResult.UNKNOWN
        gap, _ = region.additive_gap(
            outer.best_outer(ch), inner.scheme_e(ch, lambda_policy="zero"))
        assert gap > 1e-2


class TestGapChecks:
    def test_additive_on_strong(self, rng):
        for _ in range(25):
            ch = channel_draw(rng, b_low=1.001)
            rep = verify.check_additive_gap(ch)
            assert rep.holds, rep.details

    def test_additive_on_weak_is_capacity(self):
        rep = verify.check_additive_gap(ChannelParams(0.4, 0.9, 5.0, 5.0))
        assert rep.holds
        assert rep.details[1]["region_gap_bits"] <= 1e-4

    def test_multiplicative(self, rng):
        for _ in range(25):
            ch = channel_draw(rng, b_low=1.001)
            rep = verify.check_multiplicative_gap(ch)
            assert rep.holds, rep.details
            assert rep.details[0]["ratio"] <= 2.0 + 1e-3

    def test_tdma_gaps_closed_form(self):
        # criterion 7's draws: against the piecewise-linear converse the
        # time-sharing chord from (0, A) to (c, 0) is worst at the corner
        # (c, A - c), where the shift is c (A - c) / (A + c) and the ratio
        # 2 - c / A, with c = cap(p1) and A = cap(peq)
        rng = np.random.default_rng(42 + 7)
        tested = 0
        while tested < 200:
            ch = channel_draw(rng)
            if ch.b <= 1.0:
                continue
            tested += 1
            c = float(cap(ch.p1))
            big = float(cap((math.sqrt(ch.b ** 2 * ch.p1) + math.sqrt(ch.p2)) ** 2))
            pl, td = outer.piecewise_linear_outer(ch), inner.tdma_inner(ch)
            gap, _ = region.additive_gap(pl, td)
            assert gap == pytest.approx(c * (big - c) / (big + c), abs=1e-12)
            ratio, _ = region.multiplicative_gap(pl, td)
            assert ratio == pytest.approx(2.0 - c / big, abs=1e-12)
            rep = verify.check_multiplicative_gap(ch)
            assert rep.holds and rep.worst_violation == 0.0
            assert rep.details == [{"ratio": ratio, "worst_r1": c}]

    def test_table_rows(self, rng):
        seen = set()
        for _ in range(60):
            ch = channel_draw(rng)
            rep = verify.check_table3(ch)
            assert rep.holds, (ch, rep.details)
            seen |= {d["row"] for d in rep.details}
        assert {"perfect-cancel", "broadcast-strong"} <= seen

    def test_perfect_cancel_row_keeps_member_corners(self):
        # resampling both members onto one union grid once cut scheme E's
        # corner short of the grid's end here, 1.96 bits below it. The
        # envelope coalesces r1 ties within t = 1e-9 * max(r1_max, 1), so
        # member nodes are checked shifted left by 2t.
        ch = ChannelParams(-0.6 + 0.2j, 1.7, 1e8, 1e8)
        rows = {row: reg for row, _, reg, _ in verify._table_rows(ch)}
        row = rows["perfect-cancel"]
        shift = 2e-9 * max(row.r1_max, 1.0)
        for m in (inner.scheme_e(ch, lambda_policy="costa1"),
                  inner.tdma_inner(ch)):
            assert m.r1_max - row.r1_max <= shift
            got = row.boundary_at(np.maximum(m.r1 - shift, 0.0))
            assert np.all(m.r2 <= got + 1e-9), m.region_id

    @pytest.mark.parametrize("ch", [ChannelParams(0.5, 1.3, 0.0, 4.0),
                                    ChannelParams(0.5, 2.0, 0.0, 0.0),
                                    ChannelParams(0.5 + 0.5j, 2.0, 0.0, 6.0)])
    def test_table_rows_at_zero_p1(self, ch):
        # the broadcast-strong row's corner point sits at the origin
        rows = {row: reg for row, _, reg, _ in verify._table_rows(ch)}
        strong = rows["broadcast-strong"]
        assert strong.r1_max == 0.0 and strong.r2[0] == pytest.approx(
            math.log2(1.0 + ch.p2), abs=1e-12)
        assert verify.check_table3(ch).holds


class TestAtlas:
    def test_determinism(self):
        a1 = verify.atlas(resolution=7)
        a2 = verify.atlas(resolution=7)
        assert [c.csv_row() for c in a1] == [c.csv_row() for c in a2]

    def test_zero_b_column_trivial(self):
        cells = verify.atlas(b_range=(0.0, 0.0), resolution=5)
        assert all(c.label == "z-trivial" for c in cells)

    def test_pdc_band_structure_p10(self):
        # the pre-coded-common capacity band sits inside strong
        # interference and excludes the degraded curve a b = 1
        cells = verify.atlas(resolution=21, p1=10.0, p2=10.0)
        pdc = [c for c in cells if c.label == "primary-decodes-cognitive"]
        assert pdc
        assert all(c.b > 1.0 for c in pdc)
        deg = classify(ChannelParams(1 / 1.5, 1.5, 10.0, 10.0))
        assert not deg.pdc
        near = classify(ChannelParams(-1.0, 1.5, 10.0, 10.0))
        assert near.pdc

    def test_gap_mode_known_cells_near_zero(self):
        cells = verify.atlas(a_range=(0.0, 0.0), b_range=(1.2, 1.4),
                             resolution=2, p1=10.0, p2=10.0, mode="gap")
        for c in cells:
            assert c.gap is not None
            if c.capacity_known:
                assert c.gap <= 1e-3

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            verify.atlas(resolution=1)


class TestSuite:
    def test_small_run_passes(self):
        reports = verify.run_verification(n=6, seed=3)
        assert all(r.holds for r in reports)
        ids = {r.theorem_id for r in reports}
        assert {"soundness", "capacity-certification", "additive-gap",
                "multiplicative-gap", "constant-gap-rows"} <= ids

    def test_soundness_complex_a_channel(self):
        # channel 9 of random_channels(10, 7, complex_a=True): a wrong
        # conjugate in scheme F's conditional variance once put its sum
        # bound 0.865 bits above the S-channel capacity bound here
        ch = ChannelParams(0.4114382137648871 + 0.07772236300349977j,
                           4.356696883464403, 16.80013772748854,
                           0.18814245869020496)
        rep = verify.check_soundness(ch)
        assert rep.holds, rep.worst_violation

    def test_soundness_top_corner_channel(self):
        # the atlas-gap cell (0, 5) at p = 10: a sampled bc-pr bound once
        # kept the first sample near the largest r1, (3.4594, 0.056), and
        # dropped the corner (3.4594, 3.4594) there
        rep = verify.check_soundness(ChannelParams(0.0, 5.0, 10.0, 10.0))
        assert rep.holds, rep.worst_violation

    @pytest.mark.parametrize("p2", [1e-310, 5e-324])
    def test_subnormal_p2(self, p2):
        # p1 / p2 overflows: the costa coefficient must stay finite
        ch = ChannelParams(0.5, 1.3, 4.0, p2)
        for reg in (outer.best_outer(ch), inner.scheme_f(ch),
                    inner.scheme_e(ch, lambda_policy="costa1")):
            assert reg.r1_max > 0.0 and np.isfinite(reg.r2).all()
        rep = verify.check_soundness(ch)
        assert rep.holds, rep.worst_violation

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            verify.run_verification(n=0)

    def test_threaded_matches_serial(self):
        serial = verify.run_verification(n=4, seed=9, workers=1)
        threaded = verify.run_verification(n=4, seed=9, workers=4)
        key = lambda rs: sorted((r.theorem_id, r.worst_violation) for r in rs)
        assert key(serial) == key(threaded)


ROBUSTNESS_CHANNELS = EDGE_CHANNELS + [
    ("top-corner", ChannelParams(0.0, 5.0, 10.0, 10.0)),
    ("p2=1e-310", ChannelParams(0.5, 1.3, 4.0, 1e-310)),
    ("p2=5e-324", ChannelParams(0.5, 1.3, 4.0, 5e-324)),
    ("p1=p2=0", ChannelParams(0.5, 2.0, 0.0, 0.0)),
    ("complex-p1=0", ChannelParams(0.5 + 0.5j, 2.0, 0.0, 6.0)),
    ("p1=1e12", ChannelParams(3.0, 0.2, 1e12, 1e-3)),
] + HUGE_CHANNELS


@pytest.mark.parametrize("ch", [pytest.param(ch, id=name)
                                for name, ch in ROBUSTNESS_CHANNELS])
def test_checks_report_or_raise_typed(ch):
    for check in (verify.check_soundness, verify.check_capacity,
                  verify.check_additive_gap, verify.check_multiplicative_gap,
                  verify.check_table3):
        try:
            rep = check(ch)
        except GcifcError:
            continue
        assert isinstance(rep, verify.TheoremReport)
        assert rep.holds, (rep.theorem_id, rep.worst_violation)
