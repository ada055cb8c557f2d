import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcifc.channel import (CapacityResult, ChannelParams, RawChannel,
                           classify, pdc_margins, s_channel_thresholds,
                           to_standard_form, very_strong_condition)
from gcifc.errors import DegenerateDirectLink
from gcifc.verify import q_alpha
from conftest import channel_draw


class TestStandardForm:
    def test_identity_channel(self):
        cp = to_standard_form(RawChannel(1, 0, 0, 1, 1.0, 1.0, 4.0, 9.0))
        assert (cp.a, cp.b, cp.p1, cp.p2) == (0.0, 0.0, 4.0, 9.0)

    def test_direct_gain_scaling(self):
        cp = to_standard_form(RawChannel(2, 1, 1, 1, 1.0, 1.0, 1.0, 1.0))
        assert cp.p1 == pytest.approx(4.0)
        assert cp.b == pytest.approx(0.5)
        assert cp.a == pytest.approx(1.0)
        assert cp.p2 == pytest.approx(1.0)

    def test_degenerate_direct_link(self):
        with pytest.raises(DegenerateDirectLink):
            to_standard_form(RawChannel(0, 1, 1, 1, 1.0, 1.0, 1.0, 1.0))
        with pytest.raises(DegenerateDirectLink):
            to_standard_form(RawChannel(1, 1, 1, 0, 1.0, 1.0, 1.0, 1.0))

    def test_scale_consistency_random(self, rng):
        # scaling gains/noises/powers consistently leaves the standard
        # form (hence the classification) unchanged
        for _ in range(50):
            h = rng.normal(size=4) + 1j * rng.normal(size=4)
            s1, s2 = 10.0 ** rng.uniform(-1, 1, 2)
            p1, p2 = 10.0 ** rng.uniform(-1, 2, 2)
            raw = RawChannel(h[0], h[1], h[2], h[3], s1, s2, p1, p2)
            cp = to_standard_form(raw)
            c = 10.0 ** rng.uniform(-1, 1)
            scaled = RawChannel(h[0] * c, h[1] * c, h[2], h[3],
                                s1 * c ** 2, s2, p1, p2)
            cq = to_standard_form(scaled)
            assert abs(cp.a - cq.a) < 1e-12 * max(1, abs(cp.a))
            assert cp.b == pytest.approx(cq.b, rel=1e-12)
            assert cp.p1 == pytest.approx(cq.p1, rel=1e-12)
            r1 = classify(cp)
            r2 = classify(cq)
            assert r1.capacity_known == r2.capacity_known


class TestClassify:
    def test_weak(self):
        rep = classify(ChannelParams(0.5, 0.8, 3.0, 7.0))
        assert rep.weak and not rep.strong
        assert rep.capacity_known is CapacityResult.WEAK

    def test_very_strong_margin(self):
        ok, margin = very_strong_condition(ChannelParams(3.0, 1.2, 1.0, 1.0))
        assert ok
        assert margin == pytest.approx(8 - 0.44 - 3.6, abs=1e-12)
        rep = classify(ChannelParams(3.0, 1.2, 1.0, 1.0))
        assert rep.very_strong and rep.strong
        assert rep.capacity_known is CapacityResult.VERY_STRONG

    def test_very_strong_needs_b_above_one(self):
        ok, margin = very_strong_condition(ChannelParams(3.0, 0.9, 1.0, 1.0))
        assert not ok and margin > 0

    def test_symmetric_boundary_margin_zero(self):
        ok, margin = very_strong_condition(ChannelParams(1.5, 1.5, 2.0, 2.0))
        assert margin == pytest.approx(0.0, abs=1e-12)
        assert ok  # condition is >= 0 with b > 1

    def test_pdc_example(self):
        rep = classify(ChannelParams(0.0, 1.3, 10.0, 10.0))
        assert rep.pdc
        assert rep.margins["31a"] == pytest.approx(10 + 92.41, abs=1e-9)
        assert rep.margins["31b"] == pytest.approx(10 - 7.59, abs=1e-9)
        assert rep.capacity_known is CapacityResult.PDC

    def test_z_channel_priority(self):
        rep = classify(ChannelParams(1.0, 0.0, 1.0, 1.0))
        assert rep.z_channel
        assert rep.capacity_known is CapacityResult.Z_TRIVIAL

    def test_boundary_b_equals_one_is_weak(self):
        rep = classify(ChannelParams(2.0, 1.0, 1.0, 1.0))
        assert rep.weak and not rep.strong

    def test_degraded_detection(self):
        rep = classify(ChannelParams(0.5, 2.0, 1.0, 1.0))
        assert rep.degraded
        assert not classify(ChannelParams(-0.5, 2.0, 1.0, 1.0)).degraded
        assert not classify(ChannelParams(0.5 + 1e-3j, 2.0, 1.0, 1.0)).degraded

    def test_report_json(self):
        d = classify(ChannelParams(0.0, 1.3, 10.0, 10.0)).to_json_dict()
        assert d["capacity_known"] == "primary-decodes-cognitive"
        assert set(d["margins"]) == {"5", "31a", "31b", "35", "36"}

    @settings(max_examples=80, deadline=None)
    @given(a=st.floats(-5, 5), b=st.floats(0, 5),
           p1=st.floats(0.1, 100), p2=st.floats(0.1, 100))
    def test_weak_strong_exclusive(self, a, b, p1, p2):
        rep = classify(ChannelParams(a, b, p1, p2))
        assert rep.weak != rep.strong
        if rep.very_strong:
            assert rep.strong
        if rep.pdc:
            assert rep.strong
        if rep.z_channel:
            assert rep.capacity_known is CapacityResult.Z_TRIVIAL


class TestConditionSweepOracles:
    def test_very_strong_matches_rho_sweep(self, rng):
        # the cooperation-term envelope is linear in t = |rho| cos(phi),
        # so scanning 101 points of t reduces to the endpoint t = -1
        for _ in range(200):
            ch = channel_draw(rng, complex_a=bool(rng.integers(0, 2)))
            t = np.linspace(-1.0, 1.0, 101)
            vals = ((abs(ch.a) ** 2 - 1) * ch.p2 - (ch.b ** 2 - 1) * ch.p1
                    + 2 * math.sqrt(ch.p1 * ch.p2) * abs(ch.a - ch.b) * t)
            sweep_ok = bool(np.all(vals >= 0))
            endpoint_ok = vals[0] >= 0
            assert sweep_ok == endpoint_ok
            _, margin = very_strong_condition(ch)
            assert (margin >= 0) == endpoint_ok

    def test_pdc_matches_q_sweep(self, rng):
        # concavity of q makes the endpoint check equal the full sweep
        hits = 0
        for _ in range(300):
            ch = channel_draw(rng, b_low=1.0 + 1e-9)
            al = np.linspace(0.0, 1.0, 1001)
            qs = q_alpha(ch, al)
            scale = max(1.0, float(np.max(np.abs(qs))))
            sweep_ok = bool(np.all(qs >= -1e-9 * scale))
            m_a, m_b = pdc_margins(ch)
            endpoint_ok = m_a >= 0 and m_b >= 0
            assert sweep_ok == endpoint_ok
            hits += endpoint_ok
        assert hits > 0  # the draw reaches the regime

    def test_s_channel_thresholds_p10(self):
        low, high = s_channel_thresholds(10.0, 10.0)
        assert low == pytest.approx(math.sqrt(21.0 / 11.0), abs=1e-12)
        assert high == pytest.approx(10.0 + math.sqrt(111.0), abs=1e-12)

    def test_s_channel_high_threshold_past_the_double_range(self):
        """At p1 = p2 = 1e308 the high threshold, about 2p, reads +inf:
        classify reports the channel, with no warning."""
        ch = ChannelParams(0.5, 1.5, 1e308, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert s_channel_thresholds(ch.p1, ch.p2)[1] == math.inf
            rep = classify(ch)
        assert rep.capacity_known is CapacityResult.UNKNOWN
        assert rep.margins["36"] == -math.inf
