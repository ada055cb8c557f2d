"""The broadcast bc-pr coarse sweep and scheme-F lambda fans against their
loop forms in sweep_reference: every point and boundary bit-identical."""

import numpy as np
import pytest

from gcifc import inner, outer
from gcifc.channel import ChannelParams
from conftest import channel_draw
import sweep_reference as ref

_rng = np.random.default_rng(20261018)
CHANNELS = (
    [pytest.param(channel_draw(_rng), id=f"real{k}") for k in range(4)]
    + [pytest.param(channel_draw(_rng, complex_a=True), id=f"complex{k}")
       for k in range(2)]
    + [pytest.param(ch, id=name) for name, ch in [
        ("p1=0", ChannelParams(0.5, 1.3, 0.0, 4.0)),
        ("p2=0", ChannelParams(0.5, 2.0, 6.0, 0.0)),
        ("b=0", ChannelParams(0.7, 0.0, 3.0, 7.0)),
        ("a=1", ChannelParams(1.0, 1.5, 4.0, 4.0)),
        ("a=-1", ChannelParams(-1.0, 0.8, 4.0, 4.0)),
        ("ab=1", ChannelParams(0.5, 2.0, 5.0, 3.0)),
        ("tiny-imag-a", ChannelParams(0.5 + 1e-13j, 1.3, 6.0, 4.0)),
        ("subnormal-p1", ChannelParams(0.5, 1.3, 5e-324, 4.0)),
        ("p=1e8", ChannelParams(-0.6 + 0.2j, 1.7, 1e8, 1e8)),
    ]])


def _same(a, b):
    assert np.array_equal(a.r1, b.r1) and np.array_equal(a.r2, b.r2)


@pytest.mark.parametrize("ch", CHANNELS)
def test_coarse_points_match_per_pair_loop(ch, monkeypatch):
    seen = []
    sweep = outer._coarse_points

    def spy(*args):
        seen.append(sweep(*args))
        return seen[-1]

    monkeypatch.setattr(outer, "_coarse_points", spy)
    outer.bc_pr_outer(ch)
    want, _, _ = ref.coarse_sweep(ch)
    assert np.array_equal(seen[0], want)


@pytest.mark.parametrize("ch", CHANNELS)
def test_regions_match_loop_forms(ch, monkeypatch):
    floor = inner.cheap_achievable_points(ch)
    assert np.array_equal(floor, ref.cheap_achievable_points(ch))
    _same(outer.bc_pr_outer(ch, floor_points=floor),
          ref.bc_pr_outer(ch, floor_points=floor))
    _same(inner.scheme_f(ch), ref.scheme_f(ch))
    got = outer.best_outer(ch)
    monkeypatch.setattr(outer, "bc_pr_outer", ref.bc_pr_outer)
    monkeypatch.setattr(inner, "cheap_achievable_points",
                        ref.cheap_achievable_points)
    _same(got, outer.best_outer(ch))
