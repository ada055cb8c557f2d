"""The broadcast bc-pr coarse sweep and scheme-F lambda fans against their
loop forms in sweep_reference: every point and boundary bit-identical."""

import numpy as np
import pytest

from gcifc import inner, outer
from gcifc.channel import ChannelParams
from conftest import EDGE_CHANNELS, channel_draw
import sweep_reference as ref

_rng = np.random.default_rng(20261018)
CHANNELS = (
    [pytest.param(channel_draw(_rng), id=f"real{k}") for k in range(4)]
    + [pytest.param(channel_draw(_rng, complex_a=True), id=f"complex{k}")
       for k in range(2)]
    + [pytest.param(ch, id=name) for name, ch in EDGE_CHANNELS])


def _same(a, b):
    assert np.array_equal(a.r1, b.r1) and np.array_equal(a.r2, b.r2)


@pytest.mark.parametrize("ch", CHANNELS)
def test_coarse_points_match_per_pair_loop(ch):
    _, _, top, chunks = outer._coarse_points(ch, 21)
    want, _, _ = ref.coarse_sweep(ch)
    assert np.array_equal(np.concatenate(list(chunks)), want)
    assert top == want[:, 0].max()


@pytest.mark.parametrize("ch", CHANNELS)
def test_regions_match_loop_forms(ch, monkeypatch):
    _match_loop_forms(ch, 2048, monkeypatch)


@pytest.mark.parametrize("ch", CHANNELS)
def test_regions_match_loop_forms_atlas_grid(ch, monkeypatch):
    _match_loop_forms(ch, 512, monkeypatch)


def _match_loop_forms(ch, grid, monkeypatch):
    floor = inner.cheap_achievable_points(ch)
    assert np.array_equal(floor, ref.cheap_achievable_points(ch))
    _same(outer.bc_pr_outer(ch, grid=grid, floor_points=floor),
          ref.bc_pr_outer(ch, grid=grid, floor_points=floor))
    _same(inner.scheme_f(ch, grid=grid), ref.scheme_f(ch, grid=grid))
    got = outer.best_outer(ch, grid=grid)
    monkeypatch.setattr(outer, "bc_pr_outer", ref.bc_pr_outer)
    monkeypatch.setattr(inner, "cheap_achievable_points",
                        ref.cheap_achievable_points)
    _same(got, outer.best_outer(ch, grid=grid))


@pytest.mark.parametrize("ch", CHANNELS[4:6])
def test_memoised_coarse_sweep(ch):
    outer._coarse_reduced.cache_clear()
    miss = outer._coarse_reduced(ch, 21, 512)
    hit = outer._coarse_reduced(ch, 21, 512)
    assert outer._coarse_reduced.cache_info().hits == 1
    assert all(a is b for a, b in zip(miss, hit))
    assert miss[2].base is None and miss[3].base is None
    outer._coarse_reduced.cache_clear()
    for fresh, kept in zip(outer._coarse_reduced(ch, 21, 512), miss):
        assert np.array_equal(fresh, kept)
        with pytest.raises(ValueError):
            kept[:1] = 0
    # a second build with another floor reuses the sweep of the first
    floor = inner.cheap_achievable_points(ch)[::3]
    outer.best_outer(ch, grid=512)
    warm = outer.best_outer(ch, grid=512, extra_floor=floor)
    assert outer._coarse_reduced.cache_info().hits == 2
    outer._coarse_reduced.cache_clear()
    _same(warm, outer.best_outer(ch, grid=512, extra_floor=floor))


def test_memoised_zero_power_sweep_owns_its_row():
    # top <= 0 keeps one point, which must not pin the whole coarse cloud
    outer._coarse_reduced.cache_clear()
    _, _, dec, keep = outer._coarse_reduced(
        ChannelParams(0.5, 2.0, 0.0, 0.0), 21, 512)
    outer._coarse_reduced.cache_clear()
    assert dec.shape == (1, 2) and dec.base is None and keep.size == 0
