"""The scheme-F lambda fans against their loop form in sweep_reference, and
the streamed scheme-E sweep against its one-shot form: every boundary and
chosen parameter bit-identical (a tied vertex's up to its tie)."""

import numpy as np
import pytest

from gcifc import inner
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
def test_regions_match_loop_forms(ch):
    _same(inner.scheme_f(ch), ref.scheme_f(ch))


@pytest.mark.parametrize("ch", CHANNELS)
def test_regions_match_loop_forms_atlas_grid(ch):
    # the uniform tables at the atlas grid
    _same(inner.scheme_f(ch).on_grid(512), ref.scheme_f(ch).on_grid(512))


def _matches_one_shot(ch, *args):
    """inner.scheme_e against its one-shot form, byte for byte: boundaries,
    id and chosen params (signed zeros too), except that where the
    one-shot cloud holds several rows at a vertex's point, the streamed
    params may be those of another of them. Among exactly equal
    points the first to arrive wins, and the streamed rows arrive in
    another order than the one-shot (vertex, scale, split) order."""
    got = inner.scheme_e(ch, *args)
    cloud = ref.scheme_e_cloud(ch, *args)
    want = ref.scheme_e(ch, *args)
    assert got.r1.tobytes() == want.r1.tobytes()
    assert got.r2.tobytes() == want.r2.tobytes()
    assert got.region_id == want.region_id
    names = ("alpha", "lambda_re")
    assert tuple(got.meta["params"]) == names
    pg, pw = (np.stack([r.meta["params"][k] for k in names])
              for r in (got, want))
    bits = cloud[2:].view(np.int64)
    pts = np.clip(cloud[:2], 0.0, None)
    for k in np.flatnonzero((pg.view(np.int64) != pw.view(np.int64)).any(0)):
        # rows carrying either vertex's params, bit for bit
        i, j = (np.flatnonzero((bits == p[:, k:k + 1].view(np.int64)).all(0))
                for p in (pg, pw))
        tied = (pts[:, i, None] == pts[:, None, j]).all(0)
        at = pts[:, i[tied.any(1)]]
        # the first vertex is at r1 = 0, or the second's point moved there
        r1 = got.r1[k:k + 2] if k == 0 else got.r1[k:k + 1]
        assert np.any((at[1] == got.r2[k]) & np.isin(at[0], r1)), (ch, k)


@pytest.mark.parametrize("ch", CHANNELS)
def test_streamed_scheme_e_matches_one_shot(ch):
    fast = inner.default_alpha_grid(ch, matched=257, uniform=245)
    _matches_one_shot(ch, fast, "sweep", 101)
    for policy in ("sweep", "costa1", "zero"):
        _matches_one_shot(ch, None, policy)
    # with no alpha = 0 split, the r1 = 0 corner is often a second-vertex
    # row, which the one-shot cloud holds past every first-vertex row
    shifted = np.linspace(0.2, 1.0, 21)
    for policy in ("sweep", "costa1"):
        _matches_one_shot(ch, shifted, policy, 11)
