"""The scheme-F lambda fans against their loop form in sweep_reference, and
the streamed scheme-E sweep against its one-shot form: every boundary and
chosen parameter bit-identical."""

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


def _identical(a, b):
    """Same bytes: boundaries, id and chosen params (signed zeros too)."""
    assert a.r1.tobytes() == b.r1.tobytes()
    assert a.r2.tobytes() == b.r2.tobytes()
    assert a.region_id == b.region_id
    pa, pb = a.meta["params"], b.meta["params"]
    assert pa.keys() == pb.keys()
    assert all(pa[k].tobytes() == pb[k].tobytes() for k in pa)


@pytest.mark.parametrize("ch", CHANNELS)
def test_regions_match_loop_forms(ch):
    _same(inner.scheme_f(ch), ref.scheme_f(ch))


@pytest.mark.parametrize("ch", CHANNELS)
def test_regions_match_loop_forms_atlas_grid(ch):
    # the uniform tables at the atlas grid
    _same(inner.scheme_f(ch).on_grid(512), ref.scheme_f(ch).on_grid(512))


@pytest.mark.parametrize("ch", CHANNELS)
def test_streamed_scheme_e_matches_one_shot(ch):
    fast = inner.default_alpha_grid(ch, matched=257, uniform=245)
    _identical(inner.scheme_e(ch, fast, n_lambda=101),
               ref.scheme_e(ch, fast, n_lambda=101))
    for policy in ("sweep", "costa1", "zero"):
        _identical(inner.scheme_e(ch, lambda_policy=policy),
                   ref.scheme_e(ch, lambda_policy=policy))
    # with no alpha = 0 split, the r1 = 0 corner is often a second-vertex
    # row, whose index lies past every first-vertex row
    shifted = np.linspace(0.2, 1.0, 21)
    for policy in ("sweep", "costa1"):
        _identical(inner.scheme_e(ch, shifted, policy, n_lambda=11),
                   ref.scheme_e(ch, shifted, policy, n_lambda=11))
