"""Tracer: self-time arithmetic, wrapping of re-bound names, restoration."""

import gcifc
import numpy as np
from gcifc import channel, inner, outer, region, verify
from gcifc.channel import ChannelParams

import harness
import tracer
import workloads

MODULES = (channel, inner, outer, region, verify)


def _snapshot():
    names = {ns: dict(vars(ns)) for ns in MODULES + (gcifc,)}
    names[region.RateRegion] = {"contains_points":
                                region.RateRegion.__dict__["contains_points"]}
    return names


def test_self_times_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0, 0],
        ["a", 1.0, 3.0, 0, 0, 0],
        ["b", 2.0, 5.0, 0, 0, 0],    # overlaps a: covered [1, 5]
        ["c", 8.0, 12.0, 0, 0, 0],   # runs past the parent: clipped to 10
        ["a.1", 1.5, 2.0, 1, 0, 0],
        ["a.2", 2.5, 3.0, 1, 0, 0],
    ]
    got = tracer.self_times(spans)
    assert got == [10.0 - 6.0, 2.0 - 1.0, 3.0, 4.0, 0.5, 0.5]
    summ = tracer.summarize(spans + [["a", 20.0, 21.5, -1, 1, 7]])
    assert summ["a"] == {"calls": 2, "self_s": 1.0 + 1.5, "points": 7}


def test_wrappers_cover_rebound_names_and_are_restored():
    before = _snapshot()
    tr = harness.make_tracer()
    with tr:
        assert inner.from_pareto_points is not before[inner]["from_pareto_points"]
        assert inner.from_pareto_points is region.from_pareto_points
        assert outer.intersect is region.intersect
        assert verify.from_pareto_points is region.from_pareto_points
        assert inner.union is region.union
        assert gcifc.classify is channel.classify
        assert (region.RateRegion.__dict__["contains_points"]
                is not before[region.RateRegion]["contains_points"])
        ch = ChannelParams(2.0, 3.0, 1.0, 1.0)
        inner.scheme_e(ch)
        outer.best_outer(ch)
        bo, bi = verify.best_pair(ch, fast=True, grid=129)
        region.additive_gap(bo, bi)
    after = _snapshot()
    for ns, names in before.items():
        assert after[ns].keys() == names.keys()
        for name, obj in names.items():
            assert after[ns][name] is obj, (ns, name)

    by_name = {}
    for i, s in enumerate(tr.spans):
        by_name.setdefault(s[tracer.NAME], []).append(i)
    pts, calls = tracer.child_points(tr.spans, "inner.scheme_e",
                                     "region.from_pareto_points")
    assert calls >= 2 and pts > 0
    assert by_name["region.contains_points"]
    assert all(s[tracer.END] >= s[tracer.START] for s in tr.spans)
    # spans take the defining module's name; calls through outer's own
    # binding of intersect, and inner's import inside best_outer, nest
    # under best_outer
    best = set(by_name["outer.best_outer"])
    for child in ("region.intersect", "inner.cheap_achievable_points"):
        assert any(tr.spans[i][tracer.PARENT] in best for i in by_name[child])


def test_traced_outputs_equal_untraced():
    ch = verify.random_channels(1, 3)[0]
    w = workloads.WORKLOADS["soundness"]
    plain = w.run(ch)
    with harness.make_tracer():
        traced = w.run(ch)
    assert workloads.outputs_equal(plain, traced)
    assert not workloads.outputs_equal(plain, dict(plain, ok=not plain["ok"]))
    r1, r2 = plain["inner"]
    moved = np.array(r2)
    moved[3] = np.nextafter(moved[3], 1.0)
    assert not workloads.outputs_equal(plain, dict(plain, inner=(r1, moved)))
