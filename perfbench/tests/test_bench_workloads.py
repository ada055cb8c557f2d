"""Workload bodies against the library entry points they reproduce, the
correctness gates, the reference check, and tiny end-to-end runs."""

import dataclasses
import json
import math
import statistics

import pytest
from gcifc import verify

import harness
import quality
import run
import workloads

WL = workloads.WORKLOADS


def _merge(per_channel, chans, seed):
    """run_verification's merge of per-channel reports."""
    merged = {}
    for idx, reports in enumerate(per_channel):
        for rep in reports:
            merged.setdefault(rep["theorem_id"], []).append((idx, rep))
    out = {}
    for tid, items in merged.items():
        worst_idx, worst = max(items, key=lambda t: t[1]["worst_violation"])
        out[tid] = {"theorem_id": tid,
                    "holds": all(r["holds"] for _, r in items),
                    "worst_violation": worst["worst_violation"],
                    "channels_tested": sum(r["channels_tested"] for _, r in items),
                    "tolerance": worst["tolerance"],
                    "details": [{"worst_channel_index": worst_idx,
                                 "worst_channel": chans[worst_idx].to_json_dict(),
                                 "seed": seed, "details": worst["details"]}]}
    return out


def test_verify_complex_matches_run_verification():
    seed, n = 11, 2
    chans = WL["verify-complex"].inputs(seed, n)
    assert chans == verify.random_channels(n, seed, complex_a=True)
    ours = _merge([workloads.verify_complex_run(ch)["reports"] for ch in chans],
                  chans, seed)
    theirs = {r.theorem_id: r.to_json_dict()
              for r in verify.run_verification(n=n, seed=seed, complex_a=True)}
    assert ours == theirs


def test_atlas_gap_matches_atlas():
    p = 3.0
    cells = verify.atlas(resolution=2, p1=p, p2=p, mode="gap")
    ours = [workloads.atlas_gap_run(ch) for ch in workloads.atlas_cells(p, 2)]
    assert len(ours) == len(cells)
    for cell, out in zip(cells, ours):
        assert out["label"] == cell.label
        assert out["gap"] == cell.gap
        assert out["margins"] == (cell.margin_5, cell.margin_31a, cell.margin_31b)


def test_inputs_follow_the_seed():
    for w in WL.values():
        assert w.inputs(5, 30) == w.inputs(5, 30)
        assert w.inputs(5, 30) != w.inputs(6, 30)
    # every atlas block covers the whole grid, one cell per log-p stratum
    cells = WL["atlas-gap"].inputs(2, 3 * 121)
    for k in range(3):
        block = cells[121 * k:121 * (k + 1)]
        assert sorted((c.a.real, c.b) for c in block) == sorted(workloads.atlas_grid())
        assert all(c.p1 == c.p2 for c in block)
        strata = sorted(int((math.log10(c.p1) + 1.0) / 3.0 * 121) for c in block)
        assert strata == list(range(121))
    lines = {(c.a.real, c.b) for c in cells}
    assert {(0.0, 1.0), (1.0, 0.0), (2.0, 0.5), (1.0, 1.0)} <= lines


def test_gates_name_failures():
    assert workloads.soundness_failures(
        {"ok": False, "violations": [(0.5, 2e-6), (0.6, 3e-6)]})[0].startswith(
        "soundness: excess 3.000e-06")
    bad = workloads.verify_complex_failures({"reports": [
        {"theorem_id": "additive-gap", "holds": False, "worst_violation": 0.5,
         "details": [{"gap_bits": 1.5}]},
        {"theorem_id": "multiplicative-gap", "holds": True,
         "worst_violation": 0.0, "details": [{"ratio": math.inf}]}]})
    assert bad == ["additive-gap: holds=False, worst violation 5.000e-01",
                   "multiplicative-gap: non-finite gap"]
    assert workloads.atlas_gap_failures({"gap": math.nan})


def test_failed_channels_are_counted_not_skipped():
    w = WL["atlas-gap"]
    calls = []

    def flaky(ch):
        calls.append(ch)
        if len(calls) == 2:
            raise verify.RegimeMismatch("injected")
        return {"gap": 0.0 if len(calls) != 3 else math.inf}

    m = harness.measure(dataclasses.replace(w, run=flaky), w.inputs(1, 3), 60.0)
    assert len(m["latencies"]) == 3
    assert [(i, bad[0].split(":")[0]) for i, _, bad in m["failures"]] == [
        (0, "exception RegimeMismatch"), (1, "additive gap")]


def test_reference_refuses_other_channels_or_settings():
    w = WL["soundness"]
    assert len(quality.load(w)) == len(w.quality_channels())
    fewer = dataclasses.replace(w, quality_channels=lambda: w.quality_channels()[:1])
    with pytest.raises(quality.ReferenceMismatch):
        quality.load(fewer)
    with pytest.raises(quality.ReferenceMismatch):
        quality.load(dataclasses.replace(w, grid=512))


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(WL)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric(name, trace):
    result = harness.run_workload(name, seed=1, seconds=0.01, trace=trace,
                                  setup_samples=1)
    line = harness.json_line(result)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 2
    want = harness.PER_LAYER if trace else harness.END_TO_END
    assert set(line["metrics"]) == set(want)
    for k, v in line["metrics"].items():
        assert v["unit"] == want[k] and math.isfinite(v["value"]), k
    if trace:
        assert set(harness.LAYER_EXTRA) <= set(result["metrics"])
        assert line["metrics"]["inner.scheme_f.points"]["value"] > 0
    else:
        raw = result["raw_times"]["channel_ms_p50"]
        assert line["metrics"]["channel_ms_p50"]["value"] == pytest.approx(
            raw * result["time_scale"])
        assert result["time_scale"] == pytest.approx(
            harness.CAL_REF_MS / statistics.median(result["calibration_ms"]))
        assert line["metrics"]["inner_shortfall_bits"]["value"] > 0
        assert line["metrics"]["outer_shortfall_bits"]["value"] > 0
        assert set(result["machine"]["threads"].values()) == {"1"}
