"""Measurement: the closed loop, set-up probes, traced runs and metrics.

Import only after run.prepare_environment() has pinned the thread
environment, since this module imports numpy and the package.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import gcifc
import quality
import tracer
import workloads
from run import THREAD_VARS
from gcifc import channel, inner, outer, region, verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# fresh interpreters timed per run for setup_s; the median is reported
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120.0

# On a shared host the machine's speed drifts by tens of percent over
# minutes. So every time metric is rescaled to a fixed machine speed: a
# calibration kernel that does not touch the package is timed before each
# channel and each set-up probe, and
#     reported time = measured time * CAL_REF_MS / median(kernel ms).
# The kernel's arrays (a few MB) are of the size of the package's working
# sets, so cache and memory contention slow both alike. The raw times are
# kept in the result file.
CAL_REF_MS = 12.0
_CAL_X = np.random.default_rng(0).uniform(0.0, 10.0, 200_000)

END_TO_END = {
    "channels_per_s": "1/s",
    "channel_ms_p50": "ms",
    "channel_ms_p90": "ms",
    "inner_shortfall_bits": "bits",
    "outer_shortfall_bits": "bits",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics that every workload exercises. Layers that only some
# workloads reach (LAYER_EXTRA) are printed and written to the result file
# but kept out of the JSON line, where they would read 0 on every run.
INNER_FUNCS = ("scheme_a", "scheme_b", "scheme_c", "scheme_d", "scheme_e",
               "scheme_f", "tdma_inner", "best_inner", "cheap_achievable_points")
CLOSED_FORM = ("outer.weak_outer", "outer.strong_outer", "outer.unified_outer",
               "outer.piecewise_linear_outer", "outer.bc_dms_degraded_outer",
               "outer.bc_dms_s_outer", "outer.capacity_region")
PER_LAYER = {
    "channel.classify.self_ms": "ms",
    **{f"inner.{f}.self_ms": "ms" for f in INNER_FUNCS},
    "inner.scheme_e.points": "count",
    "inner.scheme_f.points": "count",
    "outer.bc_pr_outer.self_ms": "ms",
    "outer.best_outer.self_ms": "ms",
    "outer.best_outer.calls": "count",
    "outer.closed_form.self_ms": "ms",
    "outer.bc_pr_outer.shortfall_bits": "bits",
    "region.from_pareto_points.self_ms": "ms",
    "region.from_pareto_points.calls": "count",
    "region.from_pareto_points.points_in": "count",
    "region.union.self_ms": "ms",
    "region.intersect.self_ms": "ms",
    "region.contains_points.calls": "count",
    "trace_overhead_frac": "ratio",
}
CHECKS = ("check_soundness", "check_capacity", "check_additive_gap",
          "check_multiplicative_gap", "check_table3")
LAYER_EXTRA = {
    "region.contains.self_ms": "ms",
    "region.additive_gap.self_ms": "ms",
    "region.multiplicative_gap.self_ms": "ms",
    **{f"verify.{c}.self_ms": "ms" for c in CHECKS},
    "verify.atlas.gap_max_bits": "bits",
}


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit(ROOT),
            "threads": {k: os.environ.get(k) for k in THREAD_VARS},
            "cifc_threads": os.environ.get("CIFC_THREADS")}


def git_commit(root: Path) -> str:
    """HEAD commit read from the checkout's own .git, or 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration_ms() -> float:
    """Time of a fixed numpy kernel (elementwise log, sort, scan and a
    Python loop, the operations the package spends its time in)."""
    t = time.perf_counter()
    y = np.log2(1.0 + _CAL_X * _CAL_X)
    z = np.maximum.accumulate(y[np.argsort(y)][::-1])
    acc = 0.0
    for v in z[:2000].tolist():
        acc += v
    return 1000.0 * (time.perf_counter() - t)


def warm_up_channel(w):
    """Fixed warm-up channel, so set-up time does not vary with the seed."""
    return w.quality_channels()[0]


def run_checked(w, ch) -> tuple:
    """(output, failed checks) of one channel; exceptions count as failures."""
    try:
        out = w.run(ch)
    except Exception as exc:  # a failing channel is recorded, not skipped
        traceback.print_exc(file=sys.stderr)
        return None, [f"exception {type(exc).__name__}: {exc}"]
    return out, w.failures(out)


def setup_only(workload: str, seed: int) -> int:
    """Body of one timed set-up: import (done), generate inputs, warm up."""
    w = workloads.WORKLOADS[workload]
    w.inputs(seed)
    _, bad = run_checked(w, warm_up_channel(w))
    return 1 if bad else 0


def time_setups(workload: str, seed: int, samples: int, cal: list) -> list:
    """Wall time of `samples` fresh interpreters running setup_only; a
    calibration time is appended to `cal` before each."""
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(samples):
        cal.append(calibration_ms())
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # a blocking wait: wait(timeout=...) polls in 50 ms steps
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up run exited with {code}")
    return times


def make_tracer() -> tracer.Tracer:
    return tracer.Tracer((channel, inner, outer, region, verify),
                         methods=((region.RateRegion, "contains_points",
                                   "region.contains_points"),),
                         aliases=(gcifc,))


def _traced_run(w, ch, index: int, tr) -> tuple:
    tr.channel = index
    with tr:
        s = time.perf_counter()
        out, bad = run_checked(w, ch)
        return out, bad, time.perf_counter() - s


def measure(w, items, seconds: float, tr=None, cal=None) -> dict:
    """Warm up, then run items in order for `seconds` (closed loop).

    A calibration time is appended to `cal` before each channel.

    With a tracer, each channel runs both untraced (timed) and traced, in
    alternating order so neither side always runs on warm caches; the two
    outputs must be identical."""
    failures, lat, traced_s, outputs = [], [], 0.0, []
    cal = [] if cal is None else cal
    _, bad = run_checked(w, warm_up_channel(w))
    if bad:
        failures.append(("warm-up", warm_up_channel(w), bad))
    t0 = time.perf_counter()
    deadline = t0 + seconds
    for i, ch in enumerate(items):
        if time.perf_counter() >= deadline:
            break
        cal.append(calibration_ms())
        traced_first = tr is not None and i % 2 == 1
        if traced_first:
            out_t, bad_t, dt = _traced_run(w, ch, i, tr)
        s = time.perf_counter()
        out, bad = run_checked(w, ch)
        lat.append(time.perf_counter() - s)
        if tr is not None:
            if not traced_first:
                out_t, bad_t, dt = _traced_run(w, ch, i, tr)
            traced_s += dt
            bad = bad + bad_t
            if not workloads.outputs_equal(out, out_t):
                bad.append("trace: traced output differs from untraced")
            outputs.append(out)
        if bad:
            failures.append((i, ch, bad))
    return {"latencies": lat, "traced_s": traced_s, "failures": failures,
            "outputs": outputs}


def _max_shortfall(w, refs, kind: str, call) -> float:
    return max(quality.shortfall(r[kind], call(w, ch))
               for ch, r in zip(w.quality_channels(), refs))


def timings(m: dict, setup_times, scale: float) -> dict:
    """Time metrics, each multiplied by `scale` (1 for raw times)."""
    lat = np.asarray(m["latencies"]) * scale
    out = {"channels_per_s": lat.size / lat.sum(),
           "channel_ms_p50": 1000.0 * float(np.percentile(lat, 50)),
           "channel_ms_p90": 1000.0 * float(np.percentile(lat, 90))}
    if setup_times:
        out["setup_s"] = statistics.median(setup_times) * scale
    return out


def end_to_end(w, m: dict, refs, setup_times, scale: float) -> dict:
    return {
        **timings(m, setup_times, scale),
        "inner_shortfall_bits": _max_shortfall(w, refs, "inner",
                                               workloads.inner_call),
        "outer_shortfall_bits": _max_shortfall(w, refs, "outer",
                                               workloads.outer_call),
    }


def per_layer(w, m: dict, spans, summ: dict, refs, scale: float) -> dict:
    n = max(len(m["latencies"]), 1)

    def total(name, key):
        return summ.get(name, {}).get(key, 0)

    out = {}
    for name in (set(PER_LAYER) | set(LAYER_EXTRA)):
        if name.endswith(".self_ms"):
            base = name[:-len(".self_ms")]
            secs = (sum(total(c, "self_s") for c in CLOSED_FORM)
                    if base == "outer.closed_form" else total(base, "self_s"))
            out[name] = 1000.0 * secs * scale / n
        elif name.endswith(".calls"):
            out[name] = total(name[:-len(".calls")], "calls") / n
    for scheme in ("scheme_e", "scheme_f"):
        pts, calls = tracer.child_points(spans, f"inner.{scheme}",
                                         "region.from_pareto_points")
        out[f"inner.{scheme}.points"] = pts / max(calls, 1)
    out["region.from_pareto_points.points_in"] = (
        total("region.from_pareto_points", "points") / n)
    out["outer.bc_pr_outer.shortfall_bits"] = _max_shortfall(
        w, refs, "bc_pr", workloads.bc_pr_call)
    gaps = [o["gap"] for o in m["outputs"] if o is not None and "gap" in o]
    out["verify.atlas.gap_max_bits"] = max(gaps, default=0.0)
    out["trace_overhead_frac"] = m["traced_s"] / sum(m["latencies"]) - 1.0
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload and return the full result record."""
    w = workloads.WORKLOADS[workload]
    refs = quality.load(w)
    cal: list = []
    setup_times = ([] if trace else
                   time_setups(workload, seed, setup_samples, cal))
    items = w.inputs(seed)
    layers = {}
    if trace:
        tr = make_tracer()
        m = measure(w, items, seconds, tr, cal)
        scale = CAL_REF_MS / statistics.median(cal)
        summ = tracer.summarize(tr.spans)
        metrics = per_layer(w, m, tr.spans, summ, refs, scale)
        OUT.mkdir(exist_ok=True)
        tr.dump(OUT / f"spans-{workload}-seed{seed}.json")
        units = {**PER_LAYER, **LAYER_EXTRA}
        n = max(len(m["latencies"]), 1)
        layers = {name: {"calls": row["calls"] / n,
                         "self_ms": 1000.0 * row["self_s"] * scale / n}
                  for name, row in sorted(summ.items())}
    else:
        m = measure(w, items, seconds, cal=cal)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        scale = CAL_REF_MS / statistics.median(cal)
        metrics = end_to_end(w, m, refs, setup_times, scale)
        metrics["peak_rss_mb"] = rss_mb
        units = dict(END_TO_END)
    attempted = len(m["latencies"]) + 1
    failed = len(m["failures"])
    metrics["failed_frac"] = failed / attempted
    units["failed_frac"] = "1"
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "machine": machine_record(),
        "attempted": attempted, "failed": failed,
        "samples": len(m["latencies"]), "setup_samples_s": setup_times,
        "calibration_ms": cal, "time_scale": scale,
        "raw_times": timings(m, setup_times, 1.0),
        "latencies_ms": [1000.0 * x for x in m["latencies"]],
        "failures": [{"index": i, "channel": ch.to_json_dict(), "checks": bad}
                     for i, ch, bad in m["failures"]],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
        "layers_per_channel": layers,
    }


def json_line(result: dict) -> dict:
    keep = PER_LAYER if result["trace"] else END_TO_END
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: result["metrics"][k] for k in keep}}


def report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}: {result['samples']} timed channels "
          f"(+1 warm-up), {result['failed']} failed")
    m = result["machine"]
    print(f"machine: nproc {m['nproc']}, {m['cpu']}, python {m['python']}, "
          f"numpy {m['numpy']}, commit {m['commit']}, threads {m['threads']}")
    for name, v in result["metrics"].items():
        print(f"  {name:40s} {v['value']:.6g} {v['unit']}")
    for f in result["failures"]:
        print(f"FAILED channel {f['index']} {f['channel']}: "
              + "; ".join(f["checks"]), file=sys.stderr)
