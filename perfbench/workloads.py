"""The benchmark workloads: inputs drawn from a seed, the per-channel body,
its correctness gates, and the library calls whose accuracy is scored.

Each body calls the library through module attributes (`inner.best_inner`,
not a captured function object), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gcifc import inner, outer, region, verify
from gcifc.channel import ChannelParams

# More items than any run can finish; runs stop on the clock, not here.
MAX_ITEMS = 5000

# Atlas lines on the default ranges. Resolution 11 puts grid lines on the
# singular lines a = 0, a = 1, b = 0, b = 1 and (a, b) = (2, 0.5), (1, 1)
# on ab = 1.
ATLAS_RESOLUTION = 11
ATLAS_A_RANGE = (-5.0, 5.0)
ATLAS_B_RANGE = (0.0, 5.0)
ATLAS_GRID = 512


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    inputs(seed, n) draws the channels; run(ch) is the per-channel body and
    returns its outputs; failures(out) names every failed check;
    quality_channels() is the fixed, seed-independent accuracy set, scored
    by inner_call/outer_call/bc_pr_call (the same calls the body makes,
    built without extra_floor).
    """

    name: str
    inputs: Callable[[int, int], list]
    run: Callable[[ChannelParams], dict]
    failures: Callable[[dict], list]
    quality_channels: Callable[[], list]
    grid: int


# -- soundness: the Tier-1 criterion-1 loop ----------------------------------

def soundness_inputs(seed: int, n: int = MAX_ITEMS) -> list:
    return verify.random_channels(n, seed)


def soundness_run(ch: ChannelParams) -> dict:
    bi = inner.best_inner(ch, fast=True)
    bo = outer.best_outer(ch, extra_floor=np.column_stack([bi.r1, bi.r2]))
    ok, viol = region.contains(bo, bi, tol=verify.SOUNDNESS_TOL_BITS)
    return {"inner": (bi.r1, bi.r2), "outer": (bo.r1, bo.r2),
            "ok": ok, "violations": viol}


def soundness_failures(out: dict) -> list:
    if out["ok"]:
        return []
    worst = max(v[1] for v in out["violations"])
    return [f"soundness: excess {worst:.3e} bits > "
            f"{verify.SOUNDNESS_TOL_BITS:g} at {len(out['violations'])} r1 points"]


# -- verify-complex: the five checks of run_verification, complex a ----------

def verify_complex_inputs(seed: int, n: int = MAX_ITEMS) -> list:
    return verify.random_channels(n, seed, complex_a=True)


def verify_complex_run(ch: ChannelParams) -> dict:
    # the order and arguments of run_verification's per-channel body
    reports = [verify.check_soundness(ch),
               verify.check_capacity(ch),
               verify.check_additive_gap(ch),
               verify.check_multiplicative_gap(ch),
               verify.check_table3(ch)]
    return {"reports": [r.to_json_dict() for r in reports]}


_GAP_KEYS = ("gap_bits", "region_gap_bits", "max_gap_alpha_bits", "ratio")


def verify_complex_failures(out: dict) -> list:
    bad = []
    for rep in out["reports"]:
        if not rep["holds"]:
            bad.append(f"{rep['theorem_id']}: holds=False, worst violation "
                       f"{rep['worst_violation']:.3e}")
        gaps = [rep["worst_violation"]] + [d[k] for d in rep["details"]
                                           for k in _GAP_KEYS if k in d]
        if not all(math.isfinite(g) for g in gaps):
            bad.append(f"{rep['theorem_id']}: non-finite gap")
    return bad


# -- atlas-gap: the per-cell body of verify.atlas(mode="gap") ----------------

def atlas_grid(resolution: int = ATLAS_RESOLUTION) -> list:
    """(a, b) cells of the atlas grid, in verify.atlas order (b outer)."""
    return [(float(ar), float(b))
            for b in np.linspace(*ATLAS_B_RANGE, resolution)
            for ar in np.linspace(*ATLAS_A_RANGE, resolution)]


def atlas_cells(p: float, resolution: int = ATLAS_RESOLUTION) -> list:
    """The channels of one atlas sweep at common power p."""
    return [ChannelParams(complex(a, 0.0), b, p, p)
            for a, b in atlas_grid(resolution)]


def atlas_gap_inputs(seed: int, n: int = MAX_ITEMS) -> list:
    """Whole grids in shuffled order, so a run cut by the clock still spans
    the grid. Each cell gets its own common power p = p1 = p2, log-uniform
    on [0.1, 100] and stratified: one cell per 1/121 slice of log p per
    grid. Cell cost varies by about 1.5x with p, so one power per run
    would make throughput depend on the seed."""
    rng = np.random.default_rng(seed)
    grid = atlas_grid()
    k = len(grid)
    out: list = []
    while len(out) < n:
        log_p = -1.0 + 3.0 * (rng.permutation(k) + rng.uniform(size=k)) / k
        for j, lp in zip(rng.permutation(k), log_p):
            a, b = grid[j]
            out.append(ChannelParams(complex(a, 0.0), b, 10.0 ** lp, 10.0 ** lp))
    return out[:n]


def atlas_gap_run(ch: ChannelParams) -> dict:
    rep = verify.classify(ch)
    bo, bi = verify.best_pair(ch, fast=True, grid=ATLAS_GRID)
    gap, worst_r1 = region.additive_gap(bo, bi)
    return {"label": rep.capacity_known.value,
            "margins": (rep.margins["5"], rep.margins["31a"], rep.margins["31b"]),
            "gap": gap, "worst_r1": worst_r1,
            "inner": (bi.r1, bi.r2), "outer": (bo.r1, bo.r2)}


def atlas_gap_failures(out: dict) -> list:
    if math.isfinite(out["gap"]):
        return []
    return [f"additive gap: non-finite ({out['gap']})"]


# -- quality sets: fixed, independent of the workload seed -------------------

QUALITY_SEED = 42
# Indices into random_channels(n, QUALITY_SEED). Channel 0 is where the
# default bc-pr sample falls 1.83 bits short of a denser one; the others
# are the first channels of the seed on which denser bc-pr sampling raises
# best_outer, so that outer_shortfall_bits can see coarser sampling.
QUALITY_REAL = (0, 6, 15, 16)
QUALITY_COMPLEX = (0, 16, 24, 29)
# (a, b) cells at the atlas default power p = 10, one per singular line
# family: the S channel (a = 0, where bc-pr binds at b = 5), the degraded
# line ab = 1, the weak/strong boundary b = 1, and a generic strong cell.
QUALITY_ATLAS_CELLS = ((0.0, 5.0), (2.0, 0.5), (-1.0, 1.0), (-3.0, 4.0))
QUALITY_ATLAS_POWER = 10.0


def _quality_random(indices, complex_a: bool) -> Callable[[], list]:
    def channels():
        chans = verify.random_channels(max(indices) + 1, QUALITY_SEED,
                                       complex_a=complex_a)
        return [chans[i] for i in indices]
    return channels


def _quality_atlas() -> list:
    p = QUALITY_ATLAS_POWER
    return [ChannelParams(complex(a, 0.0), b, p, p) for a, b in QUALITY_ATLAS_CELLS]


WORKLOADS = {w.name: w for w in (
    Workload("soundness",
             soundness_inputs, soundness_run, soundness_failures,
             _quality_random(QUALITY_REAL, False), region.R1_GRID_DEFAULT),
    Workload("verify-complex",
             verify_complex_inputs, verify_complex_run, verify_complex_failures,
             _quality_random(QUALITY_COMPLEX, True), region.R1_GRID_DEFAULT),
    Workload("atlas-gap",
             atlas_gap_inputs, atlas_gap_run, atlas_gap_failures,
             _quality_atlas, ATLAS_GRID),
)}


def inner_call(w: Workload, ch: ChannelParams) -> region.RateRegion:
    """The inner region the workload's body builds for this channel."""
    return inner.best_inner(ch, fast=True, grid=w.grid)


def outer_call(w: Workload, ch: ChannelParams) -> region.RateRegion:
    """The workload's outer region, without the caller's extra floor."""
    return outer.best_outer(ch, grid=w.grid)


def bc_pr_call(w: Workload, ch: ChannelParams) -> region.RateRegion:
    """The cooperative broadcast sample as best_outer draws it, unfloored."""
    return outer.bc_pr_outer(ch, grid=w.grid)


def outputs_equal(x, y) -> bool:
    """Exact equality of nested workload outputs (arrays compared bitwise)."""
    if isinstance(x, dict):
        return (isinstance(y, dict) and x.keys() == y.keys()
                and all(outputs_equal(x[k], y[k]) for k in x))
    if isinstance(x, (list, tuple)):
        return (isinstance(y, (list, tuple)) and len(x) == len(y)
                and all(outputs_equal(a, b) for a, b in zip(x, y)))
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.array_equal(x, y, equal_nan=True)
    if isinstance(x, float) and isinstance(y, float) and math.isnan(x):
        return math.isnan(y)
    return x == y
