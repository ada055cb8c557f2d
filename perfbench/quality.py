"""Accuracy references for the benchmark's quality sets.

Each workload has a fixed quality set of channels (see workloads.py). Its
reference file holds, per channel, refined boundaries on a 2048-point r1
grid:

- inner: the union of the workload's inner region, best_inner(fast=True),
  best_inner() and scheme F on a 21^3 split grid with n_lambda = 81;
- outer: the union of the workload's best_outer and best_outer with denser
  bc_pr sampling;
- bc_pr: the union of the default bc_pr sample and a denser one.

The cooperative broadcast bound is sampled from below, so the true bound
lies above every sample and the union of two samples is the better
estimate. Every reference contains the workload's own region, so a
shortfall is never negative.

Regenerate (about a minute per workload) with

    python3 perfbench/quality.py [workload ...]
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "reference"
REF_GRID = 2048

SETTINGS = {
    "ref_grid": REF_GRID,
    "inner_ref": {"scheme_f": {"alpha_grid": 21, "beta_grid": 21,
                               "gamma_grid": 21, "n_lambda": 81},
                  "best_inner": ["fast=True", "fast=False"]},
    "bc_pr_dense": {"coarse": 31, "slice_points": 4001},
    "candidates": {"inner": "best_inner(fast=True, grid)",
                   "outer": "best_outer(grid)",
                   "bc_pr": "bc_pr_outer(grid)"},
}
KINDS = ("inner", "outer", "bc_pr")


class ReferenceMismatch(Exception):
    """The checked-in reference does not match the quality set or settings."""


def ref_path(workload_name: str) -> Path:
    return REF_DIR / f"{workload_name}.npz"


def _header(w) -> dict:
    return {"workload": w.name, "grid": w.grid, "settings": SETTINGS,
            "channels": [ch.to_json_dict() for ch in w.quality_channels()]}


def _dense_regions(w, ch) -> dict:
    from gcifc import inner, outer, region
    import workloads

    lin = np.linspace(0.0, 1.0, SETTINGS["inner_ref"]["scheme_f"]["alpha_grid"])
    f_dense = inner.scheme_f(ch, alpha_grid=lin, beta_grid=lin, gamma_grid=lin,
                             n_lambda=SETTINGS["inner_ref"]["scheme_f"]["n_lambda"],
                             grid=REF_GRID)
    dense = SETTINGS["bc_pr_dense"]
    return {
        "inner": region.union([workloads.inner_call(w, ch),
                               inner.best_inner(ch, grid=REF_GRID, fast=True),
                               inner.best_inner(ch, grid=REF_GRID),
                               f_dense], grid=REF_GRID),
        "outer": region.union([workloads.outer_call(w, ch),
                               outer.best_outer(ch, grid=REF_GRID,
                                                bc_pr_kwargs=dense)],
                              grid=REF_GRID),
        "bc_pr": region.union([workloads.bc_pr_call(w, ch),
                               outer.bc_pr_outer(ch, grid=REF_GRID, **dense)],
                              grid=REF_GRID),
    }


def generate(w) -> Path:
    """Build and write the reference file of one workload."""
    arrays = {}
    for i, ch in enumerate(w.quality_channels()):
        for kind, reg in _dense_regions(w, ch).items():
            arrays[f"{kind}_{i}_r1"] = reg.r1
            arrays[f"{kind}_{i}_r2"] = reg.r2
    header = dict(_header(w), numpy=np.__version__,
                  python=platform.python_version())
    REF_DIR.mkdir(exist_ok=True)
    path = ref_path(w.name)
    np.savez_compressed(path, header=np.array(json.dumps(header, sort_keys=True)),
                        **arrays)
    return path


def load(w) -> list:
    """Per-channel {kind: (r1, r2)} references; refuses a reference built
    for another channel set or other settings."""
    path = ref_path(w.name)
    if not path.exists():
        raise ReferenceMismatch(f"missing reference {path.name}")
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["header"]))
        want = _header(w)
        for key in want:
            if header.get(key) != want[key]:
                raise ReferenceMismatch(
                    f"{path.name}: {key} differs from the benchmark's; "
                    "regenerate with perfbench/quality.py")
        return [{k: (data[f"{k}_{i}_r1"], data[f"{k}_{i}_r2"]) for k in KINDS}
                for i in range(len(want["channels"]))]


def shortfall(ref, reg) -> float:
    """Largest amount (bits) by which reg lies below the reference boundary."""
    r1, r2 = ref
    return float(np.max(r2 - reg.boundary_at(r1, outside=0.0)))


def main(argv) -> int:
    import workloads
    names = argv or list(workloads.WORKLOADS)
    for name in names:
        print(generate(workloads.WORKLOADS[name]))
    return 0


if __name__ == "__main__":
    from run import prepare_environment
    prepare_environment()
    sys.exit(main(sys.argv[1:]))
