"""gcifc benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload soundness --seed 1 --seconds 30 --trace 0

Run from the repository root (it imports the package from ./src). With
--trace 0 it times the workload untraced for --seconds and prints every
end-to-end metric; with --trace 1 it runs each channel untraced and
traced, checks both give identical outputs, and prints the per-layer
metrics. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; a fuller record (machine,
sample counts, failures, all layers) is written to perfbench/out/. Any
failed channel is named on stderr and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("soundness", "verify-complex", "atlas-gap")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_environment() -> None:
    """Pin math libraries to one thread, unset CIFC_THREADS and import the
    package from ./src. Must run before numpy is first imported."""
    os.environ.update({k: "1" for k in THREAD_VARS})
    os.environ.pop("CIFC_THREADS", None)
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="internal: one timed set-up for setup_s")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gcifc" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'gcifc'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    prepare_environment()
    import harness
    import quality
    if args.setup_only:
        return harness.setup_only(args.workload, args.seed)
    try:
        result = harness.run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except quality.ReferenceMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    harness.OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (harness.OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    harness.report(result)
    print(json.dumps(harness.json_line(result)))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
