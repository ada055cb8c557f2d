"""Summarize benchmark result files into medians and quartiles.

    python3 perfbench/record.py [DIR]                # print the summary
    python3 perfbench/record.py --label L --commit C # also append it to
                                                     # perfbench/trajectory.json

Reads every result-*.json in DIR (default perfbench/out). For each
workload, trace mode and metric it reports the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median and the number
of runs.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
TRAJECTORY = HERE / "trajectory.json"


def summarize(results) -> dict:
    groups: dict = {}
    for r in results:
        mode = "per_layer" if r["trace"] else "end_to_end"
        g = groups.setdefault(r["workload"], {}).setdefault(mode, {})
        for name, m in r["metrics"].items():
            g.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(
                m["value"])
    for modes in groups.values():
        for metrics in modes.values():
            for m in metrics.values():
                v = m.pop("values")
                m["runs"] = len(v)
                m["median"] = statistics.median(v)
                q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                             else (v[0],) * 3)
                m["q1"], m["q3"] = q1, q3
                m["spread"] = (q3 - q1) / abs(m["median"]) if m["median"] else 0.0
    return groups


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("dir", nargs="?", type=Path, default=OUT)
    p.add_argument("--label")
    p.add_argument("--commit", help="library commit the runs measured")
    args = p.parse_args(argv)
    results = [json.loads(f.read_text())
               for f in sorted(args.dir.glob("result-*.json"))]
    if not results:
        print(f"no result files in {args.dir}", file=sys.stderr)
        return 2
    summary = summarize(results)
    for w, modes in summary.items():
        for mode, metrics in modes.items():
            print(f"{w} [{mode}]")
            for name, m in metrics.items():
                print(f"  {name:40s} median {m['median']:.6g} {m['unit']:6s} "
                      f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} "
                      f"spread {m['spread']:.4f} runs {m['runs']}")
    if args.label:
        entry = {"label": args.label, "commit": args.commit,
                 "date": datetime.date.today().isoformat(),
                 "machine": results[0]["machine"],
                 "seconds": sorted({r["seconds"] for r in results}),
                 "seeds": {w: sorted({r["seed"] for r in results
                                      if r["workload"] == w}) for w in summary},
                 "workloads": summary}
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append(entry)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
        print(f"appended '{args.label}' to {TRAJECTORY.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
