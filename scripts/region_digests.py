#!/usr/bin/env python3
"""Digests of every region and regime report on a fixed channel set, for
checking that a change moves no region and no margin.

Each row is one build: the id (every `cli.BUILDERS` id, outer bounds on
the default r1 grid, then `classify`), the channel as "a b p1 p2" (Python
reprs), the sha256 of the region's r1 and r2 bytes (for `classify`, of
its capacity label and margins), the sha256 of its params (names and
bytes; empty for `classify`), the number of warnings the build raised,
and the name of the exception it raised (then both digests are empty).
Two trees give the same file when every region, params array, margin,
warning count and exception is the same:

    PYTHONPATH=src python scripts/region_digests.py --out digests.csv
    PYTHONPATH=src python scripts/region_digests.py --compare old.csv new.csv

--out defaults to region_digests.csv. The second prints, per id, as CSV:
the channels in both files, and how many of them differ in their region
digest, params digest, warning count and exception. It names each
differing (id, channel) pair on stderr and exits 1 if there is one, so
it can gate a change.

The channels are random_channels(400, 42), random_channels(60, 42,
complex_a=True), the test suite's EDGE_CHANNELS and HUGE_CHANNELS,
(0.5, 1.5), (0.5, 0.5) and (-0.6+0.2j, 1.7) at p1 = p2 = 1e300, 1e308 and
1e-320, and the cells of the default 11 x 11 atlas at p = 0.1, 10 and 100:
845 channels. --n keeps the first n of them.
"""

import argparse
import csv
import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np

from gcifc.channel import ChannelParams, classify
from gcifc.cli import BUILDERS
from gcifc.region import R1_GRID_DEFAULT
from gcifc.verify import random_channels

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import EDGE_CHANNELS, HUGE_CHANNELS  # noqa: E402


def channels():
    out = random_channels(400, 42) + random_channels(60, 42, complex_a=True)
    out += [ch for _, ch in EDGE_CHANNELS + HUGE_CHANNELS]
    out += [ChannelParams(a, b, p, p) for p in (1e300, 1e308, 1e-320)
            for a, b in ((0.5, 1.5), (0.5, 0.5), (-0.6 + 0.2j, 1.7))]
    # verify.atlas's cells on its default ranges
    out += [ChannelParams(float(a), float(b), p, p) for p in (0.1, 10.0, 100.0)
            for b in np.linspace(0.0, 5.0, 11)
            for a in np.linspace(-5.0, 5.0, 11)]
    return out


def digest(reg) -> tuple[str, str]:
    """(region digest, params digest) of a region."""
    h = hashlib.sha256()
    for key, vals in sorted(reg.meta.get("params", {}).items()):
        h.update(key.encode() + np.asarray(vals, float).tobytes())
    return (hashlib.sha256(reg.r1.tobytes() + reg.r2.tobytes()).hexdigest(),
            h.hexdigest())


def report_digest(rep) -> tuple[str, str]:
    h = hashlib.sha256(rep.capacity_known.value.encode())
    for key, val in sorted(rep.margins.items()):
        h.update(key.encode() + np.float64(val).tobytes())
    return h.hexdigest(), ""


# id -> digests of its build on a channel
DIGESTS = {rid: (lambda ch, build=build: digest(build(ch, R1_GRID_DEFAULT)))
           for rid, (_, build) in BUILDERS.items()}
DIGESTS["classify"] = lambda ch: report_digest(classify(ch))
COLUMNS = ["region", "params", "warnings", "exception"]


def write(path, n):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["id", "channel"] + COLUMNS)
        for ch in channels()[:n]:
            name = " ".join([repr(complex(ch.a))]
                            + [repr(float(v)) for v in (ch.b, ch.p1, ch.p2)])
            for rid, run in DIGESTS.items():
                value, error = ("", ""), ""
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        value = run(ch)
                    except Exception as exc:  # recorded, then the next build
                        error = type(exc).__name__
                out.writerow([rid, name, *value, len(caught), error])


def compare(old, new):
    tables = []
    for path in (old, new):
        with open(path, newline="") as fh:
            tables.append({(r["id"], r["channel"]): r
                           for r in csv.DictReader(fh)})
    a, b = tables
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["id", "channels"] + COLUMNS)
    moved = False
    for rid in dict.fromkeys(key[0] for key in b):
        both = [key for key in b if key[0] == rid and key in a]
        out.writerow([rid, len(both)] + [
            sum(a[key][col] != b[key][col] for key in both)
            for col in COLUMNS])
        for key in both:
            cols = [col for col in COLUMNS if a[key][col] != b[key][col]]
            if cols:
                moved = True
                print(*key, " ".join(cols), sep=",", file=sys.stderr)
    return 1 if moved else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=None,
                    help="first n channels only")
    ap.add_argument("--out", default="region_digests.csv")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    write(args.out, args.n)
    return 0


if __name__ == "__main__":
    sys.exit(main())
