#!/usr/bin/env python3
"""Support functions of every inner region on a fixed channel set, for
checking that a change moves no region by more than rounding, where its
bytes may move.

For each inner id of `cli.BUILDERS` and each channel of
`region_digests.channels()` (845 channels), the support
h(theta) = max of cos(theta) r1 + sin(theta) r2 over the region's
breakpoints and (r1_max, 0), at 4,001 slopes theta uniform on [0, pi/2].
A build that raises gives a row of nan.

    PYTHONPATH=src python scripts/region_support.py --out support
    PYTHONPATH=src python scripts/region_support.py --compare old new

The first writes support/channels.csv (index and channel as "a b p1 p2")
and one support/<id>.npy per id (channels x slopes, float64, ':' in an id
written as '-'); --n keeps the first n channels. The second prints, per
id, as CSV: the channels compared, how many fall and how many rise by
more than TOL = 1e-12 bits at some slope from old to new, the
worst of each with its channel (none where nothing moves), and how many
channels build in one of the two runs only.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from gcifc.cli import BUILDERS, INNER
from gcifc.region import R1_GRID_DEFAULT

sys.path.insert(0, str(Path(__file__).resolve().parent))
from region_digests import channels  # noqa: E402

SLOPES = np.linspace(0.0, np.pi / 2, 4001)
INNER_IDS = [rid for rid, (kind, _) in BUILDERS.items() if kind is INNER]
TOL = 1e-12


def support(reg) -> np.ndarray:
    """The region's support at SLOPES, a few hundred slopes at a time."""
    r1 = np.append(reg.r1, reg.r1_max)
    r2 = np.append(reg.r2, 0.0)
    return np.concatenate([
        np.max(np.outer(np.cos(t), r1) + np.outer(np.sin(t), r2), axis=1)
        for t in np.array_split(SLOPES, 16)])


def channel_name(ch) -> str:
    return " ".join([repr(complex(ch.a))]
                    + [repr(float(v)) for v in (ch.b, ch.p1, ch.p2)])


def write(out: Path, n):
    chs = channels()[:n]
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "channels.csv", "w", newline="") as fh:
        rows = csv.writer(fh, lineterminator="\n")
        rows.writerow(["index", "channel"])
        rows.writerows(enumerate(map(channel_name, chs)))
    tables = {rid: np.lib.format.open_memmap(
        out / f"{rid.replace(':', '-')}.npy", mode="w+", dtype=float,
        shape=(len(chs), SLOPES.size)) for rid in INNER_IDS}
    for i, ch in enumerate(chs):
        for rid in INNER_IDS:
            try:
                tables[rid][i] = support(BUILDERS[rid][1](ch, R1_GRID_DEFAULT))
            except Exception:  # recorded as nan, then the next build
                tables[rid][i] = np.nan
    for table in tables.values():
        table.flush()


def compare(old: Path, new: Path):
    with open(new / "channels.csv", newline="") as fh:
        names = [row["channel"] for row in csv.DictReader(fh)]
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["id", "channels", "falls", "worst_fall", "fall_channel",
                  "rises", "worst_rise", "rise_channel", "one_side_only"])
    for rid in INNER_IDS:
        name = f"{rid.replace(':', '-')}.npy"
        a, b = np.load(old / name), np.load(new / name)
        m = min(len(a), len(b))
        a, b = a[:m], b[:m]
        both = np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1)
        built = np.isfinite(a).all(axis=1) | np.isfinite(b).all(axis=1)
        diff = np.where(both[:, None], b - a, 0.0)
        row = [rid, m]
        for move in ((0.0 - diff).max(axis=1, initial=0.0),
                     diff.max(axis=1, initial=0.0)):
            i = int(np.argmax(move))
            row += [int(np.sum(move > TOL)), f"{move[i]:.3e}",
                    names[i] if move[i] > 0.0 else ""]
        out.writerow(row + [int(np.sum(built & ~both))])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=None,
                    help="first n channels only")
    ap.add_argument("--out", default="region_support")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.compare:
        compare(*map(Path, args.compare))
    else:
        write(Path(args.out), args.n)


if __name__ == "__main__":
    main()
