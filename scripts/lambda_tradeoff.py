#!/usr/bin/env python3
"""Trade-off of the pre-coding coefficient: r1 and r2 bounds of the
common pre-coded scheme versus lambda, at a fixed power split.

Reproduces the classic picture: r1 peaks at the interference-canceling
coefficient while r2 dips at the primary-side one.

    python scripts/lambda_tradeoff.py --out lambda_tradeoff.csv
"""

import argparse

import numpy as np

from gcifc.channel import ChannelParams
from gcifc import inner


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--a", type=float, default=np.sqrt(0.3))
    ap.add_argument("--b", type=float, default=np.sqrt(2.0))
    ap.add_argument("--p", type=float, default=6.0)
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--lmax", type=float, default=2.5)
    ap.add_argument("--n", type=int, default=1001)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    ch = ChannelParams(args.a, args.b, args.p, args.p)
    lam = np.linspace(0.0, args.lmax, args.n)
    r1, r2, ssum = inner.scheme_e_rates(ch, args.alpha, lam)
    costa1, costa2 = inner.costa_lambdas(ch, args.alpha)

    lines = ["lambda,r1_bound,r2_bound"]
    lines += [f"{l:.12e},{a:.12e},{b:.12e}" for l, a, b in zip(lam, r1, r2)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    print(f"# costa1 = {costa1.real:.6f}, "
          f"costa2 = {costa2.real:.6f}, sum = {float(ssum):.6f}")


if __name__ == "__main__":
    main()
