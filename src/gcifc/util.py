"""Shared numerics: Shannon cap, noise units and friends. Bits throughout."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import PowerOverflow


def cap(x):
    """log2(1 + x) with tiny negative arguments clamped to zero."""
    return np.log2(1.0 + np.maximum(x, 0.0))


class Units(NamedTuple):
    """A channel in noise units: its powers p1 2^-2k and p2 2^-2k, the
    noise variance n = 2^-2k, and k2 = 2k."""

    p1: float
    p2: float
    n: float
    k2: int

    def cap(self, x):
        """cap(x / n) of a power x in noise units: log2(n + x) + 2k."""
        return np.log2(self.n + np.maximum(x, 0.0)) + self.k2

    def power(self, x, degree: int = 1):
        """x 2^(2k degree): a value of that degree in the powers, unscaled."""
        with np.errstate(over="ignore"):
            return np.ldexp(x, degree * self.k2)


def units(ch) -> Units:
    """The channel (a, b, p1, p2) in noise units. A rate depends on the
    SNRs only (Cover and Thomas, ch. 9), so every closed form reads the
    powers and the unit noise scaled by one power of two, 2^-2k, which is
    exact (Higham, Accuracy and Stability of Numerical Algorithms, §2).
    With max(p1, p2) < 2^e and g = max(1, |a|, b) < 2^f, k = 0 where
    e + 2f <= 510, else the least k with e + 2f - 2k <= 510; where k = 0
    the closed forms keep the plain formulas' bits (they multiply or
    divide by n = 1 and add 2k = 0). The largest terms, p1 p2 |1 - a b|^2
    <= 4 (p1 g^2)(p2 g^2) < 2^1022 and scheme E's |b w - u2|^2 <= 16 g^4 p
    < 2^(514 + 2f), are finite while f <= 254, and then n >= 2^-1022;
    noise-level products divide by n first. Larger gains raise
    PowerOverflow. A power below 2^(2k - 1074) reads as 0, with the rates
    it carried: under 1e-299 bits at (0, 1.5, 1e308, 1e-300).
    """
    g = max(1.0, abs(ch.a), ch.b)
    if g >= 2.0 ** 254:
        raise PowerOverflow("a gain past 2^254 leaves no exact scale")
    e = math.frexp(max(ch.p1, ch.p2))[1] + 2 * math.frexp(g)[1]
    k2 = 2 * max(0, (e - 509) // 2)
    return Units(math.ldexp(ch.p1, -k2), math.ldexp(ch.p2, -k2),
                 math.ldexp(1.0, -k2), k2)


def coop_sum_cap(ch) -> float:
    """cap((sqrt(b^2 p1) + sqrt(p2))^2), the full-cooperation sum rate."""
    u = units(ch)
    return float(u.cap((math.sqrt(ch.b ** 2 * u.p1) + math.sqrt(u.p2)) ** 2))


def pos(x):
    """Positive part."""
    return np.maximum(x, 0.0)


def alpha_of_r1(x, p1: float):
    """Invert r1 = cap(alpha * p1) on [0, cap(p1)]; alpha=1 when p1=0.

    Values next to 1 are snapped exactly to 1: the inversion's rounding
    (~1 ulp) would otherwise be amplified by the sqrt(1 - alpha) terms.
    Small alphas are kept: at huge p1 they carry real rate.
    """
    if p1 <= 0.0:
        return np.ones_like(np.asarray(x, dtype=float))
    a = (np.exp2(np.asarray(x, dtype=float)) - 1.0) / p1
    a = np.where(a > 1.0 - 1e-12, 1.0, a)
    return np.clip(a, 0.0, 1.0)


def r1_grid(p1: float, grid: int):
    """Uniform r1 grid [0, cap(p1)]; a single origin point when p1 = 0."""
    top = float(cap(p1))
    if top <= 0.0:
        return np.array([0.0])
    return np.linspace(0.0, top, grid)
