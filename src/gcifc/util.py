"""Small shared numerics: Shannon cap function and friends. Bits throughout."""

from __future__ import annotations

import math

import numpy as np


def cap(x):
    """log2(1 + x) with tiny negative arguments clamped to zero."""
    return np.log2(1.0 + np.maximum(x, 0.0))


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


def scaled_powers(p1: float, p2: float):
    """(p1 2^-k, p2 2^-k, k), with k = 0 unless p1 p2 passes about 2^1000.

    sqrt(c p1 p2) = 2^k sqrt(c p1' p2'), and scaling by a power of two is
    exact, so the rescaled root is bit-identical wherever p1 p2 is finite
    and stays finite where the product would overflow.
    """
    e = math.frexp(p1)[1] + math.frexp(p2)[1]
    k = e // 2 if e > 1000 else 0
    return math.ldexp(p1, -k), math.ldexp(p2, -k), k


def r1_grid(p1: float, grid: int):
    """Uniform r1 grid [0, cap(p1)]; a single origin point when p1 = 0."""
    top = float(cap(p1))
    if top <= 0.0:
        return np.array([0.0])
    return np.linspace(0.0, top, grid)
