"""Converse (outer) bounds as RateRegion constructors.

The alpha-parameterized closed-form bounds all share the cognitive-rate
constraint r1 <= cap(alpha * p1), so their boundaries are evaluated
exactly on the r1 grid by inverting alpha(r1), with no envelope
resampling error. The cooperative broadcast bound is a polygon of
supporting lines, each slope's support certified in closed form by
per-antenna Lagrangian relaxation and BC-MAC duality, and evaluated
exactly on the same r1 grid. So every bound here is an upper bound by
construction: nothing is sampled from below or floored. Every
constructor is a pure function of its arguments: nothing is cached
between calls.

`best_outer` intersects every bound that applies. Each bound states its
validity regime once, in its own builder, which raises RegimeMismatch
outside it; the composition re-tests nothing. The closed forms read the
channel in noise units (`util.units`); bc-pr and the transform targets
keep their own range and raise PowerOverflow past it.

Cross-term convention: every alpha-parameterized bound uses
2*sqrt(abar * b^2 * p1 * p2), i.e. input correlation sqrt(1 - alpha),
so the cooperation term vanishes at alpha = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (DEGENERACY_TOL, CapacityResult, ChannelParams, classify,
                      is_degraded, is_s_channel, s_channel_thresholds)
from .errors import (InvalidTransform, PowerOverflow, RegimeMismatch,
                     SingularPreset)
from .region import (R1_GRID_DEFAULT, Kind, RateRegion, from_boundary,
                     intersect)
from .util import alpha_of_r1, cap, coop_sum_cap, pos, r1_grid, units

_PRESETS = ("tos", "toweak", "tovs")


def _sum_si(ch: ChannelParams, abar):
    """cap of the full-power cooperative sum SNR at correlation sqrt(abar)."""
    u = units(ch)
    cross = 2.0 * np.sqrt(np.maximum(abar, 0.0) * ch.b ** 2 * u.p1 * u.p2)
    return u.cap(ch.b ** 2 * u.p1 + u.p2 + cross)


def weak_outer(ch: ChannelParams, grid: int = R1_GRID_DEFAULT) -> RateRegion:
    """Capacity region for b <= 1 (also the converse there)."""
    if ch.b > 1.0:
        raise RegimeMismatch("weak bound needs b <= 1")
    gx = r1_grid(ch.p1, grid)
    alpha = alpha_of_r1(gx, ch.p1)
    u = units(ch)
    r2 = _sum_si(ch, 1.0 - alpha) - u.cap(ch.b ** 2 * alpha * u.p1)
    return from_boundary(gx, pos(r2), Kind.OUTER, "weak", {"alpha": alpha})


def strong_outer(ch: ChannelParams, grid: int = R1_GRID_DEFAULT) -> RateRegion:
    """Strong-interference converse for b > 1: r1 cap plus sum-rate cap."""
    if ch.b <= 1.0:
        raise RegimeMismatch("strong bound needs b > 1")
    gx = r1_grid(ch.p1, grid)
    alpha = alpha_of_r1(gx, ch.p1)
    r2 = _sum_si(ch, 1.0 - alpha) - gx
    return from_boundary(gx, pos(r2), Kind.OUTER, "strong", {"alpha": alpha})


def unified_outer(ch: ChannelParams, grid: int = R1_GRID_DEFAULT) -> RateRegion:
    """Single bound covering both regimes.

    Per alpha: r1 <= cap(alpha p1), r2 <= sum_si(abar), and
    r1 + r2 <= sum_si(abar) + [cap(alpha p1) - cap(b^2 alpha p1)]^+.
    Reduces exactly to the strong bound for b > 1 and to the weak-regime
    capacity for b <= 1.
    """
    gx = r1_grid(ch.p1, grid)
    alpha = alpha_of_r1(gx, ch.p1)
    u = units(ch)
    b_only = _sum_si(ch, 1.0 - alpha)
    s = b_only + pos(gx - u.cap(ch.b ** 2 * alpha * u.p1))
    r2 = np.minimum(b_only, s - gx)
    return from_boundary(gx, pos(r2), Kind.OUTER, "unified", {"alpha": alpha})


def bc_dms_degraded_threshold(p1: float, p2: float) -> float:
    """b above which the cooperative bound beats the strong bound (degraded)."""
    if p1 <= 0.0:
        return math.inf
    return math.sqrt(p2 / p1) + math.sqrt(1.0 + p2 / p1)


def bc_dms_degraded_outer(ch: ChannelParams,
                          grid: int = R1_GRID_DEFAULT) -> RateRegion:
    """Closed-form cooperative bound for the degraded channel (a b = 1, b >= 1)."""
    if not (is_degraded(ch) and ch.b >= 1.0):
        raise RegimeMismatch("degraded cooperative bound needs real a = 1/b, b >= 1")
    gx = r1_grid(ch.p1, grid)
    alpha = alpha_of_r1(gx, ch.p1)
    u = units(ch)
    b2p1 = ch.b ** 2 * u.p1
    cross = 2.0 * math.sqrt(ch.b ** 2 * u.p1 * u.p2)
    r2_bc = cap((u.p2 + (1.0 - alpha) * b2p1 + cross) / (u.n + alpha * u.p1))
    r2_sum = _sum_si(ch, 1.0 - alpha) - gx
    return from_boundary(gx, pos(np.minimum(r2_bc, r2_sum)), Kind.OUTER,
                         "bc-dms-deg", {"alpha": alpha})


def bc_dms_s_threshold(p2: float) -> float:
    """b above which the cooperative bound beats the strong bound (a = 0)."""
    return math.sqrt(p2 + 1.0)


def bc_dms_s_outer(ch: ChannelParams, grid: int = R1_GRID_DEFAULT) -> RateRegion:
    """Cooperative degraded-message-set bound for the S channel (a = 0, b >= 1)."""
    if not (is_s_channel(ch) and ch.b >= 1.0):
        raise RegimeMismatch("S-channel cooperative bound needs a = 0, b >= 1")
    gx = r1_grid(ch.p1, grid)
    alpha = alpha_of_r1(gx, ch.p1)
    abar = 1.0 - alpha
    u = units(ch)
    b2p1 = ch.b ** 2 * u.p1
    den = u.n + alpha * u.p1  # n / den is unit-free
    cross = 2.0 * np.sqrt(abar * b2p1 * u.p2 * u.n / den)
    r2_bc = u.cap(u.p2 + b2p1 * abar * u.n / den + cross)
    r2_sum = _sum_si(ch, abar) - gx
    return from_boundary(gx, pos(np.minimum(r2_bc, r2_sum)), Kind.OUTER,
                         "bc-dms-s", {"alpha": alpha})


# -- piecewise-linear relaxation of the strong bound -------------------------

def pl_si_points(ch: ChannelParams) -> dict:
    """Pareto corners of the piecewise-linear strong-interference bound.

    A: full-cooperation beamforming sum point at r1 = 0.
    B: (cap(p1), sum - cap(p1)) on the relaxed bound.
    C: the strong-bound corner sharing B's r1 coordinate.
    """
    u = units(ch)
    c_p1 = float(u.cap(u.p1))
    coop = coop_sum_cap(ch)
    c_pt = (c_p1, float(u.cap(ch.b ** 2 * u.p1 + u.p2)) - c_p1)
    return {"A": (0.0, coop), "B": (c_p1, coop - c_p1), "C": c_pt}


def piecewise_linear_outer(ch: ChannelParams,
                           grid: int = R1_GRID_DEFAULT) -> RateRegion:
    """r1 <= cap(p1) and r1 + r2 <= cap((sqrt(b^2 p1) + sqrt(p2))^2), b > 1."""
    if ch.b <= 1.0:
        raise RegimeMismatch("piecewise-linear bound needs b > 1")
    gx = r1_grid(ch.p1, grid)
    r2 = pos(coop_sum_cap(ch) - gx)
    return from_boundary(gx, r2, Kind.OUTER, "pl-si")


# -- cooperative broadcast bound (full transmitter cooperation) --------------

# Slopes theta of the supporting lines cos(theta) r1 + sin(theta) r2 <= H.
_BC_SLOPES = np.arange(1, 128) * (math.pi / 254)
# Log-offsets delta of the antenna multiplier ratio from p2 / p1: a grid,
# then rounds that re-grid +-1 step around each slope's best offset.
_BC_OFFSETS = np.linspace(-40.0, 40.0, 33)
_BC_ZOOM_ROUNDS, _BC_ZOOM_POINTS = 5, 17
# Above this scale r^2 could overflow, so ln A is taken with z factored out.
_BIG = 1e150


def _mac_max(mu_lo, mu_hi, c_lo, c_hi, r):
    """max over x in [0, 1] of mu_lo ln A(x) + (mu_hi - mu_lo) ln B(x) (nats).

    The two-user MAC's weighted sum rate with the larger weight's user
    decoded last, given power share x, of received SNRs c_hi (that user)
    and c_lo, and determinant term r^2 = P^2 |det G|^2:
    A = 1 + c_lo (1 - x) + c_hi x + r^2 x (1 - x), B = 1 + c_hi x. It is
    concave in x, so it peaks at the larger root of its stationarity
    quadratic, clipped to [0, 1]. The ends are taken too: with c_hi = 0
    the quadratic vanishes and the objective peaks at x = 0. The
    quadratic's coefficients are scaled by z = max(1, c_lo, c_hi, r), then
    by the power of two of the largest (exact, so its discriminant cannot
    underflow), and above _BIG ln A factors z out, so nothing overflows.
    """
    z = np.maximum(np.maximum(1.0, r), np.maximum(c_lo, c_hi))
    e = 1.0 / z
    lo, hi, rho = c_lo * e, c_hi * e, r * e
    d = mu_hi - mu_lo
    # mu_lo A'(x) B(x) + d c_hi A(x) = q2 x^2 + q1 x + q0, over z^3
    a1 = (hi - lo) * e + rho * rho
    q2 = -rho * rho * hi * (mu_lo + mu_hi)
    q1 = mu_lo * (a1 * hi - 2.0 * rho * rho * e) + d * hi * a1
    q0 = mu_lo * a1 * e + d * hi * (e + lo) * e
    _, ex = np.frexp(np.maximum(np.maximum(np.abs(q2), np.abs(q1)),
                                np.abs(q0)))
    q2, q1, q0 = np.ldexp(q2, -ex), np.ldexp(q1, -ex), np.ldexp(q0, -ex)
    s = np.sqrt(np.maximum(q1 * q1 - 4.0 * q2 * q0, 0.0))
    # q2 <= 0: the larger root, in the form that does not cancel
    up = q1 >= 0.0
    num = np.where(up, q1 + s, 2.0 * q0)
    den = np.where(up, -2.0 * q2, s - q1)
    x = np.divide(np.clip(num, 0.0, den), den, out=np.ones_like(num),
                  where=den > 0.0)
    lin = c_lo * (1.0 - x) + c_hi * x
    xx = x * (1.0 - x)
    if z.max() > _BIG:
        ln_a = np.where(z > _BIG, np.log(z) + np.log(e + lin * e + rho * r * xx),
                        np.log1p(lin + np.minimum(r, _BIG) ** 2 * xx))
    else:
        ln_a = np.log1p(lin + r * r * xx)
    f = mu_lo * ln_a + d * np.log1p(c_hi * x)
    return np.maximum(f, np.maximum(mu_lo * np.log1p(c_lo),
                                    mu_hi * np.log1p(c_hi)))


def _bc_support(ch: ChannelParams, theta) -> np.ndarray:
    """Upper bound on max cos(theta) r1 + sin(theta) r2 over the cooperative
    broadcast region, per slope theta in (0, pi/2], in bits.

    Relaxing the per-antenna powers with multipliers (t, 1 - t) leaves a
    sum-power broadcast channel, power P = t p1 + (1 - t) p2 (Yu and Lan),
    whose weighted sum rate is that of its dual MAC (Vishwanath, Jindal
    and Goldsmith), maximised in closed form by `_mac_max`. With
    t / (1 - t) = (p2 / p1) e^delta the per-antenna SNRs are
    u1 = P / t = p1 (1 + e^-delta) and u2 = P / (1 - t) = p2 (1 + e^delta).
    Every delta gives a valid bound (at p1 = 0 or p2 = 0, a limit of
    valid ones), so the minimum over the finite set searched here is one.
    A delta whose SNRs overflow a double, as the outer ones do near
    p = 1e300, is left out of it (reads +inf); r^2, of degree two in P,
    is beyond noise units at p = 1e308.
    """
    mu1, mu2 = np.cos(theta), np.sin(theta)
    hi2 = (mu2 >= mu1)[:, None]
    mu_lo = np.minimum(mu1, mu2)[:, None]
    mu_hi = np.maximum(mu1, mu2)[:, None]
    a2, b2, det = abs(ch.a) ** 2, ch.b ** 2, abs(1.0 - ch.a * ch.b)

    def bound(delta):
        # an overflowing SNR (inf, or nan as 0 * inf) is masked below
        with np.errstate(over="ignore", invalid="ignore"):
            u1 = ch.p1 * (1.0 + np.exp(-delta))
            u2 = ch.p2 * (1.0 + np.exp(delta))
            c1, c2 = u1 + a2 * u2, b2 * u1 + u2
            r = det * np.sqrt(u1) * np.sqrt(u2)
        ok = np.isfinite(c1) & np.isfinite(c2) & np.isfinite(r)
        c1, c2, r = (np.where(ok, v, 0.0) for v in (c1, c2, r))
        return np.where(ok, _mac_max(mu_lo, mu_hi, np.where(hi2, c1, c2),
                                     np.where(hi2, c2, c1), r), np.inf)

    delta = np.broadcast_to(_BC_OFFSETS, (theta.size, _BC_OFFSETS.size))
    h = bound(delta)
    best = h.min(axis=1)
    step = _BC_OFFSETS[1] - _BC_OFFSETS[0]
    rows = np.arange(theta.size)
    for _ in range(_BC_ZOOM_ROUNDS):
        centre = delta[rows, h.argmin(axis=1)]
        delta = centre[:, None] + np.linspace(-step, step, _BC_ZOOM_POINTS)
        h = bound(delta)
        best = np.minimum(best, h.min(axis=1))
        step *= 2.0 / (_BC_ZOOM_POINTS - 1)
    return best / math.log(2.0)


def bc_pr_outer(ch: ChannelParams, grid: int = R1_GRID_DEFAULT) -> RateRegion:
    """Full-transmitter-cooperation broadcast bound (private rates).

    The polygon r2(r1) = min over the slope fan of
    (H(theta) - cos(theta) r1) / sin(theta), H being `_bc_support`'s
    certified support of the 2-antenna dirty-paper-coding region, which
    is the cooperative capacity region (Weingarten, Steinberg and Shamai).
    It is evaluated exactly at the r1 nodes and stored step-up, so it is
    an upper bound by construction: nothing is sampled or floored. The
    support is cut at r1 = cap(p1), which every code for this channel
    obeys (the cognitive-rate constraint).
    """
    gx = r1_grid(ch.p1, grid)
    h = _bc_support(ch, _BC_SLOPES)
    if not np.isfinite(h).all():
        raise PowerOverflow("every multiplier's SNRs overflow")
    lines = (h[:, None] - np.cos(_BC_SLOPES)[:, None] * gx) \
        / np.sin(_BC_SLOPES)[:, None]
    return from_boundary(gx, pos(lines.min(axis=0)), Kind.OUTER, "bc-pr")


# -- outer bounds by channel transformation ----------------------------------

@dataclass(frozen=True)
class TransformTriple:
    """Input-mixing coefficients sending this channel into another one."""

    a_coef: complex
    b_coef: complex
    c_coef: complex


def transform_target(ch: ChannelParams, tr: TransformTriple) -> ChannelParams:
    """Target channel whose capacity region bounds this channel's.

    The mixed inputs x1' = A x1 + B x2, x2' = C x2 reproduce this
    channel's outputs inside the target when |A| >= 1 and
    |C / (1 - B b)| >= 1; violations raise InvalidTransform, and a
    target power past the double range raises PowerOverflow.
    """
    a_, b_, c_ = tr.a_coef, tr.b_coef, tr.c_coef
    den = 1.0 - b_ * ch.b
    tol = DEGENERACY_TOL
    if abs(c_) <= tol or abs(den) <= tol:
        raise InvalidTransform("transformation denominators vanish")
    if abs(a_) < 1.0 - tol or abs(c_ / den) < 1.0 - tol:
        raise InvalidTransform("reconstruction constraints violated")
    a_t = (ch.a * a_ - b_) / c_
    b_t = abs(c_ * ch.b / den)
    try:
        p1_t = (abs(a_) * math.sqrt(ch.p1) + abs(b_) * math.sqrt(ch.p2)) ** 2
    except OverflowError:
        p1_t = math.inf
    p2_t = abs(c_) ** 2 * ch.p2
    if math.isinf(p1_t) or math.isinf(p2_t):
        raise PowerOverflow("a target power overflows a double")
    return ChannelParams(a_t, b_t, p1_t, p2_t)


def preset_triple(ch: ChannelParams, preset: str) -> TransformTriple:
    """Coefficient presets mapping into channels with known capacity."""
    a, b = ch.a, ch.b
    if preset == "tos":
        if abs(1.0 - a * b) <= 1e-12:
            raise SingularPreset("a b = 1 makes the S-target power vanish")
        return TransformTriple(1.0, a, 1.0 - a * b)
    if preset == "toweak":
        if abs(a - 1.0) <= 1e-12 or b <= 1e-12:
            raise SingularPreset("needs a != 1 and b > 0")
        if abs(a * b - 1.0) <= 1e-12:
            raise SingularPreset("a b = 1 collapses the target power")
        den = b * (a - 1.0)
        return TransformTriple(1.0, a * (1.0 - b) / den, (a * b - 1.0) / den)
    if preset == "tovs":
        if abs(b - 1.0) <= 1e-12:
            raise SingularPreset("needs b != 1")
        den = b ** 2 - 1.0
        return TransformTriple(1.0, (b - a) / den, (a * b - 1.0) / den)
    raise ValueError(f"unknown preset {preset!r}")


def _preset_target(ch: ChannelParams, preset: str) -> ChannelParams:
    tgt = transform_target(ch, preset_triple(ch, preset))
    if preset == "tos":
        tgt = ChannelParams(0.0, tgt.b, tgt.p1, tgt.p2)
    elif preset == "toweak":
        tgt = ChannelParams(tgt.a, 1.0, tgt.p1, tgt.p2)
    elif preset == "tovs":
        # pad the smaller power so the target sits on the very-strong boundary
        p = max(tgt.p1, tgt.p2)
        tgt = ChannelParams(tgt.b, tgt.b, p, p)
    return tgt


def capacity_region(ch: ChannelParams, grid: int = R1_GRID_DEFAULT) -> RateRegion:
    """Exact capacity region for channels in a known-capacity regime."""
    rep = classify(ch)
    if rep.capacity_known is CapacityResult.UNKNOWN:
        raise RegimeMismatch("capacity unknown for this channel")
    if rep.capacity_known is CapacityResult.Z_TRIVIAL:
        gx = r1_grid(ch.p1, grid)
        u = units(ch)
        return from_boundary(gx, np.full(gx.shape, float(u.cap(u.p2))),
                             Kind.OUTER, "capacity")
    if rep.capacity_known is CapacityResult.WEAK:
        return weak_outer(ch, grid)
    if rep.capacity_known in (CapacityResult.VERY_STRONG, CapacityResult.PDC):
        return strong_outer(ch, grid)
    # S channel: low branch matches the strong bound, high branch the
    # cooperative degraded-message-set bound, which holds its sum-rate cap
    low, _ = s_channel_thresholds(ch.p1, ch.p2)
    if ch.b <= low:
        return strong_outer(ch, grid)
    return bc_dms_s_outer(ch, grid)


def _member(reg: RateRegion, rid: str) -> RateRegion:
    return RateRegion(Kind.OUTER, reg.r1, reg.r2, {"id": rid})


# best_outer's direct members, in intersection order; each raises
# RegimeMismatch where it does not apply, bc-pr PowerOverflow past its range
_DIRECT = (unified_outer, bc_dms_degraded_outer, bc_dms_s_outer, bc_pr_outer)
_LEFT_OUT = (RegimeMismatch, PowerOverflow)


def _direct_members(ch: ChannelParams, grid: int) -> list[RateRegion]:
    """The direct members that apply to this channel."""
    members = []
    for build in _DIRECT:
        try:
            members.append(build(ch, grid))
        except _LEFT_OUT:
            continue
    return members


def transformed_outer(ch: ChannelParams, preset: str,
                      grid: int = R1_GRID_DEFAULT) -> RateRegion:
    """Outer bound inherited from a transformed channel.

    The preset's target is designed to land in a known-capacity regime,
    whose exact capacity region is returned: `best_outer`'s member for
    this preset. A target whose capacity is unknown gets the
    intersection of its own direct members instead.
    """
    tgt = _preset_target(ch, preset)
    try:
        reg = capacity_region(tgt, grid)
    except RegimeMismatch:
        reg = intersect(_direct_members(tgt, grid))
    return _member(reg, f"transform:{preset}")


def best_outer(ch: ChannelParams, grid: int = R1_GRID_DEFAULT,
               extra_floor=None) -> RateRegion:
    """Intersection of every outer bound valid for this channel.

    Each member is admitted by its own builder, which raises where it
    does not apply. The direct members are `_DIRECT`, in that order; the
    bc-dms bounds raise RegimeMismatch off their channels. Then, per
    transformation preset, the capacity region of its target, left out
    where the preset does not apply or the target's capacity is unknown:
    each raises a RegimeMismatch (SingularPreset and InvalidTransform are
    its subclasses). A member that raises PowerOverflow (bc-pr, or a
    preset target past the double range, near p = 1e308) is left out too.

    Every member is an upper bound by construction, so the intersection
    is one too, and so is one with a member fewer. The direct members are
    evaluated exactly on the r1 nodes of `r1_grid(ch.p1, grid)`, the
    transform members on their target's.
    Bounds that provably never bind are left out: for b > 1,
    `unified_outer` is `strong_outer` (r1 = cap(alpha p1) <= cap(b^2 alpha
    p1) zeroes its positive part), and `piecewise_linear_outer`,
    cap(peq) - r1, lies above it, cap(peq) being the largest `_sum_si`.
    `extra_floor` is accepted for existing callers and ignored: every
    member is an upper bound already, so nothing needs a floor.
    """
    units(ch)  # huge gains raise here, not as an empty intersection
    bounds = _direct_members(ch, grid)
    for preset in _PRESETS:
        try:
            reg = capacity_region(_preset_target(ch, preset), grid)
        except _LEFT_OUT:
            continue
        bounds.append(_member(reg, f"transform:{preset}"))
    return _member(intersect(bounds), "best")
