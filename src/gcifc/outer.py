"""Converse (outer) bounds as RateRegion constructors.

The alpha-parameterized closed-form bounds all share the cognitive-rate
constraint r1 <= cap(alpha * p1), so their boundaries are evaluated
exactly on the r1 grid by inverting alpha(r1), with no envelope
resampling error. The cooperative broadcast bound is a parameter sweep
sampled from below and snapped down by `region._bin_reduce`. Its stored
region is neither a subset nor a superset of the true cooperative bound:
the sample can fall short of the true boundary, and step-up interpolation
carries each sample flat to the next one, which can exceed it across a
gap in the sample. Every constructor is a pure function of its
arguments: nothing is cached between calls.

Cross-term convention: every alpha-parameterized bound uses
2*sqrt(abar * b^2 * p1 * p2), i.e. input correlation sqrt(1 - alpha),
so the cooperation term vanishes at alpha = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CapacityResult, ChannelParams, classify, s_channel_thresholds
from .errors import InvalidTransform, RegimeMismatch, SingularPreset
from .region import (ALPHA_GRID_DEFAULT, R1_GRID_DEFAULT, Kind, RateRegion,
                     _bin_reduce, from_boundary,
                     from_pareto_points, intersect)
from .util import alpha_of_r1, cap, pos, r1_grid

_PRESETS = ("tos", "toweak", "tovs")


def _cross(ch: ChannelParams, abar):
    return 2.0 * np.sqrt(np.maximum(abar, 0.0) * ch.b ** 2 * ch.p1 * ch.p2)


def _sum_si(ch: ChannelParams, abar):
    """cap of the full-power cooperative sum SNR at correlation sqrt(abar)."""
    return cap(ch.b ** 2 * ch.p1 + ch.p2 + _cross(ch, abar))


def weak_outer(ch: ChannelParams, grid: int = R1_GRID_DEFAULT) -> RateRegion:
    """Capacity region for b <= 1 (also the converse there)."""
    if ch.b > 1.0:
        raise RegimeMismatch("weak bound needs b <= 1")
    gx = r1_grid(ch.p1, grid)
    alpha = alpha_of_r1(gx, ch.p1)
    r2 = _sum_si(ch, 1.0 - alpha) - cap(ch.b ** 2 * alpha * ch.p1)
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
    b_only = _sum_si(ch, 1.0 - alpha)
    s = b_only + pos(gx - cap(ch.b ** 2 * alpha * ch.p1))
    r2 = np.minimum(b_only, s - gx)
    return from_boundary(gx, pos(r2), Kind.OUTER, "unified", {"alpha": alpha})


def bc_dms_degraded_threshold(p1: float, p2: float) -> float:
    """b above which the cooperative bound beats the strong bound (degraded)."""
    if p1 <= 0.0:
        return math.inf
    return math.sqrt(p2 / p1) + math.sqrt(1.0 + p2 / p1)


def bc_dms_degraded_outer(ch: ChannelParams, grid: int = R1_GRID_DEFAULT,
                          tol: float = 1e-9) -> RateRegion:
    """Closed-form cooperative bound for the degraded channel (a b = 1, b >= 1)."""
    if not (abs(ch.a.imag) <= tol and ch.a.real > 0.0
            and abs(ch.a.real * ch.b - 1.0) <= tol and ch.b >= 1.0):
        raise RegimeMismatch("degraded cooperative bound needs real a = 1/b, b >= 1")
    gx = r1_grid(ch.p1, grid)
    alpha = alpha_of_r1(gx, ch.p1)
    b2p1 = ch.b ** 2 * ch.p1
    r2_bc = cap((ch.p2 + (1.0 - alpha) * b2p1 + 2.0 * math.sqrt(b2p1 * ch.p2))
                / (1.0 + alpha * ch.p1))
    r2_sum = _sum_si(ch, 1.0 - alpha) - gx
    return from_boundary(gx, pos(np.minimum(r2_bc, r2_sum)), Kind.OUTER,
                         "bc-dms-deg", {"alpha": alpha})


def bc_dms_s_threshold(p2: float) -> float:
    """b above which the cooperative bound beats the strong bound (a = 0)."""
    return math.sqrt(p2 + 1.0)


def bc_dms_s_outer(ch: ChannelParams, grid: int = R1_GRID_DEFAULT,
                   tol: float = 1e-9) -> RateRegion:
    """Cooperative degraded-message-set bound for the S channel (a = 0, b >= 1)."""
    if not (abs(ch.a) <= tol and ch.b >= 1.0):
        raise RegimeMismatch("S-channel cooperative bound needs a = 0, b >= 1")
    gx = r1_grid(ch.p1, grid)
    alpha = alpha_of_r1(gx, ch.p1)
    abar = 1.0 - alpha
    b2p1 = ch.b ** 2 * ch.p1
    den = 1.0 + alpha * ch.p1
    r2_bc = cap(ch.p2 + b2p1 * abar / den
                + 2.0 * np.sqrt(abar * b2p1 * ch.p2 / den))
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
    peq = (math.sqrt(ch.b ** 2 * ch.p1) + math.sqrt(ch.p2)) ** 2
    c_p1 = float(cap(ch.p1))
    a_pt = (0.0, float(cap(peq)))
    b_pt = (c_p1, float(cap(peq)) - c_p1)
    c_pt = (c_p1, float(cap(ch.b ** 2 * ch.p1 + ch.p2)) - c_p1)
    return {"A": a_pt, "B": b_pt, "C": c_pt, "p_eq": peq}


def piecewise_linear_outer(ch: ChannelParams,
                           grid: int = R1_GRID_DEFAULT) -> RateRegion:
    """r1 <= cap(p1) and r1 + r2 <= cap((sqrt(b^2 p1) + sqrt(p2))^2), b > 1."""
    if ch.b <= 1.0:
        raise RegimeMismatch("piecewise-linear bound needs b > 1")
    pts = pl_si_points(ch)
    gx = r1_grid(ch.p1, grid)
    r2 = pos(pts["A"][1] - gx)
    return from_boundary(gx, r2, Kind.OUTER, "pl-si")


# -- cooperative broadcast bound (full transmitter cooperation) --------------

def _recv_powers(ch: ChannelParams, c11, c12, c22):
    """Received powers of a 2x2 input covariance at both receivers."""
    if np.isrealobj(c12):
        cross1 = ch.a.real * c12
    else:
        cross1 = np.real(np.conj(ch.a) * c12)
    at1 = c11 + abs(ch.a) ** 2 * c22 + 2.0 * cross1
    at2 = ch.b ** 2 * c11 + c22 + 2.0 * ch.b * np.real(c12)
    return pos(at1), pos(at2)


def _dpc_points(ch: ChannelParams, b1, b2):
    """Rate pairs of both precoding orders for covariance splits b1 + b2.

    b1, b2: triples of arrays (c11, c12, c22), the cognitive and primary
    shares, broadcast against each other. Returns `_order_rows` of their
    received powers.
    """
    return _order_rows(_recv_powers(ch, *b1), _recv_powers(ch, *b2))


def _order_rows(s1, s2):
    """Both precoding orders, order-major, as two (r1, r2) pairs in the
    chunk layout of `region._bin_reduce`, from the shares' received powers
    (at rx1, at rx2).

    Order 1 puts r1 = cap(s1r1), which depends on share 1 alone. Where
    share 1 has a unit last axis, so that share 2 alone spans it, each
    order-1 r1 is shared by the points along that axis, and its r2 comes
    as one row of them per r1.
    """
    (s1r1, s1r2), (s2r1, s2r2) = s1, s2
    shape = np.broadcast_shapes(s1r1.shape, s2r1.shape)
    k = shape[-1] if s1r1.shape[-1] == 1 else 1
    # order 1: cognitive precoded first (clean at rx1), primary sees b1 at rx2
    o1 = cap(s1r1).ravel(), cap(s2r2 / (1.0 + s1r2)).reshape(-1, k)
    # order 2: primary precoded first (clean at rx2), cognitive sees b2 at rx1
    o2 = (cap(s1r1 / (1.0 + s2r1)).ravel(),
          np.broadcast_to(cap(s2r2), shape).ravel())
    return [o1, o2]


def _coarse_points(ch: ChannelParams, coarse: int):
    """The free sweep over share fractions and correlations, both orders.

    Returns (t, q, top, chunks): the share fractions t, the (phase, rho)
    grid q of correlations, the largest r1 of the sweep, and a generator
    of its points as `region._bin_reduce` chunks, two per phase pair.
    Points run over (rot1, rot2, order, a1, a2, q1, q2) in that order.
    Order 1's r1 depends on (rot1, a1, a2, q1) only, so its chunk holds a
    row of n points over q2 per r1 (`_order_rows`): the reducer bins only
    each row's largest r2, at the last q2 attaining it, which with q2
    running fastest gives the same bins, end point and incumbents as
    binning every point. Each share's powers span its own phase and three
    split axes, so no temporary outgrows one pair's sweep.
    """
    complex_a = abs(ch.a.imag) > 1e-12
    phases = (0.0, math.pi / 2, -math.pi / 2, math.pi / 4, -math.pi / 4) \
        if complex_a else (0.0,)
    n = 13 if complex_a else coarse
    t = np.linspace(0.0, 1.0, n)
    # a real cross gain with no phase fan keeps every covariance real
    rots = np.ones(1) if ch.a.imag == 0.0 else np.exp(1j * np.array(phases))
    q = np.multiply.outer(rots, np.linspace(-1.0, 1.0, n))
    nr = q.shape[0]
    a1, a2 = t.reshape(n, 1, 1, 1), t.reshape(1, n, 1, 1)
    q1, q2 = q.reshape(nr, 1, 1, n, 1), q.reshape(nr, 1, 1, 1, n)
    s1 = _recv_powers(ch, a1 * ch.p1, q1 * np.sqrt(a1 * ch.p1 * a2 * ch.p2),
                      a2 * ch.p2)
    s2 = _recv_powers(ch, (1 - a1) * ch.p1,
                      q2 * np.sqrt((1 - a1) * ch.p1 * (1 - a2) * ch.p2),
                      (1 - a2) * ch.p2)
    # order 1 puts r1 = cap(s1r1), and order 2 divides s1r1 by 1 + s2r1
    top = cap(s1[0]).max()

    def chunks():
        start = 0
        for p1 in zip(*s1):
            for p2 in zip(*s2):
                for r1, r2 in _order_rows(p1, p2):
                    yield start, r1, r2
                    start += r2.size

    return t, q, top, chunks()


def _structured_slices(ch: ChannelParams, n: int):
    """Dense 1-D split families matching known closed-form boundaries.

    The share grid is refined quadratically toward both endpoints, where
    the rate maps compress (square-root cross terms), so the sampled
    staircase tracks each family's exact curve at grid resolution.
    """
    u = np.linspace(0.0, 1.0, n)
    t = np.unique(np.concatenate([u, u ** 2, 1.0 - u ** 2]))
    tb = 1.0 - t
    p1, p2 = ch.p1, ch.p2
    zero = np.zeros_like(t)
    slices = []
    # cognitive keeps a private share on its own antenna; primary gets the rest
    slices.append(((t * p1, zero + 0j, zero),
                   (tb * p1, np.sqrt(tb * p1 * p2) + 0j, zero + p2)))
    # fully-correlated split of the beamforming covariance
    s1 = (p1, math.sqrt(p1 * p2) + 0j, p2)
    slices.append(((t * s1[0], t * s1[1], t * s1[2]),
                   (tb * s1[0], tb * s1[1], tb * s1[2])))
    # cognitive rides the full primary antenna (beamforming toward rx1)
    slices.append(((t * p1, np.sqrt(t * p1 * p2) + 0j, zero + p2),
                   (tb * p1, zero + 0j, zero)))
    # equal-received-power rank-1 cognitive shares
    for tv in _equal_power_ratios(ch):
        scale = abs(1.0 + ch.a * tv) ** 2
        if scale <= 1e-12:
            continue
        v1sq = t * p1  # received power alpha*p1 at both receivers
        c11 = v1sq / scale
        c22 = c11 * abs(tv) ** 2
        ok = (c11 <= p1 + 1e-12) & (c22 <= p2 + 1e-12)
        if not ok.any():
            continue
        c11, c22 = c11[ok], c22[ok]
        c12 = c11 * np.conj(tv)
        d11 = pos(p1 - c11)
        d22 = pos(p2 - c22)
        d12 = np.sqrt(d11 * d22) + 0j
        slices.append(((c11, c12, c22), (d11, d12, d22)))
    return slices


def _equal_power_ratios(ch: ChannelParams):
    """Ratios t = v2/v1 with |v1 + a t v1| = |b v1 + t v1| (rank-1 shares)."""
    out = []
    if abs(ch.a - 1.0) > 1e-9:
        out.append((ch.b - 1.0) / (ch.a - 1.0))
    if abs(ch.a + 1.0) > 1e-9:
        out.append(-(ch.b + 1.0) / (ch.a + 1.0))
    return out


def bc_pr_outer(ch: ChannelParams, coarse: int = 21,
                slice_points: int = ALPHA_GRID_DEFAULT,
                grid: int = R1_GRID_DEFAULT, floor_points=None) -> RateRegion:
    """Full-transmitter-cooperation broadcast bound (private rates).

    Sampled from below over covariance splits and both precoding orders.
    Every sample is achievable with full cooperation, but the step-up
    region between samples is neither a subset nor a superset of the true
    cooperative bound (see the module docstring). Dense structured slices
    reproduce the known closed-form sub-families exactly; `floor_points`
    may supply achievable rate pairs (always members of the true bound) to
    floor the sample.

    The coarse sweep and its refine pass hand precoding order 1 to the
    reducer as rows over the primary share's correlation, which share one
    r1, so only each row's largest r2 is binned. Both reductions keep only
    each bin's largest r2, the largest r2 at the top, and each incumbent
    bin's last point attaining its maximum, and a row comes back as all
    its points wherever a cloud is returned whole, so the region is
    exactly the one of binning every point.
    """
    t, q, top, chunks = _coarse_points(ch, coarse)
    coarse_pts, keep = _bin_reduce(chunks, top, 4 * grid, 64)
    parts = [(coarse_pts[:, 0], coarse_pts[:, 1])]
    for b1, b2 in _structured_slices(ch, slice_points):
        parts.extend(_dpc_points(ch, b1, b2))
    parts.extend(_refine_pass(ch, t, q, keep))
    if floor_points is not None and len(floor_points):
        pts = np.asarray(floor_points, float).reshape(-1, 2)
        parts.append((pts[:, 0], pts[:, 1]))

    starts = np.cumsum([0] + [r2.size for _, r2 in parts])
    top = np.max([r1.max(initial=-np.inf) for r1, _ in parts])
    all_pts = _bin_reduce([(s, r1, r2) for s, (r1, r2) in zip(starts, parts)],
                          top, 4 * grid)[0]
    return from_pareto_points(all_pts, Kind.OUTER, grid=grid,
                              region_id="bc-pr")


def _phase(q):
    """Unit phase factor of a correlation (a sign for real correlations)."""
    if np.isrealobj(q):
        return np.copysign(1.0, q)
    return np.exp(1j * np.angle(q))


def _refine_pass(ch: ChannelParams, t, q, keep: np.ndarray):
    """Re-grid locally around incumbent Pareto points of the coarse sweep.

    `keep` holds the incumbents' flat indices into the coarse sweep of
    `_coarse_points`; their split parameters follow from its axes. The 5^4
    offsets broadcast as (k, a1, a2, q1, q2) with q2 fastest: share 1 spans
    (k, 5, 5, 5, 1) and share 2 (k, 5, 5, 1, 5), so `_recv_powers` runs on
    k * 125 points per share, and order 1 comes as rows over the q2
    offsets (`_order_rows`).
    """
    if not keep.size:
        return []
    nr, n = q.shape
    rot1, rot2, _, i1, i2, j1, j2 = np.unravel_index(
        keep, (nr, nr, 2, n, n, n, n))
    a1, a2, q1, q2 = t[i1], t[i2], q[rot1, j1], q[rot2, j2]
    step = 1.0 / (n - 1)
    offs = np.linspace(-step, step, 5)
    k = (-1, 1, 1, 1, 1)
    na = np.clip(a1.reshape(k) + offs.reshape(5, 1, 1, 1), 0.0, 1.0)
    nb = np.clip(a2.reshape(k) + offs.reshape(5, 1, 1), 0.0, 1.0)
    nc = (np.clip(np.abs(q1).reshape(k) + offs.reshape(5, 1), 0.0, 1.0)
          * _phase(q1).reshape(k))
    nd = np.clip(np.abs(q2).reshape(k) + offs, 0.0, 1.0) * _phase(q2).reshape(k)
    c12 = nc * np.sqrt(na * ch.p1 * nb * ch.p2)
    d12 = nd * np.sqrt((1 - na) * ch.p1 * (1 - nb) * ch.p2)
    b1 = (na * ch.p1, c12, nb * ch.p2)
    b2 = ((1 - na) * ch.p1, d12, (1 - nb) * ch.p2)
    return _dpc_points(ch, b1, b2)


# -- outer bounds by channel transformation ----------------------------------

@dataclass(frozen=True)
class TransformTriple:
    """Input-mixing coefficients sending this channel into another one."""

    a_coef: complex
    b_coef: complex
    c_coef: complex


def transform_target(ch: ChannelParams, tr: TransformTriple,
                     tol: float = 1e-9) -> ChannelParams:
    """Target channel whose capacity region bounds this channel's.

    The mixed inputs x1' = A x1 + B x2, x2' = C x2 reproduce this
    channel's outputs inside the target when |A| >= 1 and
    |C / (1 - B b)| >= 1; violations raise InvalidTransform.
    """
    a_, b_, c_ = tr.a_coef, tr.b_coef, tr.c_coef
    den = 1.0 - b_ * ch.b
    if abs(c_) <= tol or abs(den) <= tol:
        raise InvalidTransform("transformation denominators vanish")
    if abs(a_) < 1.0 - tol or abs(c_ / den) < 1.0 - tol:
        raise InvalidTransform("reconstruction constraints violated")
    a_t = (ch.a * a_ - b_) / c_
    b_t = abs(c_ * ch.b / den)
    p1_t = (abs(a_) * math.sqrt(ch.p1) + abs(b_) * math.sqrt(ch.p2)) ** 2
    p2_t = abs(c_) ** 2 * ch.p2
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
        return from_boundary(gx, np.full(gx.shape, float(cap(ch.p2))),
                             Kind.OUTER, "capacity")
    if rep.capacity_known is CapacityResult.WEAK:
        return weak_outer(ch, grid)
    if rep.capacity_known in (CapacityResult.VERY_STRONG, CapacityResult.PDC):
        return strong_outer(ch, grid)
    # S channel: low branch matches the strong bound, high branch the
    # cooperative degraded-message-set bound
    low, _ = s_channel_thresholds(ch.p1, ch.p2)
    if ch.b <= low:
        return strong_outer(ch, grid)
    return intersect([bc_dms_s_outer(ch, grid), strong_outer(ch, grid)], grid)


def transformed_outer(ch: ChannelParams, preset: str,
                      grid: int = R1_GRID_DEFAULT) -> RateRegion:
    """Outer bound inherited from a transformed channel.

    The preset's target is designed to land in a known-capacity regime,
    whose exact capacity region is returned; a target outside every such
    regime gets its depth-limited best outer bound.
    """
    tgt = _preset_target(ch, preset)
    if classify(tgt).capacity_known is CapacityResult.UNKNOWN:
        reg = best_outer(tgt, grid=grid, depth=1)
    else:
        reg = capacity_region(tgt, grid)
    return RateRegion(Kind.OUTER, reg.r1, reg.r2, {"id": f"transform:{preset}"})


def best_outer(ch: ChannelParams, grid: int = R1_GRID_DEFAULT,
               depth: int = 0, bc_pr_kwargs: dict | None = None,
               extra_floor=None) -> RateRegion:
    """Intersection of every outer bound valid for this channel.

    Bounds that provably never bind are left out: for b > 1,
    `unified_outer` is `strong_outer` (r1 = cap(alpha p1) <= cap(b^2 alpha
    p1) zeroes its positive part), and `piecewise_linear_outer`,
    cap(peq) - r1, lies above it, cap(peq) being the largest `_sum_si`.
    Transformation presets join the intersection only at depth 0 and only
    when their target lands in a known-capacity regime. The sampled
    cooperative bound is floored with cheap achievable points (plus any
    caller-supplied `extra_floor` rate pairs, e.g. the boundary of the
    inner region it will be compared against) so that grid undersampling
    can never push the intersection below a valid inner bound.
    """
    rep = classify(ch)
    bounds = [unified_outer(ch, grid)]
    if rep.degraded and ch.b >= 1.0:
        bounds.append(bc_dms_degraded_outer(ch, grid))
    if rep.s_channel and ch.b >= 1.0:
        bounds.append(bc_dms_s_outer(ch, grid))

    from .inner import cheap_achievable_points
    floor = cheap_achievable_points(ch)
    if extra_floor is not None and len(extra_floor):
        floor = np.concatenate(
            [floor, np.asarray(extra_floor, float).reshape(-1, 2)], axis=0)
    kwargs = dict(bc_pr_kwargs or {})
    kwargs.setdefault("grid", grid)
    bounds.append(bc_pr_outer(ch, floor_points=floor, **kwargs))

    if depth == 0:
        for preset in _PRESETS:
            try:
                tgt = _preset_target(ch, preset)
            except (SingularPreset, InvalidTransform):
                continue
            if classify(tgt).capacity_known is CapacityResult.UNKNOWN:
                continue
            reg = capacity_region(tgt, grid)
            bounds.append(RateRegion(Kind.OUTER, reg.r1, reg.r2,
                                     {"id": f"transform:{preset}"}))
    out = intersect(bounds, grid)
    return RateRegion(Kind.OUTER, out.r1, out.r2, {"id": "best"})
