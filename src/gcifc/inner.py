"""Achievable schemes as RateRegion constructors.

Every scheme is a Gaussian coding strategy whose rate bounds are exact
covariance determinant ratios, evaluated as vectorized closed forms in
Gram form (a sum of squared minors, which cannot cancel; conditioning on
X2 drops its source), so they need no clamps at any power. Schemes C and
E share one dirty-paper kernel, `_f_mi`; every scheme is cross-checked
against the gaussmi oracle in the test suite. Power-split parameters are
swept on grids whose r1 images are uniform (plus a uniform fill), so the
hull kept as each region has vertices all along its boundary.

Pre-coding coefficients are handled in "amplitude space": a coefficient
lambda on the primary signal enters only through w = lambda*sqrt(p2),
which stays finite for p2 = 0. When the cross gain a is real, the rate
kernels run in float64; complex128 is kept for complex a.

Each scheme of `best_inner` is a private point cloud (an array, or an
iterator of (start, rows) blocks for the large E and F sweeps) behind a
public builder. `best_inner` chains the clouds into one envelope: TDMA,
A, B, C, D, F, and then E only where its phase fan applies, since
scheme F's beta = gamma = 0 face is scheme E's real-scale sweep.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams
from .errors import DegenerateDenominator
# union stays importable from here: perfbench's tracer self-test checks it
from .region import (R1_GRID_DEFAULT, Kind, RateRegion,  # noqa: F401
                     from_pareto_points, union)
from .util import alpha_of_r1, cap, pos, r1_grid, scaled_powers

# test-channel noise variances (sigma1^2, sigma2^2) of the binning schemes
_SIGMA_PAIRS = ((1.0, 0.0), (1.0, 1.0))


def _real_a(ch: ChannelParams):
    """The cross gain as a float when it is real, so the rate kernels run
    in float64 (real division is also correctly rounded, complex is not),
    and as a complex otherwise."""
    return ch.a.real if ch.a.imag == 0.0 else ch.a


@dataclass(frozen=True)
class DpcInfo:
    """Pre-coding coefficients maximizing r1 / minimizing r2, plus f at the max."""

    lambda_costa1: complex
    lambda_costa2: complex
    f_value: float


def lambda_costa(h: complex, sigma_sq: float, alpha: float, p1: float) -> complex:
    """Rate-maximizing pre-coding coefficient alpha*p1*h/(alpha*p1 + sigma^2)."""
    a_pow = alpha * p1
    den = a_pow + sigma_sq
    if den <= 0.0:
        raise DegenerateDenominator("alpha*p1 + sigma_sq must be positive")
    return a_pow * h / den


def _f_mi(c1, u2, sigma_sq, w, a_pow, su_sq=0.0, clamp: bool = True):
    """I(S; U) - I(U; Xi) in bits, S = c1 X + u2 Xi + sigma Z and
    U = X + w Xi + su Zu, with var(X) = a_pow and unit Xi, Z, Zu.

    Amplitude space: u2 and w are the interferer and pre-coding
    coefficients times sqrt(p2). In Gram form the value is
    log2(var(S) V / G), V = Var(U | Xi) = a_pow + su^2 and
    G = a_pow |c1 w - u2|^2 + sigma^2 (a_pow + |w|^2) + su^2 var(S); G is
    divided by V term by term, so nothing overflows. V = 0 gives 0. With
    clamp the difference is floored at zero, matching the rate
    interpretation.
    """
    a_pow = np.asarray(a_pow, dtype=float)
    var_s = np.abs(c1) ** 2 * a_pow + np.abs(u2) ** 2 + sigma_sq
    v = a_pow + su_sq
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (a_pow / v * np.abs(c1 * w - u2) ** 2
             + sigma_sq * ((a_pow + np.abs(w) ** 2) / v) + su_sq / v * var_s)
        val = np.where(v == 0.0, 0.0, np.log2(var_s / g))
    return pos(val) if clamp else val


def f_dpc(h: complex, sigma_sq: float, lam: complex, alpha, p1: float,
          p2: float):
    """Pre-coded rate residual f(h, sigma^2; lambda), clamped at zero."""
    a_pow = np.asarray(alpha, dtype=float) * p1
    sp2 = math.sqrt(p2)
    return _f_mi(1.0, h * sp2, sigma_sq, np.asarray(lam) * sp2, a_pow)


def dpc_info(ch: ChannelParams, alpha: float) -> DpcInfo:
    """Both Costa coefficients at a power split, plus f at the maximizer."""
    abar = 1.0 - alpha
    if ch.p2 <= 0.0:
        raise DegenerateDenominator("pre-coding needs p2 > 0")
    h1 = ch.a + math.sqrt(abar * ch.p1 / ch.p2)
    lc1 = lambda_costa(h1, 1.0, alpha, ch.p1)
    if ch.b <= 0.0:
        lc2 = 0.0 + 0.0j
    else:
        h2 = 1.0 / ch.b + math.sqrt(abar * ch.p1 / ch.p2)
        lc2 = lambda_costa(h2, 1.0 / ch.b ** 2, alpha, ch.p1)
    fval = float(f_dpc(h1, 1.0, lc1, alpha, ch.p1, ch.p2))
    return DpcInfo(lc1, lc2, fval)


def default_alpha_grid(ch: ChannelParams, matched: int = 513,
                       uniform: int = 489) -> np.ndarray:
    """Split grid whose r1 images are `matched` uniform r1 nodes on
    [0, cap(p1)], plus correlation fill.

    The fill is uniform in rho = sqrt(1 - alpha): the cooperation cross
    terms are smooth in rho, so this removes the square-root cusp that
    uniform-alpha sampling leaves near full cooperation.
    """
    am = alpha_of_r1(r1_grid(ch.p1, matched), ch.p1)
    rho = np.linspace(0.0, 1.0, uniform)
    return np.unique(np.concatenate([am, 1.0 - rho ** 2]))


def _rect_sum_vertices(m1, m2, ms):
    """Pareto vertices of {r1 <= m1, r2 <= m2, r1 + r2 <= ms} (vectorized)."""
    m1, m2, ms = (np.asarray(v, dtype=float) for v in (m1, m2, ms))
    v1r1 = np.minimum(m1, ms)
    v1 = np.stack([v1r1, pos(np.minimum(m2, ms - v1r1))], axis=-1)
    v2r1 = np.minimum(m1, pos(ms - m2))
    v2 = np.stack([v2r1, pos(np.minimum(m2, ms - v2r1))], axis=-1)
    return np.concatenate([v1.reshape(-1, 2), v2.reshape(-1, 2)], axis=0)


def _fan_rows(r1s, r2s):
    """(n, 2) rate pairs from per-vertex (scale, split) arrays, ordered by
    scale, then vertex, then split."""
    return np.stack([np.stack(r1s, axis=1), np.stack(r2s, axis=1)],
                    axis=-1).reshape(-1, 2)


# -- scheme A: primary silent, cognitive broadcasts both messages ------------

def _scheme_a_cloud(ch: ChannelParams, al):
    abar = 1.0 - al
    if ch.b <= 1.0:
        r1 = cap(al * ch.p1)
        r2 = cap(abar * ch.b ** 2 * ch.p1 / (1.0 + al * ch.b ** 2 * ch.p1))
    else:
        r1 = cap(abar * ch.p1 / (1.0 + al * ch.p1))
        r2 = cap(al * ch.b ** 2 * ch.p1)
    return np.stack([r1, r2], axis=1)


def scheme_a(ch: ChannelParams, alpha_grid=None) -> RateRegion:
    """Degraded-broadcast strategy with the primary transmitter silent."""
    al = default_alpha_grid(ch) if alpha_grid is None else np.asarray(alpha_grid)
    return from_pareto_points(_scheme_a_cloud(ch, al), Kind.INNER,
                              params={"alpha": al}, region_id="a")


# -- scheme B: private messages, perfect pre-coding at the cognitive side ----

def scheme_b_rates(ch: ChannelParams, alpha):
    """Corner (r1, r2) of the private/pre-coded strategy at each split."""
    al = np.asarray(alpha, dtype=float)
    abar = 1.0 - al
    b2p1 = ch.b ** 2 * ch.p1
    p1, p2, k = scaled_powers(ch.p1, ch.p2)
    cross = np.ldexp(2.0 * np.sqrt(abar * (ch.b ** 2 * p1) * p2), k)
    r1 = cap(al * ch.p1)
    r2 = pos(cap(b2p1 + ch.p2 + cross) - cap(ch.b ** 2 * al * ch.p1))
    return r1, r2


def _scheme_b_cloud(ch: ChannelParams, al):
    return np.stack(scheme_b_rates(ch, al), axis=1)


def scheme_b(ch: ChannelParams, alpha_grid=None,
             grid: int = R1_GRID_DEFAULT) -> RateRegion:
    """Interference-as-noise at the primary receiver, capacity for b <= 1;
    `grid` sets the matched splits of the default split grid."""
    al = default_alpha_grid(ch, matched=grid, uniform=257) \
        if alpha_grid is None else np.asarray(alpha_grid)
    return from_pareto_points(_scheme_b_cloud(ch, al), Kind.INNER,
                              params={"alpha": al}, region_id="b")


# -- scheme D: both messages common (compound multiple access) ---------------

def scheme_d_rates(ch: ChannelParams, rho):
    """(r1 cap, sum cap) of the all-common strategy at each correlation."""
    rho = np.asarray(rho, dtype=complex)
    rsq = np.clip(np.abs(rho) ** 2, 0.0, 1.0)
    p1, p2, k = scaled_powers(ch.p1, ch.p2)
    sp = math.ldexp(math.sqrt(p1 * p2), k)
    r1 = np.minimum(cap((1.0 - rsq) * ch.p1), cap((1.0 - rsq) * ch.b ** 2 * ch.p1))
    s1 = cap(ch.p1 + abs(ch.a) ** 2 * ch.p2
             + 2.0 * np.real(np.conj(ch.a) * rho) * sp)
    s2 = cap(ch.b ** 2 * ch.p1 + ch.p2 + 2.0 * ch.b * np.real(rho) * sp)
    return r1, np.minimum(s1, s2)


def _scheme_d_cloud(ch: ChannelParams):
    """The cloud and, per row, the real part of its correlation."""
    am = alpha_of_r1(r1_grid(ch.p1, 513), ch.p1)
    base = np.unique(np.concatenate([np.sqrt(1.0 - am),
                                     np.linspace(0.0, 1.0, 489)]))
    rho = np.concatenate([base, -base])
    if _phase_fan(ch):
        phases = np.exp(1j * np.linspace(0.0, np.pi, 17))
        rho = np.outer(base, phases).ravel()
        rho = np.concatenate([rho, -rho])
    r1, s = scheme_d_rates(ch, rho)
    v1r1 = np.minimum(r1, s)
    pts = np.concatenate([
        np.stack([v1r1, pos(s - v1r1)], axis=1),
        np.stack([np.zeros_like(s), pos(s)], axis=1)], axis=0)
    return pts, np.concatenate([np.real(rho), np.real(rho)])


def scheme_d(ch: ChannelParams) -> RateRegion:
    """Superposition strategy: both receivers decode both messages."""
    pts, rr = _scheme_d_cloud(ch)
    return from_pareto_points(pts, Kind.INNER, params={"rho_re": rr},
                              region_id="d")


# -- scheme E: common cognitive message pre-coded against the primary --------

def _scheme_e_amplitudes(ch: ChannelParams, alpha):
    """Interferer amplitudes seen by the two pre-coding rate terms."""
    abar = pos(1.0 - np.asarray(alpha, dtype=float))
    coop = np.sqrt(abar * ch.p1)
    u1 = _real_a(ch) * math.sqrt(ch.p2) + coop
    u2 = math.sqrt(ch.p2) + ch.b * coop
    return u1, u2


def _scheme_e_bounds(ch: ChannelParams, a_pow, u1, u2, w):
    """(r1 bound, r2 bound, sum bound) of the pre-coded common strategy in
    amplitude space: the common power a_pow, the interferer amplitudes
    u1, u2 of `_scheme_e_amplitudes` and the pre-coding amplitude w."""
    f1 = _f_mi(1.0, u1, 1.0, w, a_pow)
    f2 = _f_mi(ch.b, u2, 1.0, w, a_pow, clamp=False)
    ssum = cap(ch.b ** 2 * a_pow + np.abs(u2) ** 2)
    return f1, pos(ssum - f2), ssum


def scheme_e_rates(ch: ChannelParams, alpha, lam):
    """(r1 bound, r2 bound, sum bound) of the pre-coded common strategy."""
    al = np.asarray(alpha, dtype=float)
    u1, u2 = _scheme_e_amplitudes(ch, al)
    return _scheme_e_bounds(ch, al * ch.p1, u1, u2,
                            np.asarray(lam) * math.sqrt(ch.p2))


def _phase_fan(ch: ChannelParams) -> bool:
    """Whether the pre-coding sweeps add phases: a visibly complex a."""
    return abs(ch.a.imag) > 1e-12


def _scheme_e_cloud(ch: ChannelParams, al, lambda_policy: str,
                    n_lambda: int):
    """The cloud as (start, rows) blocks, and its params function."""
    w_c1 = _scheme_e_costa1(ch, al)
    scales = fixed = None
    if lambda_policy == "costa1":
        fixed = w_c1
    elif lambda_policy == "zero":
        fixed = np.zeros(al.size, dtype=w_c1.dtype)
    elif lambda_policy == "sweep":
        scales = np.linspace(0.0, 2.0, n_lambda)
        if _phase_fan(ch):
            phases = np.exp(1j * np.linspace(-np.pi / 2, np.pi / 2, 9))
            scales = np.outer(scales, phases).ravel()
    else:
        raise ValueError(f"unknown lambda policy {lambda_policy!r}")
    # one fan of n_lambda scales at a time: the cloud is never held
    fans = [fixed[None, :]] if scales is None else (
        np.multiply.outer(fan, w_c1) for fan in scales.reshape(-1, n_lambda))
    pairs = al.size * (1 if scales is None else scales.size)

    def params(src):
        scale, split = np.divmod(src % pairs, al.size)
        w = fixed[split] if scales is None else scales[scale] * w_c1[split]
        sp2 = math.sqrt(ch.p2)
        lam_re = np.real(w) / sp2 if sp2 > 0.0 else np.zeros(np.shape(w))
        return {"alpha": al[split], "lambda_re": lam_re}

    return _scheme_e_blocks(ch, al, fans, pairs), params


def _costa(a_pow, u):
    """The Costa pre-coding amplitude a_pow * u / (a_pow + 1). Where
    a_pow >= 1 both a_pow and a_pow + 1 are first scaled by the power of
    two putting a_pow in [0.5, 1): exact, so bit-identical wherever
    a_pow * u is finite (u normal), and finite where it would overflow."""
    k = -np.maximum(np.frexp(a_pow)[1], 0)
    return np.ldexp(a_pow, k) * u / np.ldexp(a_pow + 1.0, k)


def _scheme_e_costa1(ch: ChannelParams, al):
    """The costa1 pre-coding amplitude per split."""
    return _costa(al * ch.p1, _scheme_e_amplitudes(ch, al)[0])


def _scheme_e_blocks(ch: ChannelParams, al, fans, pairs: int):
    """Scheme E's (start, rows) blocks over (k, al.size) arrays of
    pre-coding amplitudes, `pairs` (scale, split) pairs in all. Rows run
    over (vertex, scale, split): v2 rows follow every v1 row."""
    a_pow = (al * ch.p1)[None, :]
    u1, u2 = (u[None, :] for u in _scheme_e_amplitudes(ch, al))
    start = 0
    for w in fans:
        f1, r2, ssum = _scheme_e_bounds(ch, a_pow, u1, u2, w)
        v1, v2 = np.split(_rect_sum_vertices(f1, r2, ssum), 2)
        yield start, v1
        yield pairs + start, v2
        start += f1.size


def scheme_e(ch: ChannelParams, alpha_grid=None,
             lambda_policy: str = "sweep", n_lambda: int = 201) -> RateRegion:
    """Pre-coded common-message strategy.

    lambda_policy: "costa1" pins the r1-maximizing coefficient, "zero"
    disables pre-coding, "sweep" unions scaled multiples of the costa1
    coefficient in [0, 2] (plus a phase fan for complex channels).
    """
    al = default_alpha_grid(ch) if alpha_grid is None else np.asarray(alpha_grid)
    blocks, params = _scheme_e_cloud(ch, al, lambda_policy, n_lambda)
    return from_pareto_points(blocks, Kind.INNER, params=params,
                              region_id=f"e:{lambda_policy}")


# -- schemes C / C46: cognitive broadcasts a primary layer with binning ------

def _quot(num, den, noop):
    """num / den, or noop where den == 0: a zero-variance conditioner
    conditions nothing."""
    out = np.array(np.broadcast_to(noop, np.broadcast(num, den).shape),
                   dtype=float)
    return np.divide(num, den, out=out, where=den != 0.0)


def scheme_c_rates(ch: ChannelParams, alpha, sigma1_sq, sigma2_sq,
                   c1=None, c2=None):
    """(r1, r2, sum) bounds of the double-binning strategy.

    c1/c2 are the auxiliary mixing coefficients; None reproduces the
    channel-matched choice (c1=a, c2=b). The test-channel noise
    correlation is set to its penalty-minimizing value internally.

    The r1 bound and the sum bound's dirty-paper part are `_f_mi` with
    U1's noise s1. Given X2 only X (variance a = alpha p1) and the noises
    remain, so Var(Y2 | U2, X2) = 1 + b^2 a s2 / d2 and Var(U1 | U2, X2) =
    [a (s2 + s1 c2^2 + 2 |c2| m) + (r - m)(r + m)] / d2, d2 = c2^2 a + s2,
    r = sqrt(s1 s2), m = |E[N1 N2*]|.
    """
    al = np.asarray(alpha, dtype=float)
    a_pow = al * ch.p1
    q = np.sqrt(pos(1.0 - al) * ch.p1) if ch.p2 > 0 else np.zeros_like(al)
    sp2 = math.sqrt(ch.p2)
    a = _real_a(ch)
    c1 = np.asarray(a if c1 is None else c1)
    if np.iscomplexobj(a):
        c1 = c1.astype(complex)
    c2 = np.asarray(ch.b if c2 is None else c2, dtype=float)
    s1, s2 = float(sigma1_sq), float(sigma2_sq)

    # I(Y1; U1) - I(U1; X2)
    f1 = _f_mi(1.0, q + a * sp2, 1.0, q + c1 * sp2, a_pow, s1, clamp=False)

    var_y2 = ch.b ** 2 * a_pow + np.abs(ch.b * q + sp2) ** 2 + 1.0
    d1, d2 = a_pow + s1, c2 ** 2 * a_pow + s2  # Var(U1 | X2), Var(U2 | X2)
    cv_y2 = 1.0 + ch.b ** 2 * a_pow * _quot(s2, d2, 1.0)
    m2 = pos(np.log2(var_y2) - np.log2(cv_y2))

    r = math.sqrt(s1 * s2)
    m = np.minimum(r, np.abs(c2) * a_pow)
    cv_u1 = _quot(a_pow * (s2 + s1 * c2 ** 2 + 2.0 * np.abs(c2) * m)
                  + (r - m) * (r + m), d2, d1)
    # m2 + I(Y1; U1) - I(U1; X2) - I(U1; U2 | X2)
    ms = pos(m2 + f1 + np.log2(_quot(cv_u1, d1, 1.0)))
    return pos(f1), m2, ms


def _scheme_c_cloud(ch: ChannelParams, al, sigma_pairs=_SIGMA_PAIRS):
    return np.concatenate([_rect_sum_vertices(*scheme_c_rates(ch, al, s1, s2))
                           for s1, s2 in sigma_pairs], axis=0)


def scheme_c(ch: ChannelParams, alpha_grid=None,
             sigma_pairs=_SIGMA_PAIRS) -> RateRegion:
    """Double-binning strategy on the channel-matched auxiliaries."""
    al = default_alpha_grid(ch) if alpha_grid is None else np.asarray(alpha_grid)
    return from_pareto_points(_scheme_c_cloud(ch, al, sigma_pairs), Kind.INNER,
                              params={"alpha": np.tile(al, 2 * len(sigma_pairs))},
                              region_id="c")


def scheme_c46(ch: ChannelParams) -> RateRegion:
    """Double-binning strategy with tuned auxiliary mixing coefficients."""
    al = default_alpha_grid(ch, matched=129, uniform=101)
    # nine mixing coefficients around each channel-matched one (c1 = a, c2 = b)
    offs = np.linspace(-1.0, 1.0, 9)
    c1_grid = ch.a.real + offs * max(1.0, abs(ch.a))
    c2_grid = ch.b + offs * max(1.0, ch.b)
    chunks = []
    for s1, s2 in _SIGMA_PAIRS:
        for c1 in c1_grid:
            for c2 in c2_grid:
                m1, m2, ms = scheme_c_rates(ch, al, s1, s2, c1=c1, c2=c2)
                chunks.append(_rect_sum_vertices(m1, m2, ms))
    pts = np.concatenate(chunks, axis=0)
    return from_pareto_points(pts, Kind.INNER, region_id="c46")


# -- scheme F: rate-split unification of D and E -----------------------------

def scheme_f_rates(ch: ChannelParams, alpha, beta, gamma, w):
    """The five rate bounds of the split strategy, in amplitude space.

    w is the pre-coding coefficient times the private-primary amplitude
    sqrt((1-beta) p2). Returns (m_r1, m_sum, m_2r1_r2).

    Given the common primary part V2c only the private primary atom and
    X1c (variance alpha p1) remain: Var(Y | U1, V2c) = 1 + |y_p - g w|^2 t,
    t = alpha p1 / (|w|^2 + alpha p1), y_p and g being Y's gains on the
    atom and X1c, and X2 reveals the atom wherever it has power, leaving
    Var(Y2 | U1, X2, V2c) = 1.
    """
    al = np.asarray(alpha, dtype=float)
    be = np.asarray(beta, dtype=float)
    ga = np.asarray(gamma, dtype=float)
    p1, p2, a, b = ch.p1, ch.p2, _real_a(ch), ch.b

    x2_c = np.sqrt(be * p2)
    x2_pa = np.sqrt(pos(1.0 - be) * p2)
    x1_2c = np.sqrt(pos(1.0 - al) * ga * p1)
    x1_pa = np.sqrt(pos(1.0 - al) * pos(1.0 - ga) * p1)
    a_pow = al * p1
    y1c, y1p = x1_2c + a * x2_c, x1_pa + a * x2_pa
    y2c, y2p = b * x1_2c + x2_c, b * x1_pa + x2_pa

    # t = 1 where U1 = 0: it conditions nothing
    t = _quot(a_pow, np.abs(w) ** 2 + a_pow, 1.0)
    v_y1 = np.abs(y1p) ** 2 + a_pow + 1.0  # Var(Y1 | V2c)
    v_y2 = np.abs(y2p) ** 2 + b ** 2 * a_pow + 1.0
    cv_y1 = 1.0 + np.abs(y1p - w) ** 2 * t  # Var(Y1 | U1, V2c)
    cv_y2 = 1.0 + np.abs(y2p - b * w) ** 2 * t
    priv = x2_pa > 0.0
    cv_y2x2 = np.where(priv, 1.0, cv_y2)  # Var(Y2 | U1, X2, V2c)

    with np.errstate(divide="ignore"):  # t = 0: X2 determines U1
        i_u1x2 = np.where(priv, -np.log2(t), 0.0)
    m29a = pos(np.log2(v_y1) - np.log2(cv_y1) - i_u1x2)
    m29b = pos(np.log2(v_y2) - np.log2(cv_y2x2))
    # conditioning on {u2c, x2, x1c} leaves the private atom unless X2 has it
    m29c = np.log2(np.abs(y2c) ** 2 + v_y2) \
        - np.log2(np.where(priv, 1.0, np.abs(y2p) ** 2 + 1.0))
    i_y1_u1u2c = np.log2(np.abs(y1c) ** 2 + v_y1) - np.log2(cv_y1)
    m29d = pos(np.log2(cv_y2) - np.log2(cv_y2x2)) + i_y1_u1u2c
    m29e = pos(m29b + i_y1_u1u2c - i_u1x2)

    return np.minimum(m29a, m29b), np.minimum(m29c, m29d), m29e


def _scheme_f_vertices(ch: ChannelParams, alpha, beta, gamma, w):
    """The two interior Pareto vertices of the split strategy at each point
    of the (scales, splits) amplitudes w, rows as in `_fan_rows`, and the
    r2 of its third vertex (0, r2c)."""
    m1, ms, m2r = scheme_f_rates(ch, alpha, beta, gamma, w)
    r1a = np.minimum(m1, np.minimum(ms, m2r / 2.0))
    r2a = pos(np.minimum(ms - r1a, m2r - 2.0 * r1a))
    r1b = np.clip(m2r - ms, 0.0, r1a)
    r2b = pos(np.minimum(ms - r1b, m2r - 2.0 * r1b))
    r2c = pos(np.minimum(ms, m2r))
    return _fan_rows([r1a, r1b], [r2a, r2b]), r2c


def _scheme_f_cloud(ch: ChannelParams, al, be, ga, n_lambda: int,
                    face_lambda: int):
    """The cloud as (start, rows) blocks."""
    av, bv, gv = np.meshgrid(al, be, ga, indexing="ij")
    av, bv, gv = av.ravel(), bv.ravel(), gv.ravel()

    a_pow = av * ch.p1
    # interference seen by u1c at y1 once the common primary part is known
    amp = np.sqrt(pos(1.0 - av) * pos(1.0 - gv) * ch.p1) \
        + _real_a(ch) * np.sqrt(pos(1.0 - bv) * ch.p2)
    w_c = _costa(a_pow, amp)

    scales = np.linspace(0.0, 2.0, n_lambda)
    if _phase_fan(ch):
        phases = np.exp(1j * np.linspace(-np.pi / 2, np.pi / 2, 5))
        scales = np.outer(scales, phases).ravel()

    def blocks():
        # one n_lambda fan per block: temporaries under the 4 MB huge-page cut
        start, r2c_max = 0, -np.inf
        for fan in scales.reshape(-1, n_lambda):
            rows, r2c = _scheme_f_vertices(ch, av, bv, gv,
                                           np.multiply.outer(fan, w_c))
            # at r1 = 0 only the largest finite r2 can reach the front
            r2c_max = r2c.max(initial=r2c_max, where=np.isfinite(r2c))
            yield start, rows
            start += rows.shape[0]
        # dense collapse faces: beta = gamma = 0 is exactly the pre-coded
        # common scheme E, built by E's own code on its default split grid
        # with real scales of E's costa1 amplitude (so, with no phase fan, E's
        # sweep rows are among these); beta = gamma = 1 with no pre-coding is
        # the all-common scheme D
        face = default_alpha_grid(ch)
        w = np.multiply.outer(np.linspace(0.0, 2.0, max(n_lambda, face_lambda)),
                              _scheme_e_costa1(ch, face))
        for s, rows in _scheme_e_blocks(ch, face, [w], w.size):
            yield start + s, rows
        start += 2 * w.size
        r1d, sd = scheme_d_rates(ch, np.sqrt(pos(1.0 - face)))
        v1 = np.minimum(r1d, sd)
        yield start, np.stack([v1, pos(sd - v1)], axis=1)
        yield start + sd.size, np.stack([np.zeros_like(sd), pos(sd)], axis=1)
        yield start + 2 * sd.size, [[0.0, r2c_max]]

    return blocks()


def scheme_f(ch: ChannelParams, alpha_grid=None, beta_grid=None,
             gamma_grid=None, n_lambda: int = 41,
             face_lambda: int = 201) -> RateRegion:
    """Split strategy unioning the common-common and pre-coded structures.

    On the split boundaries the strategy collapses exactly to the
    all-common scheme (beta = gamma = 1, no pre-coding) and to the
    pre-coded common scheme (beta = gamma = 0), so those two faces are
    always swept densely alongside the interior grid.
    """
    al, be, ga = (np.linspace(0.0, 1.0, 11) if g is None else np.asarray(g)
                  for g in (alpha_grid, beta_grid, gamma_grid))
    return from_pareto_points(
        _scheme_f_cloud(ch, al, be, ga, n_lambda, face_lambda), Kind.INNER,
        region_id="f")


# -- time sharing and aggregates ---------------------------------------------

def _tdma_cloud(ch: ChannelParams):
    peq = (math.sqrt(ch.b ** 2 * ch.p1) + math.sqrt(ch.p2)) ** 2
    return np.array([[float(cap(ch.p1)), 0.0], [0.0, float(cap(peq))]])


def tdma_inner(ch: ChannelParams) -> RateRegion:
    """Chord between the solo cognitive point and the beamforming point."""
    return from_pareto_points(_tdma_cloud(ch), Kind.INNER, region_id="tdma")


def _chain(clouds):
    """One (start, rows) block stream over clouds that are each an array or
    a block iterator, every cloud's source indices renumbered past those of
    the clouds before it."""
    offset = 0
    for cloud in clouds:
        end = 0
        for start, rows in cloud if isinstance(cloud, Iterator) else [(0, cloud)]:
            yield offset + start, rows
            end = max(end, start + len(rows))
        offset += end


def best_inner(ch: ChannelParams, grid: int = R1_GRID_DEFAULT,
               fast: bool = False) -> RateRegion:
    """Time-sharing hull of the union of every scheme.

    One envelope: every scheme's cloud streams into a single cull, Pareto
    filter and hull. TDMA leads, so its corner (cap(p1), 0), the
    largest r1 of any scheme, sets the cull's bin scale, and its two
    points seed both axis corners; then come A, B, C and D, and the big F
    sweep last but for E, so that it is culled against a populated front.
    Scheme F's beta = gamma = 0 face is scheme E's own sweep on a split
    grid holding E's, so E's rows join only where its phase fan adds rows
    the face lacks. With a real cross gain every rate kernel runs in
    float64. `fast` takes coarser split and lambda grids; otherwise `grid`
    is the number of matched splits of scheme B's split grid.
    """
    if fast:
        al = al_b = default_alpha_grid(ch, matched=257, uniform=245)
        n_lambda = 101
    else:
        al = default_alpha_grid(ch)
        al_b = default_alpha_grid(ch, matched=grid, uniform=257)
        n_lambda = 201
    f_grid = np.linspace(0.0, 1.0, 11)
    clouds = [_tdma_cloud(ch),
              _scheme_a_cloud(ch, al),
              _scheme_b_cloud(ch, al_b),
              _scheme_c_cloud(ch, al),
              _scheme_d_cloud(ch)[0],
              _scheme_f_cloud(ch, f_grid, f_grid, f_grid, 41, n_lambda)]
    if _phase_fan(ch):
        clouds.append(_scheme_e_cloud(ch, al, "sweep", n_lambda)[0])
    return from_pareto_points(_chain(clouds), Kind.INNER, region_id="best")
