"""Achievable schemes as RateRegion constructors.

Every scheme is a Gaussian coding strategy whose rate bounds are exact
covariance determinant ratios, evaluated as vectorized closed forms in
Gram form (a sum of squared minors, which cannot cancel; conditioning on
X2 drops its source), so they need no clamps at any power. Schemes C and
E share one dirty-paper kernel, `_f_mi`; every scheme is cross-checked
against the suite's oracle, `tests/gaussmi.py`. Power-split parameters are
swept on grids whose r1 images are uniform (plus a uniform fill), so the
hull kept as each region has vertices all along its boundary.

Pre-coding coefficients are handled in "amplitude space": a coefficient
lambda on the primary signal enters only through w = lambda*sqrt(p2),
which stays finite for p2 = 0. When the cross gain a is real, the rate
kernels run in float64; complex128 is kept for complex a. Every closed
form reads the channel in noise units (`util.units`), the noise variance
n in place of each unit noise.

Each scheme of `best_inner` is a private point cloud (an array, D's
`GroupBlock`, or an iterator of blocks for the large E and F sweeps)
behind a public builder. `best_inner` streams A, B, C, F's faces, E's
phase fan where it applies and F's interior into one envelope: TDMA's
corners are rows of B, F's faces are D's cloud and E's real-scale sweep,
which holds the fan's phi = 0 ray.

D's cloud, F's interior fans and all of E's rows (its sweep, its fixed
coefficients and F's beta = gamma = 0 face) reach the envelope as
`GroupBlock`s: groups of rows, each with w-free caps on its rows' r1 and
sum rate, so the kernel never evaluates a group whose polygon the front
already dominates. D groups by |rho|, F by split triple (Costa's bound,
output variances), E's one kernel by phase ray, run of 8 scales and
split (its r1 bound at the run's point nearest the Costa vertex t =
cos(phi)).
"""

from __future__ import annotations

import itertools
import math
from functools import partial

import numpy as np

from .channel import ChannelParams
from .region import (R1_GRID_DEFAULT, GroupBlock, RateRegion,
                     from_pareto_points)
from .region import union  # noqa: F401 (perfbench's tracer test reads it)
from .util import alpha_of_r1, cap, coop_sum_cap, pos, r1_grid, units

# test-channel noise variances (sigma1^2, sigma2^2) of the binning schemes
_SIGMA_PAIRS = ((1.0, 0.0), (1.0, 1.0))


def _real_a(ch: ChannelParams):
    """The cross gain as a float when it is real, so the rate kernels run
    in float64 (real division is also correctly rounded, complex is not),
    and as a complex otherwise."""
    return ch.a.real if ch.a.imag == 0.0 else ch.a


def _f_mi(c1, u2, sigma_sq, w, a_pow, su_sq=0.0, clamp: bool = True,
          var_s=None, noise=None):
    """I(S; U) - I(U; Xi) in bits, S = c1 X + u2 Xi + sigma Z and
    U = X + w Xi + su Zu, with var(X) = a_pow and unit Xi, Z, Zu.

    Amplitude space: u2 and w are the interferer and pre-coding
    coefficients times sqrt(p2). In Gram form the value is
    log2(var(S) V / G), V = Var(U | Xi) = a_pow + su^2 and
    G = a_pow |c1 w - u2|^2 + sigma^2 (a_pow + |w|^2) + su^2 var(S); G is
    divided by V term by term, so nothing overflows; as (a_pow + |w|^2) / V
    and var(S) / G can pass the double range, sigma^2 multiplies first
    (G >= sigma^2); with su = 0 the factors a_pow / V = 1 and su^2 / V = 0
    are left out. E's bounds pass var(S) and G's w term (`_f_noise`)
    precomputed. V = 0 gives 0. With clamp the difference is floored at
    zero, matching the rate interpretation.
    """
    a_pow = np.asarray(a_pow, dtype=float)
    if var_s is None:
        var_s = np.abs(c1) ** 2 * a_pow + np.abs(u2) ** 2 + sigma_sq
    v = a_pow + su_sq
    noise = _f_noise(sigma_sq, w, a_pow, v) if noise is None else noise
    s = sigma_sq or 1.0  # a noiseless S leaves the ratio unscaled
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.abs(c1 * w - u2) ** 2
        g = a_pow / v * g + noise + su_sq / v * var_s if su_sq else g + noise
        val = np.where(v == 0.0, 0.0, np.log2(var_s * s / g) - np.log2(s))
    return pos(val) if clamp else val


def _f_noise(sigma_sq, w, a_pow, v):
    """The term sigma^2 (a_pow + |w|^2) / V of `_f_mi`'s G."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return sigma_sq * (a_pow + np.abs(w) ** 2) / v


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


def _rect_sum_vertices(m1, m2, ms, *params):
    """Pareto vertices of {r1 <= m1, r2 <= m2, r1 + r2 <= ms}, vectorized:
    a block of columns (r1, r2, *params), every box's first vertex, then
    every box's second."""
    m1, m2, ms, *params = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (m1, m2, ms, *params)))
    out = np.empty((2 + len(params), 2) + m1.shape)
    np.minimum(m1, ms, out=out[0, 0])
    np.minimum(m1, pos(ms - m2), out=out[0, 1])
    np.maximum(np.minimum(m2, ms - out[0]), 0.0, out=out[1])  # pos
    for row, v in zip(out[2:], params):
        row[:] = v  # at both vertices
    return out.reshape(out.shape[0], -1)


# -- scheme A: primary silent, cognitive broadcasts both messages ------------

def _scheme_a_cloud(ch: ChannelParams, al):
    abar = 1.0 - al
    u = units(ch)
    if ch.b <= 1.0:
        r1 = u.cap(al * u.p1)
        r2 = cap(abar * ch.b ** 2 * u.p1 / (u.n + al * ch.b ** 2 * u.p1))
    else:
        r1 = cap(abar * u.p1 / (u.n + al * u.p1))
        r2 = u.cap(al * ch.b ** 2 * u.p1)
    return np.stack([r1, r2, al])


def scheme_a(ch: ChannelParams, alpha_grid=None) -> RateRegion:
    """Degraded-broadcast strategy with the primary transmitter silent."""
    al = default_alpha_grid(ch) if alpha_grid is None else np.asarray(alpha_grid)
    return from_pareto_points(_scheme_a_cloud(ch, al), ("alpha",),
                              region_id="a")


# -- scheme B: private messages, perfect pre-coding at the cognitive side ----

def scheme_b_rates(ch: ChannelParams, alpha):
    """Corner (r1, r2) of the private/pre-coded strategy at each split."""
    al = np.asarray(alpha, dtype=float)
    abar = 1.0 - al
    u = units(ch)
    b2p1 = ch.b ** 2 * u.p1
    cross = 2.0 * np.sqrt(abar * b2p1 * u.p2)
    r1 = u.cap(al * u.p1)
    r2 = pos(u.cap(b2p1 + u.p2 + cross) - u.cap(ch.b ** 2 * al * u.p1))
    return r1, r2


def _scheme_b_cloud(ch: ChannelParams, al):
    return np.stack([*scheme_b_rates(ch, al), al])


def scheme_b(ch: ChannelParams, alpha_grid=None) -> RateRegion:
    """Interference-as-noise at the primary receiver, capacity for b <= 1.
    The default split grid matches R1_GRID_DEFAULT uniform r1 nodes."""
    al = default_alpha_grid(ch, matched=R1_GRID_DEFAULT, uniform=257) \
        if alpha_grid is None else np.asarray(alpha_grid)
    return from_pareto_points(_scheme_b_cloud(ch, al), ("alpha",),
                              region_id="b")


# -- scheme D: both messages common (compound multiple access) ---------------

def scheme_d_rates(ch: ChannelParams, rho):
    """(r1 cap, sum cap) of the all-common strategy at each correlation."""
    rho = np.asarray(rho, dtype=complex)
    return _scheme_d_bounds(ch, np.clip(np.abs(rho) ** 2, 0.0, 1.0),
                            np.real(np.conj(ch.a) * rho), np.real(rho))


def _scheme_d_bounds(ch: ChannelParams, rsq, cross1, cross2):
    """`scheme_d_rates` from |rho|^2, Re(conj(a) rho) and Re(rho)."""
    u = units(ch)
    sp = math.sqrt(u.p1 * u.p2)
    r1 = np.minimum(u.cap((1.0 - rsq) * u.p1),
                    u.cap((1.0 - rsq) * ch.b ** 2 * u.p1))
    s1 = u.cap(u.p1 + abs(ch.a) ** 2 * u.p2 + 2.0 * cross1 * sp)
    s2 = u.cap(ch.b ** 2 * u.p1 + u.p2 + 2.0 * ch.b * cross2 * sp)
    return r1, np.minimum(s1, s2)


def _scheme_d_cloud(ch: ChannelParams):
    """The cloud as a `GroupBlock`, a group per |rho| = base (rho = +-base
    e^(i phi) over the phase fan), each row with its Re(rho); all groups
    give the plain cloud's rows, in its order. The caps are D's bounds at
    |rho|^2 = base^2 (1 - 16 eps) and Re(rho) = |rho| = Re(conj(a) rho) /
    |a| = base (1 + 16 eps): a row's rho rounds to within a few ulps of
    base in magnitude, and each later step rounds monotonically, so they
    bound each row as computed (at plain base, rows passed their r1 cap by
    more than the envelope's margin from p = 1e8, by up to a bit)."""
    am = alpha_of_r1(r1_grid(ch.p1, 513), ch.p1)
    base = np.unique(np.concatenate([np.sqrt(1.0 - am),
                                     np.linspace(0.0, 1.0, 489)]))
    fan = np.exp(1j * np.linspace(0.0, np.pi, 17)) if _phase_fan(ch) \
        else np.ones(1)

    def rows(keep, width):
        rho = np.outer(base[keep], fan).ravel()
        rho = np.concatenate([rho, -rho])
        r1, s = scheme_d_rates(ch, rho)
        params = (np.real(rho),) if width > 2 else ()
        return _rect_sum_vertices(r1, s, s, *params)

    wide = 16.0 * np.finfo(float).eps
    mag = base * (1.0 + wide)
    return GroupBlock(rows, *_scheme_d_bounds(
        ch, base ** 2 * (1.0 - wide), abs(ch.a) * mag, mag))


def scheme_d(ch: ChannelParams) -> RateRegion:
    """Superposition strategy: both receivers decode both messages."""
    return from_pareto_points(iter([_scheme_d_cloud(ch)]), ("rho_re",),
                              region_id="d")


# -- scheme E: common cognitive message pre-coded against the primary --------

def _scheme_e_amplitudes(ch: ChannelParams, alpha):
    """Interferer amplitudes seen by the two pre-coding rate terms."""
    abar = pos(1.0 - np.asarray(alpha, dtype=float))
    u = units(ch)
    coop = np.sqrt(abar * u.p1)
    u1 = _real_a(ch) * math.sqrt(u.p2) + coop
    u2 = math.sqrt(u.p2) + ch.b * coop
    return u1, u2


def _scheme_e_terms(ch: ChannelParams, a_pow, u1, u2):
    """Scheme E's w-free terms per split: its bounds' var(S), its sum bound."""
    u = units(ch)
    s2 = ch.b ** 2 * a_pow + np.abs(u2) ** 2
    return a_pow + np.abs(u1) ** 2 + u.n, s2 + u.n, u.cap(s2)


def _scheme_e_bounds(ch: ChannelParams, a_pow, u1, u2, w, terms=None):
    """(r1 bound, r2 bound, sum bound) of the pre-coded common strategy in
    amplitude space: the common power a_pow, the interferer amplitudes
    u1, u2 of `_scheme_e_amplitudes` and the pre-coding amplitude w. The
    `_scheme_e_terms` of the splits may come precomputed."""
    u = units(ch)
    var1, var2, ssum = terms or _scheme_e_terms(ch, a_pow, u1, u2)
    noise = _f_noise(u.n, w, a_pow, a_pow)  # V = a_pow: E's U has no noise
    f1 = _f_mi(1.0, u1, u.n, w, a_pow, var_s=var1, noise=noise)
    f2 = _f_mi(ch.b, u2, u.n, w, a_pow, clamp=False, var_s=var2, noise=noise)
    return f1, pos(ssum - f2), ssum


def scheme_e_rates(ch: ChannelParams, alpha, lam):
    """(r1 bound, r2 bound, sum bound) of the pre-coded common strategy."""
    al = np.asarray(alpha, dtype=float)
    u = units(ch)
    u1, u2 = _scheme_e_amplitudes(ch, al)
    return _scheme_e_bounds(ch, al * u.p1, u1, u2,
                            np.asarray(lam) * math.sqrt(u.p2))


def _phase_fan(ch: ChannelParams) -> bool:
    """Whether the pre-coding sweeps add phases: a visibly complex a."""
    return abs(ch.a.imag) > 1e-12


# consecutive pre-coding scales per group of E's sweep; its fan's phases
_E_RUN = 8
_E_PHASES = np.exp(1j * np.linspace(-np.pi / 2, np.pi / 2, 9))


def _scheme_e_cloud(ch: ChannelParams, al, lambda_policy: str,
                    n_lambda: int):
    """The cloud as the `GroupBlock`s of `_scheme_e_blocks`. A fixed
    coefficient is the one scale 1.0 on the one ray phi = 0 of its base
    amplitude: costa1's, or zeros (1.0 * +0.0 keeps lambda_re at +0.0; a
    scale of 0.0 on costa1 could give -0.0)."""
    base = _scheme_e_costa1(ch, al)
    lin = phases = np.ones(1)
    if lambda_policy == "zero":
        base = np.zeros_like(base)
    elif lambda_policy == "sweep":
        lin = np.linspace(0.0, 2.0, n_lambda)
        if _phase_fan(ch):
            phases = _E_PHASES
    elif lambda_policy != "costa1":
        raise ValueError(f"unknown lambda policy {lambda_policy!r}")
    return _scheme_e_blocks(ch, al, base, lin, phases)


def _costa(a_pow, amp, n):
    """Costa's amplitude a_pow amp / (a_pow + n), as the real fraction
    a_pow / (a_pow + n) times amp (each part of a complex amp as a real
    number; numpy would divide by a reciprocal). Past an SNR of 2^53 the
    fraction is 1, so c1 w - amp in `_f_mi` is exact; the quotient
    a_pow amp / (a_pow + n) is 1 ulp off amp on some splits at SNRs of
    1e100 and more, where E's r1 bound read hundreds of bits low and its
    r2 bound hundreds of bits above its exact value."""
    return a_pow / (a_pow + n) * amp


def _scheme_e_costa1(ch: ChannelParams, al):
    """The costa1 amplitude per split, Costa's a_pow u1 / (a_pow + n)."""
    u = units(ch)
    return _costa(al * u.p1, _scheme_e_amplitudes(ch, al)[0], u.n)


def costa_lambdas(ch: ChannelParams, alpha):
    """Scheme E's Costa coefficients lambda = w / sqrt(p2) per split:
    costa1 maximizes the r1 bound (`_scheme_e_costa1`); costa2, Costa's
    amplitude of u2 at the power b^2 alpha p1 over b, minimizes the r2
    bound. Both are 0 where p2 reads 0 in noise units (`_scheme_e_blocks`),
    costa2 also where b = 0, where the r2 bound is least at w = 0."""
    al = np.asarray(alpha, dtype=float)
    u = units(ch)
    sp2 = math.sqrt(u.p2) or math.inf  # a finite amplitude over inf is 0
    u2 = _scheme_e_amplitudes(ch, al)[1]
    return (_scheme_e_costa1(ch, al) / sp2,
            _costa(ch.b ** 2 * al * u.p1, u2, u.n) / (ch.b or math.inf) / sp2)


def _scheme_e_blocks(ch: ChannelParams, al, base, lin, phases,
                     peak_first: bool = False):
    """Scheme E's rows at w = t e^(i phi) base over the scales t of `lin`,
    the `phases` e^(i phi) and the per-split `base` amplitudes, as
    `GroupBlock`s of one group per phase ray, run of _E_RUN consecutive
    scales (the last run may be shorter) and split: the first ray's runs
    up to the one holding its peak (with `peak_first`, that one alone and
    then the runs before it), the rest of them, each other ray's whole
    runs, then every ray's tail run; rays by falling cos(phi). Where the
    envelope keeps params, a row carries the split's alpha and lambda_re
    = Re(w) / sqrt(p2) (0 where p2 = 0), from the w it is evaluated at.

    The caps are the w-free sum bound ssum = cap(b^2 alpha p1 + |u2|^2),
    which bounds r1, r2 and r1 + r2 at both vertices, and the largest r1
    bound f1 on the group's segment. For the costa1 base w_c1, f1 =
    log2(Var(S) / G(t)), with G(t) = |w - u1|^2 + n + n |w|^2 / (alpha p1)
    a convex quadratic in t, least at t = cos(phi) because w_c1 = alpha p1
    u1 / (alpha p1 + n) is Costa's coefficient: so f1 peaks at cos(phi)
    clipped to the run, where the cap evaluates the kernel (at phi = 0 and
    t = 1 it is Costa's cap(alpha p1)). With alpha p1 = 0, f1 = 0 on the
    whole ray. A run of one scale clips the peak to that scale, so its cap
    is its row's own f1 whatever the base amplitude: a fixed coefficient
    (`lin` = `phases` = [1.0]) has exact caps.
    """
    n_split, n_phase = al.size, phases.size
    scales = np.outer(lin, phases).ravel()
    u = units(ch)
    sp2 = math.sqrt(u.p2)
    a_pow = al * u.p1
    u1, u2 = _scheme_e_amplitudes(ch, al)
    terms = _scheme_e_terms(ch, a_pow, u1, u2)
    rays = np.argsort(-phases.real, kind="stable")
    full, tail = divmod(lin.size, _E_RUN)
    # blocks as (rays, first scale, run length, runs), from (first, end) runs
    cut = min(np.searchsorted(lin, phases[rays[0]].real) // _E_RUN + 1, full)
    head = [(cut - 1, cut), (0, cut - 1)] if peak_first and cut else [(0, cut)]
    specs = [(rays[:1], i * _E_RUN, _E_RUN, j - i)
             for i, j in head + [(cut, full)]]
    specs += [(rays[i:i + 1], 0, _E_RUN, full) for i in range(1, n_phase)]
    specs.append((rays, full * _E_RUN, tail, 1))

    def rows(ray, lo, size, runs, keep, width):
        r, run, j = np.unravel_index(keep, (ray.size, runs, n_split))
        s = (lo + run * size + np.arange(size)[:, None]) * n_phase + ray[r]
        w = scales[s] * base[j]
        cols = _scheme_e_bounds(ch, a_pow[j], u1[j], u2[j], w,
                                [t[j] for t in terms])
        if width > 2:
            cols += (al[j], np.real(w) / sp2 if sp2 else np.zeros(w.shape))
        return _rect_sum_vertices(*cols)

    for ray, lo, size, runs in specs:
        if size * runs == 0:
            continue
        t_lo = lo + size * np.arange(runs)
        # a clipped peak is a row's own scale: the cap is that row's f1
        peak = np.clip(phases[ray, None].real, lin[t_lo], lin[t_lo + size - 1])
        w = np.multiply.outer(peak * phases[ray, None], base)
        yield GroupBlock(partial(rows, ray, lo, size, runs),
                         _f_mi(1.0, u1, u.n, w, a_pow).ravel(),
                         np.tile(terms[2], ray.size * runs))


def scheme_e(ch: ChannelParams, alpha_grid=None,
             lambda_policy: str = "sweep", n_lambda: int = 201) -> RateRegion:
    """Pre-coded common-message strategy.

    lambda_policy: "costa1" pins the r1-maximizing coefficient, "zero"
    disables pre-coding, "sweep" unions scaled multiples of the costa1
    coefficient in [0, 2] (plus a phase fan for complex channels).
    """
    al = default_alpha_grid(ch) if alpha_grid is None else np.asarray(alpha_grid)
    return from_pareto_points(_scheme_e_cloud(ch, al, lambda_policy, n_lambda),
                              ("alpha", "lambda_re"),
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

    c1/c2 are the auxiliary mixing coefficients (arrays broadcast against
    alpha); None reproduces the channel-matched choice (c1=a, c2=b). The test-channel noise
    correlation is set to its penalty-minimizing value internally.

    The r1 bound and the sum bound's dirty-paper part are `_f_mi` with
    U1's noise s1. Given X2 only X (variance a = alpha p1) and the noises
    remain, so Var(Y2 | U2, X2) = 1 + b^2 a s2 / d2 and Var(U1 | U2, X2) =
    [a (s2 + s1 c2^2 + 2 |c2| m) + (r - m)(r + m)] / d2, d2 = c2^2 a + s2,
    r = sqrt(s1 s2), m = |E[N1 N2*]|. The test-channel noises are in
    noise units too; noise-level products are divided by n first.
    """
    al = np.asarray(alpha, dtype=float)
    u = units(ch)
    a_pow = al * u.p1
    q = np.sqrt(pos(1.0 - al) * u.p1) if ch.p2 > 0 else np.zeros_like(al)
    sp2 = math.sqrt(u.p2)
    a = _real_a(ch)
    c1 = np.asarray(a if c1 is None else c1)
    if np.iscomplexobj(a):
        c1 = c1.astype(complex)
    c2 = np.asarray(ch.b if c2 is None else c2, dtype=float)
    s1, s2 = float(sigma1_sq) * u.n, float(sigma2_sq) * u.n

    # I(Y1; U1) - I(U1; X2)
    f1 = _f_mi(1.0, q + a * sp2, u.n, q + c1 * sp2, a_pow, s1, clamp=False)

    var_y2 = ch.b ** 2 * a_pow + np.abs(ch.b * q + sp2) ** 2 + u.n
    d1, d2 = a_pow + s1, c2 ** 2 * a_pow + s2  # Var(U1 | X2), Var(U2 | X2)
    cv_y2 = u.n + ch.b ** 2 * a_pow * _quot(s2, d2, 1.0)
    m2 = pos(np.log2(var_y2) - np.log2(cv_y2))

    r = math.sqrt(float(sigma1_sq) * float(sigma2_sq)) * u.n
    m = np.minimum(r, np.abs(c2) * a_pow)
    cv_u1 = _quot(a_pow * ((s2 + s1 * c2 ** 2 + 2.0 * np.abs(c2) * m) / u.n)
                  + (r - m) / u.n * (r + m), d2, d1 / u.n) * u.n
    # m2 + I(Y1; U1) - I(U1; X2) - I(U1; U2 | X2)
    ms = pos(m2 + f1 + np.log2(_quot(cv_u1, d1, 1.0)))
    return pos(f1), m2, ms


def _scheme_c_cloud(ch: ChannelParams, al, sigma_pairs=_SIGMA_PAIRS):
    return np.concatenate([
        _rect_sum_vertices(*scheme_c_rates(ch, al, s1, s2), al)
        for s1, s2 in sigma_pairs], axis=1)


def scheme_c(ch: ChannelParams, alpha_grid=None,
             sigma_pairs=_SIGMA_PAIRS) -> RateRegion:
    """Double-binning strategy on the channel-matched auxiliaries."""
    al = default_alpha_grid(ch) if alpha_grid is None else np.asarray(alpha_grid)
    return from_pareto_points(_scheme_c_cloud(ch, al, sigma_pairs),
                              ("alpha",), region_id="c")


def scheme_c46(ch: ChannelParams) -> RateRegion:
    """Double-binning strategy with tuned auxiliary mixing coefficients."""
    al = default_alpha_grid(ch, matched=129, uniform=101)
    # nine mixing coefficients around each channel-matched one (c1 = a, c2 = b)
    offs = np.linspace(-1.0, 1.0, 9)
    c1 = (ch.a.real + offs * max(1.0, abs(ch.a)))[:, None, None]
    c2 = (ch.b + offs * max(1.0, ch.b))[None, :, None]
    pts = np.concatenate([
        _rect_sum_vertices(*scheme_c_rates(ch, al, s1, s2, c1=c1, c2=c2))
        for s1, s2 in _SIGMA_PAIRS], axis=1)
    return from_pareto_points(pts, region_id="c46")


# -- scheme F: rate-split unification of D and E -----------------------------

def _scheme_f_triples(al, be, ga):
    """F's split triples, flat in meshgrid order, with one gamma (the first)
    at alpha >= 1: with no power left to split, every gamma gives the same
    `_scheme_f_split` terms there, bit for bit."""
    av, bv, gv = (v.ravel() for v in np.meshgrid(al, be, ga, indexing="ij"))
    keep = (av < 1.0) | (gv == gv[:1])
    return av[keep], bv[keep], gv[keep]


def _scheme_f_split(ch: ChannelParams, alpha, beta, gamma):
    """Scheme F's pre-coding-free terms per split: alpha p1, y1p, y2p (the
    gains on the private primary atom), Var(Y1 | V2c), Var(Y2 | V2c), where
    X2 has private power, log2 Var(Y1) and the sum bound m29c."""
    al = np.asarray(alpha, dtype=float)
    be = np.asarray(beta, dtype=float)
    ga = np.asarray(gamma, dtype=float)
    (p1, p2, n, _), a, b = units(ch), _real_a(ch), ch.b

    x2_c = np.sqrt(be * p2)
    x2_pa = np.sqrt(pos(1.0 - be) * p2)
    x1_2c = np.sqrt(pos(1.0 - al) * ga * p1)
    x1_pa = np.sqrt(pos(1.0 - al) * pos(1.0 - ga) * p1)
    a_pow = al * p1
    y1c, y1p = x1_2c + a * x2_c, x1_pa + a * x2_pa
    y2c, y2p = b * x1_2c + x2_c, b * x1_pa + x2_pa

    v_y1 = np.abs(y1p) ** 2 + a_pow + n  # Var(Y1 | V2c)
    v_y2 = np.abs(y2p) ** 2 + b ** 2 * a_pow + n
    priv = x2_pa > 0.0
    # conditioning on {u2c, x2, x1c} leaves the private atom unless X2 has it
    m29c = np.log2(np.abs(y2c) ** 2 + v_y2) \
        - np.log2(np.where(priv, n, np.abs(y2p) ** 2 + n))
    return (a_pow, y1p, y2p, v_y1, v_y2, priv,
            np.log2(np.abs(y1c) ** 2 + v_y1), m29c)


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
    return _scheme_f_bounds(ch, _scheme_f_split(ch, alpha, beta, gamma),
                            np.asarray(w) * math.sqrt(units(ch).n))


def _scheme_f_bounds(ch: ChannelParams, split, w):
    """`scheme_f_rates` on the terms of `_scheme_f_split`."""
    a_pow, y1p, y2p, v_y1, v_y2, priv, l_y1, m29c = split
    n = units(ch).n
    # t = 1 where U1 = 0: it conditions nothing
    t = _quot(a_pow, np.abs(w) ** 2 + a_pow, 1.0)
    cv_y1 = n + np.abs(y1p - w) ** 2 * t  # Var(Y1 | U1, V2c)
    cv_y2 = n + np.abs(y2p - ch.b * w) ** 2 * t
    cv_y2x2 = np.where(priv, n, cv_y2)  # Var(Y2 | U1, X2, V2c)

    with np.errstate(divide="ignore"):  # t = 0: X2 determines U1
        i_u1x2 = np.where(priv, -np.log2(t), 0.0)
    l_cv_y1, l_cv_y2x2 = np.log2(cv_y1), np.log2(cv_y2x2)
    m29a = pos(np.log2(v_y1) - l_cv_y1 - i_u1x2)
    m29b = pos(np.log2(v_y2) - l_cv_y2x2)
    i_y1_u1u2c = l_y1 - l_cv_y1
    m29d = pos(np.log2(cv_y2) - l_cv_y2x2) + i_y1_u1u2c
    m29e = pos(m29b + i_y1_u1u2c - i_u1x2)

    return np.minimum(m29a, m29b), np.minimum(m29c, m29d), m29e


def _scheme_f_vertices(ch: ChannelParams, split, w):
    """The split strategy's interior Pareto vertices at the (scales,
    splits) amplitudes w, as columns: the first vertex at every (scale,
    split), then the second, then per split its third vertex (0, r2c) at
    its largest finite r2c, the only one on the front."""
    m1, ms, m2r = _scheme_f_bounds(ch, split, w)
    r1a = np.minimum(m1, np.minimum(ms, m2r / 2.0))
    r2a = pos(np.minimum(ms - r1a, m2r - 2.0 * r1a))
    r1b = np.clip(m2r - ms, 0.0, r1a)
    r2b = pos(np.minimum(ms - r1b, m2r - 2.0 * r1b))
    r2c = pos(np.minimum(ms, m2r))
    r2c = r2c.max(axis=0, initial=-np.inf, where=np.isfinite(r2c))
    return np.concatenate([np.reshape([r1a, r2a], (2, -1)),
                           np.reshape([r1b, r2b], (2, -1)),
                           [np.zeros_like(r2c), r2c]], axis=1)


def _scheme_f_cloud(ch: ChannelParams, al, be, ga, n_lambda: int,
                    face_lambda: int, between=()):
    """The cloud as blocks: the faces, so that the interior meets a front,
    the blocks `between`, then a `GroupBlock` per phase's pre-coding fan,
    by falling cos(phi), one group per distinct split triple
    (`_scheme_f_triples`), with w-free caps:
    m29c >= ms >= r1 + r2 at every vertex, and r1 <= min(m29a, m29b).
    m29b <= log2 Var(Y2 | V2c), and so is m29a <= log2 Var(Y1 | V2c)
    where X2 has no private power: conditional variances are >= the noise
    (n in noise units, whose log2 is -2k). Where it has, m29a = I(U1; Y1 |
    V2c) - I(U1; X2 | V2c) <= I(X1c; Y1 | X2, V2c) = cap(alpha p1),
    Costa's dirty-paper bound (IEEE Trans. IT, 1983), with equality at the
    Costa coefficient. The faces: beta = gamma = 1 with no pre-coding is
    scheme D, streamed as D's own grouped cloud (either sign of rho, all
    achievable); beta = gamma = 0 is scheme E, as E's grouped blocks on
    its split grid at real scales of its costa1 amplitude, peak first."""
    u = units(ch)
    split = _scheme_f_split(ch, *_scheme_f_triples(al, be, ga))
    a_pow, y1p, _, v_y1, v_y2, priv, _, m29c = split
    # Costa's amplitude for y1p, the interference u1c sees at y1 given v2c
    w_c = _costa(a_pow, y1p, u.n)
    r1_cap = np.minimum(np.where(priv, u.cap(a_pow), np.log2(v_y1) + u.k2),
                        np.log2(v_y2) + u.k2)

    fans = np.linspace(0.0, 2.0, n_lambda)[None]
    if _phase_fan(ch):
        phases = np.exp(1j * np.linspace(-np.pi / 2, np.pi / 2, 5))
        fans = np.outer(fans, phases[[2, 1, 3, 0, 4]]).T  # falling cos

    def rows(fan, keep, width):
        return _scheme_f_vertices(ch, [v[keep] for v in split],
                                  np.multiply.outer(fan, w_c[keep]))

    yield _scheme_d_cloud(ch)
    face = default_alpha_grid(ch)
    lin = np.linspace(0.0, 2.0, max(n_lambda, face_lambda))
    yield from _scheme_e_blocks(ch, face, _scheme_e_costa1(ch, face), lin,
                                np.ones(1), peak_first=True)
    yield from between
    # one fan per block: temporaries under the 4 MB huge-page cut
    for fan in fans:
        yield GroupBlock(partial(rows, fan), r1_cap, m29c)


def scheme_f(ch: ChannelParams, alpha_grid=None, beta_grid=None,
             gamma_grid=None, n_lambda: int = 41,
             face_lambda: int = 201) -> RateRegion:
    """Split strategy unioning the common-common and pre-coded structures.

    On the split boundaries the strategy collapses exactly to the
    all-common scheme D (beta = gamma = 1, no pre-coding) and to the
    pre-coded common scheme E (beta = gamma = 0), so those two faces are
    always swept densely alongside the interior grid: D's own cloud (so
    this region holds `scheme_d`'s), and E's sweep at `face_lambda` scales.
    """
    al, be, ga = (np.linspace(0.0, 1.0, 11) if g is None else np.asarray(g)
                  for g in (alpha_grid, beta_grid, gamma_grid))
    return from_pareto_points(
        _scheme_f_cloud(ch, al, be, ga, n_lambda, face_lambda), region_id="f")


# -- time sharing and aggregates ---------------------------------------------

def tdma_inner(ch: ChannelParams) -> RateRegion:
    """Chord between the solo cognitive point and the beamforming point."""
    u = units(ch)
    return from_pareto_points(
        np.array([[float(u.cap(u.p1)), 0.0], [0.0, coop_sum_cap(ch)]]),
        region_id="tdma")


def best_inner(ch: ChannelParams, grid=None, fast=None) -> RateRegion:
    """Time-sharing hull of the union of every scheme, each streamed once.

    One envelope: the clouds of A, B and C on one split grid (257 matched
    r1 nodes plus 245 fill), F's faces, E's phase fan where it applies and
    F's interior stream into one cull, Pareto filter and hull. A leads:
    its largest r1, cap(p1), which no scheme exceeds, sets the bin scale.
    F's faces, D's cloud and E's sweep at 101 real scales from the run
    holding t = 1, form the front early; then come F's 1,221 distinct
    split triples (of 11^3) by 41 pre-coding scales. The kernel skips
    every group whose polygon the front already dominates. `grid` and
    `fast` are accepted and ignored.

    Left out, as inside this hull: TDMA, whose corners are B's rows at
    alpha = 1 (r1 = cap(p1), the same expression) and alpha = 0 (r2 =
    cap(b^2 p1 + p2 + 2 sqrt(b^2 p1 p2)), the cooperative sum rate within
    2 ulps); D, F's beta = gamma = 1 face; E without a phase fan, F's
    beta = gamma = 0 face, and the fan's phi = 0 ray, whose rows are, bit
    for bit, rows of that face (E's 502 splits lie in F's 1,002, at the
    same 101 scales). Kept, as neither maps into F's parameters, and
    each binding (drop-one support at 4,001 slopes): A, which silences
    the primary transmitter that F keeps at full power (0.687 bits at
    (0, 3, 1e160, 1)), and C, which bins (0.177 bits at (0.5, 0.5, 1e300,
    1e300)). E's phase fan stays on the 502 splits: as F's face, on F's
    1,002, it costs 8-10% of a complex channel's time, and the whole face
    on 502 splits loses up to 1.4e-3 bits at (0.5, 1.5, 1e300, 1e300).
    """
    al = default_alpha_grid(ch, matched=257, uniform=245)
    f_grid = np.linspace(0.0, 1.0, 11)
    e_fan = _scheme_e_blocks(ch, al, _scheme_e_costa1(ch, al),
                             np.linspace(0.0, 2.0, 101),
                             _E_PHASES[_E_PHASES.imag != 0.0],
                             peak_first=True) if _phase_fan(ch) else ()
    clouds = itertools.chain(
        [_scheme_a_cloud(ch, al), _scheme_b_cloud(ch, al),
         _scheme_c_cloud(ch, al)],
        _scheme_f_cloud(ch, f_grid, f_grid, f_grid, 41, 101, e_fan))
    return from_pareto_points(clouds, region_id="best")
