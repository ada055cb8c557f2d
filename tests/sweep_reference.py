"""Loop form of the scheme-F lambda fans, the one-shot scheme-E sweep, the
plain scheme-D cloud and the hull's passes.

The loop form evaluates one lambda scale at a time, as the library did
before it broadcast the sweep. `scheme_e` builds the whole scheme-E cloud,
its params columns included, at once, as the library did before it
streamed the cloud one lambda fan at a time. The equivalence tests in test_sweeps.py
require the library to reproduce them bit for bit. `scheme_d_cloud` is
scheme D's cloud as one plain block, as the library built it before it
grouped the rows by correlation magnitude, and `upper_hull` the
hull's quickhull passes without their shortcut for concave chains; the
tests in test_inner.py and test_region.py hold the library to them, bit
for bit.

Like the library, they compute in float64 when the cross gain a is real
(a.imag == 0) and in complex128 otherwise; a Costa amplitude is the real
Costa fraction times the interferer amplitude.
"""

import math

import numpy as np

from gcifc import inner
from gcifc.region import from_pareto_points
from gcifc.util import alpha_of_r1, cap, pos, r1_grid


def _real_a(ch):
    return ch.a.real if ch.a.imag == 0.0 else ch.a


def _costa(a_pow, amp):
    """Costa's amplitude a_pow amp / (a_pow + 1), as the real fraction
    a_pow / (a_pow + 1) times amp."""
    return a_pow / (a_pow + 1.0) * amp


def _f_grid(ch, n):
    av, bv, gv = np.meshgrid(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n),
                             np.linspace(0.0, 1.0, n), indexing="ij")
    av, bv, gv = av.ravel(), bv.ravel(), gv.ravel()
    a_pow = av * ch.p1
    amp = np.sqrt(pos(1.0 - av) * pos(1.0 - gv) * ch.p1) \
        + _real_a(ch) * np.sqrt(pos(1.0 - bv) * ch.p2)
    return av, bv, gv, _costa(a_pow, amp)


def scheme_f(ch, n_lambda=41, face_lambda=201):
    """inner.scheme_f on its default split grid, one lambda scale a call."""
    av, bv, gv, w_c = _f_grid(ch, 11)
    scales = np.linspace(0.0, 2.0, n_lambda)
    if abs(ch.a.imag) > 1e-12:
        phases = np.exp(1j * np.linspace(-np.pi / 2, np.pi / 2, 5))
        scales = np.outer(scales, phases).ravel()
    chunks = []
    for t in scales:
        m1, ms, m2r = inner.scheme_f_rates(ch, av, bv, gv, t * w_c)
        r1a = np.minimum(m1, np.minimum(ms, m2r / 2.0))
        r2a = pos(np.minimum(ms - r1a, m2r - 2.0 * r1a))
        r1b = np.clip(m2r - ms, 0.0, r1a)
        r2b = pos(np.minimum(ms - r1b, m2r - 2.0 * r1b))
        r2c = pos(np.minimum(ms, m2r))
        chunks.append([np.concatenate([r1a, r1b, np.zeros_like(r2c)]),
                       np.concatenate([r2a, r2b, r2c])])
    # the beta = gamma = 0 face: scheme E at real scales of its own costa1
    # amplitude
    face = inner.default_alpha_grid(ch)
    a_pow = face * ch.p1
    u1, u2 = inner._scheme_e_amplitudes(ch, face)
    w = np.multiply.outer(np.linspace(0.0, 2.0, max(n_lambda, face_lambda)),
                          _costa(a_pow, u1))
    f1 = inner._f_mi(1.0, u1[None, :], 1.0, w, a_pow[None, :])
    f2 = inner._f_mi(ch.b, u2[None, :], 1.0, w, a_pow[None, :], clamp=False)
    ssum = cap(ch.b ** 2 * a_pow + np.abs(u2) ** 2)[None, :]
    chunks.append(inner._rect_sum_vertices(f1, pos(ssum - f2), ssum))
    # the beta = gamma = 1 face: scheme D on its own correlation grid, both
    # signs, with its phase fan for complex a
    am = alpha_of_r1(r1_grid(ch.p1, 513), ch.p1)
    rho = np.unique(np.concatenate([np.sqrt(1.0 - am),
                                    np.linspace(0.0, 1.0, 489)]))
    if abs(ch.a.imag) > 1e-12:
        rho = np.outer(rho, np.exp(1j * np.linspace(0.0, np.pi, 17))).ravel()
    r1d, sd = inner.scheme_d_rates(ch, np.concatenate([rho, -rho]))
    v1 = np.minimum(r1d, sd)
    chunks.append([v1, pos(sd - v1)])
    chunks.append([np.zeros_like(sd), pos(sd)])
    return from_pareto_points(np.concatenate(chunks, axis=1), region_id="f")


def scheme_e_cloud(ch, alpha_grid=None, lambda_policy="sweep", n_lambda=201):
    """inner.scheme_e's cloud as one block of every (scale, split) pair:
    columns r1, r2, alpha, lambda_re."""
    al = inner.default_alpha_grid(ch) if alpha_grid is None \
        else np.asarray(alpha_grid)
    a_pow = al * ch.p1
    u1, u2 = inner._scheme_e_amplitudes(ch, al)
    w_c1 = _costa(a_pow, u1)
    if lambda_policy == "costa1":
        w = w_c1[None, :]
    elif lambda_policy == "zero":
        w = np.zeros((1, al.size), dtype=w_c1.dtype)
    else:
        scales = np.linspace(0.0, 2.0, n_lambda)
        if abs(ch.a.imag) > 1e-12:
            phases = np.exp(1j * np.linspace(-np.pi / 2, np.pi / 2, 9))
            scales = np.outer(scales, phases).ravel()
        w = np.multiply.outer(scales, w_c1)
    f1 = inner._f_mi(1.0, u1[None, :], 1.0, w, a_pow[None, :])
    f2 = inner._f_mi(ch.b, u2[None, :], 1.0, w, a_pow[None, :], clamp=False)
    ssum = cap(ch.b ** 2 * a_pow + np.abs(u2) ** 2)[None, :]
    lam_re = np.where(ch.p2 > 0, np.real(w) / max(math.sqrt(ch.p2), 1e-300),
                      0.0)
    return inner._rect_sum_vertices(f1, pos(ssum - f2), ssum, al, lam_re)


def scheme_e(ch, alpha_grid=None, lambda_policy="sweep", n_lambda=201):
    """inner.scheme_e from `scheme_e_cloud`, its rows in (vertex, scale,
    split) order."""
    return from_pareto_points(
        scheme_e_cloud(ch, alpha_grid, lambda_policy, n_lambda),
        ("alpha", "lambda_re"), region_id=f"e:{lambda_policy}")


def scheme_d_cloud(ch):
    """Scheme D's cloud as one block, columns r1, r2, rho_re: every first
    vertex, then every second, over rho = +-base e^(i phi), base-major."""
    am = alpha_of_r1(r1_grid(ch.p1, 513), ch.p1)
    base = np.unique(np.concatenate([np.sqrt(1.0 - am),
                                     np.linspace(0.0, 1.0, 489)]))
    rho = np.concatenate([base, -base])
    if abs(ch.a.imag) > 1e-12:
        rho = np.outer(base, np.exp(1j * np.linspace(0.0, np.pi, 17))).ravel()
        rho = np.concatenate([rho, -rho])
    r1, s = inner.scheme_d_rates(ch, rho)
    return inner._rect_sum_vertices(r1, s, s, np.real(rho))


def upper_hull(x, y):
    """region._upper_hull by its quickhull passes alone."""
    n = x.size
    if n < 3:
        return np.arange(n)
    cross = ((x[1:-1] - x[:-2]) * (y[2:] - y[:-2])
             - (y[1:-1] - y[:-2]) * (x[2:] - x[:-2]))
    cand = np.flatnonzero(cross < 0.0) + 1
    verts = np.array([0, n - 1])
    while cand.size:
        seg = np.searchsorted(verts, cand) - 1
        a, b = verts[seg], verts[seg + 1]
        h = (y[cand] - y[a]) * (x[b] - x[a]) - (y[b] - y[a]) * (x[cand] - x[a])
        above = h > 0.0
        cand, seg, h = cand[above], seg[above], h[above]
        if not cand.size:
            break
        top = np.full(verts.size, -np.inf)
        np.maximum.at(top, seg, h)
        hit = np.flatnonzero(h == top[seg])
        first = hit[np.concatenate(([True], seg[hit[1:]] != seg[hit[:-1]]))]
        verts = np.sort(np.concatenate([verts, cand[first]]))
        rest = np.ones(cand.size, dtype=bool)
        rest[first] = False
        cand = cand[rest]
    return verts
