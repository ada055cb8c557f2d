"""Loop forms of the bc-pr coarse sweep and of the scheme-F lambda fans,
and the one-shot scheme-E sweep.

The loop forms evaluate one phase pair, or one lambda scale, at a time,
as the library did before it broadcast both sweeps. `scheme_e` builds the
whole scheme-E cloud and its params arrays at once, as the library did
before it streamed the cloud one lambda fan at a time. The equivalence
tests in test_sweeps.py require the library to reproduce them bit for bit.

Like the library, they compute in float64 when the cross gain a is real
(a.imag == 0) and in complex128 otherwise.

`_decimate` and `_bin_incumbents` are frozen one-shot copies of the bc-pr
reducers, so the references do not follow later changes to the library's
streamed reducer. `_decimate` keeps, of the points at the largest r1,
the one with the largest r2 (the first on ties).
"""

import math

import numpy as np

from gcifc import inner, outer
from gcifc.region import (ALPHA_GRID_DEFAULT, R1_GRID_DEFAULT, Kind,
                          from_pareto_points)
from gcifc.util import cap, pos


def dpc_points(ch, b1, b2):
    """Both precoding orders of 1-D covariance splits, order-major."""
    s1r1, s1r2 = outer._recv_powers(ch, *b1)
    s2r1, s2r2 = outer._recv_powers(ch, *b2)
    r1_o1 = cap(s1r1)
    r2_o1 = cap(s2r2 / (1.0 + s1r2))
    r1_o2 = cap(s1r1 / (1.0 + s2r1))
    r2_o2 = cap(s2r2)
    return np.stack([np.concatenate([r1_o1, r1_o2]),
                     np.concatenate([r2_o1, r2_o2])], axis=1)


def split_grids(ch, n, phases):
    """Per phase pair: both shares and the (a1, a2, q1, q2) meshgrid."""
    t = np.linspace(0.0, 1.0, n)
    rho = np.linspace(-1.0, 1.0, n)
    a1, a2, q1, q2 = np.meshgrid(t, t, rho, rho, indexing="ij")
    a1, a2, q1, q2 = (v.ravel() for v in (a1, a2, q1, q2))
    if ch.a.imag == 0.0 and phases == (0.0,):
        rots = (1.0,)
    else:
        rots = tuple(np.exp(1j * ph) for ph in phases)
    s1 = np.sqrt(a1 * ch.p1 * a2 * ch.p2)
    s2 = np.sqrt((1 - a1) * ch.p1 * (1 - a2) * ch.p2)
    b1c = (a1 * ch.p1, a2 * ch.p2)
    b2c = ((1 - a1) * ch.p1, (1 - a2) * ch.p2)
    out = []
    for rot1 in rots:
        for rot2 in rots:
            r1c, r2c = q1 * rot1, q2 * rot2
            b1 = (b1c[0], r1c * s1, b1c[1])
            b2 = (b2c[0], r2c * s2, b2c[1])
            out.append((b1, b2, (a1, a2, r1c, r2c)))
    return out


def coarse_sweep(ch, coarse=21):
    """(coarse points, per-pair parameter chunks, n) as bc_pr_outer sweeps."""
    complex_a = abs(ch.a.imag) > 1e-12
    phases = (0.0, math.pi / 2, -math.pi / 2, math.pi / 4, -math.pi / 4) \
        if complex_a else (0.0,)
    n = 13 if complex_a else coarse
    splits = split_grids(ch, n, phases)
    pts = np.concatenate([dpc_points(ch, b1, b2) for b1, b2, _ in splits],
                         axis=0)
    return pts, [par for _, _, par in splits], n


def _decimate(pts: np.ndarray, nbins: int) -> np.ndarray:
    """Keep one point per r1 bin (max r2), snapping r1 down to the bin edge.

    Every output point is dominated by an input point, so the decimated
    cloud's down-closure lies inside the input's; the r1 snap loses less
    than one bin width. Resampled step-up, the decimated region is not a
    subset: a bin's largest r2 is carried across the bin, above the lower
    points that follow it there.
    """
    if pts.shape[0] <= nbins:
        return pts
    top = pts[:, 0].max()
    if top <= 0.0:
        return pts[:1]
    idx = np.minimum((pts[:, 0] / top * nbins).astype(np.int64), nbins - 1)
    acc = np.full(nbins, -1.0)
    np.maximum.at(acc, idx, pts[:, 1])
    keep = acc >= 0.0
    edges = np.arange(nbins)[keep] * (top / nbins)
    out = np.stack([edges, acc[keep]], axis=1)
    ends = pts[pts[:, 0] == top]
    best_end = np.argsort(-ends[:, 1], kind="stable")[:1]
    return np.concatenate([out, ends[best_end]], axis=0)


def _bin_incumbents(pts: np.ndarray, nb: int) -> np.ndarray:
    """Per r1 bin (nb bins), the last index attaining the bin's largest r2.

    Bins are visited in ascending order and empty ones are skipped.
    """
    top = pts[:, 0].max()
    if top <= 0.0:
        return np.zeros(0, dtype=np.int64)
    binidx = np.minimum((pts[:, 0] / top * nb).astype(np.int64), nb - 1)
    best = np.full(nb, -np.inf)
    np.maximum.at(best, binidx, pts[:, 1])
    hit = np.flatnonzero(pts[:, 1] == best[binidx])
    last = np.full(nb, -1, dtype=np.int64)
    np.maximum.at(last, binidx[hit], hit)
    return last[last >= 0]


def refine_pass(ch, par_chunks, coarse_pts, n):
    """Local re-grid around the incumbents, looked up in per-pair chunks."""
    keep = _bin_incumbents(coarse_pts, 64)
    if not keep.size:
        return np.zeros((0, 2))
    m = par_chunks[0][0].size
    chunk, j = np.divmod(keep, 2 * m)
    j %= m
    a1, a2, q1, q2 = (np.array([par_chunks[c][k][i] for c, i in zip(chunk, j)])
                      for k in range(4))
    step = 1.0 / (n - 1)
    offs = np.linspace(-step, step, 5)
    oa, ob, oc, od = np.meshgrid(offs, offs, offs, offs, indexing="ij")
    oa, ob, oc, od = (v.ravel()[None, :] for v in (oa, ob, oc, od))
    na = np.clip(a1[:, None] + oa, 0.0, 1.0).ravel()
    nb = np.clip(a2[:, None] + ob, 0.0, 1.0).ravel()
    nc = (np.clip(np.abs(q1)[:, None] + oc, 0.0, 1.0)
          * outer._phase(q1)[:, None]).ravel()
    nd = (np.clip(np.abs(q2)[:, None] + od, 0.0, 1.0)
          * outer._phase(q2)[:, None]).ravel()
    c12 = nc * np.sqrt(na * ch.p1 * nb * ch.p2)
    d12 = nd * np.sqrt((1 - na) * ch.p1 * (1 - nb) * ch.p2)
    b1 = (na * ch.p1, c12, nb * ch.p2)
    b2 = ((1 - na) * ch.p1, d12, (1 - nb) * ch.p2)
    return dpc_points(ch, b1, b2)


def bc_pr_outer(ch, coarse=21, slice_points=ALPHA_GRID_DEFAULT,
                grid=R1_GRID_DEFAULT, floor_points=None):
    """outer.bc_pr_outer with the per-pair coarse sweep and refine lookup."""
    coarse_pts, par_chunks, n = coarse_sweep(ch, coarse)
    pts = [_decimate(coarse_pts, 4 * grid)]
    for b1, b2 in outer._structured_slices(ch, slice_points):
        pts.append(dpc_points(ch, b1, b2))
    pts.append(refine_pass(ch, par_chunks, coarse_pts, n))
    if floor_points is not None and len(floor_points):
        pts.append(np.asarray(floor_points, float).reshape(-1, 2))
    all_pts = _decimate(np.concatenate(pts, axis=0), 4 * grid)
    return from_pareto_points(all_pts, Kind.OUTER, grid=grid,
                              region_id="bc-pr")


def _real_a(ch):
    return ch.a.real if ch.a.imag == 0.0 else ch.a


def _f_grid(ch, n):
    av, bv, gv = np.meshgrid(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n),
                             np.linspace(0.0, 1.0, n), indexing="ij")
    av, bv, gv = av.ravel(), bv.ravel(), gv.ravel()
    a_pow = av * ch.p1
    amp = np.sqrt(pos(1.0 - av) * pos(1.0 - gv) * ch.p1) \
        + _real_a(ch) * np.sqrt(pos(1.0 - bv) * ch.p2)
    return av, bv, gv, a_pow * amp / (a_pow + 1.0)


def scheme_f(ch, n_lambda=41, face_lambda=201, grid=R1_GRID_DEFAULT):
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
        chunks.append(np.stack([
            np.concatenate([r1a, r1b, np.zeros_like(r2c)]),
            np.concatenate([r2a, r2b, r2c])], axis=1))
    # the beta = gamma = 0 face: scheme E at real scales of its own costa1
    # amplitude
    face = inner.default_alpha_grid(ch)
    a_pow = face * ch.p1
    u1, u2 = inner._scheme_e_amplitudes(ch, face)
    w = np.multiply.outer(np.linspace(0.0, 2.0, max(n_lambda, face_lambda)),
                          a_pow * u1 / (a_pow + 1.0))
    f1 = inner._f_mi(1.0, u1[None, :], 1.0, w, a_pow[None, :])
    f2 = inner._f_mi(ch.b, u2[None, :], 1.0, w, a_pow[None, :], clamp=False)
    ssum = cap(ch.b ** 2 * a_pow + np.abs(u2) ** 2)[None, :]
    chunks.append(inner._rect_sum_vertices(f1, pos(ssum - f2), ssum))
    r1d, sd = inner.scheme_d_rates(ch, np.sqrt(pos(1.0 - face)))
    v1 = np.minimum(r1d, sd)
    chunks.append(np.stack([v1, pos(sd - v1)], axis=1))
    chunks.append(np.stack([np.zeros_like(sd), pos(sd)], axis=1))
    return from_pareto_points(np.concatenate(chunks, axis=0), Kind.INNER,
                              grid=grid, region_id="f")


def cheap_achievable_points(ch):
    """inner.cheap_achievable_points, one lambda scale a call."""
    al = inner.default_alpha_grid(ch, matched=257, uniform=129)
    r1b, r2b = inner.scheme_b_rates(ch, al)
    rho = np.concatenate([np.sqrt(1.0 - al), -np.sqrt(1.0 - al)])
    r1d, sd = inner.scheme_d_rates(ch, rho)
    v1 = np.minimum(r1d, sd)
    w_c1 = inner.lambda_costa_vec(ch, al)
    chunks = [np.stack([r1b, r2b], axis=1),
              np.stack([v1, pos(sd - v1)], axis=1),
              np.stack([np.zeros_like(sd), sd], axis=1)]
    for t in np.linspace(0.0, 2.0, 41):
        f1, r2, ss = inner.scheme_e_rates(ch, al, t * w_c1)
        chunks.append(np.stack([f1, np.minimum(r2, ss - f1)], axis=1))
        chunks.append(np.stack([np.minimum(f1, pos(ss - r2)), r2], axis=1))
    av, bv, gv, w_cf = _f_grid(ch, 9)
    for t in np.linspace(0.0, 2.0, 11):
        m1, ms, m2r = inner.scheme_f_rates(ch, av, bv, gv, t * w_cf)
        r1f = np.minimum(m1, np.minimum(ms, m2r / 2.0))
        chunks.append(np.stack(
            [r1f, pos(np.minimum(ms - r1f, m2r - 2 * r1f))], axis=1))
        chunks.append(np.stack(
            [np.zeros_like(ms), pos(np.minimum(ms, m2r))], axis=1))
    peq = (math.sqrt(ch.b ** 2 * ch.p1) + math.sqrt(ch.p2)) ** 2
    chunks.append(np.array([[float(cap(ch.p1)), 0.0], [0.0, float(cap(peq))]]))
    return np.clip(np.concatenate(chunks, axis=0), 0.0, None)


def scheme_e(ch, alpha_grid=None, lambda_policy="sweep", n_lambda=201,
             grid=R1_GRID_DEFAULT):
    """inner.scheme_e from one cloud of every (scale, split) pair, with
    alpha and lambda_re arrays aligned with its rows."""
    al = inner.default_alpha_grid(ch) if alpha_grid is None \
        else np.asarray(alpha_grid)
    a_pow = al * ch.p1
    u1, u2 = inner._scheme_e_amplitudes(ch, al)
    w_c1 = a_pow * u1 / (a_pow + 1.0)
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
    pts = inner._rect_sum_vertices(f1, pos(ssum - f2), ssum)
    al2 = np.broadcast_to(al[None, :], f1.shape).ravel()
    lam_re = np.where(ch.p2 > 0, np.real(w) / max(math.sqrt(ch.p2), 1e-300),
                      0.0)
    lam2 = np.broadcast_to(lam_re, f1.shape).ravel()
    return from_pareto_points(
        pts, Kind.INNER, grid=grid,
        params={"alpha": np.concatenate([al2, al2]),
                "lambda_re": np.concatenate([lam2, lam2])},
        region_id=f"e:{lambda_policy}")
