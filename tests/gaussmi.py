"""Covariance algebra and mutual information for jointly Gaussian variables.

Systems are declared as linear combinations of Gaussian atoms (independent
or explicitly cross-correlated), and every information quantity comes out
of exact covariance algebra as a log-determinant ratio. This module is the
independent oracle against which all closed-form rate expressions in
`outer` and `inner` are validated.

Conventions: proper complex (circularly symmetric) Gaussians, so
differential entropy is log det(pi e K) and the constant cancels in every
mutual-information difference. All rates are in bits (log base 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from gcifc.errors import GcifcError


class UnknownVariable(GcifcError):
    """A linear combination referenced an undeclared variable."""


class NonPSD(GcifcError):
    """A user-supplied covariance matrix is not positive semidefinite."""


class SingularConditioning(GcifcError):
    """Mutual information is infinite (deterministic dependence)."""


# Eigenvalues below this (relative to the largest) count as zero rank.
_RANK_TOL = 1e-12
# Tolerated Hermitian asymmetry / negative-eigenvalue slack.
_PSD_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class GaussianSystem:
    """A jointly Gaussian vector: variable labels plus their covariance.

    cov[i, j] = E[X_i X_j*]; Hermitian PSD within numerical slack.
    """

    labels: tuple[str, ...]
    cov: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.cov, dtype=complex)
        if k.shape != (len(self.labels), len(self.labels)):
            raise ValueError("covariance shape does not match labels")
        scale = max(1.0, float(np.max(np.abs(k))) if k.size else 1.0)
        if np.max(np.abs(k - k.conj().T)) > 1e-12 * scale:
            raise NonPSD("covariance is not Hermitian")
        w = np.linalg.eigvalsh((k + k.conj().T) / 2.0)
        if w.size and w.min() < -_PSD_SLACK * scale:
            raise NonPSD(f"covariance has negative eigenvalue {w.min():.3e}")
        object.__setattr__(self, "cov", (k + k.conj().T) / 2.0)

    def index(self, names: Iterable[str]) -> list[int]:
        try:
            return [self.labels.index(n) for n in names]
        except ValueError as exc:
            raise UnknownVariable(str(exc)) from None

    def subcov(self, names: Sequence[str]) -> np.ndarray:
        idx = self.index(names)
        return self.cov[np.ix_(idx, idx)]

    def to_json_dict(self) -> dict:
        """Debug dump of the covariance as nested lists (re/im parts)."""
        return {
            "labels": list(self.labels),
            "cov_re": self.cov.real.tolist(),
            "cov_im": self.cov.imag.tolist(),
        }


def build_system(assignments, noise_vars) -> GaussianSystem:
    """Assemble a GaussianSystem from atoms plus linear combinations.

    noise_vars: sequence of atom declarations, each either
        (name, variance) or (name, variance, {other_atom: cross_cov})
    where cross_cov = E[X_name X_other*]. Atoms without listed partners
    are independent.

    assignments: sequence of (name, coeffs) or (name, coeffs, fresh_var)
    evaluated in order; coeffs maps previously declared names (atoms or
    earlier assignments) to complex coefficients, and fresh_var adds an
    independent Gaussian of that variance.

    Raises UnknownVariable for forward/unknown references and NonPSD if
    the declared atom covariance is invalid.
    """
    atom_names: list[str] = []
    atom_var: list[float] = []
    cross: dict[tuple[str, str], complex] = {}
    for decl in noise_vars:
        if len(decl) == 2:
            name, var = decl
            partners: Mapping[str, complex] = {}
        else:
            name, var, partners = decl
        if name in atom_names:
            raise UnknownVariable(f"duplicate declaration of {name!r}")
        atom_names.append(name)
        atom_var.append(float(var))
        for other, c in partners.items():
            cross[(name, other)] = complex(c)

    rows: dict[str, np.ndarray] = {}
    labels: list[str] = []

    def _atom_slot(name: str) -> int:
        return atom_names.index(name)

    n_extra = sum(1 for a in assignments if len(a) == 3 and a[2])
    total_atoms = len(atom_names) + n_extra
    s = np.zeros((total_atoms, total_atoms), dtype=complex)
    for i, v in enumerate(atom_var):
        s[i, i] = v
    for (n1, n2), c in cross.items():
        if n2 not in atom_names:
            raise UnknownVariable(f"cross-correlation partner {n2!r} not declared")
        i, j = _atom_slot(n1), _atom_slot(n2)
        s[i, j] = c
        s[j, i] = np.conj(c)
    scale = max(1.0, float(np.max(np.abs(s))) if s.size else 1.0)
    w = np.linalg.eigvalsh((s + s.conj().T) / 2.0)
    if w.size and w.min() < -_PSD_SLACK * scale:
        raise NonPSD("atom covariance has a negative eigenvalue")

    for name in atom_names:
        row = np.zeros(total_atoms, dtype=complex)
        row[_atom_slot(name)] = 1.0
        rows[name] = row
        labels.append(name)

    next_fresh = len(atom_names)
    for a in assignments:
        name, coeffs = a[0], a[1]
        fresh = float(a[2]) if len(a) == 3 else 0.0
        if name in rows:
            raise UnknownVariable(f"duplicate declaration of {name!r}")
        row = np.zeros(total_atoms, dtype=complex)
        for ref, c in coeffs.items():
            if ref not in rows:
                raise UnknownVariable(f"assignment {name!r} references unknown {ref!r}")
            row = row + complex(c) * rows[ref]
        if fresh:
            s[next_fresh, next_fresh] = fresh
            row[next_fresh] = 1.0
            next_fresh += 1
        rows[name] = row
        labels.append(name)

    lmat = np.array([rows[n] for n in labels])
    cov = lmat @ s @ lmat.conj().T
    return GaussianSystem(tuple(labels), cov)


def _rank_and_logpdet(k: np.ndarray) -> tuple[int, float]:
    """Rank and log2 pseudo-determinant of a Hermitian PSD matrix."""
    if k.size == 0:
        return 0, 0.0
    w = np.linalg.eigvalsh((k + k.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    top = w.max() if w.size else 0.0
    tol = max(_RANK_TOL, _RANK_TOL * top)
    keep = w[w > tol]
    if keep.size == 0:
        return 0, 0.0
    return int(keep.size), float(np.sum(np.log2(keep)))


def mutual_info(sys: GaussianSystem, set_a, set_b, set_c=()) -> float:
    """I(A; B | C) in bits for disjoint variable subsets of `sys`.

    Computed as log2 pdet(K_AC) + log2 pdet(K_BC) - log2 pdet(K_C)
    - log2 pdet(K_ABC), with rank bookkeeping on the support: a rank
    mismatch means a deterministic dependence between A and B given C,
    i.e. infinite mutual information, reported as SingularConditioning.
    """
    a = [set_a] if isinstance(set_a, str) else list(set_a)
    b = [set_b] if isinstance(set_b, str) else list(set_b)
    c = [set_c] if isinstance(set_c, str) else list(set_c)
    if set(a) & set(b):
        raise SingularConditioning("a variable cannot inform on itself (infinite MI)")
    if set(c) & (set(a) | set(b)):
        raise ValueError("conditioning set must be disjoint from A and B")
    sys.index(a + b + c)

    r_ac, d_ac = _rank_and_logpdet(sys.subcov(a + c))
    r_bc, d_bc = _rank_and_logpdet(sys.subcov(b + c))
    r_c, d_c = _rank_and_logpdet(sys.subcov(c))
    r_abc, d_abc = _rank_and_logpdet(sys.subcov(a + b + c))

    if r_ac + r_bc - r_c - r_abc != 0:
        raise SingularConditioning(
            "deterministic dependence between the subsets (infinite MI)"
        )
    val = d_ac + d_bc - d_c - d_abc
    if val < -1e-6:
        raise SingularConditioning(f"inconsistent pseudo-determinants ({val:.3e})")
    return max(val, 0.0)
