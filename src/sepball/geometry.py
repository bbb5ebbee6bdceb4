"""Coefficient-of-symmetry constructions and inner/outer ball figures.

The separable hull and the maximally-entangled hull both have coefficient of
symmetry 1/(d-1); the witnesses below make that constructive by exhibiting
the reflected extreme point as an explicit convex combination.  Every
witness state is pure, so a witness stores one unit vector per state, in
O(k*d) memory for k states of dimension d; the dense projectors are built
only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .matcore import check_count, check_dims, check_materializable, check_unit_norm, kron_all


@dataclass(frozen=True)
class ConvexWitness:
    """Explicit convex decomposition of ``target`` into pure states.

    ``vectors`` is a ``(k, d)`` array of unit vectors v_i, and
    ``sum_i weights[i] |v_i><v_i| = target``.
    """

    weights: np.ndarray
    vectors: np.ndarray
    target: np.ndarray

    @property
    def states(self) -> np.ndarray:
        """The ``(k, d, d)`` stack of projectors |v_i><v_i|, built on request.

        Raises ``MaterializationError`` when the stack would hold more entries
        than one matrix at the materialization cap.
        """
        k, d = self.vectors.shape
        check_materializable(k, d, d)
        return self.vectors[:, :, None] * self.vectors[:, None, :].conj()

    def reconstruction_error(self) -> float:
        v = self.vectors
        acc = (v.T * self.weights) @ v.conj()
        return float(np.max(np.abs(acc - self.target)))


def _reflection_witness(pi: np.ndarray, vectors: np.ndarray) -> ConvexWitness:
    """Witness of (I - pi)/(d-1) with equal weights over the d-1 rows of ``vectors``."""
    d = pi.shape[0]
    return ConvexWitness(np.full(d - 1, 1.0 / (d - 1)), vectors, (np.eye(d) - pi) / (d - 1))


def complete_local_basis(v: np.ndarray) -> np.ndarray:
    """Unitary whose first column is ``v``, via a Householder reflection."""
    v = np.asarray(v, dtype=complex)
    d = v.size
    check_materializable(d, d)
    check_unit_norm(v, "local vectors")
    phase = v[0] / abs(v[0]) if abs(v[0]) > 1e-14 else 1.0
    e1 = np.zeros(d, dtype=complex)
    e1[0] = phase
    w = v - e1
    wn = np.linalg.norm(w)
    if wn < 1e-14:
        u = np.eye(d, dtype=complex)
    else:
        u = np.eye(d, dtype=complex) - 2.0 * np.outer(w, w.conj()) / (wn * wn)
    # reflector maps phase*e1 -> v; absorb the phase into the first column
    u = u.copy()
    u[:, 0] *= phase
    return u


def sep_symmetry_coefficient(d: int) -> float:
    """Coefficient of symmetry of the separable hull: 1/(d-1)."""
    d = check_count(d, "d", 2)
    return 1.0 / (d - 1)


def sep_symmetry_witness(
    dims: Sequence[int], local_vectors: Sequence[np.ndarray]
) -> ConvexWitness:
    """Decompose (I - pi)/(d-1) into d-1 equal-weight product projectors.

    ``pi`` is the product projector of the given local unit vectors; the
    witness states run over the completed local orthonormal bases, skipping
    the all-first-members combination.
    """
    dims = check_dims(dims)
    if len(local_vectors) != len(dims):
        raise ValueError("need one local vector per party")
    check_materializable(*dims, *dims)  # pi and the product basis, as tensors
    bases = [complete_local_basis(v) for v in local_vectors]
    if tuple(b.shape[0] for b in bases) != dims:
        raise ValueError("local vector dimension inconsistent with dims")
    pi = kron_all([np.outer(b[:, 0], b[:, 0].conj()) for b in bases])
    # column j of the product basis is the product vector of the j-th index
    # tuple in itertools.product order, so column 0 spans pi
    return _reflection_witness(pi, kron_all(bases)[:, 1:].T)


def john_ball_figures(d: int) -> dict[str, float]:
    """John's-theorem figures for the normalized separable hull.

    shrink = sqrt(alpha/D) with alpha = 1/(d-1), D = d^2;
    covering_ball = sqrt((d-1)/d) (smallest ball containing all states);
    inner_ball_bound = shrink * covering_ball = d^(-3/2), an upper bound on
    what the John route can give (the true covering ellipsoid is not a ball).
    """
    d = check_count(d, "d", 2)
    shrink = math.sqrt(1.0 / (d - 1)) / d
    covering = math.sqrt((d - 1) / d)
    return {
        "shrink": shrink,
        "covering_ball": covering,
        "inner_ball_bound": shrink * covering,
    }


def unitary_basis(n: int) -> np.ndarray:
    """Trace-orthogonal unitary basis {P^k S^l} of M(n), with U_0 = I.

    P = diag(omega^j) for the principal n-th root of unity, S the cyclic
    shift.  Returned as an ``(n^2, n, n)`` stack whose member k*n + l is
    P^k S^l: row i holds omega^(k i) at column (i + l) mod n and zeros
    elsewhere.  Satisfies the depolarizing identity
    ``(1/n) sum_i U_i X U_i† = (tr X) I``.
    """
    n = check_count(n, "n", 2)
    check_materializable(n, n, n, n)
    k, i, l = np.ogrid[:n, :n, :n]
    basis = np.zeros((n, n, n, n), dtype=complex)
    basis[k, l, i, (i + l) % n] = np.exp(2j * math.pi * (k * i % n) / n)
    return basis.reshape(n * n, n, n)


def maximally_entangled_projector(n: int) -> np.ndarray:
    """|psi><psi| for psi = vec(I)/sqrt(n)."""
    check_materializable(n * n, n * n)
    psi = np.eye(n, dtype=complex).ravel() / math.sqrt(n)
    return np.outer(psi, psi.conj())


def mes_symmetry_witness(n: int) -> ConvexWitness:
    """Decompose (I - pi)/(n^2 - 1) over locally rotated entangled projectors.

    pi is the maximally entangled projector; the states are
    ``(I ⊗ U_i) pi (I ⊗ U_i)†`` for the non-identity members of the unitary
    basis, each maximally entangled itself.  Their vectors
    ``(I ⊗ U_i) vec(I)/sqrt(n)`` are vec(U_i^T)/sqrt(n).
    """
    n = check_count(n, "n", 2)
    d = n * n
    check_materializable(d, d)
    vectors = unitary_basis(n)[1:].transpose(0, 2, 1).reshape(d - 1, d) / math.sqrt(n)
    return _reflection_witness(maximally_entangled_projector(n), vectors)
