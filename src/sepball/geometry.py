"""Coefficient-of-symmetry constructions and inner/outer ball figures.

The separable hull and the maximally-entangled hull both have coefficient of
symmetry 1/(d-1); the witnesses below make that constructive by exhibiting
the reflected extreme point as an explicit convex combination.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .matcore import check_dims, check_materializable, kron_all


@dataclass(frozen=True)
class ConvexWitness:
    """Explicit convex decomposition: sum_i weights[i] * states[i] = target."""

    weights: np.ndarray
    states: list[np.ndarray]
    target: np.ndarray

    def reconstruction_error(self) -> float:
        acc = sum(w * s for w, s in zip(self.weights, self.states))
        return float(np.max(np.abs(acc - self.target)))


def complete_local_basis(v: np.ndarray) -> np.ndarray:
    """Unitary whose first column is ``v``, via a Householder reflection."""
    v = np.asarray(v, dtype=complex)
    d = v.size
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("local vectors must have unit norm")
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
    if d < 2:
        raise ValueError("need d >= 2")
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
    d = math.prod(dims)
    check_materializable(d)
    bases = [complete_local_basis(np.asarray(v, dtype=complex)) for v in local_vectors]
    for b, dp in zip(bases, dims):
        if b.shape[0] != dp:
            raise ValueError("local vector dimension inconsistent with dims")
    pi = kron_all([np.outer(b[:, 0], b[:, 0].conj()) for b in bases])
    states = []
    for idx in product(*(range(dp) for dp in dims)):
        if all(i == 0 for i in idx):
            continue
        states.append(
            kron_all(
                [np.outer(b[:, i], b[:, i].conj()) for b, i in zip(bases, idx)]
            )
        )
    target = (np.eye(d) - pi) / (d - 1)
    weights = np.full(len(states), 1.0 / (d - 1))
    return ConvexWitness(weights, states, target)


def john_ball_figures(d: int) -> dict[str, float]:
    """John's-theorem figures for the normalized separable hull.

    shrink = sqrt(alpha/D) with alpha = 1/(d-1), D = d^2;
    covering_ball = sqrt((d-1)/d) (smallest ball containing all states);
    inner_ball_bound = shrink * covering_ball = d^(-3/2), an upper bound on
    what the John route can give (the true covering ellipsoid is not a ball).
    """
    if d < 2:
        raise ValueError("need d >= 2")
    shrink = math.sqrt(1.0 / (d - 1)) / d
    covering = math.sqrt((d - 1) / d)
    return {
        "shrink": shrink,
        "covering_ball": covering,
        "inner_ball_bound": shrink * covering,
    }


def unitary_basis(n: int) -> list[np.ndarray]:
    """Trace-orthogonal unitary basis {P^k S^l} of M(n), with U_0 = I.

    P = diag(omega^j) for the principal n-th root of unity, S the cyclic
    shift.  Satisfies the depolarizing identity
    ``(1/n) sum_i U_i X U_i† = (tr X) I``.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    omega = cmath.exp(2j * math.pi / n)
    p = np.diag([omega**j for j in range(n)])
    s = np.zeros((n, n), dtype=complex)
    for i in range(n):
        s[i, (i + 1) % n] = 1.0
    basis = []
    pk = np.eye(n, dtype=complex)
    for _ in range(n):
        sl = np.eye(n, dtype=complex)
        for _ in range(n):
            basis.append(pk @ sl)
            sl = sl @ s
        pk = pk @ p
    return basis


def maximally_entangled_projector(n: int) -> np.ndarray:
    psi = np.zeros(n * n, dtype=complex)
    for i in range(n):
        psi[i * n + i] = 1.0 / math.sqrt(n)
    return np.outer(psi, psi.conj())


def mes_symmetry_witness(n: int) -> ConvexWitness:
    """Decompose (I - pi)/(n^2 - 1) over locally rotated entangled projectors.

    pi is the maximally entangled projector; the states are
    ``(I ⊗ U_i) pi (I ⊗ U_i)†`` for the non-identity members of the unitary
    basis, each maximally entangled itself.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    check_materializable(n * n)
    pi = maximally_entangled_projector(n)
    eye_n = np.eye(n, dtype=complex)
    states = []
    for u in unitary_basis(n)[1:]:
        big = np.kron(eye_n, u)
        states.append(big @ pi @ big.conj().T)
    d = n * n
    target = (np.eye(d) - pi) / (d - 1)
    weights = np.full(len(states), 1.0 / (d - 1))
    return ConvexWitness(weights, states, target)
