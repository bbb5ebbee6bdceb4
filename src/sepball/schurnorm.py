"""2-to-inf induced norms of Schur-product maps, and majorization checks.

The induced norm of ``X -> B o X`` (from Frobenius norm in to operator norm
out) equals ``sqrt(max y^t C y)`` over the probability simplex, with
``C_ij = |B_ij|^2``.  The exact simplex maximum is found by support
enumeration (the general problem is NP-hard, so the exact solver is capped);
a seeded multiplicative-ascent oracle provides an independent lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .matcore import eig_hermitian, hermitian
from .sampling import rng_from_seed

#: Largest instance the exact support-enumeration solver accepts.
EXACT_SOLVER_CAP = 16

#: Slack on the totals and prefix sums compared by ``majorizes``.
MAJORIZATION_TOL = 1e-9


@dataclass(frozen=True)
class SimplexQPResult:
    """Optimal value and maximizer of y^t C y over the probability simplex."""

    value: float
    maximizer: np.ndarray
    support: tuple[int, ...]


def _face_candidate(c: np.ndarray, support: tuple[int, ...]) -> np.ndarray | None:
    """Stationary point of y^t C y on the face with the given support.

    Solves C_S y_S = lam * 1 with sum(y_S) = 1; returns None when the
    stationary point leaves the face.  Singular faces fall back to a
    pseudo-inverse solution (degenerate faces are otherwise covered by
    their vertices).
    """
    cs = c[np.ix_(support, support)]
    ones = np.ones(len(support))
    try:
        z = np.linalg.solve(cs, ones)
    except np.linalg.LinAlgError:
        z = np.linalg.pinv(cs) @ ones
    total = z.sum()
    if abs(total) < 1e-14:
        return None
    ys = z / total
    if np.any(ys < -1e-12):
        return None
    ys = np.clip(ys, 0.0, None)
    ys /= ys.sum()
    y = np.zeros(c.shape[0])
    y[list(support)] = ys
    return y


def simplex_qp_max(c) -> SimplexQPResult:
    """Global maximum of y^t C y over {y >= 0, sum y = 1}, by enumeration.

    Every nonempty support contributes its interior stationary point (when
    feasible); all vertices are included via the singleton supports.  Ties
    are broken toward the lexicographically smallest support.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("C must be a square matrix")
    n = c.shape[0]
    if n > EXACT_SOLVER_CAP:
        raise ValueError(
            f"n = {n} exceeds the exact-solver cap {EXACT_SOLVER_CAP}; "
            "use oracle_two_inf_norm for larger instances"
        )
    if np.max(np.abs(c - c.T)) > 1e-12 * max(1.0, np.max(np.abs(c))):
        raise ValueError("C must be symmetric")
    if np.any(c < 0):
        raise ValueError("C must be entrywise nonnegative")

    supports = sorted(
        (s for r in range(1, n + 1) for s in combinations(range(n), r))
    )
    best: SimplexQPResult | None = None
    scale = max(1.0, float(np.max(c)))
    for support in supports:
        y = _face_candidate(c, support)
        if y is None:
            continue
        value = float(y @ c @ y)
        if best is None or value > best.value + 1e-12 * scale:
            best = SimplexQPResult(value, y, support)
    assert best is not None  # singletons always feasible
    return best


def schur_two_inf_norm(b) -> float:
    """Exact 2-to-inf induced norm of X -> B o X for Hermitian B.

    The simplex maximum is the *squared* norm (it equals the largest
    ||B o xx†||_2^2 over unit x), so the norm is its square root.
    """
    b = hermitian(b)
    c = np.abs(b) ** 2
    return math.sqrt(simplex_qp_max(c).value)


def l_matrix(eta: float, n: int) -> np.ndarray:
    """The matrix with ones on the diagonal and eta off the diagonal."""
    return eta * np.ones((n, n)) + (1.0 - eta) * np.eye(n)


def l_matrix_norm(eta: float, n: int) -> float:
    """Closed-form norm for the constant-diagonal/offdiagonal matrix:

    ``sqrt((eta^2 (n-1) + 1) / n)``, maximizer uniform.  Valid for eta >= 1;
    below that the maximum moves off the uniform point.
    """
    if eta < 1.0:
        raise ValueError("closed form requires eta >= 1")
    if n < 1:
        raise ValueError("need n >= 1")
    return math.sqrt((eta * eta * (n - 1) + 1.0) / n)


def oracle_two_inf_norm(b, restarts: int = 64, seed: int | None = None) -> float:
    """Sampled lower bound on the Schur-map norm via maximizing ||B o xx†||_2.

    For a rank-one projector the squared objective is ``y^t C y`` with
    ``y_i = |x_i|^2``, so each restart runs a monotone multiplicative ascent
    on the simplex from a random unit vector's amplitude profile.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    b = hermitian(b)
    n = b.shape[0]
    c = np.abs(b) ** 2
    rng = rng_from_seed(seed)
    best = 0.0
    for _ in range(restarts):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = np.abs(x) ** 2
        y /= y.sum()
        value = float(y @ c @ y)
        for _ in range(5000):
            g = c @ y
            if value <= 0:
                break
            y_new = y * g / value
            s = y_new.sum()
            if s <= 0:
                break
            y_new /= s
            new_value = float(y_new @ c @ y_new)
            if new_value <= value + 1e-16:
                y = y_new
                value = max(value, new_value)
                break
            y, value = y_new, new_value
        # include the vertex nearest the final iterate
        vertex = float(c[np.argmax(y), np.argmax(y)])
        best = max(best, value, vertex)
    return math.sqrt(best)


def gram(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Gram matrix G_ij = <v_i, v_j>; PSD, same nonzero spectrum as sum vv†."""
    if len(vectors) == 0:
        raise ValueError("empty vector list")
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2:
        raise ValueError("vectors must share a common dimension")
    return v.conj() @ v.T


def majorizes(u, v) -> bool:
    """True iff u majorizes v: prefix sums of sorted-decreasing u dominate v's.

    Vectors are zero-padded to a common length; totals must agree within
    ``MAJORIZATION_TOL``.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    n = max(u.size, v.size)
    u = np.pad(u, (0, n - u.size))
    v = np.pad(v, (0, n - v.size))
    if abs(u.sum() - v.sum()) > MAJORIZATION_TOL * max(1.0, abs(u.sum())):
        raise ValueError("sums differ beyond tolerance; majorization undefined")
    cu = np.cumsum(np.sort(u)[::-1])
    cv = np.cumsum(np.sort(v)[::-1])
    return bool(np.all(cu >= cv - MAJORIZATION_TOL))


def nielsen_kempe_check(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> bool:
    """Global-vs-local disorder check for a separable ensemble.

    Builds ``R = sum (x ⊗ y)(x ⊗ y)†`` from pairs with unit-norm y, verifies
    the Gram factorization ``G = B o H`` entrywise, and returns whether the
    marginal's spectrum majorizes R's.
    """
    if len(pairs) == 0:
        raise ValueError("empty ensemble")
    xs = [np.asarray(x, dtype=complex) for x, _ in pairs]
    ys = [np.asarray(y, dtype=complex) for _, y in pairs]
    for y in ys:
        if abs(np.linalg.norm(y) - 1.0) > 1e-10:
            raise ValueError("ensemble y-vectors must have unit norm")
    prods = [np.kron(x, y) for x, y in zip(xs, ys)]
    g = gram(prods)
    h = gram(xs)
    b = gram(ys)
    if np.max(np.abs(g - b * h)) > 1e-12 * max(1.0, np.max(np.abs(g))):
        raise AssertionError("Gram factorization G = B o H failed")
    state_spectrum = eig_hermitian(g)
    marginal_spectrum = eig_hermitian(h)
    return majorizes(marginal_spectrum, state_spectrum)


def ds_schur_majorization_check(b, x) -> bool:
    """Disorder check for unit-diagonal PSD Schur multipliers.

    Such maps are doubly stochastic, so eig(B o X) must be majorized by
    eig(X) for Hermitian X.
    """
    b = hermitian(b)
    if np.max(np.abs(np.diag(b) - 1.0)) > 1e-10:
        raise ValueError("B must have unit diagonal")
    if eig_hermitian(b)[-1] < -1e-9:
        raise ValueError("B must be PSD")
    x = hermitian(x)
    return majorizes(eig_hermitian(x), eig_hermitian(b * x))
