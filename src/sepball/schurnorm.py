"""2-to-inf induced norms of Schur-product maps, and majorization checks.

The induced norm of ``X -> B o X`` (from Frobenius norm in to operator norm
out) equals ``sqrt(max y^t C y)`` over the probability simplex, with
``C_ij = |B_ij|^2``.  The exact simplex maximum is found by support
enumeration (the general problem is NP-hard, so the exact solver is capped
at ``EXACT_SOLVER_CAP``): the supports of each size are solved in stacked
LAPACK calls of at most ``FACE_CHUNK`` faces, each feasible face's value is
kept with its support as an n-byte key, and one ``np.lexsort`` of the keys
orders the scan that keeps ties on the lexicographically smallest support.
A seeded multiplicative-ascent oracle provides an independent lower bound;
its restarts are drawn and ascended ``RESTART_BLOCK`` at a time as one
batch, so its memory is O(RESTART_BLOCK * n) for any number of restarts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Sequence

import numpy as np

from .matcore import check_materializable, eig_hermitian, hermitian
from .sampling import rng_from_seed

#: Largest instance the exact support-enumeration solver accepts.
EXACT_SOLVER_CAP = 16

#: Supports of one size that ``simplex_qp_max`` solves per stacked call.
FACE_CHUNK = 512

#: Restarts that ``oracle_two_inf_norm`` draws and ascends together.
RESTART_BLOCK = 64

#: Iteration cap of each restart's multiplicative ascent.
ASCENT_STEPS = 5000

#: Slack on the totals and prefix sums compared by ``majorizes``.
MAJORIZATION_TOL = 1e-9


@dataclass(frozen=True)
class SimplexQPResult:
    """Optimal value and maximizer of y^t C y over the probability simplex."""

    value: float
    maximizer: np.ndarray
    support: tuple[int, ...]


def _face_points(c: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary points of y^t C y on the faces whose supports are the rows of idx.

    Solves C_S y_S = lam * 1 with sum(y_S) = 1 for every face in one stacked
    call.  Singular faces, where LU meets a zero pivot (``slogdet`` sign 0),
    take the pseudo-inverse solution instead (degenerate faces are otherwise
    covered by their vertices).  Returns the points on their supports and a
    mask of the faces whose point stays on the face.
    """
    cs = c[idx[:, :, None], idx[:, None, :]]
    ones = np.ones((1, idx.shape[1], 1))
    singular = np.linalg.slogdet(cs)[0] == 0
    z = np.empty(idx.shape)
    z[~singular] = np.linalg.solve(cs[~singular], ones)[..., 0]
    if singular.any():
        z[singular] = (np.linalg.pinv(cs[singular]) @ ones)[..., 0]
    total = z.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ys = z / total[:, None]
        feasible = (np.abs(total) >= 1e-14) & ~np.any(ys < -1e-12, axis=1)
        ys = np.clip(ys, 0.0, None)
        ys /= ys.sum(axis=1, keepdims=True)
    return ys, feasible


def simplex_qp_max(c) -> SimplexQPResult:
    """Global maximum of y^t C y over {y >= 0, sum y = 1}, by enumeration.

    Every nonempty support contributes its interior stationary point (when
    feasible); all vertices are included via the singleton supports.  The
    supports of each size are solved ``FACE_CHUNK`` at a time.  Scanning the
    supports in lexicographic order, a face replaces the incumbent only when
    it gains more than 1e-12 * max(1, max C), so ties go to the
    lexicographically smallest support.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("C must be a square matrix")
    n = c.shape[0]
    if n == 0:
        raise ValueError("C must be non-empty")
    if n > EXACT_SOLVER_CAP:
        raise ValueError(
            f"n = {n} exceeds the exact-solver cap {EXACT_SOLVER_CAP}; "
            "use oracle_two_inf_norm for larger instances"
        )
    if not np.all(np.isfinite(c)):
        raise ValueError("C must be finite")
    if np.max(np.abs(c - c.T)) > 1e-12 * max(1.0, np.max(np.abs(c))):
        raise ValueError("C must be symmetric")
    if np.any(c < 0):
        raise ValueError("C must be entrywise nonnegative")

    # each feasible face's value, and its support padded with -1 as its key
    values, keys = [], []
    for r in range(1, n + 1):
        # the supports of size r in lexicographic order, FACE_CHUNK at a time
        flat = chain.from_iterable(combinations(range(n), r))
        while (idx := np.fromiter(islice(flat, FACE_CHUNK * r), np.intp)).size:
            idx = idx.reshape(-1, r)
            ys, feasible = _face_points(c, idx)
            y = np.zeros((idx.shape[0], n))
            np.put_along_axis(y, idx, ys, axis=1)
            y = y[feasible]
            # y @ c @ y row by row, by the BLAS calls it takes on one row
            values.append((y[:, None, :] @ c @ y[:, :, None])[:, 0, 0])
            key = np.full((y.shape[0], n), -1, np.int8)
            key[:, :r] = idx[feasible]
            keys.append(key)

    # -1 pads a proper prefix, so it sorts before each support extending it
    keys = np.concatenate(keys)
    order = np.lexsort(keys.T[::-1])
    values = np.concatenate(values)[order]
    tol = 1e-12 * max(1.0, float(np.max(c)))
    # incumbent + tol is at least every value scanned before, so only a
    # strict prefix maximum can replace the incumbent: scan those alone
    earlier = np.fmax.accumulate(np.concatenate(([-math.inf], values[:-1])))
    best, incumbent = -1, -math.inf
    for i in np.flatnonzero(values > earlier).tolist():
        if values[i] > incumbent + tol:
            best, incumbent = i, float(values[i])
    if best < 0:  # C = 0: every face is singular with a zero solution
        support = (0,)
        y = np.eye(n)[0]
    else:
        support = tuple(t for t in keys[order[best]].tolist() if t >= 0)
        ys, _ = _face_points(c, np.array([support], dtype=np.intp))
        y = np.zeros(n)
        y[list(support)] = ys[0]
    return SimplexQPResult(float(y @ c @ y), y, support)


def schur_two_inf_norm(b) -> float:
    """Exact 2-to-inf induced norm of X -> B o X for Hermitian B.

    The simplex maximum is the *squared* norm (it equals the largest
    ||B o xx†||_2^2 over unit x), so the norm is its square root.
    """
    b = hermitian(b)
    c = np.abs(b) ** 2
    return math.sqrt(simplex_qp_max(c).value)


def l_matrix(eta: float, n: int) -> np.ndarray:
    """The matrix with ones on the diagonal and eta off the diagonal.

    Raises ``MaterializationError`` for n above the materialization cap.
    """
    check_materializable(n, n)
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


def _ascend(c: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multiplicative ascent y <- y o (Cy) / y^t C y on every row of ``y``.

    Each row stops on its own: when its value is not positive, when the
    update leaves the simplex, when it gains at most 1e-16, or after
    ``ASCENT_STEPS`` steps.  Rows that stop leave the batch.  Every row goes
    through the same BLAS calls whatever the batch holds (one ``y C`` per
    step, which also gives the next step's gradient, since C is symmetric),
    so a row's result does not depend on the rows beside it.  Returns each
    row's final value and the index of its largest entry.
    """
    k = y.shape[0]
    final_value = np.empty(k)
    final_peak = np.empty(k, dtype=np.intp)
    rows = np.arange(k)
    g = (y[:, None, :] @ c)[:, 0, :]
    value = (g[:, None, :] @ y[:, :, None])[:, 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(ASCENT_STEPS):
            y_new = y * g / value[:, None]
            s = y_new.sum(axis=1)
            y_new /= s[:, None]
            g_new = (y_new[:, None, :] @ c)[:, 0, :]
            new_value = (g_new[:, None, :] @ y_new[:, :, None])[:, 0, 0]
            stuck = (value <= 0) | (s <= 0)
            done = stuck | (new_value <= value + 1e-16)
            if done.any():
                # a stuck row keeps its point; a converged one takes the step
                y_new[stuck] = y[stuck]
                new_value = np.where(stuck, value, np.maximum(value, new_value))
                final_value[rows[done]] = new_value[done]
                final_peak[rows[done]] = np.argmax(y_new[done], axis=1)
                going = ~done
                rows, y_new, g_new, new_value = (
                    rows[going], y_new[going], g_new[going], new_value[going]
                )
            y, g, value = y_new, g_new, new_value
            if not rows.size:
                break
    final_value[rows] = value
    final_peak[rows] = np.argmax(y, axis=1)
    return final_value, final_peak


def oracle_two_inf_norm(b, restarts: int = 64, seed: int | None = None) -> float:
    """Sampled lower bound on the Schur-map norm via maximizing ||B o xx†||_2.

    For a rank-one projector the squared objective is ``y^t C y`` with
    ``y_i = |x_i|^2``, so each restart runs a monotone multiplicative ascent
    on the simplex from a random unit vector's amplitude profile, and the
    vertex at its largest entry counts too.  Restarts are drawn and ascended
    ``RESTART_BLOCK`` at a time, so memory is O(RESTART_BLOCK * n) for any
    number of restarts; neither the draws nor any restart's result depend
    on the block size.  ``restarts`` must be a positive integer.
    """
    if not (isinstance(restarts, numbers.Integral) and restarts >= 1):
        raise ValueError(f"restarts must be a positive integer, got {restarts!r}")
    b = hermitian(b)
    n = b.shape[0]
    c = np.abs(b) ** 2
    rng = rng_from_seed(seed)
    best = 0.0
    for start in range(0, restarts, RESTART_BLOCK):
        x = rng.standard_normal((min(RESTART_BLOCK, restarts - start), 2, n))
        y = np.abs(x[:, 0] + 1j * x[:, 1]) ** 2
        y /= y.sum(axis=1, keepdims=True)
        value, peak = _ascend(c, y)
        best = max(best, float(value.max()), float(c[peak, peak].max()))
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
