"""2-to-inf induced norms of Schur-product maps, and majorization checks.

The induced norm of ``X -> B o X`` (from Frobenius norm in to operator norm
out) equals ``sqrt(max y^t C y)`` over the probability simplex, with
``C_ij = |B_ij|^2``.  The exact simplex maximum is found by support
enumeration (the general problem is NP-hard, so the exact solver is capped
at ``EXACT_SOLVER_CAP``): the supports of each size are solved in stacked
LAPACK calls of at most ``FACE_CHUNK`` faces, one LU a face, each feasible
face's value is kept with its support as an n-byte key, and one
``np.lexsort`` of the keys orders the scan that keeps ties on the
lexicographically smallest support.  The exact solver runs in the calling
process alone.

Given a lower bound L on the maximum (``lower``; the CLI passes the
oracle's value squared), the exact solver first walks the set-enumeration
tree in the same lexicographic order and skips every subtree whose faces
cannot decide the answer (``_walk``).  Each subtree's faces lie in one
index set U, and ``colouring_bound`` bounds the maximum over U: colour the
graph {ij : C_ij > 0} on U greedily with k colours, let D and M be C's
largest diagonal and off-diagonal entries on U and s_c the weight y puts on
class c; C vanishes off the diagonal inside a class, so
y^t C y <= D sum s_c^2 + M (1 - sum s_c^2), and sum s_c^2 >= 1/k gives
M - (M - D)/k when M > D, else D.  With g = L - 2 tol, a subtree is skipped
when its bound is below g - tol or at most the incumbent + tol, and the tie
chain runs over the faces worth at least g.  When no face before the first
face worth g lies in [g - tol, g), that face replaces whatever came before
it, and no face below g replaces after it, so the walk picks the scan's
support, and every bit of the result is the scan's.  The full scan runs
instead when no ``lower`` is given, when that gap check fails, when no face
reaches g, and when pruning stops paying (``WALK_TRIAL``).
A seeded multiplicative-ascent oracle provides an independent lower bound;
its restarts are drawn and ascended ``RESTART_BLOCK`` at a time as one
batch.  Every ``FACE_CHECK_STEPS`` steps, a row whose support has settled
gets one solve of its face, and leaves the batch: it is done if that face's
point passes the KKT test, and otherwise (near a saddle, where the ascent
crawls) it is finished by infection-immunization pivots, one O(n) exact
line search a step, stacked with the other rows of its batch that failed
their face, and its final face is solved once more.  Every face, exact or
oracle, goes through one kernel, ``_face_points``, and every row's Cy and
y^t C y through ``_products``.  The oracle's faces are solved in stacks of
at most max(RESTART_BLOCK * n, r^2) doubles for support size r, so its
memory is O(RESTART_BLOCK * n + r^2) for any number of restarts.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import numbers
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Sequence

import numpy as np

from .matcore import (check_count, check_materializable, check_unit_norm, eig_hermitian,
                      hermitian, is_psd)
from .sampling import rng_from_seed

#: Largest instance the exact support-enumeration solver accepts.
EXACT_SOLVER_CAP = 16

#: Supports of one size that ``simplex_qp_max`` solves per stacked call.
FACE_CHUNK = 512

#: Faces the pruned walk visits before it may give way to the full scan.
#: From then on it gives way once visited^2 > 2 * WALK_TRIAL * skipped:
#: where nothing is skipped, as on a hollow random C, it stops after 512
#: faces, and it never visits more than about 2^(5 + n/2) faces (2 048 at
#: n = 12, 8 192 at n = 16).  A face costs the walk several times what it
#: costs the scan, so a late give-way costs more than the scan alone; over
#: the benchmark's graphs the walk decides alone at every n >= 14.
WALK_TRIAL = 512

#: Units of roundoff, per index, by which the colouring bound is rounded up.
BOUND_ULPS = 8

#: Restarts that ``oracle_two_inf_norm`` draws and ascends together.
RESTART_BLOCK = 64

#: Iteration cap of each restart's multiplicative ascent.
ASCENT_STEPS = 5000

#: Steps between the ascent's checks for rows whose support has settled.
FACE_CHECK_STEPS = 32

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
    LAPACK call, one LU a face.  Singular faces, where LU meets a zero pivot
    (``slogdet`` sign 0, asked only of the rows the solve left NaN), take
    the pseudo-inverse solution instead (degenerate faces are otherwise
    covered by their vertices).  Returns the points as full-width (k, n)
    rows and a mask of the faces whose point stays on the face.  Every face
    either solver takes is solved here.
    """
    cs = c[idx[:, :, None], idx[:, None, :]]
    ones = np.ones((1, idx.shape[1], 1))
    # np.linalg.solve's own gufunc: where getrf meets a zero pivot it writes
    # a NaN row, on which np.linalg.solve would raise for the whole stack
    with np.errstate(all="ignore"):
        z = np.linalg._umath_linalg.solve(cs, ones, signature="dd->d")[..., 0]
    failed = np.flatnonzero(np.isnan(z).any(axis=1))
    if failed.size:
        # a row whose LU succeeded but whose solve overflowed keeps its NaNs
        singular = failed[np.linalg.slogdet(cs[failed])[0] == 0]
        if singular.size:
            z[singular] = (np.linalg.pinv(cs[singular]) @ ones)[..., 0]
    total = z.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ys = z / total[:, None]
        feasible = (np.abs(total) >= 1e-14) & ~np.any(ys < -1e-12, axis=1)
        ys = np.clip(ys, 0.0, None)
        ys /= ys.sum(axis=1, keepdims=True)
    y = np.zeros((idx.shape[0], c.shape[0]))
    np.put_along_axis(y, idx, ys, axis=1)
    return y, feasible


def _products(c: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g = Cy and v = y^t C y for every row of ``y``.

    Stacked matrix-vector products make the same BLAS calls on a row
    whatever the batch holds (numpy's gemm would change a row's last bits
    with the batch size), so a row's products do not depend on the rows
    beside it.
    """
    g = (y[:, None, :] @ c)[:, 0, :]
    return g, (g[:, None, :] @ y[:, :, None])[:, 0, 0]


def _tol(c: np.ndarray) -> float:
    """Slack of the tie rule and the KKT test: 1e-12 * max(1, max C)."""
    return 1e-12 * max(1.0, float(np.max(c)))


def _support(y: np.ndarray) -> np.ndarray:
    """Each row's support {i : y_i > 1e-4 * max y}, as a boolean mask."""
    return y > 1e-4 * y.max(axis=1, keepdims=True)


def _scan(c: np.ndarray) -> tuple[int, ...] | None:
    """The winning support of the tie chain over every face; None for C = 0.

    The supports of each size, in lexicographic order, are solved in chunks
    of ``FACE_CHUNK``, and each feasible face's value is kept with its key,
    its support padded with -1 to n bytes.  Scanning the supports in
    lexicographic order, a face replaces the incumbent only when it gains
    more than ``_tol(c)``.
    """
    n = c.shape[0]
    values, keys = [], []
    for r in range(1, n + 1):
        supports = combinations(range(n), r)
        for _ in range(-(-math.comb(n, r) // FACE_CHUNK)):
            idx = np.fromiter(chain.from_iterable(islice(supports, FACE_CHUNK)), np.intp)
            idx = idx.reshape(-1, r)
            y, feasible = _face_points(c, idx)
            values.append(_products(c, y[feasible])[1])
            key = np.full((values[-1].size, n), -1, np.int8)
            key[:, :r] = idx[feasible]
            keys.append(key)
    values, keys = np.concatenate(values), np.concatenate(keys)
    # the faces come size by size; -1 pads a proper prefix, so the sort puts
    # it before each support extending it
    order = np.lexsort(keys.T[::-1])
    values = values[order]
    tol = _tol(c)
    # incumbent + tol is at least every value scanned before, so only a
    # strict prefix maximum can replace the incumbent: scan those alone
    earlier = np.fmax.accumulate(np.concatenate(([-math.inf], values[:-1])))
    best, incumbent = -1, -math.inf
    for i in np.flatnonzero(values > earlier).tolist():
        if values[i] > incumbent + tol:
            best, incumbent = i, float(values[i])
    if best < 0:  # C = 0: every face is singular with a zero solution
        return None
    return tuple(t for t in keys[order[best]].tolist() if t >= 0)


def _neighbours(c: np.ndarray) -> list[int]:
    """Each index's neighbours {j != i : C_ij > 0}, as an int bitset (bit j)."""
    edges = c > 0
    np.fill_diagonal(edges, False)
    return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            for row in edges]


def _colour(adj: list[int], classes: list[int], vertices) -> list[int]:
    """Greedy colouring: each vertex in turn joins the first class holding
    none of its neighbours, or opens a new one.  Classes are int bitsets;
    returns the extended copy of ``classes``.
    """
    classes = classes.copy()
    for v in vertices:
        for q, members in enumerate(classes):
            if not adj[v] & members:
                classes[q] = members | 1 << v
                break
        else:
            classes.append(1 << v)
    return classes


def _bound(d: float, m: float, k: int, n: int) -> float:
    """M - (M - D)/k when M > D, else D, rounded up for faces of n x n C.

    d and m are the largest diagonal and off-diagonal entries on an index
    set U, and k the colours of a proper colouring of U.  The rounding is
    ``BOUND_ULPS`` * (n + 1) units of roundoff (2^-53), relative: a face's
    computed value y^t C y can exceed the true maximum over U by about 4n
    of them (its point sums to 1 within n, and Cy and y^t (Cy) each err by
    at most n, with no cancellation as C >= 0), and the formula itself by
    about six more.
    """
    value = m - (m - d) / k if m > d else d
    return value * (1.0 + BOUND_ULPS * (n + 1) * 2.0**-53)


def _walk(c: np.ndarray, lower: float) -> tuple[int, ...] | None:
    """The support ``_scan`` picks, found by a pruned walk; None when the scan must run.

    The walk, exact for the reasons the module docstring gives, visits the
    supports in the scan's lexicographic order: the preorder of the
    set-enumeration tree, whose node S has the children S + (j,) for
    j > max S, with every face below S in U = S + (max S + 1, ..., n - 1).
    A child whose subtree is skipped takes its later siblings with it, as
    their sets U are subsets of its own.  The first visited face is solved
    alone, which sets the incumbent before any skip needs it, and the rest
    in stacks of ``FACE_CHUNK``; the tie chain runs between stacks.
    Returns None when the gap check fails, when no face reaches g, or, from
    ``WALK_TRIAL`` visited faces on, once visited^2 > 2 * WALK_TRIAL *
    skipped, counting every face below a skipped subtree.
    """
    n = c.shape[0]
    tol = _tol(c)
    g = lower - 2.0 * tol
    adj = _neighbours(c)
    off = c.copy()
    np.fill_diagonal(off, 0.0)
    # reach[i][j]: the largest entry of row i, off the diagonal, from column
    # j on; tail_d[j] and tail_m[j]: the largest diagonal and off-diagonal
    # entries on {j, ..., n - 1}
    reach = np.maximum.accumulate(off[:, ::-1], axis=1)[:, ::-1]
    tail_m = [float(reach[j:, j].max()) for j in range(n)]
    tail_d = np.maximum.accumulate(c.diagonal()[::-1])[::-1].tolist()
    reach, off, diag = reach.tolist(), off.tolist(), c.diagonal().tolist()
    incumbent = -math.inf
    skipped = visited = 0
    gave_up = False

    def nodes():
        nonlocal skipped, visited, gave_up
        # each frame: support, its colour classes, its largest diagonal and
        # off-diagonal entries, and its next child
        path = [[(), [], 0.0, 0.0, 0]]
        while path:
            frame = path[-1]
            support, classes, d, m, j = frame
            if j == n:
                path.pop()
                continue
            joined = _colour(adj, classes, (j,))
            cross = max([reach[i][j] for i in support], default=0.0)
            k = len(_colour(adj, joined, range(j + 1, n)))
            bound = _bound(max(d, tail_d[j]), max(m, cross, tail_m[j]), k, n)
            if bound < g - tol or bound <= incumbent + tol:
                skipped += 2 ** (n - j) - 1
                path.pop()
                continue
            if visited >= WALK_TRIAL and visited * visited > 2 * WALK_TRIAL * skipped:
                gave_up = True
                return
            frame[4] = j + 1
            visited += 1
            yield support + (j,)
            m = max([m] + [off[i][j] for i in support])
            path.append([support + (j,), joined, max(d, diag[j]), m, j + 1])

    walk = nodes()
    best, size = None, 1
    while (stack := list(islice(walk, size))) and not gave_up:
        size = FACE_CHUNK
        values = np.full(len(stack), -math.inf)
        sizes = np.array([len(s) for s in stack])
        for r in np.unique(sizes).tolist():
            rows = np.flatnonzero(sizes == r)
            y, feasible = _face_points(c, np.array([stack[i] for i in rows], dtype=np.intp))
            values[rows[feasible]] = _products(c, y[feasible])[1]
        for support, value in zip(stack, values.tolist()):
            if incumbent == -math.inf and g - tol <= value < g:
                return None
            if value >= g and value > incumbent + tol:
                best, incumbent = support, value
    return None if gave_up else best


def check_exact_size(n: int) -> None:
    """Refuse an instance larger than ``EXACT_SOLVER_CAP`` for the exact solver.

    The package's one rule for the exact solver's size: ``simplex_qp_max``
    asks it, and the CLI asks it before it builds an ``--l-matrix``.
    """
    if n > EXACT_SOLVER_CAP:
        raise ValueError(f"n = {n} exceeds the exact-solver cap {EXACT_SOLVER_CAP}; "
                         "use the oracle (--oracle-only, oracle_two_inf_norm) instead")


def colouring_bound(c) -> float:
    """Upper bound on max y^t C y over the simplex, from a greedy colouring.

    Colour the graph {ij : i != j, C_ij > 0} greedily with k colours, and let
    D and M be C's largest diagonal and off-diagonal entries.  Inside a
    colour class C is zero off the diagonal, so with s_c the weight y puts
    on class c, y^t C y <= D sum s_c^2 + M (1 - sum s_c^2), and
    sum s_c^2 >= 1/k: the maximum is at most M - (M - D)/k when M > D, and
    D otherwise (Motzkin & Straus, Canad. J. Math. 17 (1965) 533, with
    k >= omega in place of the clique number omega).  Rounded up by
    ``BOUND_ULPS`` * (n + 1) units of roundoff, so it is also at least every
    face value ``simplex_qp_max`` computes.  C is taken as given: a float,
    symmetric, entrywise nonnegative, non-empty square array, of any size.
    """
    n = c.shape[0]
    off = c.copy()
    np.fill_diagonal(off, 0.0)
    k = len(_colour(_neighbours(c), [], range(n)))
    return _bound(float(c.diagonal().max()), float(off.max()), k, n)


def simplex_qp_max(c, lower: float | None = None) -> SimplexQPResult:
    """Global maximum of y^t C y over {y >= 0, sum y = 1}, by enumeration.

    Every nonempty support contributes its interior stationary point (when
    feasible); all vertices are included via the singleton supports.
    Scanning the supports in lexicographic order, a face replaces the
    incumbent only when it gains more than 1e-12 * max(1, max C), so ties
    go to the lexicographically smallest support (``_scan``: the supports
    of each size are solved ``FACE_CHUNK`` at a time, in this process).
    ``lower``, a lower bound on the maximum such as the oracle's value
    squared, lets a pruned walk (``_walk``) skip the faces that cannot
    decide the answer; the answer is the same bit for bit with or without
    it, and whatever its value.  ``lower`` must be a real number other than
    a bool and not NaN; -inf and inf are taken.
    """
    c = np.asarray(c)
    if np.iscomplexobj(c):
        raise ValueError("C must be real")
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("C must be a square matrix")
    if c.shape[0] == 0:
        raise ValueError("C must be non-empty")
    check_exact_size(c.shape[0])
    if not np.all(np.isfinite(c)):
        raise ValueError("C must be finite")
    if np.max(np.abs(c - c.T)) > 1e-12 * max(1.0, np.max(np.abs(c))):
        raise ValueError("C must be symmetric")
    if np.any(c < 0):
        raise ValueError("C must be entrywise nonnegative")
    if lower is not None and (isinstance(lower, bool) or not isinstance(lower, numbers.Real)
                              or math.isnan(lower)):
        raise ValueError(f"lower must be a real number, got {lower!r}")
    support = None if lower is None else _walk(c, float(lower))
    if support is None:
        support = _scan(c)
    if support is None:
        support = (0,)
        y = np.eye(c.shape[0])[0]
    else:
        y = _face_points(c, np.array([support], dtype=np.intp))[0][0]
    return SimplexQPResult(float(y @ c @ y), y, support)


#: The ``lower`` that ``schur_two_inf_norm`` passes on; set by ``seeded``.
_LOWER: contextvars.ContextVar[float | None] = contextvars.ContextVar("lower", default=None)


@contextlib.contextmanager
def seeded(lower: float):
    """Within the block, ``schur_two_inf_norm`` passes ``lower`` to ``simplex_qp_max``.

    For a caller that knows a lower bound on the squared norm, such as the
    oracle's value squared.  It changes no answer, only how many faces the
    exact solver solves.
    """
    token = _LOWER.set(lower)
    try:
        yield
    finally:
        _LOWER.reset(token)


def schur_two_inf_norm(b) -> float:
    """Exact 2-to-inf induced norm of X -> B o X for Hermitian B.

    The simplex maximum is the *squared* norm (it equals the largest
    ||B o xx†||_2^2 over unit x), so the norm is its square root.  Inside a
    ``seeded`` block, its lower bound on the squared norm is passed to
    ``simplex_qp_max``, which changes no answer.
    """
    b = hermitian(b)
    c = np.abs(b) ** 2
    return math.sqrt(simplex_qp_max(c, lower=_LOWER.get()).value)


def _check_l_args(eta: float, n: int) -> None:
    """Refuse a bool, a non-finite eta and a size that is not a positive integer."""
    if isinstance(eta, bool) or not (isinstance(eta, numbers.Real) and math.isfinite(eta)):
        raise ValueError(f"eta must be a finite number, got {eta!r}")
    check_count(n, "n", 1)


def l_matrix(eta: float, n: int) -> np.ndarray:
    """The matrix with ones on the diagonal and eta off the diagonal.

    Raises ``ValueError`` for a bool or non-finite eta or an n that is not a
    positive integer, and ``MaterializationError`` for n above the
    materialization cap.
    """
    _check_l_args(eta, n)
    check_materializable(n, n)
    return eta * np.ones((n, n)) + (1.0 - eta) * np.eye(n)


def l_matrix_norm(eta: float, n: int) -> float:
    """Closed-form norm for the constant-diagonal/offdiagonal matrix:

    ``sqrt((eta^2 (n-1) + 1) / n)``, maximizer uniform.  Valid for eta >= 1;
    below that the maximum moves off the uniform point.  Raises
    ``ValueError`` on the arguments ``l_matrix`` refuses, and for eta < 1.
    """
    _check_l_args(eta, n)
    if eta < 1.0:
        raise ValueError("closed form requires eta >= 1")
    return math.sqrt((eta * eta * (n - 1) + 1.0) / n)


def _face_exit_values(
    c: np.ndarray, support: np.ndarray, value: np.ndarray, tol: float
) -> np.ndarray:
    """Values at which rows on the faces ``support`` (boolean rows) may stop.

    Solves each face with ``_face_points``, grouped by support size r in
    stacks of at most max(1, RESTART_BLOCK * n // r^2) faces, so a stack
    holds at most max(RESTART_BLOCK * n, r^2) doubles.  A face's point
    counts when it is feasible, passes the KKT test (Cy)_i <= y^t C y + tol
    on every i, and its value is at least the row's ``value`` - tol.  Returns
    each row's face value, or -inf where the point does not count.
    """
    n = c.shape[0]
    out = np.full(len(support), -np.inf)
    sizes = support.sum(axis=1)
    for r in np.flatnonzero(np.bincount(sizes)).tolist():
        rows = np.flatnonzero(sizes == r)
        stack = max(1, RESTART_BLOCK * n // (r * r))
        for part in np.split(rows, range(stack, rows.size, stack)):
            y, feasible = _face_points(c, np.nonzero(support[part])[1].reshape(-1, r))
            g, face_value = _products(c, y)
            ok = (
                feasible
                & np.all(g <= face_value[:, None] + tol, axis=1)
                & (face_value >= value[part] - tol)
            )
            out[part[ok]] = face_value[ok]
    return out


def _pivot(c: np.ndarray, y: np.ndarray, budget: np.ndarray, tol: float) -> np.ndarray:
    """Infection-immunization pivots on every row of ``y``; returns the final points.

    With g = Cy and v = y^t C y, each pivot takes a row's largest violation:
    the index j with the largest g_j - v (infection, along e_j - y) or the
    index i with 0 < y_i < 1 and the smallest g_i - v (immunization, along
    (y_i / (1 - y_i)) (y - e_i)), and moves to the exact maximizer of the
    quadratic on that segment, t in [0, 1].  At t = 1 an immunized y_i is set
    to exactly 0.  g and v follow by the rank-one update, O(n) a row.  A row
    stops when its largest violation is at most ``tol``, when a pivot that
    zeroes no coordinate would gain at most 1e-16, or after ``budget`` (one
    count per row) pivots.  Only elementwise operations and per-row
    reductions touch a row, so its result does not depend on the rows
    beside it.  (Rota Bulo, Pelillo & Bomze, CVIU 115 (2011) 984.)
    """
    y = y.copy()
    out = np.empty_like(y)
    rows = np.arange(y.shape[0])
    diag = c.diagonal()
    g, v = _products(c, y)
    step = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while rows.size:
            here = np.arange(rows.size)
            gap = g - v[:, None]
            j = gap.argmax(axis=1)
            inner = np.where((y > 0) & (y < 1), gap, np.inf)
            i = inner.argmin(axis=1)
            up, down = gap[here, j], -inner[here, i]
            infect = up >= down
            p = np.where(infect, j, i)
            b = np.where(infect, up, down)
            yp = y[here, p]
            # along y + s (e_p - y) the value is v + 2 s (g_p - v) + s^2 a,
            # for s in [0, 1] (infection) or [-y_p / (1 - y_p), 0]
            a = diag[p] - 2.0 * g[here, p] + v
            reach = np.where(infect, 1.0, yp / (1.0 - yp))
            t = np.where(a < 0, np.minimum(reach, b / -a), reach)
            gain = t * (2.0 * b + t * a)
            zeroes = ~infect & (t == reach)
            s = np.where(infect, t, -t)
            stop = (b <= tol) | ((gain <= 1e-16) & ~zeroes) | (step >= budget[rows])
            if stop.any():
                out[rows[stop]] = y[stop]
                going = ~stop
                rows, y, g, v, p, s, gain, zeroes = (
                    rows[going], y[going], g[going], v[going], p[going],
                    s[going], gain[going], zeroes[going],
                )
                here = np.arange(rows.size)
            y *= (1.0 - s)[:, None]
            y[here, p] += s
            y[here[zeroes], p[zeroes]] = 0.0
            g += s[:, None] * (c[p] - g)
            v += gain
            step += 1
    return out


def _ascend(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Multiplicative ascent y <- y o (Cy) / y^t C y on every row of ``y``.

    Every ``FACE_CHECK_STEPS`` steps each running row's support is taken
    (``_support``); a row whose support is the same as at its previous check
    has settled, and its face is solved once (``_face_exit_values``, through
    ``_face_points`` like every face of the exact solver).  Each row stops
    on its own: when its value is not positive, when the update leaves the
    simplex, when it gains at most 1e-16, when its settled face's point
    passes the KKT test (it then keeps the larger of its value and the
    face's), or after ``ASCENT_STEPS`` steps.  Rows that stop leave the
    batch.

    A settled row whose face fails sits near a saddle or a non-strict
    maximum, where the ascent only crawls: it also leaves the batch, and all
    such rows are finished together by ``_pivot`` with the steps each has
    left.  A finished row's value is y^t C y of its final point, renormalized,
    by the ascent's products, or its final face's value where that face
    passes; its final face is solved once whether or not its support moved,
    and it keeps the larger of that and its value at handoff (a face that
    failed at handoff can pass only below that value).  Every row goes
    through the same BLAS and LAPACK calls whatever the batch holds
    (``_products`` once per step, whose g also gives the next step's
    gradient, since C is symmetric, and one solve per face), so a row's
    result does not depend on the rows beside it.  Returns each row's final
    value.
    """
    k = y.shape[0]
    tol = _tol(c)
    final_value = np.empty(k)
    rows = np.arange(k)
    last_support = np.zeros(y.shape, dtype=bool)
    # rows handed to the pivots: their indices, points and budgets
    handed = []
    g, value = _products(c, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(1, ASCENT_STEPS + 1):
            y_new = y * g / value[:, None]
            s = y_new.sum(axis=1)
            y_new /= s[:, None]
            g_new, new_value = _products(c, y_new)
            stuck = (value <= 0) | (s <= 0)
            done = stuck | (new_value <= value + 1e-16)
            if step % FACE_CHECK_STEPS == 0:
                support = _support(y_new)
                settled = ~done & np.all(support == last_support, axis=1)
                last_support = support
                if settled.any():
                    face_value = np.full(rows.size, -np.inf)
                    face_value[settled] = _face_exit_values(
                        c, support[settled], new_value[settled], tol
                    )
                    new_value = np.maximum(new_value, face_value)
                    failed = settled & (face_value == -np.inf)
                    if failed.any():
                        handed.append((rows[failed], y_new[failed],
                                       np.full(failed.sum(), ASCENT_STEPS - step)))
                    done |= settled
            if done.any():
                # a stuck row keeps its value; any other takes its largest
                new_value = np.where(stuck, value, np.maximum(value, new_value))
                final_value[rows[done]] = new_value[done]
                going = ~done
                rows, y_new, g_new, new_value, last_support = (
                    rows[going], y_new[going], g_new[going], new_value[going],
                    last_support[going],
                )
            y, g, value = y_new, g_new, new_value
            if not rows.size:
                break
    final_value[rows] = value
    if handed:
        rows, y, budget = (np.concatenate(part) for part in zip(*handed))
        y = _pivot(c, y, budget, tol)
        y /= y.sum(axis=1, keepdims=True)
        value = _products(c, y)[1]
        value = np.maximum(value, _face_exit_values(c, _support(y), value, tol))
        final_value[rows] = np.maximum(final_value[rows], value)
    return final_value


def oracle_two_inf_norm(b, restarts: int = 64, seed: int | None = None) -> float:
    """Sampled lower bound on the Schur-map norm via maximizing ||B o xx†||_2.

    For a rank-one projector the squared objective is ``y^t C y`` with
    ``y_i = |x_i|^2``, so each restart runs a monotone multiplicative ascent
    on the simplex from a random unit vector's amplitude profile.  Every
    vertex counts too: x = e_i attains C_ii = |b_ii|^2.  Restarts are drawn and ascended
    ``RESTART_BLOCK`` at a time, so memory is O(RESTART_BLOCK * n) for any
    number of restarts; neither the draws nor any restart's result depend
    on the block size.  ``restarts`` must be a positive integer.
    """
    restarts = check_count(restarts, "restarts", 1)
    b = hermitian(b)
    n = b.shape[0]
    c = np.abs(b) ** 2
    rng = rng_from_seed(seed)
    best = float(c.diagonal().max())
    for start in range(0, restarts, RESTART_BLOCK):
        x = rng.standard_normal((min(RESTART_BLOCK, restarts - start), 2, n))
        y = np.abs(x[:, 0] + 1j * x[:, 1]) ** 2
        y /= y.sum(axis=1, keepdims=True)
        best = max(best, float(_ascend(c, y).max()))
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
    ``MAJORIZATION_TOL``.  Non-finite entries raise ``ValueError``.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValueError("majorization needs finite vectors")
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
        check_unit_norm(y, "ensemble y-vectors")
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
    eig(X) for Hermitian X.  B's PSD is ``is_psd(B, 1e-9)``.
    """
    b = hermitian(b)
    if np.max(np.abs(np.diag(b) - 1.0)) > 1e-10:
        raise ValueError("B must have unit diagonal")
    if not is_psd(b, 1e-9):
        raise ValueError("B must be PSD")
    x = hermitian(x)
    return majorizes(eig_hermitian(x), eig_hermitian(b * x))
