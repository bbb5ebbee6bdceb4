"""Dense complex/Hermitian matrix algebra underlying the whole package.

Matrices are plain ``numpy.ndarray`` values with ``complex128`` entries.

Validation happens once, at the public boundary: ``as_matrix`` and
``hermitian`` are the only validators, and each function exported by the
package runs them once per outside argument.  ``measure`` validates a state
to certify and records its trace, distance from I/d, floor on lambda_min
and normalization in a ``State``, which decides its PSD once, the first
time ``State.psd`` is read; the certificates and the PPT scan take it in
place of the matrix and read those decisions without making them again, and
the CLI's ``certify`` hands them one.  Every other function here is a
kernel that takes trusted ndarrays and never re-validates.

Counts have one rule, ``check_count``: a Python or numpy integer, never a
bool or a float.  It is the package's only integer rule; ``check_dims``
applies it to each local dimension, and every dimension argument goes
through it.  The ball radius a has one rule, ``check_radius``: a real
number in (0, 1], never a bool.  A unit vector has one rule,
``check_unit_norm``.  Memory has one rule,
``check_materializable(*shape)``: every function that builds an array sized
from its arguments, and every reader of outside input, asks it with the
shape it is about to build, and it refuses any array of more than
``MATERIALIZATION_CAP``² entries.

``is_psd`` decides the rule lambda_min(H) >= -tol·max(1, ||H||_inf) with the
cheapest check that settles it, and says which one did: a lower bound on
lambda_min the caller already knows (``psd_floor``, from the trace and the
distance from (trace/d)·I), then a Cholesky factorization with a
rounding-error bound, then the eigensolve, which alone can reject.  The
first two accept only matrices the eigenvalue rule accepts, so the answer
never depends on which check ran.

Matrix files hold ``{"dims": [...], "entries": [[re, im], ...]}`` in
row-major order, and the matrices and errors read from them are those of
one ``json.loads``, bit for bit.  ``save_matrix`` writes the bytes of one
compact ``orjson.dumps`` of that object, ``WRITE_CHUNK`` entries at a time;
orjson prints each double with its shortest round-trip digits, so any
correctly rounding JSON reader reads the doubles back bit for bit.  A file
laid out with the dims key first, then the entries key, and any JSON
whitespace between tokens, as are ``save_matrix``'s files and the
``json.dumps`` layout of older ones, is read by ``_read_flat``:
``_parse_entries`` cuts the entries array into one range per process
``workers`` grants, each a run of whole blocks of about ``READ_BLOCK``
bytes, and ``fork_map`` has ``_parse_range`` check each block by one rule
and parse it with ``orjson`` straight into the matrix, so a read holds the
file's bytes, the matrix and one block in each process that parses.  The
file is taken once every range has reported; a range whose process died
is parsed in this process, and one refused range sends the file on only
after the others are done.  orjson takes only strict JSON and rounds
every decimal correctly.  A file the rule or orjson refuses, such as one
holding a number that overflows to infinity, goes to ``_read_json``, one
stdlib ``json.loads``, which reads every other valid layout and alone
decides which error is raised.  Entries must be pairs of JSON numbers:
booleans, integers beyond float range and lists of another length are
rejected as malformed.  Nothing here is there to tune.

Processes have one home, ``fork_map``: the package's only fork, pipe and
kill-and-reap code, which runs numbered jobs in this process and forked
children that share one queue of indices, then runs here each job whose
child raised or died.  ``workers`` is its one platform rule: one process
per CPU this process may run on, at most one per job, on Linux where
``os.fork`` exists, and one process everywhere else.  The matrix reader
and ``verify.run_suite`` both run on it, so off Linux a file is parsed
serially.  The pool shares the CPUs between its processes and their BLAS
threads: while it runs in W > 1 processes, each loaded OpenBLAS (found
through ``ctypes``) runs at most cpus() // W threads, at least one, and its
own count is restored when the pool returns or raises.  The share never
raises a count, so ``OPENBLAS_NUM_THREADS`` stays an upper bound, and there
is no setting.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import mmap
import numbers
import os
import pickle
import re
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np
import orjson

#: Largest total dimension for which matrices may be materialized (12 qubits):
#: no array may hold more than its square of entries.
MATERIALIZATION_CAP = 4096

#: Default relative PSD tolerance, scaled by max(1, operator norm).
PSD_TOL = 1e-10

#: Unit roundoffs per step in ``is_psd``'s Cholesky rounding bound: the real
#: bound takes one, and complex products and sums need a few more.
CHOLESKY_ROUNDING = 8

#: Reject nominally-Hermitian input when the anti-Hermitian part is this
#: large relative to the matrix itself.
HERMITICITY_REJECT_TOL = 1e-8

#: Entrywise tolerance of the ``MapOnMatrices`` property checks.
MAP_TOL = 1e-12

#: How far tr ρ may be from 1 for ρ to count as normalized.
TRACE_TOL = 1e-10


class MaterializationError(ValueError):
    """Raised when an operation would materialize an array above the cap."""


def as_matrix(a) -> np.ndarray:
    """Validate and convert input to a finite complex square matrix."""
    check_materializable(*np.shape(a))
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix has non-finite entries")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermitian(a) -> np.ndarray:
    """Symmetrize ``a`` to (A + A†)/2, rejecting grossly non-Hermitian input.

    The rejection threshold is relative: inputs with
    ``||A - A†||_2 > HERMITICITY_REJECT_TOL * ||A||_2`` raise ``ValueError``,
    and so do inputs whose ``||A||_2`` overflows, for which that test cannot
    be made.
    """
    m = as_matrix(a)
    # an overflowing norm is an answer here, not a warning
    with np.errstate(over="ignore"):
        norm_m = frobenius_norm(m)
    if not math.isfinite(norm_m):
        raise ValueError("matrix norm overflows float64")
    if norm_m > 0 and frobenius_norm(m - m.conj().T) > HERMITICITY_REJECT_TOL * norm_m:
        raise ValueError("input is not Hermitian within the rejection threshold")
    return (m + m.conj().T) / 2


def check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    """Validate a nonempty profile of local dimensions, each a ``check_count`` >= 2."""
    dims = tuple(check_count(d, "local dimension", 2) for d in dims)
    if not dims:
        raise ValueError("empty dimension profile")
    return dims


def check_matrix_dims(m: np.ndarray, dims: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Checked dims profile and its product, which must be the order of ``m``."""
    dims = check_dims(dims)
    d = math.prod(dims)
    if m.shape[0] != d:
        raise ValueError(f"matrix dimension {m.shape[0]} != product of dims {d}")
    return dims, d


def check_count(value, name: str, least: int) -> int:
    """Validate a count: a Python or numpy integer, not a bool, >= ``least``.

    The package's one rule for integer counts and sizes; integral floats such
    as 3.0 are refused like any other non-integer.  Returns the count as int.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            least, f"an integer >= {least}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def check_radius(a) -> float:
    """Validate a ball radius: a real number, not a bool, in (0, 1].

    The package's one rule for the radius a of the ball around I on which
    the paper's maps are positive.  Returns the radius as float.
    """
    if isinstance(a, bool) or not isinstance(a, numbers.Real) or not 0 < a <= 1:
        raise ValueError(f"need 0 < a <= 1, got {a!r}")
    return float(a)


def check_unit_norm(v: np.ndarray, what: str) -> None:
    """Refuse a vector whose 2-norm is off 1 by more than 1e-10.

    The package's one rule for unit vectors; ``what`` names them in the
    message.
    """
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError(f"{what} must have unit norm")


def check_materializable(*shape: int) -> None:
    """Refuse an array of ``shape`` holding more than ``MATERIALIZATION_CAP``² entries.

    The package's one memory rule, asked before the array is built; a
    square d×d array passes exactly when d <= ``MATERIALIZATION_CAP``.
    """
    if math.prod(map(int, shape)) > MATERIALIZATION_CAP**2:
        raise MaterializationError(
            f"a {'x'.join(map(str, shape))} array exceeds the materialization cap "
            f"{MATERIALIZATION_CAP} ({MATERIALIZATION_CAP}^2 entries); use formula-level operations"
        )


# ---------------------------------------------------------------------------
# Norms and spectra
# ---------------------------------------------------------------------------

def frobenius_norm(m) -> float:
    """sqrt(sum |M_ij|^2) = sqrt(tr M†M)."""
    return float(np.linalg.norm(np.asarray(m, dtype=complex)))


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(m, 2))


def eig_hermitian(h: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted decreasing.

    A stack ``(..., d, d)`` gives one row of eigenvalues per matrix.  Only
    the lower triangle is read.  Raises ``numpy.linalg.LinAlgError`` on
    convergence failure (never silently returns garbage).
    """
    return np.linalg.eigvalsh(h)[..., ::-1].copy()


def psd_floor(trace: float, distance: float, d: int) -> float:
    """Lower bound trace/d - distance·sqrt((d-1)/d) on lambda_min(H).

    For Hermitian H on C^d with tr H = ``trace`` and ||H - c·I||_2 <=
    ``distance`` for some real c, such as 1/d or trace/d: H - (trace/d)·I,
    the part of H orthogonal to I, is traceless with Frobenius norm at most
    ``distance``, and a traceless Hermitian matrix of Frobenius norm r has
    lambda_min >= -r·sqrt((d-1)/d).  At trace 1 the bound is >= 0 exactly on
    the largest PSD ball around I/d, of radius 1/sqrt(d(d-1)) (Gurvits and
    Barnum, PRA 66, 062311 (2002)).  Partial transposes keep the trace and
    the Frobenius norm and fix I, so one floor holds for every cut.
    """
    return trace / d - distance * math.sqrt((d - 1) / d)


@dataclass(frozen=True)
class PsdCheck:
    """The answer of ``is_psd``: truthy iff the matrix passed.

    ``method`` names the check that decided: ``"ball"`` (the caller's floor
    on lambda_min was >= 0), ``"cholesky"`` or ``"eig"``.
    """

    psd: bool
    method: str

    def __bool__(self) -> bool:
        return self.psd


def _cholesky_certifies(h: np.ndarray, tol: float) -> bool:
    """True when a Cholesky factorization proves lambda_min(H) >= -tol·max(1, max|H_ii|).

    With s half that margin: if the factorization R of H + s·I runs to the
    end, then RᴴR = H + s·I + E with ||E||_2 <= gamma_{d+1}·||R||_2²
    (Frobenius norms; Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 10.3), so lambda_min(H) >= -s - gamma_{d+1}·||R||_2².
    Gamma is taken with ``CHOLESKY_ROUNDING`` unit roundoffs per step
    instead of one, which covers complex arithmetic and the rounding of the
    shift.  Since max|H_ii| <= ||H||_inf, a matrix accepted here meets
    ``is_psd``'s rule.
    """
    d = h.shape[0]
    margin = tol * max(1.0, float(np.abs(np.diagonal(h)).max()))
    shift = margin / 2
    a = h.copy()
    a.flat[::d + 1] += shift
    try:
        r = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    k = CHOLESKY_ROUNDING * (d + 1) * np.finfo(np.float64).eps / 2
    return shift + k / (1 - k) * float(np.linalg.norm(r)) ** 2 <= margin


def is_psd(h: np.ndarray, tol: float = PSD_TOL, floor: float = -math.inf) -> PsdCheck:
    """Whether lambda_min(H) >= -tol * max(1, ||H||_inf), and which check decided.

    The checks run cheapest first, and only the last can reject: a
    ``floor`` on lambda_min that the caller already knows (``psd_floor``)
    settles the question when it is >= 0; a single matrix is then tried with
    a Cholesky factorization and its rounding-error bound
    (``_cholesky_certifies``); the eigensolve decides every other case, so
    the answer is always the eigenvalue rule's.  On a stack ``(..., d, d)``
    the rule is applied to each matrix with one stacked eigensolve, and the
    answer is True iff every one of them passes.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    if floor >= 0:
        return PsdCheck(True, "ball")
    if h.ndim == 2 and _cholesky_certifies(h, tol):
        return PsdCheck(True, "cholesky")
    w = eig_hermitian(h)
    scale = np.maximum(1.0, np.abs(w).max(axis=-1))
    return PsdCheck(bool(np.all(w[..., -1] >= -tol * scale)), "eig")


# ---------------------------------------------------------------------------
# Measured states
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class State:
    """A validated certify input and the decisions every test of it reads.

    ``h`` is the symmetrized matrix (A + A†)/2, ``dims`` the checked
    profile, ``trace`` is tr H and ``distance`` is ||H - I/d||_2.  ``floor``
    is ``psd_floor`` of H's distance from (trace/d)·I, a lower bound on
    lambda_min(H) and on every cut's.  ``normalized`` is the one test
    |trace - 1| <= ``TRACE_TOL``, and ``psd`` the one ``is_psd`` of H with
    that floor, run the first time it is read and kept.  States compare by
    identity: ``h`` is an array.
    """

    h: np.ndarray
    dims: tuple[int, ...]
    trace: float
    distance: float
    floor: float
    normalized: bool

    @functools.cached_property
    def psd(self) -> PsdCheck:
        return is_psd(self.h, floor=self.floor)


def distance_from_scalar(h: np.ndarray, c: float) -> float:
    """||H - c·I||_2, bit for bit as frobenius_norm(h - c * np.eye(d)).

    H's diagonal is shifted by -c in place, the norm taken, and the diagonal
    restored bit for bit from a copy: no d×d temporary.
    """
    d = h.shape[0]
    diagonal = h.diagonal().copy()
    h.flat[::d + 1] -= c
    distance = frobenius_norm(h)
    h.flat[::d + 1] = diagonal
    return distance


def measure(a, dims: Sequence[int]) -> State:
    """Validate a certify input and measure it, once.

    A matrix goes through ``hermitian`` and ``check_matrix_dims``, and its
    trace, distance, floor and normalization are recorded; a ``State`` is
    returned as it is, once its dims are checked to be ``dims``, so its
    ``psd`` is decided at most once however many tests read it.
    """
    if not isinstance(a, State):
        h = hermitian(a)
        checked, d = check_matrix_dims(h, dims)
        trace = float(np.trace(h).real)
        distance = distance_from_scalar(h, 1 / d)
        normalized = abs(trace - 1) <= TRACE_TOL
        # ||H - I/d||_2² = ||H - (t/d)·I||_2² + (t - 1)²/d: the sharper
        # distance is worth a second pass only when t is far from 1
        spread = distance if normalized else distance_from_scalar(h, trace / d)
        a = State(h, checked, trace, distance, psd_floor(trace, spread, d), normalized)
    if a.dims != check_dims(dims):
        raise ValueError(f"state has dims {a.dims}, not {tuple(dims)}")
    return a


# ---------------------------------------------------------------------------
# Tensor structure
# ---------------------------------------------------------------------------

def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, refusing outputs above the materialization cap."""
    check_materializable(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    return np.kron(a, b)


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


def partial_transpose(h, dims: Sequence[int], subsystem: int) -> np.ndarray:
    """Transpose on one tensor factor.

    ``dims`` lists the local dimensions; ``subsystem`` is a 0-based party
    index, a ``check_count`` >= 0, and raises ``IndexError`` past the last
    party.  The operation is an involution and preserves trace and
    Frobenius norm.
    """
    h = as_matrix(h)
    dims, _ = check_matrix_dims(h, dims)
    subsystem = check_count(subsystem, "subsystem", 0)
    if subsystem >= len(dims):
        raise IndexError(f"subsystem index {subsystem} out of range for {dims}")
    return transpose_parties(h, dims, (subsystem,))


def transpose_parties(h: np.ndarray, dims: tuple[int, ...], parties: Sequence[int]) -> np.ndarray:
    """Transpose on the nonempty set ``parties`` in one axis permutation and copy."""
    m = len(dims)
    axes = list(range(2 * m))
    for p in parties:
        axes[p], axes[m + p] = m + p, p
    d = h.shape[0]
    return h.reshape(dims + dims).transpose(axes).reshape(d, d)


# ---------------------------------------------------------------------------
# Block decompositions
# ---------------------------------------------------------------------------

def blocks(x: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """View a (d1*d2) x (d1*d2) matrix as a d1 x d1 array of d2 x d2 blocks."""
    return x.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3)


def block_norm_matrix(x: np.ndarray, d1: int, d2: int, which: str = "two") -> np.ndarray:
    """Real d1 x d1 matrix of per-block norms.

    ``which="two"`` uses Frobenius norms (so the Frobenius norm of the
    result equals ||X||_2); ``which="inf"`` uses operator norms.
    """
    bl = blocks(x, d1, d2)
    if which == "two":
        return np.linalg.norm(bl, axis=(2, 3))
    if which == "inf":
        return np.linalg.norm(bl, 2, axis=(2, 3))
    raise ValueError(f"which must be 'two' or 'inf', got {which!r}")


def tracelessify_offdiag(x: np.ndarray, d1: int, d2: int) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate by a local unitary so every off-diagonal block is traceless.

    Returns ``((U ⊗ I) X (U ⊗ I)†, U)`` where U diagonalizes the d1 x d1
    matrix of block traces.  Eigenvalues of X are unchanged.
    """
    bl = blocks(x, d1, d2)
    traces = np.trace(bl, axis1=2, axis2=3)
    _, v = np.linalg.eigh(traces)
    u = v.conj().T
    big = np.kron(u, np.eye(d2))
    return big @ x @ big.conj().T, u


# ---------------------------------------------------------------------------
# Linear maps on matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapOnMatrices:
    """Linear map M(in_dim) -> M(out_dim), stored by images of matrix units.

    ``images[i, j]`` is the image of the matrix unit E_ij.
    """

    in_dim: int
    out_dim: int
    images: np.ndarray  # shape (in_dim, in_dim, out_dim, out_dim)

    def __post_init__(self):
        if self.images.shape != (self.in_dim, self.in_dim, self.out_dim, self.out_dim):
            raise ValueError("images array has wrong shape")

    def preserves_hermiticity(self) -> bool:
        """phi(E_ij)† == phi(E_ji) entrywise within ``MAP_TOL``."""
        adj = self.images.conj().transpose(1, 0, 3, 2)
        return bool(np.max(np.abs(self.images - adj)) <= MAP_TOL)

    def is_stochastic(self) -> bool:
        """phi(I) == I entrywise within ``MAP_TOL``."""
        img_i = apply_map(self, np.eye(self.in_dim))
        return bool(np.max(np.abs(img_i - np.eye(self.out_dim))) <= MAP_TOL)


def identity_map(d: int) -> MapOnMatrices:
    check_materializable(d, d, d, d)
    # images[i, j, k, l] = 1 exactly when (i, j) == (k, l)
    return MapOnMatrices(d, d, np.eye(d * d, dtype=complex).reshape(d, d, d, d))


def apply_map(phi: MapOnMatrices, x: np.ndarray) -> np.ndarray:
    """Sum_ij X_ij phi(E_ij), for one X or for each X of a stack ``(..., d, d)``.

    One matrix product of the flattened inputs with the flattened images.
    """
    d_in, d_out = phi.in_dim, phi.out_dim
    check_materializable(*x.shape[:-2], d_out, d_out)
    flat = x.reshape(-1, d_in * d_in) @ phi.images.reshape(d_in * d_in, d_out * d_out)
    return flat.reshape(x.shape[:-2] + (d_out, d_out))


def tilde_apply(phi: MapOnMatrices, x: np.ndarray, d1: int) -> np.ndarray:
    """Apply phi blockwise: the d1 x d1 block matrix of phi(X^(i,j))."""
    out = apply_map(phi, blocks(x, d1, phi.in_dim))
    d_out = d1 * phi.out_dim
    return out.transpose(0, 2, 1, 3).reshape(d_out, d_out)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def cpus() -> int:
    """How many CPUs this process may run on; 1 where that cannot be read."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def workers(jobs: int) -> int:
    """How many processes ``fork_map`` runs ``jobs`` jobs in: the package's one platform rule.

    One per CPU this process may run on, at most one per job and at least
    one, on Linux where ``os.fork`` exists; 1 everywhere else, where a
    forked child's BLAS may not survive the fork.
    """
    if not (hasattr(os, "fork") and sys.platform == "linux"):
        return 1
    return max(1, min(cpus(), jobs))


@functools.cache
def _openblas() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """The thread-count getter and setter of every OpenBLAS this process has loaded.

    The libraries are the mapped files named like OpenBLAS in
    ``/proc/self/maps``; each gives the first pair it exports of numpy 2's
    ``scipy_openblas_*64_`` names, the 64-bit ``openblas_*64_`` ones and the
    plain ``openblas_*`` ones.  Empty for another BLAS or build, or where
    there is no ``/proc``.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                found.append((get, set_))
                break
    return tuple(found)


def fork_map(jobs: int, run: Callable[[int], object]) -> dict[int, object]:
    """{index: run(index)} for each job index below ``jobs``, on ``workers(jobs)`` processes.

    This process and one forked child per further worker take indices from
    one pipe, filled up front, until it is empty; a child that cannot be
    forked leaves its share to the others.  Each child pickles
    ``(index, result)`` back through its own pipe as each job ends.  A job
    that raised in a child, or whose child died, sends nothing back, and
    that child takes no further job.  Once every child is reaped and the
    BLAS counts are restored, this process runs each job left without a
    result, in index order, so the answer holds every index and such a
    job's exception is raised as in a serial run.  An exception in this
    process's own share is raised only after every child has been killed
    and reaped.  An index takes four bytes of the pipe, whose buffer
    (64 KiB on Linux) must hold them all: the callers have one job per
    check or per CPU.

    This process reads the children's results only once it has finished
    its own share, so a child whose pickled results fill its pipe (64 KiB
    on Linux) waits until then, and takes no further job meanwhile: of 139
    jobs of about 12 KiB of results each, a child finished only 8 to 15.
    So a caller whose jobs return more than a few bytes has one job per
    process, as the matrix reader has one range per process.

    With W > 1 processes, the CPUs are shared between them and their BLAS
    threads: before the first fork each loaded OpenBLAS is capped at
    min(its count, max(1, cpus() // W)) threads, which the children
    inherit, and its count is set back once every child is reaped.  The cap
    never raises a count, so ``OPENBLAS_NUM_THREADS`` stays an upper bound.
    """
    n = workers(jobs)
    blas = [(set_threads, get()) for get, set_threads in (_openblas() if n > 1 else ())]
    queue, feed = os.pipe()
    try:
        os.write(feed, b"".join(i.to_bytes(4, "little") for i in range(jobs)))
    finally:
        os.close(feed)

    def indices() -> Iterator[int]:
        # every index was written before the first read: a read takes a
        # whole index, or nothing once the queue is empty
        while index := os.read(queue, 4):
            yield int.from_bytes(index, "little")

    done: dict[int, object] = {}
    children: list[tuple[int, int]] = []  # each child's pid and its results pipe
    finished = False
    try:
        for set_threads, count in blas:
            set_threads(min(count, max(1, cpus() // n)))
        for _ in range(n - 1):
            results, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the others take its share
                os.close(results)
                os.close(out)
                continue
            if pid == 0:
                try:
                    os.close(results)
                    with open(out, "wb") as sink:
                        for index in indices():
                            pickle.dump((index, run(index)), sink)
                            sink.flush()
                finally:
                    os._exit(0)
            os.close(out)
            children.append((pid, results))
        for index in indices():
            done[index] = run(index)
        for _, results in children:
            # read to the end, or to a record cut short by a child that died
            with open(results, "rb", closefd=False) as source, \
                    contextlib.suppress(EOFError, pickle.UnpicklingError):
                while True:
                    index, result = pickle.load(source)
                    done[index] = result
        finished = True
    finally:
        os.close(queue)
        for pid, results in children:
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.close(results)
            os.waitpid(pid, 0)
        for set_threads, count in blas:
            set_threads(count)
    for index in range(jobs):
        if index not in done:  # its child raised or died: run it here, as in a serial run
            done[index] = run(index)
    return done


# ---------------------------------------------------------------------------
# Matrix file format
# ---------------------------------------------------------------------------

#: Pairs formatted per ``orjson.dumps`` call by the matrix writer; the chunks
#: join into the bytes of one whole-object dump.
WRITE_CHUNK = 1 << 14

#: Bytes of the entries array the matrix reader checks and parses at a time;
#: each block runs on to the end of the pair it stops in.  Parsed into Python
#: floats, a block of short numbers takes over ten times its size, so blocks
#: are kept small; parse speed is flat from 128 KiB to 1 MiB.
READ_BLOCK = 1 << 18

#: Fewest bytes of the entries array the reader hands one process when it
#: parses a file on several CPUs: a range this long takes about 80 ms to
#: parse at 100 MB/s, and a fork and reap of a process holding a 10-qubit
#: file 2-4 ms, under 5% of that.
PARSE_RANGE_MIN = 32 * READ_BLOCK


def _json_pieces(m, dims) -> Iterator[bytes]:
    """Validate ``m`` and ``dims`` now; return the pieces of their file's bytes.

    The pieces are the head, then the entries ``WRITE_CHUNK`` pairs at a
    time (each after the first led by ","), then the tail: joined, they are
    ``orjson.dumps({"dims": dims, "entries": pairs}, option=OPT_SERIALIZE_NUMPY)``
    for the d²×2 array of (re, im) pairs.  ``as_matrix`` has refused
    non-finite entries, which orjson would write as null.
    """
    m = as_matrix(m)
    dims, _ = check_matrix_dims(m, dims)
    pairs = np.ascontiguousarray(m).view(np.float64).reshape(-1, 2)

    def pieces():
        yield b'{"dims":' + orjson.dumps(dims) + b',"entries":['
        for start in range(0, len(pairs), WRITE_CHUNK):
            if start:
                yield b","
            # a chunk is "[[re,im],...]": drop the outer brackets
            yield orjson.dumps(pairs[start:start + WRITE_CHUNK],
                               option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
        yield b"]}"

    return pieces()


def matrix_to_json(m, dims: Sequence[int]) -> str:
    """Serialize to the {"dims": [...], "entries": [[re, im], ...]} format.

    The text is one compact ``orjson.dumps`` of that object.
    """
    return b"".join(_json_pieces(m, dims)).decode("ascii")


_WS = rb"[ \t\n\r]*"

#: The head of a flat file, up to the entries array: the dims key first,
#: holding only digits, commas and whitespace, then the entries key, with any
#: JSON whitespace between tokens, as in orjson's compact layout and
#: ``json.dumps``' spaced one.
_FLAT_HEAD = re.compile(
    _WS + rb"\{" + _WS + rb'"dims"' + _WS + rb":" + _WS + rb"(\[[0-9, \t\n\r]*\])"
    + _WS + rb"," + _WS + rb'"entries"' + _WS + rb":" + _WS
)

#: What may follow the entries array's closing bracket.
_FLAT_TAIL = re.compile(_WS + rb"\}" + _WS)

#: Bytes that may form a number in an entries array, and a map of them to "0".
_NUMBER_BYTES = b"0123456789+-.eE"
_NUMBERS_TO_ZERO = bytes.maketrans(_NUMBER_BYTES, b"0" * len(_NUMBER_BYTES))

#: Byte map that turns brackets into spaces.
_UNBRACKET = bytes.maketrans(b"[]", b"  ")

_LEADING_WS = re.compile(_WS)


def _parse_range(data: bytes, lo: int, hi: int, lead: bytes, out: np.ndarray) -> bool:
    """Parse the pairs in data[lo:hi] into ``out``; False if the range is refused.

    The range is a run of whole pairs: it starts at the entries array's "["
    or right after a pair's "]", and ends right after a pair's "]" or at the
    array's closing "]".  It is read in blocks of about ``READ_BLOCK`` bytes,
    each ending right after a pair's "]".  Only number bytes, JSON
    whitespace and the marks "[", "]", "," may occur in a block.  With the
    whitespace taken out and every number byte read as "0", its marks must
    read lead + "[,]" + ",[,]"·(k - 1) for some k >= 1, where the lead is
    ``lead`` in the range's first block and the comma before the block's
    first pair in every later one; no number byte may start the block,
    follow a "]" or precede a "[", so numbers stand only inside pairs.  The
    numbers after the lead are then parsed by ``orjson`` as one flat JSON
    list, brackets turned into spaces, and written into ``out``; the range
    is taken when exactly ``out.size`` were parsed.  Whether each number is
    valid JSON, and finite, is left to the parser.
    """
    filled = 0
    while lo < hi:
        stop = data.find(b"]", lo + READ_BLOCK, hi) + 1 or hi
        tokens = data[lo:stop].translate(_NUMBERS_TO_ZERO, b" \t\n\r")
        marks = tokens.translate(None, b"0")  # and any refused byte
        if marks != lead + b"[,]" + b",[,]" * (len(marks) // 4 - 1):
            return False
        token = np.frombuffer(tokens, np.uint8)
        number = token == ord("0")
        if (number[0] or (number[1:] & (token[:-1] == ord("]"))).any()
                or (number[:-1] & (token[1:] == ord("["))).any()):
            return False
        first = _LEADING_WS.match(data, lo).end()  # the lead mark
        text = b"".join((b"[", data[first + 1:stop].translate(_UNBRACKET), b"]"))
        try:
            block = np.array(orjson.loads(text), dtype=np.float64)
        except orjson.JSONDecodeError:
            return False
        if filled + block.size > out.size:
            return False
        out[filled:filled + block.size] = block
        filled += block.size
        lo, lead = stop, b","
    return filled == out.size


def _count_closes(data: bytes, lo: int, hi: int) -> int:
    """How many "]" data[lo:hi] holds.

    Counted by numpy ``READ_BLOCK`` bytes at a time: about four times as
    fast as ``bytes.count``, with no temporary the size of the file.
    """
    a = np.frombuffer(data, np.uint8)
    return sum(int(np.count_nonzero(a[i:min(i + READ_BLOCK, hi)] == ord("]")))
               for i in range(lo, hi, READ_BLOCK))


def _parse_entries(data: bytes, start: int, close: int, pairs: int) -> np.ndarray | None:
    """The 2·``pairs`` doubles of the entries data[start:close], else None.

    The array is cut into one range per process ``workers`` grants for
    jobs of ``PARSE_RANGE_MIN`` bytes, so into one range off Linux; each
    cut falls right after a pair's "]" as a block ends.  A range's doubles
    start at 2 × (the count of "]" before it), which its parse then checks.
    ``fork_map`` parses the ranges, in forked children too, into a shared
    anonymous mmap; one range is parsed here into private memory.  A child
    runs only ``_parse_range`` (bytes, numpy and orjson, no BLAS) and reads
    the file's bytes copy-on-write; a range whose child died is parsed
    here.  The file is taken when every range reports True.  Since each
    range is a run of whole blocks and each block is checked by the same
    rule, where the cuts fall changes neither whether the file is taken nor
    its doubles.
    """
    n = workers((close - start) // PARSE_RANGE_MIN)
    cuts = sorted({start, close, *(data.find(b"]", start + k * (close - start) // n, close) + 1
                                   or close for k in range(1, n))})
    offsets = [0]
    for lo, hi in zip(cuts[:-2], cuts[1:-1]):
        offsets.append(offsets[-1] + _count_closes(data, lo, hi))
    if offsets[-1] > pairs:
        return None
    offsets.append(pairs)
    values = (np.frombuffer(mmap.mmap(-1, 16 * pairs), np.float64) if len(cuts) > 2
              else np.empty(2 * pairs, np.float64))
    ranges = [(lo, hi, b"[" if lo == start else b",", values[2 * a:2 * b])
              for lo, hi, a, b in zip(cuts, cuts[1:], offsets, offsets[1:])]
    done = fork_map(len(ranges), lambda i: _parse_range(data, *ranges[i]))
    return values if all(done.values()) else None


def _read_flat(data: bytes) -> tuple[np.ndarray, tuple[int, ...]] | None:
    """(matrix, dims) of a file in ``save_matrix``'s layout, else None.

    The entries array, short of its closing "]", is checked and parsed by
    ``_parse_entries``, which applies ``_parse_range``'s rule to every block
    and takes the file when exactly 2·d² numbers were parsed.  None leaves
    the file to ``_read_json``, which decides what else is accepted and
    which error is raised; dims above the cap, in a file long enough to
    hold them, are refused here, before the matrix is allocated.
    """
    head = _FLAT_HEAD.match(data)
    close = data.rfind(b"]")  # the entries array's closing "]"
    if head is None or close < head.end() or _FLAT_TAIL.fullmatch(data, close + 1) is None:
        return None
    try:
        dims = check_dims(json.loads(head[1]))
    except ValueError:
        return None
    d = math.prod(dims)
    start = head.end()
    # the shortest array of d² pairs is "[[0,0],…,[0,0]]": 6·d² + 1 bytes
    if close - start < 6 * d * d:
        return None
    check_materializable(d, d)
    values = _parse_entries(data, start, close, d * d)
    if values is None:
        return None
    return values.view(np.complex128).reshape(d, d), dims


def _read_json(text: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """Read any JSON layout of the matrix format with one ``json.loads``."""
    obj = json.loads(text)
    # a missing key surfaces as KeyError, wrong JSON types as TypeError from
    # indexing, int(), len() or complex(), an integer beyond float range as
    # OverflowError from complex()
    try:
        dims = check_dims(obj["dims"])
        d = math.prod(dims)
        check_materializable(d, d)
        entries = obj["entries"]
        if len(entries) != d * d:
            raise ValueError(f"expected {d * d} entries, got {len(entries)}")
        # complex() takes booleans as 1 and 0
        if any(len(pair) != 2 or bool in map(type, pair) for pair in entries):
            raise TypeError("entries must be [re, im] pairs of JSON numbers")
        flat = np.array([complex(x, y) for x, y in entries])
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed matrix file: {exc}") from exc
    return flat.reshape(d, d), dims


def matrix_from_json(text: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """Parse the matrix JSON format; returns (matrix, dims)."""
    found = _read_flat(text.encode("ascii")) if isinstance(text, str) and text.isascii() else None
    return found if found is not None else _read_json(text)


def load_matrix(path) -> tuple[np.ndarray, tuple[int, ...]]:
    data = Path(path).read_bytes()
    found = _read_flat(data)
    return found if found is not None else _read_json(data.decode("utf-8"))


def save_matrix(path, m, dims: Sequence[int]) -> None:
    """Write ``matrix_to_json(m, dims)`` to ``path`` one chunk of entries at a time.

    Only one chunk's text is held at once, never the whole file's.
    """
    pieces = _json_pieces(m, dims)
    with open(path, "wb") as f:
        f.writelines(pieces)
