"""Dense complex/Hermitian matrix algebra underlying the whole package.

Matrices are plain ``numpy.ndarray`` values with ``complex128`` entries.

Validation happens once, at the public boundary: ``as_matrix`` and
``hermitian`` are the only validators, and each function exported by the
package (plus the CLI) runs them once per outside argument.  Every other
function here is a kernel that takes trusted ndarrays and never re-validates;
``kron`` still enforces the materialization cap.

Matrix files hold ``{"dims": [...], "entries": [[re, im], ...]}`` in
row-major order.  A file laid out as ``save_matrix`` writes it (the dims key
first, then the entries key, any JSON whitespace between tokens) is read
with one flat parse of its 2·d² numbers; every other valid JSON layout still
loads, through the full JSON parser.  Entries must be JSON numbers:
booleans and integers beyond float range are rejected as malformed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

#: Largest total dimension for which matrices may be materialized (12 qubits).
MATERIALIZATION_CAP = 4096

#: Default relative PSD tolerance, scaled by max(1, operator norm).
PSD_TOL = 1e-10

#: Reject nominally-Hermitian input when the anti-Hermitian part is this
#: large relative to the matrix itself.
HERMITICITY_REJECT_TOL = 1e-8

#: Entrywise tolerance of the ``MapOnMatrices`` property checks.
MAP_TOL = 1e-12


class MaterializationError(ValueError):
    """Raised when an operation would materialize a matrix above the cap."""


def as_matrix(a) -> np.ndarray:
    """Validate and convert input to a finite complex square matrix."""
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
    ``||A - A†||_2 > HERMITICITY_REJECT_TOL * ||A||_2`` raise ``ValueError``.
    """
    m = as_matrix(a)
    anti = m - m.conj().T
    norm_m = frobenius_norm(m)
    if norm_m > 0 and frobenius_norm(anti) > HERMITICITY_REJECT_TOL * norm_m:
        raise ValueError("input is not Hermitian within the rejection threshold")
    return (m + m.conj().T) / 2


def check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    """Validate a profile of local dimensions: integers (numpy ones too), each >= 2."""
    dims = tuple(dims)
    # an infinite entry maps to 0, where int() would raise OverflowError
    out = tuple(0 if d in (math.inf, -math.inf) else int(d) for d in dims)
    if out != dims:
        raise ValueError(f"local dimensions must be integers, got {dims}")
    if not out:
        raise ValueError("empty dimension profile")
    if any(d < 2 for d in out):
        raise ValueError(f"all local dimensions must be >= 2, got {out}")
    return out


def check_matrix_dims(m: np.ndarray, dims: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Checked dims profile and its product, which must be the order of ``m``."""
    dims = check_dims(dims)
    d = math.prod(dims)
    if m.shape[0] != d:
        raise ValueError(f"matrix dimension {m.shape[0]} != product of dims {d}")
    return dims, d


def check_materializable(d: int) -> None:
    if d > MATERIALIZATION_CAP:
        raise MaterializationError(
            f"dimension {d} exceeds the materialization cap {MATERIALIZATION_CAP}; "
            "use the formula-level operations instead"
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


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(m, compute_uv=False).sum())


def eig_hermitian(h: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted decreasing.

    A stack ``(..., d, d)`` gives one row of eigenvalues per matrix.  Only
    the lower triangle is read.  Raises ``numpy.linalg.LinAlgError`` on
    convergence failure (never silently returns garbage).
    """
    return np.linalg.eigvalsh(h)[..., ::-1].copy()


def is_psd(h: np.ndarray, tol: float = PSD_TOL) -> bool:
    """True iff lambda_min(H) >= -tol * max(1, ||H||_inf).

    On a stack ``(..., d, d)`` the rule is applied to each matrix, and the
    answer is True iff every one of them passes.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    w = eig_hermitian(h)
    scale = np.maximum(1.0, np.abs(w).max(axis=-1))
    return bool(np.all(w[..., -1] >= -tol * scale))


# ---------------------------------------------------------------------------
# Tensor structure
# ---------------------------------------------------------------------------

def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, refusing outputs above the materialization cap."""
    check_materializable(a.shape[0] * b.shape[0])
    check_materializable(a.shape[1] * b.shape[1])
    return np.kron(a, b)


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


def partial_transpose(h, dims: Sequence[int], subsystem: int) -> np.ndarray:
    """Transpose on one tensor factor.

    ``dims`` lists the local dimensions; ``subsystem`` is a 0-based index.
    The operation is an involution and preserves trace and Frobenius norm.
    """
    h = as_matrix(h)
    dims, _ = check_matrix_dims(h, dims)
    if not 0 <= subsystem < len(dims):
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
    # images[i, j, k, l] = 1 exactly when (i, j) == (k, l)
    return MapOnMatrices(d, d, np.eye(d * d, dtype=complex).reshape(d, d, d, d))


def apply_map(phi: MapOnMatrices, x: np.ndarray) -> np.ndarray:
    """Sum_ij X_ij phi(E_ij), for one X or for each X of a stack ``(..., d, d)``.

    One matrix product of the flattened inputs with the flattened images.
    """
    d_in, d_out = phi.in_dim, phi.out_dim
    flat = x.reshape(-1, d_in * d_in) @ phi.images.reshape(d_in * d_in, d_out * d_out)
    return flat.reshape(x.shape[:-2] + (d_out, d_out))


def tilde_apply(phi: MapOnMatrices, x: np.ndarray, d1: int) -> np.ndarray:
    """Apply phi blockwise: the d1 x d1 block matrix of phi(X^(i,j))."""
    out = apply_map(phi, blocks(x, d1, phi.in_dim))
    d_out = d1 * phi.out_dim
    return out.transpose(0, 2, 1, 3).reshape(d_out, d_out)


# ---------------------------------------------------------------------------
# Matrix file format
# ---------------------------------------------------------------------------

def matrix_to_json(m, dims: Sequence[int]) -> str:
    """Serialize to the {"dims": [...], "entries": [[re, im], ...]} format."""
    m = as_matrix(m)
    dims, _ = check_matrix_dims(m, dims)
    entries = np.ascontiguousarray(m).view(np.float64).reshape(-1, 2).tolist()
    return json.dumps({"dims": list(dims), "entries": entries})


_WS = rb"[ \t\n\r]*"

#: The head of ``save_matrix``'s layout, up to the entries array: the dims
#: key first, holding only digits, commas and whitespace, then the entries key.
_FLAT_HEAD = re.compile(
    _WS + rb"\{" + _WS + rb'"dims"' + _WS + rb":" + _WS + rb"(\[[0-9, \t\n\r]*\])"
    + _WS + rb"," + _WS + rb'"entries"' + _WS + rb":" + _WS
)

#: What may follow the entries array's closing bracket.
_FLAT_TAIL = re.compile(_WS + rb"\}" + _WS)

#: Byte kinds in an entries array: 0 refused, 1 whitespace, 2 number byte,
#: 3 "[", 4 "]", 5 ",".
_ENTRY_KIND = np.zeros(256, np.uint8)
_ENTRY_KIND[np.frombuffer(b" \t\n\r", np.uint8)] = 1
_ENTRY_KIND[np.frombuffer(b"0123456789+-.eE", np.uint8)] = 2
_ENTRY_KIND[np.frombuffer(b"[],", np.uint8)] = (3, 4, 5)

#: The marks of one pair and the comma after it, "[,],", as kinds.
_PAIR_MARKS = np.array([3, 5, 4, 5], np.uint8)

#: Byte map that turns brackets into spaces.
_UNBRACKET = np.arange(256, dtype=np.uint8)
_UNBRACKET[np.frombuffer(b"[]", np.uint8)] = ord(" ")


def _is_pair_array(a: np.ndarray, n: int) -> bool:
    """True iff the bytes ``a`` are an array of ``n`` pairs ``[x, y]``.

    Only number bytes, JSON whitespace and the marks "[", "]", "," may occur;
    the marks must read "[[,],[,],…,[,]]" and number bytes may stand only
    inside a pair.  Whether each number is valid JSON is left to the parser.
    """
    kind = _ENTRY_KIND[a]
    if not (kind.all() and kind[0] == 3 and kind[-1] == 4):
        return False
    at = np.flatnonzero(kind >= 3)
    marks = kind[at]
    if marks.size != 4 * n + 1 or not np.array_equal(marks[1:-1], np.tile(_PAIR_MARKS, n)[:-1]):
        return False
    # does the stretch from each mark up to the next hold a number byte?
    numbers = np.logical_or.reduceat(kind == 2, at)
    # stretches from the outer "[", from a pair's "]" and from the comma after it
    return not (numbers[0] or numbers[3::4].any() or numbers[4::4].any())


def _read_flat(data: bytes) -> tuple[np.ndarray, tuple[int, ...]] | None:
    """(matrix, dims) of a file in ``save_matrix``'s layout, else None.

    The entries array is checked by ``_is_pair_array`` and then parsed as
    one flat JSON list of numbers, its inner brackets turned into spaces.
    None leaves the file to ``_read_json``, which decides what else is
    accepted and which error is raised.
    """
    head = _FLAT_HEAD.match(data)
    end = data.rfind(b"]") + 1
    if head is None or end <= head.end() or _FLAT_TAIL.fullmatch(data, end) is None:
        return None
    try:
        dims = check_dims(json.loads(head[1]))
    except ValueError:
        return None
    d = math.prod(dims)
    a = np.frombuffer(data, np.uint8)[head.end():end]
    if not _is_pair_array(a, d * d):
        return None
    flat = _UNBRACKET[a]
    flat[0], flat[-1] = a[0], a[-1]
    text = str(flat, "ascii")
    del flat  # one copy of the file less while the parser builds its list
    try:
        values = np.array(json.loads(text), dtype=np.float64)
    except (ValueError, OverflowError):
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
        entries = obj["entries"]
        if len(entries) != d * d:
            raise ValueError(f"expected {d * d} entries, got {len(entries)}")
        flat = np.array([complex(x, y) for x, y in entries])
        # complex() takes booleans as 1 and 0
        if any(type(x) is bool for pair in entries for x in pair):
            raise TypeError("entries must be JSON numbers, not booleans")
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
    Path(path).write_text(matrix_to_json(m, dims))
