"""Matrix-core tests: norms, tensor structure, maps, serialization."""

import errno
import functools
import itertools
import json
import math
import os
import re
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import orjson
import pytest

from sepball import matcore, verify
from sepball.sampling import random_density_matrix, random_hermitian, rng_from_seed


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        matcore.as_matrix([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(ValueError):
        matcore.as_matrix([1.0, 2.0])


def test_hermitian_symmetrizes_and_rejects():
    a = np.array([[1.0, 1.0 + 1e-12j], [1.0 - 1e-12j, 2.0]])
    h = matcore.hermitian(a)
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    with pytest.raises(ValueError):
        matcore.hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_hermitian_rejects_an_overflowing_norm():
    # ||A||_2 = inf would make the relative Hermiticity test vacuous: the
    # matrix rejected above, scaled by 1e200, must not pass
    with pytest.raises(ValueError, match="overflows"):
        matcore.hermitian(np.array([[0.0, 1e200], [0.0, 0.0]]))
    # and a Hermitian one would symmetrize to infinite entries
    with pytest.raises(ValueError, match="overflows"):
        matcore.hermitian(np.diag([1e308, 0.0]))
    assert matcore.hermitian(np.diag([1e150, 0.0]))[0, 0] == 1e150


def test_check_dims():
    assert matcore.check_dims([2, 3]) == (2, 3)
    with pytest.raises(ValueError):
        matcore.check_dims([2, 1])
    with pytest.raises(ValueError):
        matcore.check_dims([])
    # each entry is a count (matcore.check_count): numpy integers pass, while
    # integral floats and bools are refused
    assert matcore.check_dims([np.int64(2), 3]) == (2, 3)
    for dims in ([2.5, 2.9], [2, 2.2], ["2", 2], [2, float("inf")], [float("nan")],
                 [2, 3.0], [np.float64(2.0), 2], [2, True]):
        with pytest.raises(ValueError):
            matcore.check_dims(dims)


def test_norms_on_known_matrix():
    # diag(3, -4): Frobenius 5, operator 4
    m = np.diag([3.0, -4.0])
    assert matcore.frobenius_norm(m) == 5.0
    assert matcore.operator_norm(m) == pytest.approx(4.0, abs=1e-14)


def test_eig_hermitian_sorted_decreasing():
    w = matcore.eig_hermitian(np.diag([1.0, 3.0, 2.0]))
    assert np.allclose(w, [3.0, 2.0, 1.0])


def test_is_psd_tolerance_scaling():
    assert matcore.is_psd(np.diag([1.0, 0.0]))
    assert not matcore.is_psd(np.diag([1.0, -1e-6]))
    # relative scaling: a tiny negative eigenvalue next to a huge one passes
    assert matcore.is_psd(np.diag([1e12, -1e-2]))
    # on a stack the scale is each matrix's own, and every matrix must pass
    assert matcore.is_psd(np.stack([np.diag([1.0, 0.0]), np.diag([1e12, -1e-2])]))
    assert not matcore.is_psd(np.stack([np.diag([1e12, 0.0]), np.diag([1.0, -1e-2])]))
    assert not matcore.is_psd(np.stack([np.diag([1.0, -1e-6]), np.eye(2)]))


@pytest.mark.parametrize("d", [256, 1024])
def test_cholesky_certifies_the_identity_and_a_perturbation(d):
    # the rounding term gamma·||R||_2² ~ gamma·d exceeds the margin PSD_TOL
    # at these orders; a negative shift leaves room for it
    delta = random_hermitian(rng_from_seed(d), d)
    for h in (np.eye(d), np.eye(d, dtype=complex), np.eye(d) + 0.5 * delta / np.linalg.norm(delta, 2)):
        assert matcore.is_psd(h) == matcore.PsdCheck(True, "cholesky")


def _measure_inputs() -> dict[str, np.ndarray]:
    rng = rng_from_seed(43)
    ints = rng.integers(-5, 6, size=(12, 12)).astype(float)
    neg_zero = random_hermitian(rng, 12)
    np.fill_diagonal(neg_zero, -0.0)
    return {
        "random": random_hermitian(rng, 12) + 1j * 1e-9 * rng.standard_normal((12, 12)),
        "density": random_density_matrix(rng, 12),
        "integral": ints + ints.T,
        "subnormal": random_hermitian(rng, 12) * 1e-310,
        "negative_zero_diagonal": neg_zero,
    }


@pytest.mark.parametrize("name", sorted(_measure_inputs()))
def test_measure_matches_the_dense_formulas(name):
    a = _measure_inputs()[name]
    before = a.copy()
    state = matcore.measure(a, (3, 4))
    # the caller's array is untouched, and h is hermitian's output, its
    # diagonal restored bit for bit after the distance
    assert np.array_equal(a.view(np.uint64), before.view(np.uint64))
    h = matcore.hermitian(a)
    assert np.array_equal(state.h.view(np.uint64), h.view(np.uint64))
    assert state.dims == (3, 4)
    assert state.trace == float(np.trace(h).real)
    assert state.distance == np.linalg.norm(h - np.eye(12) / 12)
    assert np.array_equal(state.h.view(np.uint64), h.view(np.uint64))
    # the floor takes the distance from (t/d)·I once t is off 1, from I/d before
    t = state.trace
    spread = (state.distance if abs(t - 1) <= matcore.TRACE_TOL
              else np.linalg.norm(h - t / 12 * np.eye(12)))
    assert state.floor == matcore.psd_floor(t, spread, 12)


@pytest.mark.parametrize("trace", [1.0, 12.0, 1e-3])
@pytest.mark.parametrize("scale", [0.0, 1e-3, 0.05, 1.0])
def test_state_floor_bounds_lambda_min(trace, scale):
    rng = rng_from_seed(45)
    for _ in range(20):
        g = random_hermitian(rng, 12)
        np.fill_diagonal(g, g.diagonal() - np.trace(g).real / 12)
        h = trace * (np.eye(12) / 12 + scale * g / np.linalg.norm(g))
        state = matcore.measure(h, (3, 4))
        assert state.floor <= np.linalg.eigvalsh(state.h)[0]
        if scale == 0.0:
            # a multiple of I has floor t/d, at any trace
            assert state.floor == pytest.approx(trace / 12, rel=1e-12)


def test_measure_takes_a_state_once():
    a = random_density_matrix(rng_from_seed(44), 8)
    state = matcore.measure(a, (2, 4))
    assert matcore.measure(state, (2, 4)) is state
    assert matcore.measure(state, [np.int64(2), 4]) is state
    for dims in ((4, 2), (2, 2, 2), (8,)):
        with pytest.raises(ValueError, match="state has dims"):
            matcore.measure(state, dims)
    with pytest.raises(ValueError):
        matcore.measure(state, (2, 1))


def test_measure_validates():
    with pytest.raises(ValueError, match="not Hermitian"):
        matcore.measure(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,))
    with pytest.raises(ValueError, match="product of dims"):
        matcore.measure(np.eye(4), (2, 3))
    with pytest.raises(ValueError, match="non-finite"):
        matcore.measure(np.diag([np.nan, 1.0]), (2,))


def test_kron_cap():
    with pytest.raises(matcore.MaterializationError):
        matcore.kron(np.eye(100), np.eye(100))


def test_partial_transpose_bell():
    bell = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    pt = matcore.partial_transpose(bell, (2, 2), 1)
    w = matcore.eig_hermitian(pt)
    # [DERIVED] eigenvalues of the partially transposed Bell state
    assert np.allclose(w, [0.5, 0.5, 0.5, -0.5], atol=1e-14)


def test_partial_transpose_involution_and_invariants():
    rng = rng_from_seed(7)
    dims = (2, 3, 2)
    rho = random_density_matrix(rng, 12)
    for p in range(3):
        pt = matcore.partial_transpose(rho, dims, p)
        assert np.allclose(matcore.partial_transpose(pt, dims, p), rho, atol=1e-15)
        assert matcore.frobenius_norm(pt) == pytest.approx(
            matcore.frobenius_norm(rho), abs=1e-13
        )
        assert np.trace(pt).real == pytest.approx(1.0, abs=1e-13)


def test_transpose_parties_matches_chained_partial_transposes():
    rng = rng_from_seed(19)
    dims = (2, 3, 2)
    rho = random_density_matrix(rng, 12)
    for size in range(1, 4):
        for parties in itertools.combinations(range(3), size):
            chained = rho
            for p in parties:
                chained = matcore.partial_transpose(chained, dims, p)
            assert np.array_equal(matcore.transpose_parties(rho, dims, parties), chained)


def test_blocks_and_block_norms():
    rng = rng_from_seed(3)
    x = random_hermitian(rng, 6)
    bl = matcore.blocks(x, 2, 3)
    assert bl.shape == (2, 2, 3, 3)
    assert np.array_equal(bl[0, 1], x[0:3, 3:6])
    two = matcore.block_norm_matrix(x, 2, 3, "two")
    # Frobenius norm of the block-norm matrix equals the full Frobenius norm
    assert np.linalg.norm(two) == pytest.approx(matcore.frobenius_norm(x), abs=1e-12)
    inf = matcore.block_norm_matrix(x, 2, 3, "inf")
    assert np.all(inf <= two + 1e-12)


def test_tracelessify_offdiag():
    rng = rng_from_seed(11)
    x = random_hermitian(rng, 8)
    y, u = matcore.tracelessify_offdiag(x, 2, 4)
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
    bl = matcore.blocks(y, 2, 4)
    assert abs(np.trace(bl[0, 1])) < 1e-12
    # spectrum preserved by the local rotation
    assert np.allclose(
        matcore.eig_hermitian(y), matcore.eig_hermitian(x), atol=1e-12
    )


def test_map_on_matrices_identity():
    phi = matcore.identity_map(3)
    assert phi.is_stochastic()
    assert phi.preserves_hermiticity()
    rng = rng_from_seed(5)
    x = random_hermitian(rng, 3)
    assert np.allclose(matcore.apply_map(phi, x), x, atol=1e-15)
    # a stack of inputs gives the stack of their images
    stack = np.stack([x, 2 * x, random_hermitian(rng, 3)])
    images = matcore.apply_map(phi, stack)
    assert images.shape == (3, 3, 3)
    assert np.allclose(images, stack, atol=1e-15)


def test_tilde_apply_blockwise():
    phi = matcore.identity_map(2)
    rng = rng_from_seed(9)
    x = random_hermitian(rng, 6)
    assert np.allclose(matcore.tilde_apply(phi, x, 3), x, atol=1e-15)


def test_matrix_json_roundtrip_bitexact(tmp_path):
    rng = rng_from_seed(13)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    # signed zeros, which compare equal to 0.0 but must survive the trip
    m[0, 1], m[2, 3] = complex(-0.0, -0.0), complex(0.0, -0.0)
    path = tmp_path / "m.json"
    matcore.save_matrix(path, m, (2, 2))
    back, dims = matcore.load_matrix(path)
    assert dims == (2, 2)
    assert np.array_equal(back.view(np.uint64), m.view(np.uint64))


def test_matrix_json_rejects_wrong_entry_count():
    with pytest.raises(ValueError):
        matcore.matrix_from_json('{"dims": [2, 2], "entries": [[1.0, 0.0]]}')
    # a missing key is a malformed file, not a KeyError
    for text in ('{"dims": [2]}', '{"entries": [[1.0, 0.0]]}'):
        with pytest.raises(ValueError, match="malformed matrix file"):
            matcore.matrix_from_json(text)


# ---------------------------------------------------------------------------
# Matrix file reader and writer against the per-entry reference versions
# ---------------------------------------------------------------------------

def _reference_entries(m, dims) -> tuple[list[int], list[list[float]]]:
    """Checked dims and the (re, im) pairs of ``m`` as Python floats."""
    m = matcore.as_matrix(m)
    dims, _ = matcore.check_matrix_dims(m, dims)
    return list(dims), [[float(z.real), float(z.imag)] for z in m.ravel()]


def _reference_matrix_to_json(m, dims) -> str:
    """A file in the spaced ``json.dumps`` layout that older writers wrote."""
    dims, entries = _reference_entries(m, dims)
    return json.dumps({"dims": dims, "entries": entries})


def _reference_orjson(m, dims) -> bytes:
    """The writer's bytes: one whole-object ``orjson.dumps``."""
    dims, entries = _reference_entries(m, dims)
    return orjson.dumps({"dims": dims, "entries": entries})


def _reference_matrix_from_json(text: str):
    """The reader as one json.loads and one complex() per entry."""
    obj = json.loads(text)
    try:
        dims = matcore.check_dims(obj["dims"])
        d = math.prod(dims)
        entries = obj["entries"]
        if len(entries) != d * d:
            raise ValueError(f"expected {d * d} entries, got {len(entries)}")
        flat = np.array([complex(re, im) for re, im in entries])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix file: {exc}") from exc
    return flat.reshape(d, d), dims


def _random_matrix(seed: int, d: int) -> np.ndarray:
    rng = rng_from_seed(seed)
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _entries_text(entries: list[str], dims: str = "[2]") -> str:
    """A file in the spaced ``json.dumps`` layout with the given entry texts."""
    return '{"dims": ' + dims + ', "entries": [' + ", ".join(entries) + "]}"


#: One two-by-two file per entry text: the other three entries are fixed.
ENTRY_TEXTS = ["[NaN, 0]", "[Infinity, -Infinity]", "[1, 0]", "[-0, 0]", "[1e3, -2E-3]",
               "[1.5e+2, 0]", "[-0.0, -0.0]", "[1e400, 0]", "[9007199254740993, 0]",
               "[123456789012345678901234567890, 0]", "[+1, 0]", "[01, 0]", "[1., 0]",
               "[.5, 0]", "[-, 0]", "[1e, 0]", "[0x1, 0]", "[1 2, 0]", "[\"0.5\", 0]",
               "[null, 0]", "[[1, 0], 0]", "[1, 0, 0]", "[1]", "[]", "1"]


def _entries_start(saved: bytes) -> int:
    """Where the entries array's "[" stands in a flat file of any layout."""
    return saved.index(b"[[")


def _block_boundary_defects(saved: bytes) -> dict[str, bytes]:
    """Defects of a multi-block file placed where a read block ends.

    The reader's first block ends right after the first "]" at least
    ``READ_BLOCK`` bytes into the entries array, and its last block right
    before the array's closing "]"; each defect keeps those brackets where
    they are.  The pair separator may carry whitespace after its comma.
    """
    start = _entries_start(saved)
    end = saved.index(b"]", start + matcore.READ_BLOCK)  # the block's last byte
    assert saved[end + 1:end + 2] == b","
    inner = saved.rindex(b",", 0, end)  # the comma inside the pair ending there
    close = saved.rindex(b"]")
    return {
        "block_number_after_pair": saved[:end + 1] + b" 7" + saved[end + 1:],
        "block_truncated_pair": saved[:inner] + b" " * (end - inner) + saved[end:],
        "block_missing_comma": saved[:end + 1] + saved[end + 2:],
        "block_comma_before_close": saved[:close] + b", " + saved[close:],
    }


def _worker_cut_defects(saved: bytes, workers: int) -> dict[str, bytes]:
    """Defects of a file placed where the reader's first range ends.

    Cut into ``workers`` ranges, the entries array's first range ends right
    after the first "]" at least a 1/``workers`` share of the array in; the
    last range ends right before the array's closing "]".  Each defect keeps
    the first cut on the same pair.
    """
    start = _entries_start(saved)
    close = saved.rindex(b"]")
    end = saved.index(b"]", start + (close - start) // workers)  # the range's last byte
    assert saved[end + 1:end + 2] == b","
    inner = saved.rindex(b",", 0, end)
    defects = {
        f"cut{workers}_number_after_pair": saved[:end + 1] + b" 7" + saved[end + 1:],
        f"cut{workers}_truncated_pair": saved[:inner] + b" " * (end - inner) + saved[end:],
        f"cut{workers}_missing_comma": saved[:end + 1] + saved[end + 2:],
        f"cut{workers}_comma_before_close": saved[:close] + b"," + saved[close:],
    }
    for data in defects.values():
        at = data.rindex(b"]")
        assert data.index(b"]", start + (at - start) // workers) == end
    return defects


def _halfway_decimal(x: float) -> str:
    """The exact decimal halfway between x > 0 and the next double up."""
    half = (Fraction(x) + Fraction(float(np.nextafter(x, np.inf)))) / 2
    k = half.denominator.bit_length() - 1  # the denominator is 2**k
    digits = str(half.numerator * 5**k)
    return f"{digits[0]}.{digits[1:] or 0}e{len(digits) - 1 - k}"


def _hard_numbers() -> dict[str, list[str]]:
    """Number texts where a parser that is not correctly rounded goes wrong."""
    rng = rng_from_seed(47)
    doubles = np.abs(rng.standard_normal(24)) * 10.0 ** rng.integers(-300, 300, 24)
    mantissas = ["".join(map(str, rng.integers(0, 10, n))) for n in rng.integers(20, 41, 24)]
    return {
        "halfway": [_halfway_decimal(x) for x in [1.0, 0.1, 2.0**-1074, 2.0**-1022,
                                                  9007199254740992.0, *doubles]],
        "long_mantissas": [f"{'-' if i % 3 else ''}{m[0]}.{m[1:]}e{rng.integers(-320, 300)}"
                           for i, m in enumerate(mantissas)],
        "subnormals": ["2.4703282292062328e-324", "-2.4703282292062327e-324",
                       "4.9406564584124654e-324", "2.2250738585072011e-308",
                       "2.2250738585072012e-308", "1e-400", "-1e-330", "3e-320"],
        "integer_300_digits": ["9" + "1234567890" * 29 + "876543210"],
        "overflow": ["1e400"],
        "negative_overflow": ["-1e400"],
    }


def _numbers_text(numbers: list[str]) -> str:
    """A flat file holding ``numbers``, padded with zeros."""
    qubits = 1
    while 2 * 4**qubits < len(numbers):
        qubits += 1
    padded = numbers + ["0"] * (2 * 4**qubits - len(numbers))
    pairs = [f"[{re}, {im}]" for re, im in zip(padded[::2], padded[1::2])]
    return _entries_text(pairs, json.dumps([2] * qubits))


def _reader_corpus() -> dict[str, bytes]:
    corpus = {}
    # (2,) * 8 holds more than one read block; the files older writers left
    # in json.dumps' layout still take the flat parse
    for dims in [(2,), (3,), (2, 2, 2), (2,) * 6, (2,) * 8]:
        d = math.prod(dims)
        m = _random_matrix(d, d)
        m[0, 0] = -0.0
        m[-1, -1] = 3.0
        corpus[f"saved{dims}"] = matcore.matrix_to_json(m, dims).encode()
        if len(dims) >= 6:
            corpus[f"legacy{dims}"] = _reference_matrix_to_json(m, dims).encode()
    m = _random_matrix(3, 4)
    obj = json.loads(matcore.matrix_to_json(m, (2, 2)))
    corpus["indent1"] = json.dumps(obj, indent=1).encode()
    corpus["tabs"] = json.dumps(obj, indent="\t").encode()
    corpus["crlf"] = json.dumps(obj, indent=2).replace("\n", "\r\n").encode()
    corpus["no_spaces"] = json.dumps(obj, separators=(",", ":")).encode()
    corpus["keys_reordered"] = json.dumps({"entries": obj["entries"], "dims": [2, 2]}).encode()
    corpus["extra_key"] = json.dumps({**obj, "note": "x"}).encode()
    corpus["extra_key_first"] = json.dumps({"note": "x", **obj}).encode()
    corpus["string_with_entries"] = json.dumps(
        {"dims": [2, 2], "note": '"entries": [[', "entries": obj["entries"]}).encode()
    corpus["string_after_entries"] = json.dumps({**obj, "note": '"entries": [[1, 2]]'}).encode()
    corpus["dims_twice"] = (json.dumps(obj)[:-1] + ', "dims": [4]}').encode()
    corpus["dims_float"] = json.dumps({"dims": [2.0, 2], "entries": obj["entries"]}).encode()
    for dims in ["[2, 1]", "[]", "[02]", "[2,]", "[4]", "[2.5]", "[true]", "[99999999999]"]:
        corpus[f"dims{dims}"] = _entries_text(["[1, 0]", "[0, 0]", "[0, 0]", "[1, 0]"],
                                              dims).encode()
    for i, entry in enumerate(ENTRY_TEXTS):
        corpus[f"entry{i}:{entry}"] = _entries_text([entry, "[0, 0]", "[0, 0]", "[1, 0]"]).encode()
    for name, numbers in _hard_numbers().items():
        corpus[name] = _numbers_text(numbers).encode()
    good = ["[0.5, 0]", "[0, 0]", "[0, 0]", "[0.5, 0]"]
    corpus["good"] = _entries_text(good).encode()
    corpus["wrong_count"] = _entries_text(good[:3]).encode()
    corpus["too_many"] = _entries_text(good + ["[0, 0]"]).encode()
    corpus["flat_list"] = b'{"dims": [2], "entries": [0.5, 0, 0, 0, 0, 0, 0.5, 0]}'
    corpus["triple_nesting"] = _entries_text(["[" + e + "]" for e in good]).encode()
    corpus["empty_entries"] = b'{"dims": [2], "entries": []}'
    corpus["entries_object"] = b'{"dims": [2], "entries": {"a": 1}}'
    # numbers outside a pair, with a pair left short so the count still fits
    corpus["number_before_pair"] = b'{"dims": [2], "entries": [0.5[, 0], [0, 0], [0, 0], [0.5, 0]]}'
    corpus["number_after_pair"] = b'{"dims": [2], "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, ]0]}'
    corpus["number_before_later_pair"] = b'{"dims": [2], "entries": [[0.5, 0], 0[, 0], [0, 0], [0.5, 0]]}'
    corpus["number_between_pairs"] = b'{"dims": [2], "entries": [[0.5, 0], [0, ] 0, [0, 0], [0.5, 0]]}'
    corpus["number_before_close"] = b'{"dims": [2], "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, ] 0]}'
    # as many marks as the writer's layout, in another order
    corpus["comma_before_close"] = b'{"dims": [2], "entries": [[0.5, 0, ][0, 0, ][0, 0, ][0.5, 0]]}'
    corpus["trailing_comma"] = _entries_text(good + [""]).encode()
    corpus["leading_comma"] = _entries_text([""] + good).encode()
    corpus["missing_comma"] = b'{"dims": [2], "entries": [[0.5, 0] [0, 0], [0, 0], [0.5, 0]]}'
    corpus["number_before_array"] = b'{"dims": [2], "entries": 1[[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}'
    text = _entries_text(good).encode()
    corpus["trailing_text"] = text + b" x"
    corpus["trailing_bracket"] = text + b"]"
    corpus["trailing_whitespace"] = b" \n" + text + b"\r\n\t "
    corpus["truncated"] = text[:-1]
    corpus["bom"] = b"\xef\xbb\xbf" + text
    corpus["invalid_utf8"] = text.replace(b'"dims"', b'"d\xffms"')
    corpus["invalid_utf8_in_string"] = text[:-1] + b', "note": "\xff"}'
    corpus["not_json"] = b"not json at all"
    corpus["empty_file"] = b""
    # each defect on both layouts
    for layout in ("saved", "legacy"):
        defects = _block_boundary_defects(corpus[f"{layout}(2, 2, 2, 2, 2, 2, 2, 2)"])
        for workers in (2, 3):
            defects.update(_worker_cut_defects(corpus[f"{layout}(2, 2, 2, 2, 2, 2)"], workers))
        prefix = "" if layout == "saved" else f"{layout}_"
        corpus.update({prefix + name: data for name, data in defects.items()})
    # test ids of word characters only
    named = {re.sub(r"\W+", "_", name).strip("_"): data for name, data in corpus.items()}
    assert len(named) == len(corpus)
    return named


READER_CORPUS = _reader_corpus()


def _read(reader, arg):
    """(matrix, dims) of a reader, or the class of the error it raised."""
    try:
        return reader(arg)
    except ValueError:
        return ValueError


def _assert_same_read(got, want):
    if want is ValueError or got is ValueError:
        assert got is want
        return
    (m, dims), (ref, ref_dims) = got, want
    assert dims == ref_dims
    assert m.dtype == ref.dtype == np.complex128 and m.shape == ref.shape
    assert np.array_equal(m.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("name", list(READER_CORPUS))
def test_reader_matches_reference(tmp_path, name):
    data = READER_CORPUS[name]
    path = tmp_path / "m.json"
    path.write_bytes(data)
    want = _read(lambda p: _reference_matrix_from_json(p.read_text()), path)
    _assert_same_read(_read(matcore.load_matrix, path), want)
    try:
        text = data.decode()
    except UnicodeDecodeError:
        return
    _assert_same_read(_read(matcore.matrix_from_json, text), want)


def test_reader_corpus_takes_both_paths():
    # the writer's layout and its whitespace variants, json.dumps' among
    # them, take the flat parse, every other layout the full JSON reader
    flat = {name for name, data in READER_CORPUS.items() if matcore._read_flat(data) is not None}
    assert {"saved_2_2_2", "saved_2_2_2_2_2_2_2_2", "legacy_2_2_2_2_2_2",
            "legacy_2_2_2_2_2_2_2_2", "indent1", "tabs", "crlf", "no_spaces", "good",
            "trailing_whitespace", "halfway", "long_mantissas", "subnormals",
            "integer_300_digits"} <= flat
    # numbers that overflow to infinity are read by the full JSON reader
    assert not flat & {"keys_reordered", "extra_key", "string_with_entries", "dims_float",
                       "entry0_NaN_0", "entry10_1_0", "bom", "overflow", "negative_overflow"}


@functools.cache
def _reference_read(name: str):
    return _read(lambda data: _reference_matrix_from_json(data.decode()), READER_CORPUS[name])


@pytest.fixture
def cut_into(monkeypatch):
    """``cut_into(n)`` makes the reader cut every file into ``n`` ranges, however short."""
    monkeypatch.setattr(matcore, "PARSE_RANGE_MIN", 1)
    return lambda n: monkeypatch.setattr(matcore, "cpus", lambda: n)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children ``os.fork`` starts in this process."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", list(READER_CORPUS))
def test_parallel_reader_matches_reference(tmp_path, cut_into, name, workers):
    cut_into(workers)
    data = READER_CORPUS[name]
    path = tmp_path / "m.json"
    path.write_bytes(data)
    want = _reference_read(name)
    _assert_same_read(_read(matcore.load_matrix, path), want)
    if data.isascii():
        _assert_same_read(_read(matcore.matrix_from_json, data.decode()), want)
    _assert_no_children()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_parallel_reader_forks_one_child_per_further_range(monkeypatch, cut_into, forks, workers):
    cut_into(workers)
    data = READER_CORPUS["saved_2_2_2_2_2_2_2_2"]
    assert matcore._read_flat(data) is not None
    assert len(forks) == workers - 1
    # a file below the range minimum is parsed in this process alone
    forks.clear()
    monkeypatch.setattr(matcore, "PARSE_RANGE_MIN", len(data))
    assert matcore._read_flat(data) is not None
    assert forks == []


@pytest.mark.parametrize("name", ["saved_2_2_2_2_2_2_2_2", "cut3_truncated_pair",
                                  "cut3_missing_comma", "cut3_comma_before_close"])
def test_no_child_outlives_a_load(tmp_path, cut_into, forks, name):
    # a good file, then files refused only in the first, the middle and the
    # last range; the refused ones go on to the full JSON reader
    cut_into(3)
    path = tmp_path / "m.json"
    path.write_bytes(READER_CORPUS[name])
    _read(matcore.load_matrix, path)
    assert len(forks) == 2
    _assert_no_children()


def test_no_child_outlives_an_error_in_the_parent(tmp_path, monkeypatch, cut_into, forks):
    cut_into(3)
    parent = os.getpid()
    parse_range = matcore._parse_range

    def failing_in_parent(*args):
        if os.getpid() == parent:
            raise RuntimeError("parent failed between fork and reap")
        return parse_range(*args)

    monkeypatch.setattr(matcore, "_parse_range", failing_in_parent)
    path = tmp_path / "m.json"
    path.write_bytes(READER_CORPUS["saved_2_2_2_2_2_2_2_2"])
    with pytest.raises(RuntimeError, match="between fork and reap"):
        matcore.load_matrix(path)
    assert len(forks) == 2
    _assert_no_children()


def test_reader_without_fork_parses_serially(tmp_path, monkeypatch, cut_into):
    cut_into(3)
    monkeypatch.delattr(os, "fork")
    path = tmp_path / "m.json"
    for name in ["saved_2_2_2_2_2_2_2_2", "cut2_number_after_pair", "cut3_truncated_pair", "good"]:
        path.write_bytes(READER_CORPUS[name])
        _assert_same_read(_read(matcore.load_matrix, path), _reference_read(name))


def test_off_linux_nothing_forks(tmp_path, monkeypatch, cut_into, forks):
    # matcore.workers is the one platform rule, for the reader and the suite
    cut_into(1)
    serial = [(r.name, r.passed, r.detail) for r in verify.run_suite("fast", 1)]
    monkeypatch.setattr(sys, "platform", "darwin")
    cut_into(3)
    name = "saved_2_2_2_2_2_2_2_2"
    path = tmp_path / "m.json"
    path.write_bytes(READER_CORPUS[name])
    _assert_same_read(_read(matcore.load_matrix, path), _reference_read(name))
    assert forks == []
    assert matcore.workers(8) == 1
    assert [(r.name, r.passed, r.detail) for r in verify.run_suite("fast", 1)] == serial
    assert forks == []


def test_one_range_is_read_without_counting_or_sharing(monkeypatch, cut_into, forks):
    cut_into(1)

    def unexpected(*args):
        raise AssertionError("a one-range read counts no pairs and maps no shared memory")

    monkeypatch.setattr(matcore, "_count_closes", unexpected)
    monkeypatch.setattr(matcore.mmap, "mmap", unexpected)
    name = "saved_2_2_2_2_2_2_2_2"
    _assert_same_read(_read(matcore.matrix_from_json, READER_CORPUS[name].decode()),
                      _reference_read(name))
    assert forks == []


@pytest.mark.parametrize("name", ["saved_2_2_2_2_2_2_2_2", "cut3_number_after_pair",
                                  "cut3_comma_before_close"])
def test_reader_parses_a_range_here_when_fork_fails(tmp_path, monkeypatch, cut_into, forks, name):
    # the first fork finds no process to spare: its range, the middle one,
    # is parsed in this process and the last range in a child
    cut_into(3)
    fork = os.fork
    calls = []

    def failing_first():
        calls.append(None)
        if len(calls) == 1:
            raise OSError(errno.EAGAIN, "no process to spare")
        return fork()

    monkeypatch.setattr(os, "fork", failing_first)
    path = tmp_path / "m.json"
    path.write_bytes(READER_CORPUS[name])
    _assert_same_read(_read(matcore.load_matrix, path), _reference_read(name))
    assert len(calls) == 2 and len(forks) == 1


def test_reader_parses_a_range_here_when_its_child_dies(tmp_path, monkeypatch, cut_into, forks):
    # both children die in their range: this process parses those ranges
    # too, and the file never goes to the full JSON reader
    cut_into(3)
    parent = os.getpid()
    parse_range = matcore._parse_range

    def dies_in_a_child(*args):
        if os.getpid() != parent:
            os._exit(1)
        time.sleep(0.2)  # time for each child to take a range
        return parse_range(*args)

    def unexpected(text):
        raise AssertionError("a lost range sent the file to the full JSON reader")

    monkeypatch.setattr(matcore, "_parse_range", dies_in_a_child)
    monkeypatch.setattr(matcore, "_read_json", unexpected)
    name = "legacy_2_2_2_2_2_2"
    path = tmp_path / "m.json"
    path.write_bytes(READER_CORPUS[name])
    _assert_same_read(_read(matcore.load_matrix, path), _reference_read(name))
    assert len(forks) == 2


def test_openblas_lookup_finds_the_loaded_count(blas_threads):
    get, set_threads = blas_threads
    set_threads(3)
    assert matcore._openblas()[0][0]() == 3


@pytest.mark.parametrize("cpus, start, share", [(2, 4, 1), (3, 4, 1), (4, 3, 2), (4, 1, 1)])
def test_fork_map_shares_the_cpus_with_blas(monkeypatch, blas_threads, forks, cpus, start, share):
    # two jobs in two processes: each runs min(start, cpus // 2) BLAS
    # threads, at least one and never more than before
    get, set_threads = blas_threads
    set_threads(start)
    assert get() == start
    monkeypatch.setattr(matcore, "cpus", lambda: cpus)

    def job(index):
        time.sleep(0.2)  # long enough for the forked child to take the other job
        return os.getpid(), get()

    done = matcore.fork_map(2, job)
    assert sorted(pid for pid, _ in done.values()) == sorted([os.getpid(), *forks])
    assert [threads for _, threads in done.values()] == [share, share]
    assert get() == start


def test_fork_map_restores_blas_threads_when_a_job_here_raises(monkeypatch, blas_threads, forks):
    get, set_threads = blas_threads
    set_threads(3)
    monkeypatch.setattr(matcore, "cpus", lambda: 2)
    parent = os.getpid()

    def job(index):
        if os.getpid() == parent:
            raise RuntimeError(f"failed at {get()} BLAS threads")
        time.sleep(0.2)  # leaves the other job to this process
        return index

    with pytest.raises(RuntimeError, match="failed at 1 BLAS threads"):
        matcore.fork_map(2, job)
    assert len(forks) == 1
    assert get() == 3


@pytest.mark.parametrize("cpus, jobs", [(1, 4), (4, 1), (4, 0), (3, 3)])
def test_fork_map_sets_blas_threads_only_when_it_forks(monkeypatch, forks, cpus, jobs):
    # a stand-in library at 2 threads records every count it is set to
    calls = []

    def lookup():
        calls.append("lookup")
        return ((lambda: 2, calls.append),)

    monkeypatch.setattr(matcore, "_openblas", lookup)
    monkeypatch.setattr(matcore, "cpus", lambda: cpus)
    assert matcore.fork_map(jobs, lambda i: i * i) == {i: i * i for i in range(jobs)}
    assert calls == ([] if matcore.workers(jobs) == 1 else ["lookup", 1, 2])
    assert len(forks) == matcore.workers(jobs) - 1


def test_fork_map_runs_where_no_openblas_is_found(monkeypatch, forks):
    monkeypatch.setattr(matcore, "_openblas", lambda: ())
    monkeypatch.setattr(matcore, "cpus", lambda: 2)
    assert matcore.fork_map(3, lambda i: i * i) == {0: 0, 1: 1, 2: 4}
    assert len(forks) == 1


def test_fork_map_runs_a_job_here_when_its_child_dies(monkeypatch, forks):
    # every child dies in the first job it takes; this process runs that
    # job after the reap, so the answer holds every index
    monkeypatch.setattr(matcore, "cpus", lambda: 3)
    parent = os.getpid()

    def job(index):
        if os.getpid() != parent:
            os._exit(1)
        time.sleep(0.2)  # time for each child to take a job
        return index * index

    assert matcore.fork_map(3, job) == {i: i * i for i in range(3)}
    assert len(forks) == 2


@pytest.mark.parametrize("entry", ["[true, false]", "[1, true]", "[false, 0]",
                                   "[1, 0, 5]", "[1]", "[]"],
                         ids=["true_false", "one_true", "false_zero",
                              "three_numbers", "one_number", "empty_pair"])
@pytest.mark.parametrize("indent", [None, 1])
def test_reader_rejects_booleans(entry, indent):
    # booleans, and lists that are not pairs
    text = _entries_text([entry, "[0, 0]", "[0, 0]", "[1, 0]"])
    if indent is not None:
        text = json.dumps(json.loads(text), indent=indent)
    with pytest.raises(ValueError, match="malformed matrix file"):
        matcore.matrix_from_json(text)


@pytest.mark.parametrize("indent", [None, 1])
def test_reader_rejects_integers_beyond_float_range(tmp_path, indent):
    text = _entries_text(["[1" + "0" * 400 + ", 0]", "[0, 0]", "[0, 0]", "[1, 0]"])
    if indent is not None:
        text = json.dumps(json.loads(text), indent=indent)
    path = tmp_path / "m.json"
    path.write_text(text)
    for reader, arg in [(matcore.matrix_from_json, text), (matcore.load_matrix, path)]:
        with pytest.raises(ValueError, match="malformed matrix file"):
            reader(arg)


def _writer_inputs() -> list[np.ndarray]:
    tiny = np.nextafter(0.0, 1.0)
    special = np.array([[-0.0, 0.0], [5e-324, -1e308], [1e308, 2.0], [-3.0, 1e-310],
                        [tiny * 7, -0.0], [4.0, 2.0**60], [0.1, 1 / 3], [-1.5, 1e16]])
    return [
        _random_matrix(21, 4),
        _random_matrix(22, 4) * 1e-300,
        np.round(_random_matrix(23, 4) * 100),
        (special[:, 0] + 1j * special[:, 1]).reshape(2, 4).repeat(2, axis=0),
        np.asfortranarray(_random_matrix(24, 4)),
        _random_matrix(25, 8)[::2, ::2],
        _random_matrix(26, 4).T,
        np.eye(4),
        np.arange(16).reshape(4, 4),
    ]


def _assert_writes_reference(tmp_path, m, dims):
    """Both writers give one whole-object orjson.dumps, which reads back as ``m``.

    The doubles are compared bit for bit through the stdlib's ``json.loads``
    as well as ``load_matrix``.
    """
    want = _reference_orjson(m, dims)
    assert matcore.matrix_to_json(m, dims) == want.decode()
    path = tmp_path / "m.json"
    matcore.save_matrix(path, m, dims)
    assert path.read_bytes() == want
    bits = np.ascontiguousarray(m, complex).view(np.uint64).ravel()
    entries = np.array(json.loads(want)["entries"], dtype=np.float64)
    assert np.array_equal(entries.view(np.uint64).ravel(), bits)
    back, _ = matcore.load_matrix(path)
    assert np.array_equal(back.view(np.uint64).ravel(), bits)
    assert matcore._read_flat(want) is not None  # the writer's files take the flat parse


@pytest.mark.parametrize("index", range(len(_writer_inputs())))
def test_writer_matches_reference(tmp_path, index):
    _assert_writes_reference(tmp_path, _writer_inputs()[index], (2, 2))


@pytest.mark.parametrize("d, chunk", [(4, 15), (4, 16), (4, 17), (4, 4), (8, 63), (8, 64),
                                      (8, 65), (8, 1), (256, None)])
def test_writer_chunks_match_one_dumps(monkeypatch, tmp_path, d, chunk):
    # chunk sizes around d² and below it; None keeps WRITE_CHUNK
    if chunk is not None:
        monkeypatch.setattr(matcore, "WRITE_CHUNK", chunk)
    m = _random_matrix(d + 30, d)
    _assert_writes_reference(tmp_path, m, (2,) * (d.bit_length() - 1))


def _writer_identity_values() -> np.ndarray:
    """Doubles at every binary and decimal exponent, and formatting edge cases."""
    rng = rng_from_seed(61)
    mantissas = rng.integers(0, 1 << 52, size=(2047, 4), dtype=np.uint64)
    exponents = np.arange(2047, dtype=np.uint64)[:, None] << np.uint64(52)
    binary = (mantissas | exponents).view(np.float64).ravel()
    with np.errstate(over="ignore"):
        decimal = np.array([float(f"{m}e{x}") for x in range(-326, 309)
                            for m in (1, 5, 12, 25, 125, 9876543, 12345678901234567)])
    # around where formatters switch between positional and exponent notation
    edges = [np.nextafter(x, toward) for x in (1e-5, 1e-4, 1e16) for toward in (0, x, np.inf)]
    subnormals = [5e-324, 1e-323, 3e-320, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308]
    integral = [0.0, 1.0, 2.0, 7.0, 10.0, 100.0, 123456789.0, 1e15, 2.0**53, 2.0**53 + 2, 1e16, 1e17]
    # runs of zeros after the point, inside a number
    inner = [10.00001, 1230.000045, 20.000071234]
    values = np.concatenate([binary, decimal[np.isfinite(decimal)], edges, subnormals, integral,
                             inner])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("chunk", [None, 5])
def test_writer_round_trips_every_exponent(monkeypatch, tmp_path, chunk):
    # chunks of 5 pairs end on every kind of number
    if chunk is not None:
        monkeypatch.setattr(matcore, "WRITE_CHUNK", chunk)
    values = _writer_identity_values()
    k = math.isqrt(len(values) // 2 - 1) + 1
    entries = np.zeros(2 * k * k)
    entries[:len(values)] = values
    _assert_writes_reference(tmp_path, entries.view(np.complex128).reshape(k, k), (k,))


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan, complex(0, math.inf)])
def test_save_refuses_nonfinite_entries_before_writing(tmp_path, entry):
    # orjson would write a non-finite entry as null
    m = np.eye(4, dtype=complex)
    m[1, 2] = entry
    path = tmp_path / "m.json"
    with pytest.raises(ValueError, match="non-finite"):
        matcore.save_matrix(path, m, (2, 2))
    assert not path.exists()


def test_save_refuses_bad_input_before_writing(tmp_path):
    path = tmp_path / "m.json"
    with pytest.raises(ValueError):
        matcore.save_matrix(path, np.eye(4), (2, 3))
    assert not path.exists()


def test_save_and_load_peak_memory(tmp_path):
    # a 10-qubit state: 16 MB as a matrix, about 45 MB as a file
    d = 1024
    m = _random_matrix(41, d)
    path = tmp_path / "m.json"
    tracemalloc.start()
    try:
        matcore.save_matrix(path, m, (2,) * 10)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        back, _ = matcore.load_matrix(path)
        load_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.view(np.uint64), m.view(np.uint64))
    mb = 1 << 20
    assert save_peak < 32 * mb
    # the file's bytes, the matrix and one block's worth of parsing
    assert load_peak < path.stat().st_size + 16 * d * d + 16 * mb
