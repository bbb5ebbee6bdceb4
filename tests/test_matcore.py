"""Matrix-core tests: norms, tensor structure, maps, serialization."""

import itertools
import math

import numpy as np
import pytest

from sepball import matcore
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


def test_check_dims():
    assert matcore.check_dims([2, 3]) == (2, 3)
    with pytest.raises(ValueError):
        matcore.check_dims([2, 1])
    with pytest.raises(ValueError):
        matcore.check_dims([])
    # entries must equal their int; numpy integers and integral floats pass
    assert matcore.check_dims([np.int64(2), 3.0]) == (2, 3)
    for dims in ([2.5, 2.9], [2, 2.2], ["2", 2], [2, float("inf")], [float("nan")]):
        with pytest.raises(ValueError):
            matcore.check_dims(dims)


def test_norms_on_known_matrix():
    # diag(3, -4): Frobenius 5, operator 4, trace norm 7
    m = np.diag([3.0, -4.0])
    assert matcore.frobenius_norm(m) == 5.0
    assert matcore.operator_norm(m) == pytest.approx(4.0, abs=1e-14)
    assert matcore.trace_norm(m) == pytest.approx(7.0, abs=1e-14)


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
    path = tmp_path / "m.json"
    matcore.save_matrix(path, m, (2, 2))
    back, dims = matcore.load_matrix(path)
    assert dims == (2, 2)
    assert np.array_equal(back, m)


def test_matrix_json_rejects_wrong_entry_count():
    with pytest.raises(ValueError):
        matcore.matrix_from_json('{"dims": [2, 2], "entries": [[1.0, 0.0]]}')
    # a missing key is a malformed file, not a KeyError
    for text in ('{"dims": [2]}', '{"entries": [[1.0, 0.0]]}'):
        with pytest.raises(ValueError, match="malformed matrix file"):
            matcore.matrix_from_json(text)
