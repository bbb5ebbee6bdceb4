"""Geometry tests: symmetry witnesses, John figures, unitary bases."""

import cmath
import math
from itertools import product

import numpy as np
import pytest

from sepball import geometry
from sepball.matcore import MaterializationError, is_psd, kron_all
from sepball.sampling import random_hermitian, random_unit_vector, rng_from_seed

# dims and local vectors of the separable witnesses built by ``verify`` and
# by the tests below
SEP_CASES = [((2, 2), [np.array([1.0, 0.0])] * 2)] + [
    (dims, [random_unit_vector(rng, dp) for dp in dims])
    for rng in (rng_from_seed(5), rng_from_seed(0xB0B5))
    for dims in [(2, 2), (2, 2, 2), (3, 3), (9,)]
]


def reference_sep_witness(dims, local_vectors):
    """The dense construction: one kron_all of local projectors per index tuple."""
    bases = [geometry.complete_local_basis(np.asarray(v, dtype=complex)) for v in local_vectors]
    d = math.prod(dims)
    pi = kron_all([np.outer(b[:, 0], b[:, 0].conj()) for b in bases])
    states = []
    for idx in product(*(range(dp) for dp in dims)):
        if all(i == 0 for i in idx):
            continue
        states.append(
            kron_all([np.outer(b[:, i], b[:, i].conj()) for b, i in zip(bases, idx)])
        )
    return np.full(d - 1, 1.0 / (d - 1)), np.array(states), (np.eye(d) - pi) / (d - 1)


def reference_unitary_basis(n):
    """The P^k S^l products by repeated matrix multiplication."""
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


def reference_mes_witness(n):
    """The dense construction: (I ⊗ U) pi (I ⊗ U)† for each non-identity U."""
    psi = np.zeros(n * n, dtype=complex)
    for i in range(n):
        psi[i * n + i] = 1.0 / math.sqrt(n)
    pi = np.outer(psi, psi.conj())
    states = []
    for u in reference_unitary_basis(n)[1:]:
        big = np.kron(np.eye(n, dtype=complex), u)
        states.append(big @ pi @ big.conj().T)
    d = n * n
    return np.full(d - 1, 1.0 / (d - 1)), np.array(states), (np.eye(d) - pi) / (d - 1)


@pytest.mark.parametrize("dims, local_vectors", SEP_CASES)
def test_sep_witness_matches_dense_reference(dims, local_vectors):
    weights, states, target = reference_sep_witness(dims, local_vectors)
    w = geometry.sep_symmetry_witness(dims, local_vectors)
    d = math.prod(dims)
    assert w.vectors.shape == (d - 1, d)
    assert np.array_equal(w.weights, weights)
    assert np.array_equal(w.target, target)
    assert np.max(np.abs(w.states - states)) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mes_witness_matches_dense_reference(n):
    weights, states, target = reference_mes_witness(n)
    w = geometry.mes_symmetry_witness(n)
    assert w.vectors.shape == (n * n - 1, n * n)
    assert np.array_equal(w.weights, weights)
    assert np.array_equal(w.target, target)
    assert np.max(np.abs(w.states - states)) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_unitary_basis_matches_product_loop(n):
    basis = geometry.unitary_basis(n)
    assert basis.shape == (n * n, n, n)
    assert np.array_equal(basis[0], np.eye(n))
    # the loop's rounding grows with the number of products taken
    assert np.max(np.abs(basis - np.array(reference_unitary_basis(n)))) <= 1e-14


def test_witness_states_refuse_stacks_above_the_cap():
    # 288 states of dimension 289 hold 288 * 289^2 > 4096^2 entries
    w = geometry.mes_symmetry_witness(17)
    assert w.vectors.shape == (288, 289)
    assert w.reconstruction_error() <= 1e-12
    with pytest.raises(MaterializationError):
        w.states


@pytest.mark.parametrize(
    "fn",
    [
        geometry.sep_symmetry_coefficient,
        geometry.john_ball_figures,
        geometry.unitary_basis,
        geometry.mes_symmetry_witness,
    ],
)
@pytest.mark.parametrize("d", [2.5, 1, 0, -3, math.inf])
def test_dimension_arguments_are_validated(fn, d):
    with pytest.raises(ValueError):
        fn(d)


def test_complete_local_basis_unitary():
    rng = rng_from_seed(3)
    for d in (2, 3, 5):
        v = random_unit_vector(rng, d)
        u = geometry.complete_local_basis(v)
        assert np.max(np.abs(u @ u.conj().T - np.eye(d))) < 1e-12
        assert np.max(np.abs(u[:, 0] - v)) < 1e-12
    # e1 itself maps to the identity basis
    e1 = np.zeros(3)
    e1[0] = 1.0
    u = geometry.complete_local_basis(e1)
    assert np.max(np.abs(u - np.eye(3))) < 1e-14
    with pytest.raises(ValueError):
        geometry.complete_local_basis(np.array([1.0, 1.0]))


def test_sep_symmetry_coefficient_values():
    assert geometry.sep_symmetry_coefficient(2) == 1.0
    assert geometry.sep_symmetry_coefficient(4) == pytest.approx(1 / 3, abs=1e-15)
    assert geometry.sep_symmetry_coefficient(8) == pytest.approx(1 / 7, abs=1e-15)


def test_sep_symmetry_witness_computational_basis():
    e1 = np.array([1.0, 0.0])
    w = geometry.sep_symmetry_witness((2, 2), [e1, e1])
    assert len(w.states) == 3
    assert w.reconstruction_error() < 1e-13
    pi = np.zeros((4, 4))
    pi[0, 0] = 1.0
    assert np.max(np.abs(w.target - (np.eye(4) - pi) / 3)) < 1e-14


def test_sep_symmetry_witness_rejects_unit_dims():
    with pytest.raises(ValueError):
        geometry.sep_symmetry_witness((1, 1), [np.ones(1), np.ones(1)])


def test_sep_symmetry_witness_random_vectors():
    rng = rng_from_seed(5)
    for dims in [(2, 2), (2, 2, 2), (3, 3), (9,)]:
        vecs = [random_unit_vector(rng, dp) for dp in dims]
        w = geometry.sep_symmetry_witness(dims, vecs)
        d = math.prod(dims)
        assert len(w.states) == d - 1
        assert w.reconstruction_error() <= 1e-12
        assert np.allclose(w.weights, 1.0 / (d - 1))
        for s in w.states:
            assert is_psd(s, 1e-12)
            assert np.trace(s).real == pytest.approx(1.0, abs=1e-12)


def test_symmetry_coefficient_criticality():
    for d in (2, 4, 8, 9):
        pi = np.zeros((d, d))
        pi[0, 0] = 1.0
        alpha = geometry.sep_symmetry_coefficient(d)
        at = (1 + alpha) * np.eye(d) / d - alpha * pi
        w = np.linalg.eigvalsh(at)
        assert w.min() >= -1e-15
        assert abs(w.min()) <= 1e-12  # eigenvalue exactly zero at criticality
        above = (1 + 1.05 * alpha) * np.eye(d) / d - 1.05 * alpha * pi
        assert not is_psd(above, 1e-12)


def test_john_ball_figures():
    fig = geometry.john_ball_figures(4)
    assert fig["shrink"] == pytest.approx(1.0 / (4.0 * math.sqrt(3.0)), abs=1e-15)
    assert fig["covering_ball"] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-15)
    assert fig["inner_ball_bound"] == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert geometry.john_ball_figures(2)["covering_ball"] == pytest.approx(
        1.0 / math.sqrt(2.0), abs=1e-15
    )
    for d in (2, 3, 9):
        assert geometry.john_ball_figures(d)["inner_ball_bound"] == pytest.approx(
            d ** (-1.5), abs=1e-15
        )


def test_unitary_basis_properties():
    for n in (2, 3, 4):
        basis = geometry.unitary_basis(n)
        assert len(basis) == n * n
        assert np.max(np.abs(basis[0] - np.eye(n))) == 0.0
        vecs = np.array([u.ravel() for u in basis])
        g = vecs.conj() @ vecs.T
        assert np.max(np.abs(g - n * np.eye(n * n))) < 1e-10


def test_depolarizing_identity():
    rng = rng_from_seed(7)
    for n in (2, 3):
        basis = geometry.unitary_basis(n)
        x = random_hermitian(rng, n)
        depol = sum(u @ x @ u.conj().T for u in basis) / n
        assert np.max(np.abs(depol - np.trace(x) * np.eye(n))) <= 1e-11


def test_mes_symmetry_witness():
    for n in (2, 3):
        w = geometry.mes_symmetry_witness(n)
        assert len(w.states) == n * n - 1
        assert w.reconstruction_error() <= 1e-12
        for s in w.states:
            t = s.reshape(n, n, n, n)
            for marg in (np.trace(t, axis1=1, axis2=3), np.trace(t, axis1=0, axis2=2)):
                assert np.max(np.abs(marg - np.eye(n) / n)) <= 1e-12


def test_maximally_entangled_projector():
    pi = geometry.maximally_entangled_projector(2)
    assert np.trace(pi).real == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(pi @ pi - pi)) < 1e-14
