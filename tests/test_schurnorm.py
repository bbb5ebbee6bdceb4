"""Schur-map norm tests: simplex QP, closed forms, oracle, majorization."""

import itertools
import math

import numpy as np
import pytest

from sepball import schurnorm
from sepball.matcore import operator_norm
from sepball.sampling import (
    random_hermitian,
    random_product_ensemble,
    random_unit_vector,
    rng_from_seed,
)


def test_simplex_qp_identity_vertex():
    res = schurnorm.simplex_qp_max(np.eye(3))
    assert res.value == pytest.approx(1.0, abs=1e-14)
    assert len(res.support) == 1


def test_simplex_qp_all_ones_flat():
    res = schurnorm.simplex_qp_max(np.ones((4, 4)))
    assert res.value == pytest.approx(1.0, abs=1e-14)


def test_simplex_qp_two_by_two():
    # [DERIVED] C = [[1, 4], [4, 1]]: uniform y gives (1+4+4+1)/4 = 2.5
    res = schurnorm.simplex_qp_max(np.array([[1.0, 4.0], [4.0, 1.0]]))
    assert res.value == pytest.approx(2.5, abs=1e-12)
    assert np.allclose(res.maximizer, [0.5, 0.5], atol=1e-12)


def test_simplex_qp_validation():
    with pytest.raises(ValueError):
        schurnorm.simplex_qp_max(np.array([[1.0, 2.0], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        schurnorm.simplex_qp_max(-np.eye(2))  # negative entries
    with pytest.raises(ValueError):
        schurnorm.simplex_qp_max(np.eye(17))  # over the exact-solver cap
    for c in ([[np.nan]], [[1.0, np.nan], [np.nan, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="C must be finite"):
            schurnorm.simplex_qp_max(np.array(c))
    with pytest.raises(ValueError, match="C must be non-empty"):
        schurnorm.simplex_qp_max(np.zeros((0, 0)))


def _reference_simplex_qp_max(c):
    """The per-support loop the stacked solver replaced: value and support."""
    n = c.shape[0]
    best = None
    scale = max(1.0, float(np.max(c)))
    for support in sorted(
        s for r in range(1, n + 1) for s in itertools.combinations(range(n), r)
    ):
        cs = c[np.ix_(support, support)]
        ones = np.ones(len(support))
        try:
            z = np.linalg.solve(cs, ones)
        except np.linalg.LinAlgError:
            z = np.linalg.pinv(cs) @ ones
        total = z.sum()
        if abs(total) < 1e-14:
            continue
        ys = z / total
        if np.any(ys < -1e-12):
            continue
        ys = np.clip(ys, 0.0, None)
        ys /= ys.sum()
        y = np.zeros(n)
        y[list(support)] = ys
        value = float(y @ c @ y)
        if best is None or value > best[0] + 1e-12 * scale:
            best = (value, support)
    return best


def _adjacency(rng, n, p):
    adj = np.triu(rng.random((n, n)) < p, 1)
    return (adj | adj.T).astype(float)


def _clique_number(adj):
    n = adj.shape[0]
    return max(
        r
        for r in range(1, n + 1)
        for s in itertools.combinations(range(n), r)
        if all(adj[i, j] for i, j in itertools.combinations(s, 2))
    )


@pytest.mark.parametrize("chunk", [1, 7, 512])
def test_simplex_qp_matches_reference_loop(monkeypatch, chunk):
    # chunks of 1 and 7 split every size class across several stacked calls
    monkeypatch.setattr(schurnorm, "FACE_CHUNK", chunk)
    rng = rng_from_seed(61)
    corpus = []
    for n in range(1, 11):
        c = np.abs(random_hermitian(rng, n)) ** 2
        corpus.append(c)
        # 0/1 adjacency matrices have many singular faces
        corpus.append(_adjacency(rng, n, 0.3) + np.eye(n))
        corpus.append(_adjacency(rng, n, 0.7))
    # exact ties across sizes go to the lexicographically smallest support
    corpus += [np.ones((4, 4)), np.eye(5), np.ones((7, 7)), np.eye(9)]
    tie = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 1.5], [0.0, 1.5, 0.5]])
    corpus.append(tie)  # vertex (0,) and the later face (1, 2) both reach 1
    # the singular face (0, 1, 2) sorts before its sub-face (0, 2) and ties
    # it at 1/2 = 1 - 1/omega
    singular = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    corpus.append(singular)
    # each vertex is a new running maximum, but (1,) gains less than the
    # tolerance over (0,), and only (2,) gains more than it over the incumbent
    creeping = np.diag([1.0, 1.0 + 5e-13, 1.0 + 1.2e-12])
    corpus.append(creeping)
    for c in corpus:
        if not c.any():
            continue  # the loop has no feasible face on C = 0
        want_value, want_support = _reference_simplex_qp_max(c)
        got = schurnorm.simplex_qp_max(c)
        assert got.support == want_support
        assert abs(got.value - want_value) <= 1e-12 * max(1.0, float(np.max(c)))
    assert schurnorm.simplex_qp_max(tie).support == (0,)
    assert schurnorm.simplex_qp_max(creeping).support == (2,)
    res = schurnorm.simplex_qp_max(singular)
    assert res.support == (0, 1, 2)
    assert res.maximizer.tolist() == [0.5, 0.0, 0.5]
    assert res.value == 0.5


def test_simplex_qp_zero_matrix_is_vertex():
    res = schurnorm.simplex_qp_max(np.zeros((3, 3)))
    assert res.value == 0.0
    assert res.support == (0,)
    assert res.maximizer.tolist() == [1.0, 0.0, 0.0]


def test_simplex_qp_motzkin_straus():
    # [DERIVED] max y^t A y over the simplex is 1 - 1/omega for a graph A
    rng = rng_from_seed(67)
    for _ in range(12):
        n = int(rng.integers(2, 10))
        adj = _adjacency(rng, n, rng.uniform(0.2, 0.8))
        if not adj.any():
            continue
        want = 1.0 - 1.0 / _clique_number(adj)
        assert schurnorm.simplex_qp_max(adj).value == pytest.approx(want, abs=1e-12)


def test_simplex_qp_result_invariants():
    rng = rng_from_seed(31)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        c = np.abs(random_hermitian(rng, n)) ** 2
        c = (c + c.T) / 2
        res = schurnorm.simplex_qp_max(c)
        assert np.all(res.maximizer >= -1e-15)
        assert res.maximizer.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.value == pytest.approx(
            float(res.maximizer @ c @ res.maximizer), abs=1e-12
        )
        # dominance over random simplex points
        y = rng.dirichlet(np.ones(n), size=500)
        assert float(np.einsum("ki,ij,kj->k", y, c, y).max()) <= res.value + 1e-9


def test_schur_norm_all_ones_is_identity_map():
    assert schurnorm.schur_two_inf_norm(np.ones((2, 2))) == pytest.approx(
        1.0, abs=1e-12
    )
    assert schurnorm.schur_two_inf_norm(np.ones((5, 5))) == pytest.approx(
        1.0, abs=1e-12
    )


def test_l_matrix_closed_form_grid():
    for eta in (1.5, 2.0, 3.0):
        for n in range(2, 9):
            want = math.sqrt((eta * eta * (n - 1) + 1.0) / n)
            assert schurnorm.l_matrix_norm(eta, n) == pytest.approx(want, abs=1e-14)
            got = schurnorm.schur_two_inf_norm(schurnorm.l_matrix(eta, n))
            assert got == pytest.approx(want, abs=1e-10)


def test_l_matrix_norm_eta_one_and_validation():
    for n in (1, 2, 5):
        assert schurnorm.l_matrix_norm(1.0, n) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        schurnorm.l_matrix_norm(0.5, 3)


def test_oracle_matches_exact_small():
    rng = rng_from_seed(41)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        b = random_hermitian(rng, n)
        exact = schurnorm.schur_two_inf_norm(b)
        oracle = schurnorm.oracle_two_inf_norm(b, seed=int(rng.integers(2**31)))
        assert oracle <= exact + 1e-9
        assert exact - oracle <= 1e-6


def test_oracle_known_values():
    assert schurnorm.oracle_two_inf_norm(np.ones((4, 4)), seed=1) == pytest.approx(
        1.0, abs=1e-9
    )
    # B = I extracts the diagonal; max ||diag(|x_i|^2)||_2 = 1 at a basis vector
    assert schurnorm.oracle_two_inf_norm(np.eye(4), seed=1) == pytest.approx(
        1.0, abs=1e-9
    )


@pytest.mark.parametrize("restarts", [0, -3, 2.5, float("nan")])
def test_oracle_rejects_bad_restarts(restarts):
    with pytest.raises(ValueError, match="restarts must be a positive integer"):
        schurnorm.oracle_two_inf_norm(np.eye(2), restarts=restarts, seed=1)


def _reference_oracle(b, restarts, seed):
    """The per-restart loop the batched ascent replaced."""
    b = (b + b.conj().T) / 2
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
        vertex = float(c[np.argmax(y), np.argmax(y)])
        best = max(best, value, vertex)
    return math.sqrt(best)


def test_oracle_matches_per_restart_loop():
    rng = rng_from_seed(71)
    for _ in range(20):
        n = int(rng.integers(1, 13))
        b = random_hermitian(rng, n)
        restarts = int(rng.integers(1, 100))
        seed = int(rng.integers(2**31))
        want = _reference_oracle(b, restarts, seed)
        got = schurnorm.oracle_two_inf_norm(b, restarts=restarts, seed=seed)
        assert abs(got - want) <= 1e-12 * want


class _DrawRecorder:
    """Stands in for the oracle's generator and records every draw's shape."""

    def __init__(self, seed):
        self.rng = rng_from_seed(seed)
        self.shapes = []

    def standard_normal(self, size):
        self.shapes.append(size)
        return self.rng.standard_normal(size)


@pytest.mark.parametrize("steps", [3, schurnorm.ASCENT_STEPS])
def test_oracle_independent_of_restart_block(monkeypatch, steps):
    # cut short, the ascent ends off its fixed points, where the value
    # moves with the last bit of every step; a zero diagonal keeps the
    # vertices from deciding the maximum
    monkeypatch.setattr(schurnorm, "ASCENT_STEPS", steps)
    rng = rng_from_seed(73)
    for n in (3, 8, 24):
        b = random_hermitian(rng, n)
        np.fill_diagonal(b, 0.0)
        results = {}
        for block in (1, 7, 64):
            recorder = _DrawRecorder(5)
            monkeypatch.setattr(schurnorm, "rng_from_seed", lambda seed: recorder)
            monkeypatch.setattr(schurnorm, "RESTART_BLOCK", block)
            value = schurnorm.oracle_two_inf_norm(b, restarts=70)
            # the draws, and so the arrays, are bounded by the block
            assert max(shape[0] for shape in recorder.shapes) == min(block, 70)
            assert sum(shape[0] for shape in recorder.shapes) == 70
            results[block] = (value, recorder.rng.bit_generator.state)
        assert results[1] == results[7] == results[64]


def test_duality_sampled_never_exceeds_norm():
    rng = rng_from_seed(43)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        b = random_hermitian(rng, n)
        norm = schurnorm.schur_two_inf_norm(b)
        for _ in range(50):
            x = random_hermitian(rng, n)
            x /= np.linalg.norm(x)
            assert operator_norm(b * x) <= norm + 1e-6


def test_gram_matches_outer_sum_spectrum():
    rng = rng_from_seed(47)
    vs = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(3)]
    g = schurnorm.gram(vs)
    outer = sum(np.outer(v, v.conj()) for v in vs)
    eg = np.sort(np.linalg.eigvalsh(g))[::-1]
    eo = np.sort(np.linalg.eigvalsh(outer))[::-1]
    assert np.allclose(eg, eo[:3], atol=1e-10)
    assert np.allclose(eo[3:], 0.0, atol=1e-10)


def test_majorizes_basic():
    assert schurnorm.majorizes([1, 0, 0], [1 / 3, 1 / 3, 1 / 3])
    assert not schurnorm.majorizes([0.5, 0.5, 0.0], [0.6, 0.3, 0.1])
    assert schurnorm.majorizes([0.4, 0.6], [0.6, 0.4])  # order-insensitive
    with pytest.raises(ValueError):
        schurnorm.majorizes([1.0], [2.0])


def test_nielsen_kempe_single_pair_and_ensembles():
    x = np.array([1.0, 2.0])
    y = np.array([1.0, 0.0])
    assert schurnorm.nielsen_kempe_check([(x, y)])
    rng = rng_from_seed(53)
    for _ in range(50):
        pairs = random_product_ensemble(rng, 3, 3, int(rng.integers(2, 7)))
        assert schurnorm.nielsen_kempe_check(pairs)


def test_nielsen_kempe_rejects_unnormalized_y():
    with pytest.raises(ValueError):
        schurnorm.nielsen_kempe_check([(np.ones(2), np.ones(2))])


def test_ds_schur_majorization():
    rng = rng_from_seed(59)
    # all-ones B is the identity map: equality case
    x = random_hermitian(rng, 4)
    assert schurnorm.ds_schur_majorization_check(np.ones((4, 4)), x)
    # B = I extracts the diagonal (Schur-Horn direction)
    assert schurnorm.ds_schur_majorization_check(np.eye(4), x)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        vs = [random_unit_vector(rng, 3) for _ in range(n)]
        b = schurnorm.gram(vs)
        assert schurnorm.ds_schur_majorization_check(b, random_hermitian(rng, n))


def test_ds_schur_validation():
    with pytest.raises(ValueError):
        schurnorm.ds_schur_majorization_check(2 * np.eye(3), np.eye(3))
