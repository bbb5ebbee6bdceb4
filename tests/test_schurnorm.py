"""Schur-map norm tests: simplex QP, closed forms, oracle, majorization."""

import itertools
import math
import os

import numpy as np
import pytest

from sepball import matcore, schurnorm
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
    with pytest.raises(ValueError, match="C must be real"):
        schurnorm.simplex_qp_max(np.array([[1 + 1j]]))
    for lower in (True, False, "3.5", 1j, math.nan, np.nan):
        with pytest.raises(ValueError, match="lower must be a real number"):
            schurnorm.simplex_qp_max(np.eye(2), lower=lower)
    # C's own checks come first
    with pytest.raises(ValueError, match="C must be symmetric"):
        schurnorm.simplex_qp_max(np.array([[1.0, 2.0], [0.0, 1.0]]), lower="3.5")
    for lower in (-math.inf, math.inf, -1.0, 0, np.float64(0.5), 2):
        assert schurnorm.simplex_qp_max(np.eye(2), lower=lower).support == (0,)


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


#: Vertex (0,) and the later face (1, 2) both reach 1.
TIE = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 1.5], [0.0, 1.5, 0.5]])

#: The singular face (0, 1, 2) sorts before its sub-face (0, 2) and ties it
#: at 1/2 = 1 - 1/omega.
SINGULAR = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])

#: Each vertex is a new running maximum, but (1,) gains less than the
#: tolerance over (0,), and only (2,) gains more than it over the incumbent.
CREEPING = np.diag([1.0, 1.0 + 5e-13, 1.0 + 1.2e-12])


def _reference_corpus():
    """Random, 0/1 and tie-breaking inputs at n = 1..10."""
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
    return corpus + [TIE, SINGULAR, CREEPING]


@pytest.mark.parametrize("chunk", [1, 7, 512])
def test_simplex_qp_matches_reference_loop(monkeypatch, chunk):
    # chunks of 1 and 7 split every size class across several stacked calls
    monkeypatch.setattr(schurnorm, "FACE_CHUNK", chunk)
    for c in _reference_corpus():
        if not c.any():
            continue  # the loop has no feasible face on C = 0
        want_value, want_support = _reference_simplex_qp_max(c)
        got = schurnorm.simplex_qp_max(c)
        assert got.support == want_support
        assert abs(got.value - want_value) <= 1e-12 * max(1.0, float(np.max(c)))
    assert schurnorm.simplex_qp_max(TIE).support == (0,)
    assert schurnorm.simplex_qp_max(CREEPING).support == (2,)
    res = schurnorm.simplex_qp_max(SINGULAR)
    assert res.support == (0, 1, 2)
    assert res.maximizer.tolist() == [0.5, 0.0, 0.5]
    assert res.value == 0.5


def _bits(res):
    return res.value.hex(), res.support, res.maximizer.tobytes()


def test_simplex_qp_never_forks(monkeypatch):
    # the walk and the full scan run in the calling process at any CPU
    # count, and give the same bits where os.fork is missing
    corpus = _reference_corpus()
    rng = rng_from_seed(14)
    graph = _adjacency(rng, 14, 0.6)
    clique = rng.choice(14, size=7, replace=False)
    graph[np.ix_(clique, clique)] = 1.0 - np.eye(7)
    corpus.append(graph)

    def solve_all():
        return [_bits(schurnorm.simplex_qp_max(c, lower=lower))
                for c in corpus for lower in (None, float(c.diagonal().max()))]

    monkeypatch.setattr(matcore, "cpus", lambda: 1)
    want = solve_all()

    def no_fork():
        raise AssertionError("the exact solver forked")

    monkeypatch.setattr(os, "fork", no_fork)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(matcore, "cpus", lambda: cpus)
        assert solve_all() == want
    monkeypatch.delattr(os, "fork")
    assert solve_all() == want


def _block_faces(blocks):
    """C holding the r x r ``blocks`` on its diagonal, and the index rows of each block."""
    k, r = len(blocks), len(blocks[0])
    c = np.zeros((k * r, k * r))
    for j, block in enumerate(blocks):
        c[j * r:(j + 1) * r, j * r:(j + 1) * r] = block
    return c, np.arange(k * r).reshape(k, r)


def test_face_points_factor_each_face_once(monkeypatch):
    tiny = 1e-320  # subnormal: its LU succeeds, but 1 / tiny overflows
    stacks = [
        [[[0.0]], [[2.0]], [[tiny]], [[0.0]]],
        [
            [[2.0, 1.0], [1.0, 3.0]],  # regular
            [[1.0, 1.0], [1.0, 1.0]],  # exactly singular
            [[0.0, 0.0], [0.0, 0.0]],
            [[1.0, 1.0], [1.0, 1.0 + 2**-52]],  # near-singular
            [[1.0, 0.0], [0.0, tiny]],  # LU succeeds, the solve gives NaN
        ],
        [
            SINGULAR,
            TIE,
            np.ones((3, 3)),
            np.zeros((3, 3)),
            [[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-15, 0.0], [0.0, 0.0, 4.0]],
            [[4.0, 2.0, 2.0], [2.0, 1.0, 1.0], [2.0, 1.0, 5.0]],  # rank 2
        ],
    ]
    seen = {"solve": [], "pinv": []}
    gufunc, pinv = np.linalg._umath_linalg.solve, np.linalg.pinv

    class Spy:
        def solve(self, *args, **kwargs):
            out = gufunc(*args, **kwargs)
            seen["solve"].append(out[..., 0].copy())
            return out

    def spied_pinv(a):
        seen["pinv"].append(a.copy())
        return pinv(a)

    monkeypatch.setattr(np.linalg, "_umath_linalg", Spy())
    monkeypatch.setattr(np.linalg, "pinv", spied_pinv)
    for blocks in stacks:
        c, idx = _block_faces(np.array(blocks, dtype=float))
        cs = np.array(blocks, dtype=float)
        singular = np.linalg.slogdet(cs)[0] == 0
        seen["solve"].clear()
        seen["pinv"].clear()
        schurnorm._face_points(c, idx)
        # pinv takes exactly the faces slogdet calls singular, all at once
        assert len(seen["pinv"]) == (1 if singular.any() else 0)
        assert all(a.tobytes() == cs[singular].tobytes() for a in seen["pinv"])
        # one solve of the whole stack, bit for bit np.linalg.solve on the rest
        (z,) = seen["solve"]
        ones = np.ones((1, cs.shape[1], 1))
        with np.errstate(all="ignore"):
            want = np.linalg.solve(cs[~singular], ones)[..., 0]
        assert z[~singular].tobytes() == want.tobytes()
        assert np.isnan(z[singular]).all()


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
    for eta, n in ((math.nan, 3), (math.inf, 3), (True, 3), (False, 3), (2.0, 0), (2.0, 2.5),
                   (2.0, True)):
        for build in (schurnorm.l_matrix, schurnorm.l_matrix_norm):
            with pytest.raises(ValueError):
                build(eta, n)


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


@pytest.mark.parametrize("restarts", [0, -3, 2.5, float("nan"), True, False])
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


def test_oracle_counts_every_vertex():
    # x = e_i attains |b_ii|, which the ascent from random starts can miss
    # on large B; the value never falls below the per-restart loop's, which
    # counted only each restart's peak among the vertices
    rng = rng_from_seed(91)
    above = []
    for n in (2, 3, 5, 8, 13, 21, 50, 100, 300):
        b = random_hermitian(rng, n)
        seed = int(rng.integers(2**31))
        got = schurnorm.oracle_two_inf_norm(b, restarts=4, seed=seed)
        loop = _reference_oracle(b, 4, seed)
        assert got >= np.abs(np.diagonal(b)).max()
        assert got >= loop * (1 - 1e-12)
        above.append(got > loop * (1 + 1e-12))
    assert any(above)


def test_oracle_vertices_stay_below_the_exact_norm():
    # a heavy diagonal makes vertices decide the value more often
    rng = rng_from_seed(93)
    for n in range(2, 13):
        b = random_hermitian(rng, n)
        b[np.diag_indices(n)] *= 3
        oracle = schurnorm.oracle_two_inf_norm(b, restarts=8, seed=int(rng.integers(2**31)))
        assert np.abs(np.diagonal(b)).max() <= oracle <= schurnorm.schur_two_inf_norm(b) + 1e-9


def _count_faces(monkeypatch):
    """Record every stack of faces ``_face_points`` solves, one support a row."""
    stacks = []
    face_points = schurnorm._face_points

    def counting(c, idx):
        stacks.append(idx.copy())
        return face_points(c, idx)

    monkeypatch.setattr(schurnorm, "_face_points", counting)
    return stacks


def test_oracle_face_exits_keep_the_bounds(monkeypatch):
    # graphs and zero-diagonal B settle on faces the vertices do not decide
    stacks = _count_faces(monkeypatch)
    rng = rng_from_seed(97)
    solved = 0
    for n in (2, 3, 5, 8, 12, 16, 30, 100, 300):
        hollow = random_hermitian(rng, n)
        np.fill_diagonal(hollow, 0.0)
        corpus = [random_hermitian(rng, n), hollow, _adjacency(rng, n, 0.5)]
        if n > 30:
            corpus = corpus[1:]
        for b in corpus:
            seed = int(rng.integers(2**31))
            before = len(stacks)
            got = schurnorm.oracle_two_inf_norm(b, restarts=4, seed=seed)
            solved += len(stacks) - before
            assert got >= np.abs(np.diagonal(b)).max()
            assert got >= _reference_oracle(b, 4, seed) * (1 - 1e-12)
            if n <= schurnorm.EXACT_SOLVER_CAP:
                assert got <= schurnorm.schur_two_inf_norm(b) + 1e-9
    assert solved


@pytest.mark.parametrize("steps", [3 * schurnorm.FACE_CHECK_STEPS, schurnorm.ASCENT_STEPS])
def test_oracle_finishes_on_the_face(monkeypatch, steps):
    # the uniform face holds the maximizer; the ascent alone ends 2.4e-14
    # short of it after ASCENT_STEPS, and 1.2e-3 short after three checks
    monkeypatch.setattr(schurnorm, "ASCENT_STEPS", steps)
    stacks = _count_faces(monkeypatch)
    want = schurnorm.l_matrix_norm(2.0, 100)
    got = schurnorm.oracle_two_inf_norm(schurnorm.l_matrix(2.0, 100))
    assert abs(got - want) <= 4 * math.ulp(want)
    assert stacks and all(idx.shape == (1, 100) for idx in stacks)


@pytest.mark.parametrize("c, y", [
    # y_2 starts below the support threshold, so the support {0, 1} settles
    # near that face's point (1/2, 1/2), worth 3/2, where (Cy)_2 = 1.6
    ([[1.0, 2.0, 1.6], [2.0, 1.0, 1.6], [1.6, 1.6, 1.0]], [0.6, 0.4 - 1e-13, 1e-13]),
    # C - 0.8 J is positive definite: the whole simplex's face point is its
    # minimum, which passes the KKT test but is worth less than the row
    (0.8 + 0.2 * np.eye(3), [1 / 3 + 2e-3, 1 / 3 - 1e-3, 1 / 3 - 1e-3]),
])
def test_ascent_goes_on_past_a_face_point_that_fails(monkeypatch, c, y):
    c = np.asarray(c)
    want = schurnorm.simplex_qp_max(c).value
    stacks = _count_faces(monkeypatch)
    assert schurnorm._ascend(c, np.array([y]))[0] == pytest.approx(want, abs=1e-12)
    # the row stays on the failing face for several checks but solves it once
    supports = [tuple(idx[0]) for idx in stacks]
    assert supports and len(set(supports)) == len(supports)


def test_oracle_face_stacks_stay_within_the_restart_block(monkeypatch):
    # every row settles on the L-block's face: r^2 of it fits RESTART_BLOCK * n
    # a few times over at r = 20 and 40, and not once at r = 100
    stacks = _count_faces(monkeypatch)
    shared = []
    for n, r in ((100, 20), (100, 100), (300, 40)):
        b = np.eye(n)
        b[:r, :r] = schurnorm.l_matrix(2.0, r)
        before = len(stacks)
        got = schurnorm.oracle_two_inf_norm(b, seed=3)
        assert abs(got - schurnorm.l_matrix_norm(2.0, r)) <= 4 * math.ulp(got)
        assert stacks[before:]
        for faces, size in (idx.shape for idx in stacks[before:]):
            assert size == r
            assert faces * r * r <= max(schurnorm.RESTART_BLOCK * n, r * r)
            shared.append(faces > 1)
    assert any(shared)


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


def _planted_clique_graph(rng, n, p, k):
    """G(n, p) with a clique on k random vertices, built as the benchmark builds it."""
    adj = np.triu(rng.random((n, n)) < p, 1)
    members = rng.choice(n, size=k, replace=False)
    adj[np.ix_(members, members)] = True
    adj = np.triu(adj, 1)
    return (adj | adj.T).astype(float)


def _clique_number_by_search(adj):
    """Largest clique, by branch and bound over cliques in increasing order."""
    nbrs = [frozenset(np.flatnonzero(row).tolist()) for row in adj]
    best = 0

    def grow(size, candidates):
        nonlocal best
        best = max(best, size)
        if size + len(candidates) > best:
            for v in sorted(candidates):
                grow(size + 1, frozenset(u for u in candidates & nbrs[v] if u > v))

    grow(0, frozenset(range(len(nbrs))))
    return best


def _record_calls(monkeypatch, name):
    """Record the arguments and result of every call of schurnorm.<name>."""
    calls = []
    func = getattr(schurnorm, name)

    def recording(*args):
        out = func(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(schurnorm, name, recording)
    return calls


def test_oracle_escapes_the_saddle_of_a_motzkin_straus_graph(monkeypatch):
    # the schur benchmark's oracle_graph300 graph: at the default seed one
    # restart settles near the non-clique support {75, 107, 251, 259}, worth
    # about 1/2, whose faces all fail the KKT test
    adj = _planted_clique_graph(np.random.default_rng([0x5EBA11, 300]), 300, 0.03, 10)
    want = math.sqrt(1.0 - 1.0 / _clique_number_by_search(adj))
    ascents = _record_calls(monkeypatch, "_ascend")
    rows = []
    for steps in (schurnorm.ASCENT_STEPS, schurnorm.ASCENT_STEPS + 1):
        monkeypatch.setattr(schurnorm, "ASCENT_STEPS", steps)
        ascents.clear()
        got = schurnorm.oracle_two_inf_norm(adj)
        assert abs(got - want) <= 4 * math.ulp(want)
        rows.append([out.tolist() for _, out in ascents])
    # a row that ran out of steps would move on with one step more
    assert rows[0] == rows[1]


def _values(c, y):
    """y^t C y of every row of y, renormalized, by the ascent's products."""
    y = y / y.sum(axis=1, keepdims=True)
    g = (y[:, None, :] @ c)[:, 0, :]
    return (g[:, None, :] @ y[:, :, None])[:, 0, 0]


def test_pivots_never_lower_a_row_value():
    rng = rng_from_seed(79)
    for n in (2, 3, 5, 8, 13, 30):
        hollow = random_hermitian(rng, n)
        np.fill_diagonal(hollow, 0.0)
        for b in (random_hermitian(rng, n), hollow, _adjacency(rng, n, 0.4)):
            c = np.abs(b) ** 2
            tol = 1e-12 * max(1.0, float(np.max(c)))
            # interior points, and points with entries far below the others
            y = rng.random((6, n)) ** rng.choice([1, 40], size=(6, 1))
            y /= y.sum(axis=1, keepdims=True)
            assert schurnorm._pivot(c, y, np.zeros(6, np.intp), tol).tolist() == y.tolist()
            last = _values(c, y)
            for budget in range(1, 3 * n + 3):
                now = _values(c, schurnorm._pivot(c, y, np.full(6, budget), tol))
                assert np.all(now >= last - 1e-14 * max(1.0, float(np.max(c))))
                last = now


def test_pivot_rows_independent_of_restart_block(monkeypatch):
    # each input hands rows of one restart block to the pivots together
    hollow = random_hermitian(rng_from_seed(71), 24)
    np.fill_diagonal(hollow, 0.0)
    graph = _planted_clique_graph(rng_from_seed(83), 60, 0.15, 5)
    ascents = _record_calls(monkeypatch, "_ascend")
    pivots = _record_calls(monkeypatch, "_pivot")
    for b in (hollow, graph):
        results = {}
        for block in (1, 7, 64):
            monkeypatch.setattr(schurnorm, "RESTART_BLOCK", block)
            ascents.clear()
            pivots.clear()
            value = schurnorm.oracle_two_inf_norm(b, restarts=70, seed=5)
            stacks = [args[1].shape[0] for args, _ in pivots]
            assert stacks and max(stacks) <= block
            results[block] = (value, np.concatenate([out for _, out in ascents]).tolist())
        assert max(stacks) > 1
        assert results[1] == results[7] == results[64]


def _workload_graphs(relabelings):
    """Planted-clique graphs shaped like the schur benchmark's, each relabelled."""
    graphs = []
    for n, p, k in ((12, 0.25, 4), (12, 0.6, 6), (14, 0.6, 7), (16, 0.6, 8)):
        adj = _planted_clique_graph(np.random.default_rng([0x5EBA11, n]), n, p, k)
        for seed in range(relabelings):
            perm = np.random.default_rng([seed, n]).permutation(n)
            graphs.append(adj[np.ix_(perm, perm)])
    return graphs


def _greedy_colours(adj):
    return len(schurnorm._colour(schurnorm._neighbours(adj), [], range(adj.shape[0])))


def _slack(n):
    """The bound's rounding, relative: BOUND_ULPS * (n + 1) units of roundoff."""
    return schurnorm.BOUND_ULPS * (n + 1) * 2.0**-53


def test_colouring_bound_is_above_the_maximum():
    for c in _reference_corpus():
        assert schurnorm.colouring_bound(c) >= schurnorm.simplex_qp_max(c).value
    for adj in _workload_graphs(10):
        omega = _clique_number_by_search(adj)
        assert schurnorm.colouring_bound(adj) >= 1.0 - 1.0 / omega


def test_colouring_bound_is_motzkin_straus_when_greedy_finds_omega():
    # complete multipartite graphs with contiguous parts, and every
    # workload-shaped graph whose index-order greedy colouring is optimal
    graphs = []
    for parts in ((1, 1), (2, 3), (3, 3, 3), (1, 2, 3, 4)):
        label = np.repeat(np.arange(len(parts)), parts)
        graphs.append((label[:, None] != label[None, :]).astype(float))
    graphs += [adj for adj in _workload_graphs(10)
               if _greedy_colours(adj) == _clique_number_by_search(adj)]
    assert len(graphs) > 8
    for adj in graphs:
        want = 1.0 - 1.0 / _greedy_colours(adj)
        assert want <= schurnorm.colouring_bound(adj) <= want * (1.0 + _slack(len(adj)))


def test_colouring_bound_on_l_matrices():
    # the graph is complete, so k = n: eta^2 - (eta^2 - 1)/n above eta = 1,
    # the closed form squared, and the vertex value 1 below it
    for eta in (1.0, 1.5, 2.0, 3.0):
        for n in (1, 2, 5, 16, 100):
            want = schurnorm.l_matrix_norm(eta, n) ** 2
            got = schurnorm.colouring_bound(schurnorm.l_matrix(eta, n) ** 2)
            # the closed form squared rounds too, by a few units
            assert want * (1.0 - 4 * 2.0**-53) <= got <= want * (1.0 + _slack(n) + 4 * 2.0**-53)
    for eta in (0.0, 0.3, 0.9):
        assert 1.0 <= schurnorm.colouring_bound(schurnorm.l_matrix(eta, 7) ** 2) <= 1.0 + _slack(7)


def test_colouring_bound_has_no_size_cap():
    # the oracle-only sizes have a bound too
    assert schurnorm.colouring_bound(np.ones((300, 300))) >= 1.0


def _hollow(n):
    """|B|^2 of a random Hermitian B with its diagonal set to 0."""
    b = random_hermitian(rng_from_seed(2024), n)
    np.fill_diagonal(b, 0.0)
    return np.abs(b) ** 2


def _lowers(c):
    """The seeds tried on C: its largest vertex, the oracle squared, the
    maximum itself and the maximum just above."""
    exact = schurnorm.simplex_qp_max(c).value
    oracle = schurnorm.oracle_two_inf_norm(np.sqrt(c), restarts=8, seed=1) ** 2
    return [float(c.diagonal().max()), oracle, exact, exact * (1 + 1e-9)]


@pytest.mark.parametrize("chunk", [1, 7, 512])
def test_walk_gives_the_full_scans_bits(monkeypatch, chunk):
    corpus = _reference_corpus() + _workload_graphs(1)
    corpus += [schurnorm.l_matrix(eta, n) ** 2 for eta in (0.5, 2.0) for n in (5, 12, 16)]
    want = {c.tobytes(): _bits(schurnorm.simplex_qp_max(c)) for c in corpus}
    scans = {c.tobytes(): schurnorm._scan(c) for c in corpus}
    lowers = [_lowers(c) for c in corpus]
    # the scan's bits at every chunk are the reference loop test's; where
    # the walk gives way, the scan at the default chunk stands in for it
    monkeypatch.setattr(schurnorm, "_scan", lambda c: scans[c.tobytes()])
    monkeypatch.setattr(schurnorm, "FACE_CHUNK", chunk)
    for c, seeds in zip(corpus, lowers):
        for lower in seeds:
            assert _bits(schurnorm.simplex_qp_max(c, lower=lower)) == want[c.tobytes()]
    assert schurnorm.simplex_qp_max(TIE, lower=1.0).support == (0,)
    assert schurnorm.simplex_qp_max(CREEPING, lower=1.0 + 1.2e-12).support == (2,)
    assert schurnorm.simplex_qp_max(SINGULAR, lower=0.5).support == (0, 1, 2)


def test_walk_matches_the_scan_on_workload_graphs(monkeypatch):
    # the benchmark's graph shapes over 10 relabelings, seeded as the CLI
    # seeds them: the full scan's bits, and at n = 16 the walk decides
    # alone on every relabeling, from at most 2^n / 8 faces
    graphs = _workload_graphs(10)
    want = [_bits(schurnorm.simplex_qp_max(adj)) for adj in graphs]
    scans = _record_calls(monkeypatch, "_scan")
    stacks = _count_faces(monkeypatch)
    alone = []
    for adj, bits in zip(graphs, want):
        lower = schurnorm.oracle_two_inf_norm(adj) ** 2
        scans.clear()
        stacks.clear()
        assert _bits(schurnorm.simplex_qp_max(adj, lower=lower)) == bits
        if adj.shape[0] == 16:
            alone.append(not scans and sum(len(idx) for idx in stacks) <= 2**16 // 8)
    assert alone == [True] * 10


@pytest.mark.parametrize("c, lower", [
    # the vertex (0,) lies in [g - tol, g) below the first face worth g
    (np.diag([1.0, 1.0 + 2.5e-12]), 1.0 + 2.5e-12),
    # no face reaches g
    (np.diag([1.0, 1.0 + 2.5e-12]), 1.1),
    (schurnorm.l_matrix(2.0, 6) ** 2, 5.0),
    # the walk skips next to nothing in its first WALK_TRIAL faces
    (_hollow(12), 0.1),
])
def test_walk_gives_way_to_the_full_scan(monkeypatch, c, lower):
    want = _bits(schurnorm.simplex_qp_max(c))
    scans = _record_calls(monkeypatch, "_scan")
    walks = _record_calls(monkeypatch, "_walk")
    assert _bits(schurnorm.simplex_qp_max(c, lower=lower)) == want
    assert [out for _, out in walks] == [None]
    assert len(scans) == 1


def test_walk_gives_way_early_where_nothing_is_skipped(monkeypatch):
    # a hollow random C at n = 16: the walk gives way after about
    # WALK_TRIAL faces, a few percent of the scan's 65 535
    c = _hollow(16)
    want = _bits(schurnorm.simplex_qp_max(c))
    monkeypatch.setattr(schurnorm, "_scan", lambda c: want[1])
    stacks = _count_faces(monkeypatch)
    lower = schurnorm.oracle_two_inf_norm(np.sqrt(c)) ** 2
    stacks.clear()
    assert _bits(schurnorm.simplex_qp_max(c, lower=lower)) == want
    # the faces the walk solved, and the winner's once more
    assert sum(len(idx) for idx in stacks) - 1 <= 2 * schurnorm.WALK_TRIAL


def test_schur_norm_takes_its_seed_from_the_block(monkeypatch):
    b = schurnorm.l_matrix(2.0, 9)
    lowers = []
    simplex = schurnorm.simplex_qp_max

    def recording(c, lower=None):
        lowers.append(lower)
        return simplex(c, lower=lower)

    monkeypatch.setattr(schurnorm, "simplex_qp_max", recording)
    want = schurnorm.schur_two_inf_norm(b)
    with schurnorm.seeded(3.5):
        assert schurnorm.schur_two_inf_norm(b) == want
        with schurnorm.seeded(2.0):
            assert schurnorm.schur_two_inf_norm(b) == want
        assert schurnorm.schur_two_inf_norm(b) == want
    assert schurnorm.schur_two_inf_norm(b) == want
    assert lowers == [None, 3.5, 2.0, 3.5, None]


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


@pytest.mark.parametrize("u, v", [
    ([math.nan, 1.0], [1.0, 0.0]),
    ([1.0, 0.0], [0.5, math.nan]),
    ([math.inf, 1.0], [math.inf, 1.0]),
])
def test_majorizes_rejects_non_finite(u, v):
    with pytest.raises(ValueError, match="finite"):
        schurnorm.majorizes(u, v)


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


def test_ds_schur_psd_is_decided_by_is_psd(monkeypatch):
    # (1 - lam) J + lam I: unit diagonal, eigenvalues (1 - lam) n + lam and lam
    def b_with_min(lam, n=4):
        return (1 - lam) * np.ones((n, n)) + lam * np.eye(n)

    x = np.diag([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="B must be PSD"):
        schurnorm.ds_schur_majorization_check(b_with_min(-1e-6), x)
    # is_psd's rule scales 1e-9 by max(1, ||B||_inf) = 4 here
    assert schurnorm.ds_schur_majorization_check(b_with_min(-2e-9), x)
    checks = []
    monkeypatch.setattr(schurnorm, "is_psd",
                        lambda *args: checks.append(matcore.is_psd(*args)) or checks[-1])
    gram = schurnorm.gram([np.array([1.0, 0.0]), np.array([0.6, 0.8]), np.array([0.0, 1.0])])
    assert schurnorm.ds_schur_majorization_check(gram, np.diag([1.0, -1.0, 0.5]))
    assert [(c.psd, c.method) for c in checks] == [(True, "cholesky")]


def test_ds_schur_validation():
    with pytest.raises(ValueError):
        schurnorm.ds_schur_majorization_check(2 * np.eye(3), np.eye(3))
