"""Self-check suites: every module's invariants, runnable from the CLI.

Each check is a named function raising ``AssertionError`` on failure; the
``fast`` suite trims sample counts, the ``all`` suite runs the full budgets.
Results are deterministic for a fixed seed, and verdicts must not depend on
the seed (only the concrete sample draws do).

The checks do not depend on each other, so ``run_suite`` runs them on
``matcore.fork_map``, the package's one process pool: on Linux the calling
process and one forked child per further CPU each take the next check from
one shared queue; elsewhere the caller runs them all.  A check whose
process died is run in the caller by ``fork_map``.  A check that raises
anything but an ``AssertionError``, or warns, is run again in the caller
after the others, so its exception or warning reaches the caller as it
would in a serial run.  Results come back in ``CHECKS`` order whichever
process ran them, and each check's ``seconds`` is its own wall time in the
process that ran it.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from . import ballbounds, certify, extremal, geometry, matcore, nmr, schurnorm
from .matcore import (
    apply_map,
    frobenius_norm,
    identity_map,
    is_psd,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    partial_transpose,
    tilde_apply,
)
from .sampling import (
    random_density_matrix,
    random_hermitian,
    random_product_ensemble,
    random_unit_hermitians,
    random_unit_vector,
    rng_from_seed,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named invariant check."""

    name: str
    passed: bool
    detail: str
    seconds: float


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol


# ---------------------------------------------------------------------------
# matcore
# ---------------------------------------------------------------------------

def check_partial_transpose_involution(seed: int, fast: bool) -> None:
    rng = rng_from_seed(seed)
    for dims in [(2, 2), (2, 3), (2, 2, 2), (3, 3)]:
        d = math.prod(dims)
        rho = random_density_matrix(rng, d)
        for p in range(len(dims)):
            pt = partial_transpose(rho, dims, p)
            back = partial_transpose(pt, dims, p)
            assert np.max(np.abs(back - rho)) < 1e-14, "partial transpose not involutive"
            assert _close(np.trace(pt).real, np.trace(rho).real, 1e-12), "trace changed"
            assert _close(frobenius_norm(pt), frobenius_norm(rho), 1e-12), "norm changed"


def check_matrix_json_roundtrip(seed: int, fast: bool) -> None:
    rng = rng_from_seed(seed)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    # signed zeros, which compare equal to 0.0 but must survive the trip
    m[0, 1], m[2, 3] = complex(-0.0, -0.0), complex(0.0, -0.0)
    text = matrix_to_json(m, (2, 3))
    back, dims = matrix_from_json(text)
    assert dims == (2, 3)
    assert np.array_equal(back.view(np.uint64), m.view(np.uint64)), (
        "matrix JSON round-trip is not bit-exact"
    )


def check_tilde_apply_identity(seed: int, fast: bool) -> None:
    rng = rng_from_seed(seed)
    phi = identity_map(3)
    x = random_hermitian(rng, 6)
    assert np.max(np.abs(tilde_apply(phi, x, 2) - x)) < 1e-14
    tau = extremal.build_tau(0.8, 4)
    eye = np.eye(8)
    assert np.max(np.abs(tilde_apply(tau, eye, 2) - np.eye(4))) == 0.0, (
        "stochastic map must satisfy tilde(I) = I exactly"
    )


# ---------------------------------------------------------------------------
# ballbounds
# ---------------------------------------------------------------------------

def check_radius_base_cases(seed: int, fast: bool) -> None:
    assert ballbounds.recursion_radius((2, 2)) == 1.0, "bipartite base case"
    assert _close(
        ballbounds.recursion_radius((2, 2, 2)), math.sqrt(4.0 / 5.0), 1e-12
    ), "tripartite qubit radius"


def check_closed_form_solves_recursion(seed: int, fast: bool) -> None:
    for d0 in range(2, 7):
        for m in range(2, 13):
            rec = ballbounds.recursion_radius((d0,) * m)
            cf = ballbounds.closed_form_radius(d0, m)
            assert abs(rec - cf) <= 1e-12 * cf, f"closed form mismatch d0={d0} m={m}"


def check_qubit_exponent_limit(seed: int, fast: bool) -> None:
    g = ballbounds.qubit_asymptotic_exponent()
    assert _close(g, 0.29248125, 1e-7), "asymptotic exponent value"
    vals = [
        math.exp(ballbounds.log_closed_form_radius(2, m) + g * m * math.log(2.0))
        for m in (10, 20, 30)
    ]
    assert vals[0] < vals[1] < vals[2] <= math.sqrt(3.0) + 1e-12, (
        "rescaled radius must increase toward sqrt(3)"
    )


def check_qubit_normalized_identity(seed: int, fast: bool) -> None:
    for m in range(2, 13):
        lhs = ballbounds.qubit_normalized_radius(m)
        rhs = ballbounds.closed_form_radius(2, m) / 2**m
        assert abs(lhs - rhs) <= 1e-12 * rhs, f"normalized identity fails at m={m}"


def check_kappa_limit(seed: int, fast: bool) -> None:
    # r_m·2^(γm) = √3/√(1 + 3^(1-m)) exactly, so it tends to κ = √3
    g = ballbounds.qubit_asymptotic_exponent()
    for m in range(2, 41):
        scaled = math.exp(ballbounds.log_closed_form_radius(2, m) + g * m * math.log(2.0))
        want = math.sqrt(3.0) / math.sqrt(1.0 + 3.0 ** (1 - m))
        assert abs(scaled - want) <= 1e-12 * want, f"rescaled radius off sqrt(3) form at m={m}"


def check_previous_normalized_bound(seed: int, fast: bool) -> None:
    # the earlier bound over d = 2^m is the abstract's 2·2^(-3m/2), exactly:
    # both sides are a power of two, or sqrt(1/2) times one, correctly rounded
    for m in range(2, 41):
        got = ballbounds.gb03_baseline(m) / 2**m
        assert got == 2.0 * 2.0 ** (-1.5 * m), f"previous normalized bound off at m={m}"


def check_exponent_by_local_dimension(seed: int, fast: bool) -> None:
    # r_m ~ C·2^(-γ(d0)·m) with γ(d0) = ½·log2((2d0 - 1)/d0): the qubit γ at
    # d0 = 2, rising toward the earlier exponent ½ as d0 grows
    m = 400
    gammas = [(ballbounds.log_closed_form_radius(d0, m)
               - ballbounds.log_closed_form_radius(d0, m + 1)) / math.log(2.0)
              for d0 in range(2, 9)]
    for d0, g in zip(range(2, 9), gammas):
        assert abs(g - 0.5 * math.log2((2 * d0 - 1) / d0)) < 1e-9, f"exponent off at d0={d0}"
    assert _close(gammas[0], ballbounds.qubit_asymptotic_exponent(), 1e-12), "qubit exponent"
    assert all(x < y < 0.5 for x, y in zip(gammas, gammas[1:])), (
        "exponent must rise with d0 and stay below 1/2"
    )


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def check_maximally_mixed_certified(seed: int, fast: bool) -> None:
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        d = math.prod(dims)
        cert = certify.certify_normalized(np.eye(d) / d, dims)
        assert cert.verdict == certify.SEPARABLE, "I/d must be certified separable"
        assert certify.Certificate.from_json(cert.to_json()) == cert, (
            "certificate JSON round-trip"
        )


def check_ball_boundary_ppt(seed: int, fast: bool) -> None:
    rng = rng_from_seed(seed)
    n = 25 if fast else 200
    for dims in [(2, 2), (2, 2, 2)]:
        d = math.prod(dims)
        b = ballbounds.radius_report(dims).normalized_radius
        for delta in random_unit_hermitians(rng, n, d, traceless=True):
            rho = np.eye(d) / d + b * delta
            cert = certify.certify_normalized(rho, dims)
            assert cert.verdict == certify.SEPARABLE, "boundary state not certified"
            assert certify.ppt_all_cuts(rho, dims), (
                "certified state violates PPT: soundness failure"
            )


def check_entangled_not_certified(seed: int, fast: bool) -> None:
    bell = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    cert = certify.certify_normalized(bell, (2, 2))
    assert cert.verdict == certify.INCONCLUSIVE, "Bell state must be inconclusive"
    assert not certify.ppt_all_cuts(bell, (2, 2)), "Bell state must violate PPT"


def check_pseudopure_bound_consistency(seed: int, fast: bool) -> None:
    # materialized pseudopure state at the bound sits exactly on the ball edge
    dims = (2, 2, 2)
    d = 8
    eps = certify.pseudopure_bound(dims)
    pi = np.zeros((d, d))
    pi[0, 0] = 1.0
    rho = eps * pi + (1.0 - eps) * np.eye(d) / d
    measured = frobenius_norm(rho - np.eye(d) / d)
    bound = ballbounds.radius_report(dims).normalized_radius
    assert abs(measured - bound) <= 1e-12, "pseudopure epsilon bound is not tight"


# ---------------------------------------------------------------------------
# schurnorm
# ---------------------------------------------------------------------------

def check_l_matrix_closed_form(seed: int, fast: bool) -> None:
    for eta in (1.5, 2.0, 3.0):
        for n in range(2, 9):
            c = np.abs(schurnorm.l_matrix(eta, n)) ** 2
            res = schurnorm.simplex_qp_max(c)
            want = (eta * eta * (n - 1) + 1.0) / n
            assert abs(res.value - want) <= 1e-10, f"L-matrix value eta={eta} n={n}"
            assert np.max(np.abs(res.maximizer - 1.0 / n)) <= 1e-10, (
                "L-matrix maximizer must be uniform"
            )
            assert abs(schurnorm.l_matrix_norm(eta, n) - math.sqrt(want)) <= 1e-12


def check_oracle_matches_exact(seed: int, fast: bool) -> None:
    """The oracle brackets the exact norm, and seeded with the oracle's value
    squared, as ``schur-norm`` seeds it, the exact solver's pruned walk
    returns the full scan's value, support and maximizer bit for bit."""
    rng = rng_from_seed(seed)
    for _ in range(10 if fast else 30):
        n = int(rng.integers(2, 7))
        b = random_hermitian(rng, n)
        c = np.abs(b) ** 2
        scan = schurnorm.simplex_qp_max(c)
        exact = math.sqrt(scan.value)
        oracle = schurnorm.oracle_two_inf_norm(b, seed=int(rng.integers(2**31)))
        assert oracle <= exact + 1e-9, "oracle exceeded the exact norm"
        assert exact - oracle <= 1e-6, "oracle fell short of the exact norm"
        walk = schurnorm.simplex_qp_max(c, lower=oracle * oracle)
        assert (walk.value.hex(), walk.support, walk.maximizer.tobytes()) == (
            scan.value.hex(), scan.support, scan.maximizer.tobytes()
        ), "the seeded walk's maximum differs from the full scan's"


def check_duality_sampled(seed: int, fast: bool) -> None:
    rng = rng_from_seed(seed)
    for _ in range(15 if fast else 50):
        n = int(rng.integers(2, 7))
        b = random_hermitian(rng, n)
        norm = schurnorm.schur_two_inf_norm(b)
        xs = random_unit_hermitians(rng, 20, n)
        assert np.all(np.linalg.norm(b * xs, 2, axis=(1, 2)) <= norm + 1e-6), (
            "sampled ratio exceeded the computed norm"
        )


def check_simplex_dominance(seed: int, fast: bool) -> None:
    rng = rng_from_seed(seed)
    for _ in range(3 if fast else 10):
        n = int(rng.integers(2, 8))
        c = np.abs(random_hermitian(rng, n)) ** 2
        c = (c + c.T) / 2
        best = schurnorm.simplex_qp_max(c).value
        y = rng.dirichlet(np.ones(n), size=1000)
        vals = np.einsum("ki,ij,kj->k", y, c, y)
        assert float(vals.max()) <= best + 1e-9, "random simplex point beat the solver"


def _planted_clique(rng: np.random.Generator, n: int) -> np.ndarray:
    """0/1 adjacency of G(n, 1/2) with a clique planted on a random vertex subset."""
    adj = np.triu(rng.random((n, n)) < 0.5, 1)
    members = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
    adj[np.ix_(members, members)] = True
    adj = np.triu(adj, 1)
    return (adj | adj.T).astype(float)


def _clique_number(adj: np.ndarray) -> int:
    n = adj.shape[0]
    return max(
        r
        for r in range(1, n + 1)
        for s in combinations(range(n), r)
        if all(adj[i, j] for i, j in combinations(s, 2))
    )


def check_kkt_certificate(seed: int, fast: bool) -> None:
    """Re-check the exact maximizer's first-order optimality from scratch.

    At a maximizer y of y^t C y on the simplex the multipliers
    mu_i = y^t C y - (Cy)_i are nonnegative and vanish wherever y_i > 0
    (complementary slackness, y_i mu_i = 0).  On graphs the maximum is
    1 - 1/omega (Motzkin-Straus), with omega found by brute force.
    """
    rng = rng_from_seed(seed)
    cases = []
    for _ in range(5 if fast else 20):
        c = np.abs(random_hermitian(rng, int(rng.integers(1, 9)))) ** 2
        cases.append((c, None))
        adj = _planted_clique(rng, int(rng.integers(2, 9)))
        cases.append((adj, 1.0 - 1.0 / _clique_number(adj)))
    for c, motzkin_straus in cases:
        y = schurnorm.simplex_qp_max(c).maximizer
        grad = c @ y
        value = float(y @ grad)
        mu = value - grad
        tol = 1e-9 * max(1.0, float(np.max(c)))
        assert np.all(mu >= -tol), "a vertex direction improves the maximizer"
        assert np.all(np.abs(y * mu) <= tol), "complementary slackness fails"
        if motzkin_straus is not None:
            assert abs(value - motzkin_straus) <= tol, "graph maximum is not 1 - 1/omega"


def check_nielsen_kempe_ensembles(seed: int, fast: bool) -> None:
    rng = rng_from_seed(seed)
    for _ in range(10 if fast else 50):
        pairs = random_product_ensemble(rng, 3, 3, int(rng.integers(2, 7)))
        assert schurnorm.nielsen_kempe_check(pairs), (
            "global spectrum not majorized by local: theorem violated"
        )


def check_ds_schur_majorization(seed: int, fast: bool) -> None:
    rng = rng_from_seed(seed)
    for _ in range(20 if fast else 100):
        n = int(rng.integers(2, 7))
        v = [random_unit_vector(rng, int(rng.integers(1, 5))) for _ in range(n)]
        dim = max(x.size for x in v)
        v = [np.pad(x, (0, dim - x.size)) for x in v]
        b = schurnorm.gram(v)  # PSD with unit diagonal
        x = random_hermitian(rng, n)
        assert schurnorm.ds_schur_majorization_check(b, x), (
            "Schur output spectrum not majorized by input"
        )


# ---------------------------------------------------------------------------
# extremal
# ---------------------------------------------------------------------------

_TAU_GRID = [(0.3, 4), (0.6, 6), (1.0, 9)]


def check_tau_construction(seed: int, fast: bool) -> None:
    for a, d2 in _TAU_GRID:
        tau = extremal.build_tau(a, d2)
        assert tau.is_stochastic(), "tau(I) != I"
        assert tau.preserves_hermiticity(), "tau must preserve Hermiticity"
        mu = extremal.critical_mu(a, d2)
        z_img = apply_map(tau, extremal.z_pattern(d2))
        assert np.max(np.abs(z_img - mu * extremal.padded_sigma_z(2))) < 1e-14
        x_img = apply_map(tau, extremal.x_pattern(d2))
        assert np.max(np.abs(x_img - mu * extremal.padded_sigma_x(2))) < 1e-14
        if d2 >= 5:
            e15 = np.zeros((d2, d2))
            e15[0, 4] = 1.0
            assert np.max(np.abs(apply_map(tau, e15))) == 0.0, (
                "orthocomplement must be annihilated"
            )


def check_tau_norm_bracket(seed: int, fast: bool) -> None:
    """The all-input norm of tau is at least lambda (attained) and never
    exceeds lambda-prime (the general upper bound)."""
    for a, d2 in _TAU_GRID:
        tau = extremal.build_tau(a, d2)
        y = (extremal.x_pattern(d2) + 1j * extremal.z_pattern(d2)) / math.sqrt(2.0)
        lam = ballbounds.lambda_bound(a, d2)
        assert abs(extremal.achieved_ratio(tau, y) - lam) <= 1e-9, (
            "tau must attain the traceless-input bound on (X + iZ)/sqrt(2)"
        )
        lp = ballbounds.lambdaprime_bound(a, d2)
        ratio = extremal.achieved_ratio(tau, extremal.worst_case_input(a, d2))
        assert ratio <= lp + 1e-9, "designed input exceeded the general upper bound"


def check_tau_ball_positive(seed: int, fast: bool) -> None:
    samples = 1000 if fast else 10_000
    for a, d2 in _TAU_GRID:
        tau = extremal.build_tau(a, d2)
        assert extremal.ball_positivity_check(tau, a, samples=samples, seed=seed), (
            "critical tau failed ball positivity"
        )


def check_tau_mu_extremal(seed: int, fast: bool) -> None:
    for a, d2 in _TAU_GRID:
        inflated = extremal.build_tau(a, d2, mu_scale=1.05)
        assert not extremal.ball_positivity_check(inflated, a, samples=0, seed=seed), (
            "inflating mu by 5% must break ball positivity"
        )


def check_hermitian_ratios_respect_lambda(seed: int, fast: bool) -> None:
    rng = rng_from_seed(seed)
    n = 200 if fast else 1000
    for a, d2 in _TAU_GRID:
        tau = extremal.build_tau(a, d2)
        lam = ballbounds.lambda_bound(a, d2)
        # the ratios of achieved_ratio, all n draws in one stack
        h = random_unit_hermitians(rng, n, d2, traceless=True)
        out = apply_map(tau, h)
        ratios = np.linalg.norm(out, 2, axis=(1, 2)) / np.linalg.norm(h, axis=(1, 2))
        assert np.all(ratios <= lam + 1e-9), "traceless Hermitian ratio exceeded lambda"


def check_tilde_ratios_respect_gamma(seed: int, fast: bool) -> None:
    rng = rng_from_seed(seed)
    n = 50 if fast else 200
    for a, d2 in [(0.6, 4), (1.0, 4)]:
        for d1 in (2, 3):
            tau = extremal.build_tau(a, d2, d1)
            g = ballbounds.gamma_bound(d1, d2, a)
            for h in random_unit_hermitians(rng, n, d1 * d2):
                ratio = operator_norm(tilde_apply(tau, h, d1))
                assert ratio <= g + 1e-9, "blockwise ratio exceeded gamma"


def check_block_chain(seed: int, fast: bool) -> None:
    rng = rng_from_seed(seed)
    n = 50 if fast else 200
    tau = extremal.build_tau(0.8, 4)
    for _ in range(n):
        h = random_hermitian(rng, 8)
        assert extremal.block_chain_check(tau, h, 0.8), "norm-inequality chain broke"


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def check_sep_witnesses(seed: int, fast: bool) -> None:
    rng = rng_from_seed(seed)
    for dims in [(2, 2), (2, 2, 2), (3, 3), (9,)]:
        vecs = [random_unit_vector(rng, dp) for dp in dims]
        w = geometry.sep_symmetry_witness(dims, vecs)
        assert w.reconstruction_error() <= 1e-12, f"witness reconstruction {dims}"
        for s in w.states:
            assert is_psd(s, 1e-12)
            assert abs(np.trace(s).real - 1.0) <= 1e-12


def check_symmetry_criticality(seed: int, fast: bool) -> None:
    for d in (2, 4, 8, 9):
        pi = np.zeros((d, d))
        pi[0, 0] = 1.0
        alpha = geometry.sep_symmetry_coefficient(d)
        at = (1.0 + alpha) * np.eye(d) / d - alpha * pi
        assert is_psd(at, 1e-12), "reflection must be PSD at the critical alpha"
        above = (1.0 + 1.05 * alpha) * np.eye(d) / d - 1.05 * alpha * pi
        assert not is_psd(above, 1e-12), "reflection must fail 5% above critical"


def check_unitary_basis(seed: int, fast: bool) -> None:
    rng = rng_from_seed(seed)
    for n in (2, 3):
        basis = geometry.unitary_basis(n)
        assert len(basis) == n * n
        assert np.max(np.abs(basis[0] - np.eye(n))) == 0.0
        for i, u in enumerate(basis):
            assert np.max(np.abs(u @ u.conj().T - np.eye(n))) <= 1e-12, "not unitary"
            for v in basis[i + 1:]:
                assert abs(np.trace(u.conj().T @ v)) < 1e-10, "not trace-orthogonal"
        x = random_hermitian(rng, n)
        depol = sum(u @ x @ u.conj().T for u in basis) / n
        assert np.max(np.abs(depol - np.trace(x) * np.eye(n))) <= 1e-11, (
            "depolarizing identity failed"
        )


def check_mes_witnesses(seed: int, fast: bool) -> None:
    for n in (2, 3):
        w = geometry.mes_symmetry_witness(n)
        assert w.reconstruction_error() <= 1e-12, f"mes reconstruction n={n}"
        for s in w.states:
            t = s.reshape(n, n, n, n)
            for marg in (np.trace(t, axis1=1, axis2=3), np.trace(t, axis1=0, axis2=2)):
                assert np.max(np.abs(marg - np.eye(n) / n)) <= 1e-12, (
                    "witness state is not maximally entangled"
                )


def check_john_figures(seed: int, fast: bool) -> None:
    for d in (2, 4, 9):
        fig = geometry.john_ball_figures(d)
        assert _close(fig["inner_ball_bound"], d ** (-1.5), 1e-15)
        assert _close(fig["covering_ball"], math.sqrt((d - 1) / d), 1e-15)


# ---------------------------------------------------------------------------
# nmr
# ---------------------------------------------------------------------------

def check_thermal_state_norms(seed: int, fast: bool) -> None:
    for m in range(1, 9):
        p = nmr.NmrParams(0.05, m)
        rho = nmr.thermal_state(p)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        measured = frobenius_norm(rho - np.eye(2**m) / 2**m)
        assert abs(measured - nmr.thermal_deviation_norm(p)) <= 1e-12, (
            "closed-form deviation norm disagrees with the materialized state"
        )


def check_nmr_thresholds(seed: int, fast: bool) -> None:
    eta = nmr.ETA_DEFAULT
    assert nmr.pseudopure_threshold(eta) == 35
    assert nmr.pseudopure_threshold(eta, baseline="gb03") == 22
    assert nmr.thermal_threshold(eta) == 16
    assert nmr.thermal_threshold(eta, baseline="gb03") == 13
    # the abstract's "36 (23)": the first pseudopure counts not certified
    for baseline, until in (("recursion", 36), ("gb03", 23)):
        measured, bound = nmr.measured_and_bound(eta, until, "pseudopure", baseline)
        assert measured > bound, f"{until} pseudopure qubits certified by {baseline}"


def check_thermal_margin(seed: int, fast: bool) -> None:
    # the decision at the threshold must hold with at least 1% slack
    eta = nmr.ETA_DEFAULT
    m = nmr.thermal_threshold(eta)
    bound = math.exp(nmr.log_normalized_bound(m, "recursion"))
    measured = nmr.thermal_deviation_norm(nmr.NmrParams(eta, m))
    assert measured <= bound * 0.99, "threshold decision margin below 1%"
    bound_next = math.exp(nmr.log_normalized_bound(m + 1, "recursion"))
    measured_next = nmr.thermal_deviation_norm(nmr.NmrParams(eta, m + 1))
    assert measured_next >= bound_next * 1.01, "threshold+1 decision margin below 1%"


CHECKS: list[tuple[str, Callable[[int, bool], None]]] = [
    ("matcore.partial_transpose_involution", check_partial_transpose_involution),
    ("matcore.matrix_json_roundtrip", check_matrix_json_roundtrip),
    ("matcore.tilde_apply_identity", check_tilde_apply_identity),
    ("ballbounds.radius_base_cases", check_radius_base_cases),
    ("ballbounds.closed_form_solves_recursion", check_closed_form_solves_recursion),
    ("ballbounds.qubit_exponent_limit", check_qubit_exponent_limit),
    ("ballbounds.qubit_normalized_identity", check_qubit_normalized_identity),
    ("ballbounds.kappa_limit", check_kappa_limit),
    ("ballbounds.previous_normalized_bound", check_previous_normalized_bound),
    ("ballbounds.exponent_by_local_dimension", check_exponent_by_local_dimension),
    ("certify.maximally_mixed_certified", check_maximally_mixed_certified),
    ("certify.ball_boundary_ppt", check_ball_boundary_ppt),
    ("certify.entangled_not_certified", check_entangled_not_certified),
    ("certify.pseudopure_bound_consistency", check_pseudopure_bound_consistency),
    ("schurnorm.l_matrix_closed_form", check_l_matrix_closed_form),
    ("schurnorm.oracle_matches_exact", check_oracle_matches_exact),
    ("schurnorm.duality_sampled", check_duality_sampled),
    ("schurnorm.simplex_dominance", check_simplex_dominance),
    ("schurnorm.kkt_certificate", check_kkt_certificate),
    ("schurnorm.nielsen_kempe_ensembles", check_nielsen_kempe_ensembles),
    ("schurnorm.ds_schur_majorization", check_ds_schur_majorization),
    ("extremal.tau_construction", check_tau_construction),
    ("extremal.tau_norm_bracket", check_tau_norm_bracket),
    ("extremal.tau_ball_positive", check_tau_ball_positive),
    ("extremal.tau_mu_extremal", check_tau_mu_extremal),
    ("extremal.hermitian_ratios_respect_lambda", check_hermitian_ratios_respect_lambda),
    ("extremal.tilde_ratios_respect_gamma", check_tilde_ratios_respect_gamma),
    ("extremal.block_chain", check_block_chain),
    ("geometry.sep_witnesses", check_sep_witnesses),
    ("geometry.symmetry_criticality", check_symmetry_criticality),
    ("geometry.unitary_basis", check_unitary_basis),
    ("geometry.mes_witnesses", check_mes_witnesses),
    ("geometry.john_figures", check_john_figures),
    ("nmr.thermal_state_norms", check_thermal_state_norms),
    ("nmr.thresholds", check_nmr_thresholds),
    ("nmr.thermal_margin", check_thermal_margin),
]


def workers() -> int:
    """How many processes ``run_suite`` runs in: ``matcore.workers`` of one job per check."""
    return matcore.workers(len(CHECKS))


def _run_check(index: int, seed: int | None, fast: bool) -> CheckResult:
    """Run ``CHECKS[index]``; an ``AssertionError`` fails it, anything else is raised."""
    name, fn = CHECKS[index]
    start = time.perf_counter()
    try:
        fn(seed, fast)
        passed, detail = True, "ok"
    except AssertionError as exc:
        passed, detail = False, str(exc) or "assertion failed"
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def run_suite(suite: str = "all", seed: int | None = None) -> list[CheckResult]:
    """Run the named invariant checks; ``fast`` trims sampling budgets.

    ``matcore.fork_map`` runs the checks, one job per check, with warnings
    as errors; a check whose child died is run here by ``fork_map``, and a
    check that raises anything but an ``AssertionError`` gives None.  A
    check that gave None is then run again here, in ``CHECKS`` order,
    without warnings turned into errors, so its exception or warning
    reaches the caller as it would in a serial run.
    """
    if suite not in ("all", "fast"):
        raise ValueError(f"unknown suite {suite!r}; expected 'all' or 'fast'")
    fast = suite == "fast"

    def run(index: int) -> CheckResult | None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return _run_check(index, seed, fast)
            except Exception:  # raised again by the rerun below
                return None

    # a seed of None reaches rng_from_seed, the one home of the default seed
    done = matcore.fork_map(len(CHECKS), run)
    return [done[index] or _run_check(index, seed, fast) for index in range(len(CHECKS))]
