"""Acceptance gate: the thirteen release criteria, one test each.

Every test asserts the criterion exactly as stated, at its stated tolerance,
and prints a single PASS line on success (pytest itself reports failures).
Criterion 9's first half asserts the documented ratio equality for the
extremal-map construction; see the project notes if it is red.
"""

import math
import time

import numpy as np

from sepball import ballbounds, certify, extremal, geometry, nmr, schurnorm, verify
from sepball.sampling import (
    random_product_ensemble,
    random_traceless_unit_hermitian,
    random_unit_vector,
    rng_from_seed,
)

SEED = 0xB0B5


def _report(n: int, text: str) -> None:
    print(f"criterion {n:2d}: PASS  ({text})")


def test_criterion_01_bipartite_base_case():
    start = time.perf_counter()
    value = ballbounds.recursion_radius((2, 2))
    elapsed = time.perf_counter() - start
    assert abs(value - 1.0) <= 1e-15
    assert elapsed < 1e-3
    _report(1, "recursion_radius(2,2) = 1 exactly, under 1 ms")


def test_criterion_02_tripartite_qubits():
    assert abs(ballbounds.recursion_radius((2, 2, 2)) - math.sqrt(4 / 5)) <= 1e-12
    _report(2, "recursion_radius(2,2,2) = sqrt(4/5)")


def test_criterion_03_closed_form_solves_recursion():
    start = time.perf_counter()
    for d0 in range(2, 7):
        for m in range(2, 13):
            rec = ballbounds.recursion_radius((d0,) * m)
            cf = ballbounds.closed_form_radius(d0, m)
            assert abs(rec - cf) / cf <= 1e-12, f"d0={d0} m={m}"
    assert time.perf_counter() - start < 1.0
    _report(3, "closed form = recursion on d0 in 2..6, m in 2..12")


def test_criterion_04_asymptotic_exponent():
    g = ballbounds.qubit_asymptotic_exponent()
    assert abs(g - 0.29248125) <= 1e-7
    vals = [
        math.exp(ballbounds.log_closed_form_radius(2, m) + g * m * math.log(2.0))
        for m in (10, 20, 30)
    ]
    assert vals[0] < vals[1] < vals[2] <= math.sqrt(3.0)
    _report(4, "gamma = 0.29248125; rescaled radius increases toward sqrt(3)")


def test_criterion_05_normalized_qubit_ball():
    for m in range(2, 13):
        lhs = ballbounds.qubit_normalized_radius(m)
        rhs = ballbounds.closed_form_radius(2, m) / 2**m
        assert abs(lhs - rhs) <= 1e-12 * rhs, f"m={m}"
    _report(5, "qubit_normalized_radius = closed_form/2^m for m <= 12")


def test_criterion_06_nmr_pseudopure_threshold():
    start = time.perf_counter()
    assert nmr.pseudopure_threshold(3.746e-5) == 35
    assert nmr.pseudopure_threshold(3.746e-5, baseline="gb03") == 22
    assert time.perf_counter() - start < 0.01
    _report(6, "pseudopure thresholds 35 (recursion) and 22 (gb03), under 10 ms")


def test_criterion_07_nmr_thermal_threshold():
    eta = 3.746e-5
    m = nmr.thermal_threshold(eta)
    assert m == 16
    # decision margin of at least 1% on both sides of the threshold
    bound = math.exp(nmr.log_normalized_bound(m, "recursion"))
    measured = nmr.thermal_deviation_norm(nmr.NmrParams(eta, m))
    assert measured <= bound * 0.99
    bound_next = math.exp(nmr.log_normalized_bound(m + 1, "recursion"))
    measured_next = nmr.thermal_deviation_norm(nmr.NmrParams(eta, m + 1))
    assert measured_next >= bound_next * 1.01
    assert nmr.thermal_threshold(eta, baseline="gb03") == 13
    _report(7, "thermal thresholds 16 (recursion, >=1% margin) and 13 (gb03)")


def test_criterion_08_schur_l_matrix():
    for eta in (1.5, 2.0, 3.0):
        for n in range(2, 9):
            c = np.abs(schurnorm.l_matrix(eta, n)) ** 2
            res = schurnorm.simplex_qp_max(c)
            want_sq = (eta * eta * (n - 1) + 1.0) / n
            assert abs(math.sqrt(res.value) - math.sqrt(want_sq)) <= 1e-10
            assert np.max(np.abs(res.maximizer - 1.0 / n)) <= 1e-10
            oracle = schurnorm.oracle_two_inf_norm(
                schurnorm.l_matrix(eta, n), seed=SEED
            )
            assert abs(oracle - math.sqrt(want_sq)) <= 1e-6
    _report(8, "exact solver and oracle match the L-matrix closed form")


def test_criterion_09_extremal_map_tightness():
    # second half first: inflating mu by 5% must break ball positivity
    for a in (0.3, 0.6, 1.0):
        for d2 in (4, 6, 9):
            inflated = extremal.build_tau(a, d2, mu_scale=1.05)
            assert not extremal.ball_positivity_check(
                inflated, a, samples=1000, seed=SEED
            ), f"violation not detected for a={a}, d2={d2}"
    # first half: the designed input must attain the all-inputs bound
    for a in (0.3, 0.6, 1.0):
        for d2 in (4, 6, 9):
            tau = extremal.build_tau(a, d2)
            ratio = extremal.achieved_ratio(tau, extremal.worst_case_input(a, d2))
            want = ballbounds.lambdaprime_bound(a, d2)
            assert abs(ratio - want) <= 1e-9, (
                f"a={a}, d2={d2}: achieved {ratio:.9f} vs required {want:.9f} "
                f"(the construction's true supremum equals the traceless-input "
                f"bound {ballbounds.lambda_bound(a, d2):.9f})"
            )
    _report(9, "tau attains sqrt(2/a^2 - 1/d2); inflated mu violates positivity")


def test_criterion_10_majorization_properties():
    rng = rng_from_seed(SEED)
    for _ in range(50):
        pairs = random_product_ensemble(rng, 3, 3, int(rng.integers(2, 7)))
        assert schurnorm.nielsen_kempe_check(pairs)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        vs = [random_unit_vector(rng, 3) for _ in range(n)]
        b = schurnorm.gram(vs)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = (x + x.conj().T) / 2
        assert schurnorm.ds_schur_majorization_check(b, x)
    _report(10, "50 ensemble and 100 Schur majorization checks, zero failures")


def test_criterion_11_soundness_vs_ppt():
    start = time.perf_counter()
    rng = rng_from_seed(SEED)
    for dims in [(2, 2), (2, 2, 2)]:
        d = math.prod(dims)
        b = ballbounds.normalized_radius(ballbounds.recursion_radius(dims), d)
        for _ in range(200):
            rho = np.eye(d) / d + b * random_traceless_unit_hermitian(rng, d)
            cert = certify.certify_normalized(rho, dims)
            assert cert.verdict == certify.SEPARABLE
            assert certify.ppt_all_cuts(rho, dims)
    assert time.perf_counter() - start < 30.0
    _report(11, "400 certified boundary states all pass PPT, under 30 s")


def test_criterion_12_geometry_witnesses():
    rng = rng_from_seed(SEED)
    for dims in [(2, 2), (2, 2, 2), (3, 3), (9,)]:
        vecs = [random_unit_vector(rng, dp) for dp in dims]
        w = geometry.sep_symmetry_witness(dims, vecs)
        assert w.reconstruction_error() <= 1e-12
    for n in (2, 3):
        assert geometry.mes_symmetry_witness(n).reconstruction_error() <= 1e-12
    for d in (4, 8, 9):
        pi = np.zeros((d, d))
        pi[0, 0] = 1.0
        alpha = geometry.sep_symmetry_coefficient(d)
        at = np.linalg.eigvalsh((1 + alpha) * np.eye(d) / d - alpha * pi)
        assert at.min() >= -1e-12
        above = np.linalg.eigvalsh(
            (1 + 1.05 * alpha) * np.eye(d) / d - 1.05 * alpha * pi
        )
        assert above.min() < -1e-12
    _report(12, "witnesses reconstruct within 1e-12; alpha = 1/(d-1) is critical")


def test_criterion_13_verify_all_deterministic():
    start = time.perf_counter()
    first = verify.run_suite("all", seed=SEED)
    second = verify.run_suite("all", seed=SEED + 1)
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in first), [r.name for r in first if not r.passed]
    # verdicts are seed-independent
    assert [r.passed for r in first] == [r.passed for r in second]
    assert elapsed < 600.0
    _report(13, "verify-all green twice (different seeds) under the time budget")
