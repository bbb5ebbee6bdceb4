"""Certificate tests: ball verdicts, pseudopure bounds, PPT cross-checks."""

import math

import numpy as np
import pytest

from sepball import ballbounds, certify, matcore
from sepball.matcore import frobenius_norm
from sepball.sampling import (
    random_density_matrix,
    random_traceless_unit_hermitian,
    rng_from_seed,
)


def bell_state() -> np.ndarray:
    b = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            b[i, j] = 0.5
    return b


def test_maximally_mixed_is_separable():
    cert = certify.certify_normalized(np.eye(4) / 4, (2, 2))
    assert cert.verdict == certify.SEPARABLE
    assert cert.measured == 0.0
    assert not cert.boundary


def test_certify_normalized_validates_and_solves_once(count_calls):
    rho = random_density_matrix(rng_from_seed(29), 8)
    validations = count_calls(matcore, "as_matrix")
    hermitian = count_calls(matcore, "hermitian")
    eigensolves = count_calls(np.linalg, "eigvalsh")
    cert = certify.certify_normalized(rho, (2, 2, 2))
    assert cert.verdict == certify.INCONCLUSIVE
    assert (len(validations), len(hermitian), len(eigensolves)) == (1, 1, 1)


def test_identity_unnormalized():
    cert = certify.certify_unnormalized(np.eye(4), (2, 2))
    assert cert.verdict == certify.SEPARABLE
    assert cert.bound_used == 1.0


def test_bell_state_inconclusive():
    cert = certify.certify_normalized(bell_state(), (2, 2))
    assert cert.verdict == certify.INCONCLUSIVE
    # [DERIVED] ||bell - I/4||_2 = sqrt(3)/2
    assert cert.measured == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-14)


def test_non_normalized_and_non_psd_rejected():
    cert = certify.certify_normalized(np.eye(4) / 2, (2, 2))
    assert cert.verdict == certify.NOT_NORMALIZED
    rho = np.diag([0.6, 0.5, 0.0, -0.1])
    cert = certify.certify_normalized(rho, (2, 2))
    assert cert.verdict == certify.NOT_PSD


def test_boundary_band():
    dims = (2, 2)
    b = ballbounds.normalized_radius(1.0, 4)
    rng = rng_from_seed(2)
    delta = random_traceless_unit_hermitian(rng, 4)
    on_edge = np.eye(4) / 4 + b * delta
    cert = certify.certify_normalized(on_edge, dims)
    assert cert.verdict == certify.SEPARABLE
    assert cert.boundary
    outside = np.eye(4) / 4 + b * (1.0 + 1e-6) * delta
    cert = certify.certify_normalized(outside, dims)
    assert cert.verdict == certify.INCONCLUSIVE


def test_mu_optimal_scaling():
    # for rho = I/d the optimal deviation is zero
    assert certify.mu(np.eye(8) / 8) == 0.0
    # [DERIVED] pure state in dim d: purity 1, mu = sqrt(d - 1)
    pi = np.zeros((4, 4))
    pi[0, 0] = 1.0
    assert certify.mu(pi) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    with pytest.raises(ValueError):
        certify.mu(np.eye(4))  # not normalized


def test_certificate_json_roundtrip():
    cert = certify.certify_normalized(np.eye(8) / 8, (2, 2, 2))
    assert certify.Certificate.from_json(cert.to_json()) == cert


def test_pseudopure_bound_matches_materialized_edge():
    dims = (2, 2)
    d = 4
    eps = certify.pseudopure_bound(dims)
    pi = np.zeros((d, d))
    pi[0, 0] = 1.0
    rho = eps * pi + (1 - eps) * np.eye(d) / d
    measured = frobenius_norm(rho - np.eye(d) / d)
    bound = ballbounds.normalized_radius(ballbounds.recursion_radius(dims), d)
    assert measured == pytest.approx(bound, abs=1e-14)


def test_certify_pseudopure_verdicts():
    dims = (2,) * 6
    eps = certify.pseudopure_bound(dims)
    assert certify.certify_pseudopure(eps * 0.99, dims).verdict == certify.SEPARABLE
    assert (
        certify.certify_pseudopure(eps * 1.01, dims).verdict == certify.INCONCLUSIVE
    )
    with pytest.raises(ValueError):
        certify.certify_pseudopure(1.5, dims)


def test_ppt_all_cuts_bell_violation():
    assert not certify.ppt_all_cuts(bell_state(), (2, 2))
    assert certify.ppt_all_cuts(np.eye(4) / 4, (2, 2))


def test_ppt_all_cuts_separable_products():
    rng = rng_from_seed(17)
    for _ in range(20):
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 2)
        rho_c = random_density_matrix(rng, 2)
        rho = np.kron(np.kron(rho_a, rho_b), rho_c)
        assert certify.ppt_all_cuts(rho, (2, 2, 2))


def test_ball_boundary_states_pass_ppt():
    rng = rng_from_seed(23)
    for dims in [(2, 2), (2, 2, 2)]:
        d = math.prod(dims)
        b = ballbounds.normalized_radius(ballbounds.recursion_radius(dims), d)
        for _ in range(25):
            rho = np.eye(d) / d + b * random_traceless_unit_hermitian(rng, d)
            cert = certify.certify_normalized(rho, dims)
            assert cert.verdict == certify.SEPARABLE
            assert certify.ppt_all_cuts(rho, dims)
