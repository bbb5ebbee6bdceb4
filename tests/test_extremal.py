"""Extremal-map tests: construction, norm bounds, ball positivity, chains."""

import math

import numpy as np
import pytest

from sepball import ballbounds, extremal
from sepball.matcore import apply_map, frobenius_norm, identity_map, operator_norm
from sepball.sampling import random_hermitian, rng_from_seed

GRID = [(0.3, 4), (0.3, 6), (0.3, 9), (0.6, 4), (0.6, 6), (0.6, 9),
        (1.0, 4), (1.0, 6), (1.0, 9)]


def test_critical_mu():
    # [DERIVED] a=1, d2=4: sqrt(1 - 1/4) = sqrt(3)/2
    assert extremal.critical_mu(1.0, 4) == pytest.approx(
        math.sqrt(3.0) / 2.0, abs=1e-15
    )
    with pytest.raises(ValueError):
        extremal.critical_mu(0.0, 4)


def test_build_tau_images():
    for a, d2 in [(0.5, 4), (1.0, 6)]:
        tau = extremal.build_tau(a, d2)
        mu = extremal.critical_mu(a, d2)
        assert tau.is_stochastic()
        assert tau.preserves_hermiticity()
        z_img = apply_map(tau, extremal.z_pattern(d2))
        assert np.max(np.abs(z_img - mu * extremal.padded_sigma_z(2))) < 1e-14
        x_img = apply_map(tau, extremal.x_pattern(d2))
        assert np.max(np.abs(x_img - mu * extremal.padded_sigma_x(2))) < 1e-14


def test_build_tau_annihilates_orthocomplement():
    tau = extremal.build_tau(0.7, 5)
    e15 = np.zeros((5, 5))
    e15[0, 4] = 1.0
    assert np.max(np.abs(apply_map(tau, e15))) == 0.0
    # a diagonal direction orthogonal to I, Z and X
    diag = np.diag([1.0, 1.0, 1.0, 1.0, -4.0]).astype(complex)
    assert np.max(np.abs(apply_map(tau, diag))) < 1e-13


def test_build_tau_validation():
    with pytest.raises(ValueError):
        extremal.build_tau(0.5, 3)
    with pytest.raises(ValueError):
        extremal.build_tau(0.5, 4, d1=1)


def test_worst_case_input_unit_norm():
    for a, d2 in GRID:
        y = extremal.worst_case_input(a, d2)
        assert frobenius_norm(y) == pytest.approx(1.0, abs=1e-12)


def test_achieved_ratio_identity_map():
    phi = identity_map(2)
    sz = np.diag([1.0, -1.0])
    assert extremal.achieved_ratio(phi, sz) == pytest.approx(
        1.0 / math.sqrt(2.0), abs=1e-14
    )
    with pytest.raises(ValueError):
        extremal.achieved_ratio(phi, np.zeros((2, 2)))


def test_tau_attains_lambda_on_nilpotent_direction():
    # on (X + iZ)/sqrt(2) the ratio equals the traceless-input bound exactly
    for a, d2 in GRID:
        tau = extremal.build_tau(a, d2)
        y = (extremal.x_pattern(d2) + 1j * extremal.z_pattern(d2)) / math.sqrt(2.0)
        assert extremal.achieved_ratio(tau, y) == pytest.approx(
            ballbounds.lambda_bound(a, d2), abs=1e-9
        )


def test_tau_ratios_below_lambdaprime():
    # the general upper bound holds on the designed input and random inputs
    rng = rng_from_seed(61)
    for a, d2 in GRID:
        tau = extremal.build_tau(a, d2)
        lp = ballbounds.lambdaprime_bound(a, d2)
        y = extremal.worst_case_input(a, d2)
        assert extremal.achieved_ratio(tau, y) <= lp + 1e-9
        for _ in range(50):
            m = rng.standard_normal((d2, d2)) + 1j * rng.standard_normal((d2, d2))
            assert extremal.achieved_ratio(tau, m) <= lp + 1e-9


def test_hermitian_traceless_ratios_below_lambda():
    rng = rng_from_seed(67)
    from sepball.sampling import random_traceless_unit_hermitian

    for a, d2 in [(0.3, 4), (1.0, 9)]:
        tau = extremal.build_tau(a, d2)
        lam = ballbounds.lambda_bound(a, d2)
        for _ in range(1000):
            h = random_traceless_unit_hermitian(rng, d2)
            assert extremal.achieved_ratio(tau, h) <= lam + 1e-9


def test_ball_positivity_identity_map():
    assert extremal.ball_positivity_check(identity_map(2), 1.0, samples=200, seed=1)


def test_ball_positivity_critical_tau():
    for a, d2 in [(0.3, 4), (0.6, 6), (1.0, 9)]:
        tau = extremal.build_tau(a, d2)
        assert extremal.ball_positivity_check(tau, a, samples=2000, seed=5)


def test_ball_positivity_violated_above_critical_mu():
    for a, d2 in GRID:
        inflated = extremal.build_tau(a, d2, mu_scale=1.05)
        assert not extremal.ball_positivity_check(inflated, a, samples=0, seed=5)


def test_ball_positivity_draws_as_it_tests(count_calls):
    from sepball import matcore, sampling

    a, d2 = 0.6, 6
    draws = count_calls(sampling, "random_unit_hermitian")
    psd = count_calls(matcore, "is_psd")
    assert extremal.ball_positivity_check(extremal.build_tau(a, d2), a, samples=50, seed=5)
    # 3 directions x 2 signs x PROBE_STEPS probes, then every draw
    assert (len(draws), len(psd)) == (50, 6 * extremal.PROBE_STEPS + 50)
    draws.clear()
    inflated = extremal.build_tau(a, d2, mu_scale=1.05)
    assert not extremal.ball_positivity_check(inflated, a, samples=50, seed=5)
    # a failing probe ends the test before any sample is drawn
    assert draws == []


def test_tilde_ratios_below_gamma():
    rng = rng_from_seed(71)
    from sepball.matcore import tilde_apply

    for d1 in (2, 3):
        tau = extremal.build_tau(0.8, 4, d1)
        g = ballbounds.gamma_bound(d1, 4, 0.8)
        for _ in range(200):
            h = random_hermitian(rng, d1 * 4)
            h /= np.linalg.norm(h)
            assert operator_norm(tilde_apply(tau, h, d1)) <= g + 1e-9


def test_block_chain_identity_on_identity():
    phi = identity_map(4)
    assert extremal.block_chain_check(phi, np.eye(8), 1.0)


def test_block_chain_random_inputs():
    rng = rng_from_seed(73)
    tau = extremal.build_tau(0.8, 4)
    for _ in range(200):
        assert extremal.block_chain_check(tau, random_hermitian(rng, 8), 0.8)


def test_block_chain_product_perturbation():
    z = extremal.z_pattern(4)
    a_mat = np.eye(8) + 0.1 * np.kron(np.diag([1.0, -1.0]), z)
    tau = extremal.build_tau(0.8, 4)
    assert extremal.block_chain_check(tau, a_mat, 0.8)
