"""Extremal-map tests: construction, norm bounds, ball positivity, chains."""

import math
from itertools import chain

import numpy as np
import pytest

from sepball import ballbounds, extremal
from sepball.matcore import (
    MapOnMatrices,
    apply_map,
    frobenius_norm,
    identity_map,
    operator_norm,
)
from sepball.sampling import random_hermitian, random_unit_hermitians, rng_from_seed

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
    for a, d2 in [(0.3, 4), (1.0, 9)]:
        tau = extremal.build_tau(a, d2)
        lam = ballbounds.lambda_bound(a, d2)
        for h in random_unit_hermitians(rng, 1000, d2, traceless=True):
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


def test_ball_positivity_draws_as_it_tests(monkeypatch):
    a, d2 = 0.6, 6
    events = []
    draw, psd = extremal.random_unit_hermitians, extremal.is_psd

    def counting_draw(rng, k, d, *args, **kwargs):
        events.append(("draw", k))
        return draw(rng, k, d, *args, **kwargs)

    def counting_psd(h, tol):
        events.append(("psd", len(h)))
        return psd(h, tol)

    monkeypatch.setattr(extremal, "random_unit_hermitians", counting_draw)
    monkeypatch.setattr(extremal, "is_psd", counting_psd)
    monkeypatch.setattr(extremal, "SAMPLE_BLOCK", 16)
    assert extremal.ball_positivity_check(extremal.build_tau(a, d2), a, samples=50, seed=5)
    # 3 directions x 2 signs x PROBE_STEPS probes, one stack per direction;
    # then every draw, each block decided before the next one is drawn
    probes = [("psd", 2 * extremal.PROBE_STEPS)] * 3
    blocks = [event for k in (16, 16, 16, 2) for event in (("draw", k), ("psd", k))]
    assert events == probes + blocks

    events.clear()
    rng = rng_from_seed(5)
    state = rng.bit_generator.state
    monkeypatch.setattr(extremal, "rng_from_seed", lambda seed: rng)
    inflated = extremal.build_tau(a, d2, mu_scale=1.05)
    assert not extremal.ball_positivity_check(inflated, a, samples=50, seed=5)
    # a failing probe ends the test before any sample is drawn
    assert events and all(kind == "psd" for kind, _ in events)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "a, samples",
    [(0.6, -5), (0.6, 2.5), (0.0, 50), (-0.6, 50), (math.nan, 50), (2.0, 50)],
    ids=["samples=-5", "samples=2.5", "a=0", "a=-0.6", "a=nan", "a=2"],
)
def test_ball_positivity_rejects_bad_arguments(a, samples):
    tau = extremal.build_tau(0.6, 6)
    with pytest.raises(ValueError):
        extremal.ball_positivity_check(tau, a, samples=samples, seed=5)


def test_ball_positivity_rejects_maps_on_scalars():
    # M(1) has no traceless direction to probe
    with pytest.raises(ValueError, match="d2 >= 2"):
        extremal.ball_positivity_check(identity_map(1), 0.5)


def _reference_ball_check(phi, a, samples, seed, lambda_min):
    """The per-sample loop the batched check replaced, kept as a reference.

    Probes, then draws, one input at a time: one map application and one
    eigensolve each, with ``is_psd``'s rule; appends each input's smallest
    eigenvalue to ``lambda_min``.
    """
    d2 = phi.in_dim
    eye = np.eye(d2)
    directions = [extremal.z_pattern(d2)]
    if d2 >= 4:
        directions.append(extremal.x_pattern(d2))
        directions.append((directions[0] + directions[1]) / math.sqrt(2.0))
    complex_eye = np.eye(d2, dtype=complex)
    probes = []
    for zhat in directions:
        for c in np.linspace(-a, a, extremal.PROBE_STEPS):
            t = math.sqrt(max(a * a - c * c, 0.0))
            probes.append(c / math.sqrt(d2) * complex_eye + t * zhat)
            probes.append(c / math.sqrt(d2) * complex_eye - t * zhat)
    rng = rng_from_seed(seed)

    def draws():
        for _ in range(samples):
            h = random_hermitian(rng, d2)
            yield a * (h / np.linalg.norm(h))

    for delta in chain(probes, draws()):
        out = np.einsum("ij,ijkl->kl", eye + delta, phi.images)
        w = np.linalg.eigvalsh(out)
        lambda_min.append(w[0])
        if w[0] < -extremal.BALL_PSD_TOL * max(1.0, float(np.abs(w).max())):
            return False
    return True


def _batched_ball_check(monkeypatch, phi, a, samples, seed, lambda_min):
    """``ball_positivity_check``, appending each input's smallest eigenvalue."""
    psd = extremal.is_psd

    def recording_psd(h, tol):
        lambda_min.extend(np.linalg.eigvalsh(h)[:, 0])
        return psd(h, tol)

    monkeypatch.setattr(extremal, "is_psd", recording_psd)
    return extremal.ball_positivity_check(phi, a, samples=samples, seed=seed)


def _assert_matches_per_sample_loop(monkeypatch, phi, a):
    want, got = [], []
    verdict = _reference_ball_check(phi, a, 300, 5, want)
    assert _batched_ball_check(monkeypatch, phi, a, 300, 5, got) == verdict
    # the batched check decides whole stacks, so on a failure it may have
    # computed more inputs than the loop, which stops at the first one
    assert len(got) == len(want) if verdict else len(got) >= len(want)
    assert np.max(np.abs(np.subtract(got[: len(want)], want))) <= 1e-12


@pytest.mark.parametrize(
    "a, d2, d1, mu_scale",
    [(a, d2, 2, scale) for a, d2 in GRID for scale in (1.0, 1.001, 1.05)]
    + [(a, d2, 3, scale) for a, d2 in [(0.8, 4), (0.5, 6)] for scale in (1.0, 1.05)],
)
def test_ball_positivity_matches_per_sample_loop(monkeypatch, a, d2, d1, mu_scale):
    tau = extremal.build_tau(a, d2, d1, mu_scale)
    _assert_matches_per_sample_loop(monkeypatch, tau, a)


def _offdiagonal_amplifier(kappa: float) -> MapOnMatrices:
    """The identity on M(4), but E_01 and E_10 are scaled by ``kappa``.

    Stochastic and Hermiticity-preserving.  Every directed probe is
    diagonal, so it passes them all; for kappa = 2 the seed-5 draws break
    it at draw 20.
    """
    images = identity_map(4).images.copy()
    images[0, 1, 0, 1] = images[1, 0, 1, 0] = kappa
    return MapOnMatrices(4, 4, images)


def test_ball_positivity_identity_matches_per_sample_loop(monkeypatch):
    _assert_matches_per_sample_loop(monkeypatch, identity_map(2), 1.0)


def test_ball_positivity_draw_failure_matches_per_sample_loop(monkeypatch):
    want = []
    assert not _reference_ball_check(_offdiagonal_amplifier(2.0), 1.0, 300, 5, want)
    # the loop passed all 3 x 2 x PROBE_STEPS probes and failed on a draw
    assert len(want) > 6 * extremal.PROBE_STEPS
    _assert_matches_per_sample_loop(monkeypatch, _offdiagonal_amplifier(2.0), 1.0)


def test_ball_positivity_independent_of_block(monkeypatch):
    cases = [
        (extremal.build_tau(0.3, 4), 0.3),
        (extremal.build_tau(1.0, 9, 3), 1.0),
        (identity_map(2), 1.0),
        (extremal.build_tau(0.6, 6, mu_scale=1.05), 0.6),
    ]
    for phi, a in cases:
        outcomes = []
        for block in (1, 7, extremal.SAMPLE_BLOCK):
            rng = rng_from_seed(9)
            monkeypatch.setattr(extremal, "SAMPLE_BLOCK", block)
            monkeypatch.setattr(extremal, "rng_from_seed", lambda seed: rng)
            verdict = extremal.ball_positivity_check(phi, a, samples=50, seed=9)
            outcomes.append((verdict, rng.bit_generator.state))
            monkeypatch.undo()
        assert outcomes[0] == outcomes[1] == outcomes[2]
    # a failing draw ends the test inside its block, so only the verdict
    # is the same for every block size
    for block in (1, 7, extremal.SAMPLE_BLOCK):
        monkeypatch.setattr(extremal, "SAMPLE_BLOCK", block)
        amplifier = _offdiagonal_amplifier(2.0)
        assert not extremal.ball_positivity_check(amplifier, 1.0, samples=50, seed=5)


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


@pytest.mark.parametrize("builder, smallest", [(extremal.z_pattern, 2), (extremal.x_pattern, 4),
                                               (extremal.padded_sigma_z, 2),
                                               (extremal.padded_sigma_x, 2)])
def test_patterns_refuse_too_small_dimensions(builder, smallest):
    assert builder(smallest).shape == (smallest, smallest)
    for d in (smallest - 1, 0, -1):
        with pytest.raises(ValueError, match=f"d[12] must be an integer >= {smallest}"):
            builder(d)
