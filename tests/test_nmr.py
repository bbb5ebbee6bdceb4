"""NMR tests: thermal states, deviation norms, separability thresholds."""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from sepball import certify, nmr
from sepball.matcore import frobenius_norm, is_psd


def test_params_validation():
    with pytest.raises(ValueError):
        nmr.NmrParams(-0.1, 4)
    with pytest.raises(ValueError):
        nmr.NmrParams(0.01, 0)
    with pytest.warns(UserWarning):
        nmr.NmrParams(0.5, 4)
    assert nmr.NmrParams(0.05, np.int64(3)).m == 3


@pytest.mark.parametrize(
    "eta, m",
    [
        (0.05, 2.5),  # used to give a deviation norm for "2.5 qubits"
        (0.05, 3.0),
        (0.05, "3"),
        (0.05, -1),
        (math.inf, 3),  # used to pass with only the large-eta warning
        (-math.inf, 3),
        (math.nan, 3),
        (0.0, 3),
    ],
)
def test_params_reject_bad_values(eta, m):
    with pytest.raises(ValueError):
        nmr.NmrParams(eta, m)


def test_thermal_state_small():
    rho = nmr.thermal_state(nmr.NmrParams(1e-6, 1))
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-6)
    # [DERIVED] m=2, eta=0.1: diag(0.3025, 0.2475, 0.2475, 0.2025)
    rho = nmr.thermal_state(nmr.NmrParams(0.1, 2))
    assert np.allclose(np.diag(rho).real, [0.3025, 0.2475, 0.2475, 0.2025], atol=1e-15)
    for m in range(1, 9):
        rho = nmr.thermal_state(nmr.NmrParams(0.05, m))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)
        assert is_psd(rho)


def test_thermal_deviation_norm_matches_state():
    for m in range(1, 9):
        p = nmr.NmrParams(0.05, m)
        measured = frobenius_norm(nmr.thermal_state(p) - np.eye(2**m) / 2**m)
        assert nmr.thermal_deviation_norm(p) == pytest.approx(measured, abs=1e-14)


def test_thermal_deviation_norm_large_m():
    # log-domain evaluation stays finite and positive far past the cap
    val = nmr.thermal_deviation_norm(nmr.NmrParams(3.746e-5, 300))
    assert 0.0 < val < 1.0


def _exact_thermal_norm(eta, m):
    # sqrt(sum_k C(m, k) eta^2k / 2^m), summed until the terms stop counting
    with localcontext() as ctx:
        ctx.prec = 40
        x, total, term = Decimal(eta) ** 2, Decimal(0), Decimal(1)
        for k in range(1, m + 1):
            term *= x * (m - k + 1) / k
            total += term
            if term < total * Decimal("1e-45"):
                break
        return (total / 2**m).sqrt()


@pytest.mark.parametrize("m", [1, 2, 5, 36, 500])
def test_thermal_deviation_norm_over_the_whole_eta_range(m):
    # eta^2 leaves the normal doubles below eta = 1.5e-154, the norm far later
    for j in range(2, 620):
        eta = 10.0 ** (-j / 2) * 0.99
        want = _exact_thermal_norm(eta, m)
        if want < Decimal(sys.float_info.min):
            continue
        got = nmr.thermal_deviation_norm(nmr.NmrParams(eta, m))
        assert abs(Decimal(got) - want) <= Decimal("1e-12") * want, (eta, m)


@pytest.mark.parametrize("eta", [1e-160, 1e-200, 1e-300])
def test_thermal_deviation_norm_below_the_normal_range(eta):
    got = nmr.thermal_deviation_norm(nmr.NmrParams(eta, 5))
    assert got == pytest.approx(eta * math.sqrt(5 / 32), rel=1e-12, abs=0.0)


def test_pseudopure_epsilon():
    p = nmr.NmrParams(0.01, 10)
    assert nmr.pseudopure_epsilon(p) == pytest.approx(0.01 * 10 / 1024, abs=1e-18)


def test_bipartite_qubit_count():
    assert nmr.bipartite_qubit_count(3.746e-5) == pytest.approx(26695.1415, abs=1e-3)
    with pytest.raises(ValueError):
        nmr.bipartite_qubit_count(0.0)


def test_pseudopure_thresholds():
    eta = nmr.ETA_DEFAULT
    assert nmr.pseudopure_threshold(eta) == 35
    assert nmr.pseudopure_threshold(eta, baseline="gb03") == 22


def test_thermal_thresholds():
    eta = nmr.ETA_DEFAULT
    assert nmr.thermal_threshold(eta) == 16
    assert nmr.thermal_threshold(eta, baseline="gb03") == 13


def test_threshold_margins_at_decision():
    eta = nmr.ETA_DEFAULT
    m = nmr.thermal_threshold(eta)
    bound = math.exp(nmr.log_normalized_bound(m, "recursion"))
    measured = nmr.thermal_deviation_norm(nmr.NmrParams(eta, m))
    assert measured <= bound * 0.99
    bound_next = math.exp(nmr.log_normalized_bound(m + 1, "recursion"))
    measured_next = nmr.thermal_deviation_norm(nmr.NmrParams(eta, m + 1))
    assert measured_next >= bound_next * 1.01


def test_threshold_eta_validation():
    with pytest.raises(ValueError):
        nmr.thermal_threshold(0.5)
    with pytest.raises(ValueError):
        nmr.pseudopure_threshold(-1e-5)
    with pytest.raises(ValueError):
        nmr.thermal_threshold(nmr.ETA_DEFAULT, baseline="unknown")
    with pytest.raises(ValueError):
        nmr.threshold(nmr.ETA_DEFAULT, "no_such_mode", "recursion")


def test_measured_over_bound_grows_with_m():
    # the threshold search needs the certified counts to run from 2 up
    for eta in (1e-6, nmr.ETA_DEFAULT, 0.01):
        for mode in ("pseudopure", "thermal"):
            for baseline in ("recursion", "closed_form", "weak_corollary", "gb03"):
                ratios = [
                    measured / bound
                    for measured, bound in (
                        nmr.measured_and_bound(eta, m, mode, baseline)
                        for m in range(2, 500 + 1)
                    )
                ]
                assert all(x < y for x, y in zip(ratios, ratios[1:])), (
                    eta, mode, baseline
                )


def test_measured_and_bound_matches_public_formulas():
    eta = nmr.ETA_DEFAULT
    for m in (2, 16, 35, 200):
        p = nmr.NmrParams(eta, m)
        measured, bound = nmr.measured_and_bound(eta, m, "thermal", "recursion")
        assert measured == nmr.thermal_deviation_norm(p)
        assert bound == math.exp(nmr.log_normalized_bound(m, "recursion"))
        measured, bound = nmr.measured_and_bound(eta, m, "pseudopure", "gb03")
        assert measured == nmr.pseudopure_epsilon(p)
        assert bound == certify.pseudopure_bound((2,) * m, baseline="gb03")
