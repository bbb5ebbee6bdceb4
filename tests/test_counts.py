"""Counts: every integer count or size the package takes goes through
``matcore.check_count``, which accepts Python and numpy integers and refuses
bools, integral floats, None and values below the least count.  Radii: every
ball radius a goes through ``matcore.check_radius``, which accepts a real
number in (0, 1] and refuses bools and everything else.  Polarizations: every
eta goes through ``nmr.check_polarization``, which accepts a finite positive
real number and refuses bools.  Unit vectors: both sites that need one ask
``matcore.check_unit_norm``.  Seeds: every seed other than None goes through
``sampling.rng_from_seed``, which asks ``check_count`` for a nonnegative
integer."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import math

import numpy as np
import pytest

from sepball import ballbounds, cli, extremal, geometry, matcore, nmr, sampling, schurnorm

TAU = extremal.build_tau(0.8, 4)
B = np.add.outer(np.arange(4.0), np.cos(np.arange(4.0)))
B = B + B.T
B8 = np.add.outer(np.arange(8.0), np.cos(np.arange(8.0)))
B8 = B8 + B8.T


def _nmr(m):
    p = nmr.NmrParams(0.05, m)
    return type(p.m), nmr.thermal_deviation_norm(p), nmr.pseudopure_epsilon(p)


def _bound(qubits):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.cmd_bound(argparse.Namespace(qubits=qubits, dims=[], format="json"))
    return code, out.getvalue()


def _l_matrix_size(n):
    out = io.StringIO()
    args = argparse.Namespace(l_matrix=(2, n), file=None, oracle_only=False, restarts=4,
                              seed=1, format="json")
    with contextlib.redirect_stdout(out):
        code = cli.cmd_schur_norm(args)
    return code, out.getvalue()


#: (site, least count, valid count, call of the site with the count).
SITES = [
    ("closed_form_radius.d0", 2, 5, lambda v: ballbounds.closed_form_radius(v, 3)),
    ("closed_form_radius.m", 2, 5, lambda v: ballbounds.closed_form_radius(2, v)),
    ("weak_radius.d0", 2, 5, lambda v: ballbounds.weak_radius(v, 3)),
    ("weak_radius.m", 2, 5, lambda v: ballbounds.weak_radius(2, v)),
    ("gb03_baseline", 2, 5, ballbounds.gb03_baseline),
    ("log_gb03_baseline", 2, 5, ballbounds.log_gb03_baseline),
    ("qubit_normalized_radius", 1, 5, ballbounds.qubit_normalized_radius),
    ("l_matrix", 1, 5, lambda v: schurnorm.l_matrix(2.0, v)),
    ("l_matrix_norm", 1, 5, lambda v: schurnorm.l_matrix_norm(2.0, v)),
    ("oracle.restarts", 1, 5, lambda v: schurnorm.oracle_two_inf_norm(B, v, seed=1)),
    ("build_tau.d2", 4, 5, lambda v: extremal.build_tau(0.8, v).images),
    ("build_tau.d1", 2, 3, lambda v: extremal.build_tau(0.8, 4, v).images),
    ("ball_positivity.samples", 0, 5,
     lambda v: extremal.ball_positivity_check(TAU, 0.8, samples=v, seed=1)),
    ("NmrParams.m", 1, 5, _nmr),
    ("cli.qubits", 1, 5, _bound),
    ("check_dims", 2, 5, lambda v: ballbounds.radius_report((2, v))),
    ("sep_symmetry_coefficient", 2, 5, geometry.sep_symmetry_coefficient),
    ("john_ball_figures", 2, 5, geometry.john_ball_figures),
    ("unitary_basis", 2, 5, geometry.unitary_basis),
    ("mes_symmetry_witness", 2, 5,
     lambda v: dataclasses.astuple(geometry.mes_symmetry_witness(v))),
    ("cli.l_matrix_size", 1, 5, _l_matrix_size),
    ("z_pattern", 2, 5, extremal.z_pattern),
    ("x_pattern", 4, 5, extremal.x_pattern),
    ("padded_sigma_z", 2, 5, extremal.padded_sigma_z),
    ("padded_sigma_x", 2, 5, extremal.padded_sigma_x),
    ("critical_mu.d2", 2, 5, lambda v: extremal.critical_mu(0.5, v)),
    ("lambda_bound.d2", 2, 5, lambda v: ballbounds.lambda_bound(0.5, v)),
    ("lambdaprime_bound.d2", 2, 5, lambda v: ballbounds.lambdaprime_bound(0.5, v)),
    ("worst_case_input.d2", 4, 5, lambda v: extremal.worst_case_input(0.5, v)),
    ("gamma_bound.d1", 2, 5, lambda v: ballbounds.gamma_bound(v, 4, 0.5)),
    ("gamma_bound.d2", 2, 5, lambda v: ballbounds.gamma_bound(2, v, 0.6)),
    ("normalized_radius.d", 2, 5, lambda v: ballbounds.normalized_radius(0.5, v)),
    ("partial_transpose.subsystem", 0, 1, lambda v: matcore.partial_transpose(B, (2, 2), v)),
]


@pytest.mark.parametrize("least, valid, call", [s[1:] for s in SITES], ids=[s[0] for s in SITES])
def test_counts_refuse_non_integers_and_keep_numpy_integers(least, valid, call):
    for bad in (2.5, 3.0, True, False, -1, None, least + 0.5, float(least)):
        with pytest.raises(ValueError):
            call(bad)
    want, got = call(valid), call(np.int64(valid))
    if not isinstance(want, tuple):
        want, got = (want,), (got,)
    for w, g in zip(want, got, strict=True):
        assert type(g) is type(w)
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        else:
            assert g == w


def test_partial_transpose_keeps_its_index_error_past_the_last_party():
    for subsystem in (2, np.int64(2), 7):
        with pytest.raises(IndexError, match="out of range"):
            matcore.partial_transpose(B, (2, 2), subsystem)
    with pytest.raises(ValueError) as refused:
        matcore.partial_transpose(B, (2, 2), -1)
    assert str(refused.value) == "subsystem must be a nonnegative integer, got -1"


def test_check_count_messages():
    assert matcore.check_count(np.int64(7), "m", 2) == 7
    assert type(matcore.check_count(np.uint8(7), "m", 2)) is int
    assert matcore.check_count(0, "samples", 0) == 0
    for value, least, message in (
        (0, 1, "n must be a positive integer, got 0"),
        (-1, 0, "n must be a nonnegative integer, got -1"),
        (2.5, 2, "n must be an integer >= 2, got 2.5"),
        (True, 1, "n must be a positive integer, got True"),
        (math.nan, 0, "n must be a nonnegative integer, got nan"),
        ("3", 1, "n must be a positive integer, got '3'"),
    ):
        with pytest.raises(ValueError) as refused:
            matcore.check_count(value, "n", least)
        assert str(refused.value) == message


#: (site, call of the site with the radius a).
RADIUS_SITES = [
    ("critical_mu", lambda a: extremal.critical_mu(a, 4)),
    ("worst_case_input", lambda a: extremal.worst_case_input(a, 4)),
    ("ball_positivity_check",
     lambda a: extremal.ball_positivity_check(TAU, a, samples=16, seed=1)),
    ("gamma_bound", lambda a: ballbounds.gamma_bound(3, 4, a)),
    ("lambda_bound", lambda a: ballbounds.lambda_bound(a, 4)),
    ("lambdaprime_bound", lambda a: ballbounds.lambdaprime_bound(a, 4)),
    ("normalized_radius", lambda a: ballbounds.normalized_radius(a, 4)),
    ("block_chain_check", lambda a: extremal.block_chain_check(TAU, B8, a)),
]

#: Each radius site's value at a = 0.3, 0.6 and 1.0: a double's ``hex()``,
#: the first 16 hex digits of the SHA-256 of an array's bytes, or a verdict.
RADIUS_VALUES = {
    "critical_mu": ["0x1.a5d6e03424c2fp+1", "0x1.970399636e23ap+0", "0x1.bb67ae8584caap-1"],
    "worst_case_input": ["08bcf4d5ea0b7bbb", "db21cac348e2325f", "bdb3bf7ecf95d000"],
    "ball_positivity_check": [True, True, False],
    "gamma_bound": ["0x1.10ec14402282bp+2", "0x1.094fe6c999f06p+1", "0x1.279a74590331cp+0"],
    "lambda_bound": ["0x1.2a4914a0fb2b0p+2", "0x1.1fcd6a2cc001fp+1", "0x1.3988e1409212ep+0"],
    "lambdaprime_bound": ["0x1.2bff3dd17c217p+2", "0x1.26d520d9a1e52p+1",
                          "0x1.52a7fa9d2f8eap+0"],
    "normalized_radius": ["0x1.36b726c778b42p-4", "0x1.4208795cbc6afp-3",
                          "0x1.279a74590331cp-2"],
    "block_chain_check": [True, True, True],
}


def _bits(value):
    if isinstance(value, np.ndarray):
        return hashlib.sha256(value.tobytes()).hexdigest()[:16]
    return value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("name, call", RADIUS_SITES, ids=[s[0] for s in RADIUS_SITES])
def test_radii_have_one_rule(name, call, monkeypatch):
    # a refused radius costs no operator norm
    norms = []
    monkeypatch.setattr(extremal, "operator_norm",
                        lambda *args: norms.append(args) or matcore.operator_norm(*args))
    for bad in (0, -0.5, 1 + 1e-12, 1.5, math.nan, math.inf, True):
        with pytest.raises(ValueError) as refused:
            call(bad)
        assert str(refused.value) == f"need 0 < a <= 1, got {bad!r}"
    assert norms == []
    want = RADIUS_VALUES[name]
    assert [_bits(call(a)) for a in (0.3, 0.6, 1.0, np.float64(0.6))] == [*want, want[1]]


#: (site, call of the site with the polarization eta).
POLARIZATION_SITES = [
    ("NmrParams", lambda eta: (nmr.thermal_deviation_norm(nmr.NmrParams(eta, 5)),
                               nmr.pseudopure_epsilon(nmr.NmrParams(eta, 5)))),
    ("bipartite_qubit_count", lambda eta: (nmr.bipartite_qubit_count(eta),)),
    ("threshold", lambda eta: (nmr.threshold(eta, "pseudopure", "recursion"),
                               nmr.threshold(eta, "thermal", "recursion"))),
]

#: Each polarization site's values at eta = 1e-5, as ``hex()`` or counts.
POLARIZATION_VALUES = {
    "NmrParams": ["0x1.0945654a300abp-18", "0x1.a36e2eb1c432dp-20"],
    "bipartite_qubit_count": ["0x1.869ffffffffffp+16"],
    "threshold": [41, 19],
}


@pytest.mark.parametrize("name, call", POLARIZATION_SITES, ids=[s[0] for s in POLARIZATION_SITES])
def test_polarizations_have_one_rule(name, call):
    for bad in (0, -1e-5, math.nan, math.inf, True, "1e-5"):
        with pytest.raises(ValueError) as refused:
            call(bad)
        assert str(refused.value) == f"polarization must be finite and positive, got {bad!r}"
    for eta in (1e-5, np.float64(1e-5)):
        assert [_bits(v) for v in call(eta)] == POLARIZATION_VALUES[name]


def test_unit_vectors_have_one_rule():
    off, near = np.array([1 + 2e-10, 0.0]), np.array([1 + 5e-11, 0.0])
    with pytest.raises(ValueError, match="^local vectors must have unit norm$"):
        geometry.complete_local_basis(off)
    with pytest.raises(ValueError, match="^ensemble y-vectors must have unit norm$"):
        schurnorm.nielsen_kempe_check([(np.ones(2), off)])
    geometry.complete_local_basis(near)
    assert schurnorm.nielsen_kempe_check([(np.ones(2), near)])


#: (site, call of the site with the seed).
SEED_SITES = [
    ("oracle_two_inf_norm", lambda seed: schurnorm.oracle_two_inf_norm(B, 4, seed=seed)),
    ("ball_positivity_check",
     lambda seed: extremal.ball_positivity_check(TAU, 0.8, samples=16, seed=seed)),
]


@pytest.mark.parametrize("name, call", SEED_SITES, ids=[s[0] for s in SEED_SITES])
def test_seeds_have_one_rule(name, call):
    for bad in (True, False, 2.5, 1.0, -1, "1"):
        with pytest.raises(ValueError) as refused:
            call(bad)
        assert str(refused.value) == f"seed must be a nonnegative integer, got {bad!r}"
    assert call(None) == call(sampling.DEFAULT_SEED)
    assert call(np.int64(7)) == call(7)
    assert call(0) == call(np.uint8(0))
