"""Counts: every integer count or size the package takes goes through
``matcore.check_count``, which accepts Python and numpy integers and refuses
bools, integral floats, None and values below the least count."""

import argparse
import contextlib
import dataclasses
import io
import math

import numpy as np
import pytest

from sepball import ballbounds, cli, extremal, geometry, matcore, nmr, schurnorm

TAU = extremal.build_tau(0.8, 4)
B = np.add.outer(np.arange(4.0), np.cos(np.arange(4.0)))
B = B + B.T


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
