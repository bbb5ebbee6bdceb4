"""CLI tests: subcommands, exit codes, output formats, seeding."""

import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from sepball import ballbounds, cli, matcore, verify
from sepball.matcore import save_matrix


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_tripartite(capsys):
    code, out, _ = run_cli(capsys, "bound", "2", "2", "2")
    assert code == 0
    assert "0.894427191" in out


def test_bound_bipartite_base(capsys):
    code, out, _ = run_cli(capsys, "bound", "2", "2")
    assert code == 0
    assert " 1 " in out or "1\n" in out.replace("  ", " ")


def test_bound_qubits_shorthand(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "bound", "--qubits", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["dims"] == [2, 2, 2, 2]
    assert obj["methods"]["recursion"]["unnormalized"] == pytest.approx(
        (4.0 / 7.0) ** 0.5, abs=1e-12
    )
    assert "qubit_exponent" in obj


def test_bound_bad_dims(capsys):
    # a local dimension below 2, and a single party
    for dims in (["2", "1"], ["3"], ["2"]):
        code, _, err = run_cli(capsys, "bound", *dims)
        assert code == 2, dims
        assert err.startswith("error: "), dims


def test_bound_600_qubits_normalized_radius(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "bound", "--qubits", "600")
    assert code == 0
    got = json.loads(out)["methods"]["recursion"]["normalized"]
    log_a = ballbounds.log_closed_form_radius(2, 600)
    want = math.exp(ballbounds.log_normalized_radius(log_a, 600 * math.log(2.0)))
    assert got > 0.0
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("qubits", [1024, 1100, 5000])
def test_bound_below_double_range_prints_zero(capsys, qubits):
    code, out, err = run_cli(capsys, "bound", "--qubits", str(qubits))
    assert code == 0
    assert err == ""
    rows = [line.split() for line in out.splitlines()[2:6]]
    assert [row[0] for row in rows] == [
        "recursion", "closed_form", "weak_corollary", "gb03_baseline"
    ]
    assert all(row[2] == "0" for row in rows)
    if qubits == 5000:
        assert all(row[1] == "0" for row in rows)
    else:
        assert all(float(row[1]) > 0.0 for row in rows)


def test_bound_no_dims(capsys):
    code, _, _ = run_cli(capsys, "bound")
    assert code == 2


def test_certify_maximally_mixed(capsys, tmp_path):
    path = tmp_path / "id.json"
    save_matrix(path, np.eye(4) / 4, (2, 2))
    code, out, _ = run_cli(capsys, "certify", str(path))
    assert code == 0
    assert "separable" in out


def test_certify_bell_inconclusive_with_ppt(capsys, tmp_path):
    bell = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    path = tmp_path / "bell.json"
    save_matrix(path, bell, (2, 2))
    code, out, _ = run_cli(capsys, "certify", str(path), "--ppt")
    assert code == 3
    assert "VIOLATED" in out


def test_certify_not_normalized(capsys, tmp_path):
    path = tmp_path / "x.json"
    save_matrix(path, np.eye(4), (2, 2))
    code, out, _ = run_cli(capsys, "certify", str(path))
    assert code == 4
    code, out, _ = run_cli(capsys, "certify", str(path), "--unnormalized")
    assert code == 0


MALFORMED_MATRIX_FILES = [
    "not json at all",
    '{"dims": [2]}',
    '{"dims": [2.7], "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}',
    '{"dims": [Infinity], "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}',
    '{"dims": [2], "entries": null}',
    '{"dims": [2], "entries": [1.0, 0.0, 0.0, 1.0]}',
    '{"dims": [2], "entries": [["0.5", 0], [0, 0], [0, 0], [0.5, 0]]}',
    '[[0.5, 0], [0, 0], [0, 0], [0.5, 0]]',
    # JSON booleans are not numbers: this was read as the identity on 2 qubits
    '{"dims": [2, 2], "entries": ['
    + ", ".join("[true, false]" if i % 5 == 0 else "[false, false]" for i in range(16)) + "]}",
    # an integer beyond float range
    '{"dims": [2], "entries": [[1' + "0" * 400 + ', 0], [0, 0], [0, 0], [0.5, 0]]}',
]


def test_certify_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for text in MALFORMED_MATRIX_FILES:
        path.write_text(text)
        code, _, err = run_cli(capsys, "certify", str(path))
        assert code == 2, text
        assert "cannot read matrix file" in err, text


@pytest.mark.parametrize(
    "psd, code, ppt, psd_check, eigensolves, factorizations",
    [
        # inside the PSD ball around I/d: the state and all 7 cuts of 4 qubits
        # are PSD by their distance from I/d alone
        (True, 0, "ppt: all cuts positive", "ball", 0, 0),
        # the certificate and the PPT input check: a factorization that
        # fails, then an eigensolve, each
        (False, 4, "ppt: skipped (input not PSD)", "eig", 2, 2),
    ],
    ids=["psd", "not_psd"],
)
def test_certify_ppt_call_counts(capsys, tmp_path, count_calls, psd, code, ppt, psd_check,
                                 eigensolves, factorizations):
    d = 16
    rho = np.eye(d) / d
    rho[0, 0] -= 0.001
    rho[1, 1] += 0.001
    if not psd:
        rho[0, 0] -= 0.1
        rho[1, 1] += 0.1
    path = tmp_path / "rho.json"
    save_matrix(path, rho, (2, 2, 2, 2))
    hermitian = count_calls(matcore, "hermitian")
    eig = count_calls(np.linalg, "eigvalsh")
    cholesky = count_calls(np.linalg, "cholesky")
    got, out, _ = run_cli(capsys, "certify", str(path), "--ppt")
    assert got == code
    assert out.splitlines()[-1] == ppt
    # one validation and measurement, shared by the certificate and the PPT scan
    assert len(hermitian) == 1
    assert (len(eig), len(cholesky)) == (eigensolves, factorizations)
    _, out, _ = run_cli(capsys, "--format", "json", "certify", str(path))
    assert json.loads(out)["psd_check"] == psd_check


def test_certify_unnormalized_ppt_settles_every_cut_by_the_floor(capsys, tmp_path, count_calls):
    # X = I + Delta with ||Delta||_2 at half the unnormalized radius: its
    # distance from (t/d)·I puts every cut's lambda_min above 0, while its
    # distance from I/d, about sqrt(d), did not
    dims = (2,) * 6
    rng = np.random.default_rng(46)
    g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    delta = (g + g.conj().T) / 2
    radius = ballbounds.radius_report(dims).unnormalized_radius
    path = tmp_path / "x.json"
    save_matrix(path, np.eye(64) + 0.5 * radius * delta / np.linalg.norm(delta), dims)
    eig = count_calls(np.linalg, "eigvalsh")
    cholesky = count_calls(np.linalg, "cholesky")
    code, out, _ = run_cli(capsys, "certify", "--unnormalized", str(path), "--ppt")
    assert code == 0
    assert out.splitlines()[-1] == "ppt: all cuts positive"
    assert (len(eig), len(cholesky)) == (0, 0)


def test_certify_ppt_one_party_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "qutrit.json"
    save_matrix(path, np.eye(3) / 3, (3,))
    for fmt in ("human", "json"):
        code, out, err = run_cli(capsys, "--format", fmt, "certify", str(path), "--ppt")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "at least 2 parties" in err


def test_certify_overflowing_norm_is_a_usage_error(capsys, tmp_path):
    # entries this large square to inf in ||rho||_2: the state was once
    # accepted and measured as NaN, which is not JSON
    path = tmp_path / "huge.json"
    save_matrix(path, np.diag([1e308, 0.0, 0.0, 0.0]), (2, 2))
    for argv in (("certify",), ("certify", "--ppt"), ("certify", "--unnormalized")):
        # outside pytest a warning is printed to stderr: the error line must
        # be all there is
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "--format", "json", *argv, str(path))
        assert (code, out) == (2, ""), argv
        assert err == "error: matrix norm overflows float64\n", argv
        assert [str(w.message) for w in caught] == [], argv


def test_certify_json_output_roundtrip(capsys, tmp_path):
    path = tmp_path / "id.json"
    save_matrix(path, np.eye(8) / 8, (2, 2, 2))
    code, out, _ = run_cli(capsys, "--format", "json", "certify", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "separable"
    assert obj["dims"] == [2, 2, 2]


def test_schur_norm_l_matrix(capsys):
    code, out, _ = run_cli(capsys, "schur-norm", "--l-matrix", "2", "3")
    assert code == 0
    assert "1.73205081" in out  # sqrt(3)
    code, out, _ = run_cli(capsys, "schur-norm", "--l-matrix", "1", "5")
    assert code == 0
    assert out.splitlines()[0].endswith("1")


def test_schur_norm_all_ones_file(capsys, tmp_path):
    path = tmp_path / "ones.json"
    save_matrix(path, np.ones((4, 4)), (4,))
    code, out, _ = run_cli(capsys, "--format", "json", "schur-norm", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["exact"] == pytest.approx(1.0, abs=1e-9)
    assert abs(obj["gap"]) <= 1e-6


def test_schur_norm_over_cap_requires_oracle_only(capsys, tmp_path):
    path = tmp_path / "big.json"
    save_matrix(path, np.eye(17), (17,))
    code, _, err = run_cli(capsys, "schur-norm", str(path))
    assert code == 2
    code, out, _ = run_cli(capsys, "schur-norm", str(path), "--oracle-only")
    assert code == 0


def test_schur_norm_bad_input_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "upper.json"
    save_matrix(path, np.array([[1.0, 1.0], [0.0, 1.0]]), (2,))
    code, _, err = run_cli(capsys, "schur-norm", str(path))
    assert code == 2
    assert "not Hermitian" in err
    code, _, err = run_cli(capsys, "schur-norm", "--l-matrix", "2", "3", "--restarts", "0")
    assert code == 2
    assert "restart" in err
    for size in ("3.5", "0", "nan", "inf"):
        code, _, err = run_cli(capsys, "schur-norm", "--l-matrix", "2", size)
        assert code == 2, size
        assert err == "error: --l-matrix size must be a positive integer\n", size


def test_schur_norm_l_matrix_over_cap_is_refused_before_building(capsys):
    # a 5000 × 5000 matrix would take 200 MB
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "schur-norm", "--l-matrix", "2", "5000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "exceeds the exact-solver cap" in err
    assert peak < 1e6


def test_schur_norm_oracle_only_l_matrix_keeps_the_materialization_cap(capsys, monkeypatch):
    monkeypatch.setattr(matcore, "MATERIALIZATION_CAP", 64)
    code, _, err = run_cli(capsys, "schur-norm", "--l-matrix", "2", "65", "--oracle-only")
    assert code == 2
    assert "materialization cap 64" in err
    code, _, _ = run_cli(capsys, "schur-norm", "--l-matrix", "2", "64", "--oracle-only")
    assert code == 0


def test_schur_norm_missing_input(capsys):
    code, _, _ = run_cli(capsys, "schur-norm")
    assert code == 2


def test_nmr_pseudopure_default(capsys):
    code, out, _ = run_cli(capsys, "nmr")
    assert code == 0
    assert "threshold: 35" in out
    assert "until 36" in out


def test_nmr_thermal(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "nmr", "--mode", "thermal")
    assert code == 0
    obj = json.loads(out)
    assert obj["threshold"] == 16
    assert obj["gb03_threshold"] == 13


def test_nmr_thermal_gb03(capsys):
    code, out, _ = run_cli(capsys, "nmr", "--mode", "thermal", "--baseline", "gb03")
    assert code == 0
    assert "threshold: 13" in out


def test_nmr_eta_out_of_range(capsys):
    code, _, _ = run_cli(capsys, "nmr", "--eta", "0.5")
    assert code == 2


def test_verify_fast_green(capsys):
    code, out, _ = run_cli(capsys, "verify", "fast")
    assert code == 0
    assert "FAIL" not in out


def test_verify_seed_changes_samples_not_verdicts(capsys):
    code_a, out_a, _ = run_cli(capsys, "--seed", "1", "verify", "fast")
    code_b, out_b, _ = run_cli(capsys, "--seed", "99", "verify", "fast")
    assert code_a == code_b == 0
    verdicts_a = [line.split()[0] for line in out_a.splitlines() if line]
    verdicts_b = [line.split()[0] for line in out_b.splitlines() if line]
    assert verdicts_a == verdicts_b


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SEPBALL_SEED", "0x1234")
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "fast")
    assert code == 0
    obj = json.loads(out)
    assert obj["seed"] == 0x1234
    assert obj["workers"] == verify.workers()
    assert all(check["seconds"] >= 0.0 for check in obj["checks"])


def test_bad_seed_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SEPBALL_SEED", "zz")
    code, out, err = run_cli(capsys, "verify", "fast")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "'zz'" in err


@pytest.mark.parametrize("argv", [("verify", "fast"), ("schur-norm", "--l-matrix", "2", "3")])
def test_negative_seed_is_a_usage_error(capsys, monkeypatch, count_calls, argv):
    # refused before the suite forks or the oracle samples
    forks = count_calls(os, "fork")
    for env, flag in (("-1", ()), (None, ("--seed", "-1"))):
        if env is None:
            monkeypatch.delenv("SEPBALL_SEED", raising=False)
        else:
            monkeypatch.setenv("SEPBALL_SEED", env)
        code, out, err = run_cli(capsys, *flag, *argv)
        assert (code, out, err) == (2, "", "error: seed must be a non-negative integer, got -1\n")
    assert forks == []


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound", "--no-such-flag", "2", "2"])
    assert exc.value.code == 2


# the complete human output of five commands, byte for byte
PINNED_HUMAN_OUTPUT = [
    (["bound", "2", "2", "2"], """\
dims: 2 2 2
method             unnormalized     normalized
recursion           0.894427191     0.11785113
closed_form         0.894427191     0.11785113
weak_corollary      0.816496581    0.106600358
gb03_baseline       0.707106781   0.0912870929
qubit decay exponent gamma = 0.29248125
"""),
    (["certify", "{id8}", "--ppt"], """\
verdict:  separable
bound:    0.11785113
measured: 0
margin:   0.11785113
ppt: all cuts positive
"""),
    (["schur-norm", "--l-matrix", "2", "3"], """\
exact:  1.73205081
oracle: 1.73205081
gap:    -2.22044605e-16
"""),
    (["nmr"], """\
mode: pseudopure   eta = 3.746e-05   baseline = recursion
threshold: 35 qubits certified separable
entanglement not certified possible until 36
  m = 35: measured 3.81580321e-14 vs bound 4.1774739e-14
  m = 36: measured 1.96241308e-14 vs bound 1.70544658e-14
gb03 baseline comparison: threshold 22
"""),
    (["nmr", "--mode", "thermal", "--baseline", "gb03"], """\
mode: thermal   eta = 3.746e-05   baseline = gb03
threshold: 13 qubits certified separable
entanglement not certified possible until 14
  m = 13: measured 1.49225994e-06 vs bound 2.69739839e-06
  m = 14: measured 1.09501942e-06 vs bound 9.53674324e-07
gb03 baseline comparison: threshold 13
"""),
]


def test_human_output_is_pinned(capsys, tmp_path):
    id8 = tmp_path / "id8.json"
    save_matrix(id8, np.eye(8) / 8, (2, 2, 2))
    for argv, want in PINNED_HUMAN_OUTPUT:
        argv = [arg.format(id8=id8) for arg in argv]
        assert run_cli(capsys, *argv) == (0, want, ""), argv
