"""CLI tests: subcommands, exit codes, output formats, seeding."""

import json
import math
import os
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from sepball import ballbounds, cli, matcore, nmr, schurnorm, verify
from sepball.matcore import save_matrix
from test_nmr import _exact_thermal_norm


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


@pytest.mark.parametrize("qubits", ["0", "-2"])
def test_bound_refuses_fewer_than_one_qubit(capsys, qubits):
    code, out, err = run_cli(capsys, "bound", "--qubits", qubits)
    assert (code, out) == (2, "")
    assert err == f"error: --qubits must be a positive integer, got {qubits}\n"


def test_bound_600_qubits_normalized_radius(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "bound", "--qubits", "600")
    assert code == 0
    got = json.loads(out)["methods"]["recursion"]["normalized"]
    log_a = ballbounds.log_closed_form_radius(2, 600)
    want = math.exp(ballbounds.log_normalized_radius(log_a, 600 * math.log(2.0)))
    assert got > 0.0
    assert got == pytest.approx(want, rel=1e-12, abs=0)


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


@pytest.mark.parametrize(
    "qubits, row",
    [
        (28, "gb03_baseline    0.000122070312 4.54747351e-13"),
        (30, "gb03_baseline    6.10351562e-05 5.68434189e-14"),
    ],
)
def test_bound_gb03_row_prints_halfway_cases_exactly(capsys, qubits, row):
    # 2^-13 and 2^-14 lie halfway between two 9-digit roundings and print
    # rounded to even; one ulp above them prints ...313 and ...563
    code, out, err = run_cli(capsys, "bound", "--qubits", str(qubits))
    assert (code, err) == (0, "")
    assert out.splitlines()[5] == row


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


def test_certify_refuses_integral_float_dims(capsys, tmp_path):
    # dims are counts: a file that is valid but for its dims [2.0, 2.0] is
    # refused, in the compact layout and in an indented one
    path = tmp_path / "rho.json"
    save_matrix(path, np.eye(4) / 4, (2, 2))
    obj = json.loads(path.read_text())
    obj["dims"] = [2.0, 2.0]
    for text in (json.dumps(obj), json.dumps(obj, indent=1, sort_keys=True)):
        path.write_text(text)
        code, _, err = run_cli(capsys, "certify", str(path))
        assert code == 2, text
        assert err == ("error: cannot read matrix file: "
                       "local dimension must be an integer >= 2, got 2.0\n"), text


@pytest.mark.parametrize(
    "psd, code, ppt, psd_check, eigensolves, factorizations",
    [
        # inside the PSD ball around I/d: the state and all 7 cuts of 4 qubits
        # are PSD by their distance from I/d alone
        (True, 0, "ppt: all cuts positive", "ball", 0, 0),
        # the input is decided once, for the certificate and the PPT scan: a
        # factorization that fails, then an eigensolve
        (False, 4, "ppt: skipped (input not PSD)", "eig", 1, 1),
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


def test_schur_norm_gap_is_never_below_rounding(capsys, tmp_path):
    # the oracle's lower bound may sit an ulp or so above the exact value
    # ("gap: -2.22044605e-16" for --l-matrix 2 3), never further
    runs = [("--l-matrix", repr(eta), str(n)) for eta in (-2.0, 0.5, 2.0) for n in (1, 2, 3, 7, 16)]
    rng = np.random.default_rng(17)
    for n, p, k in ((6, 0.3, 3), (10, 0.4, 4), (12, 0.6, 6), (16, 0.5, 7)):
        adj = np.triu(rng.random((n, n)) < p, 1)
        members = rng.choice(n, size=k, replace=False)
        adj[np.ix_(members, members)] = True
        adj = np.triu(adj, 1)
        path = tmp_path / f"graph{n}.json"
        save_matrix(path, (adj | adj.T).astype(float), (n,))
        runs.append((str(path),))
    for argv in runs:
        code, out, _ = run_cli(capsys, "--format", "json", "schur-norm", *argv)
        assert code == 0, argv
        obj = json.loads(out)
        assert obj["gap"] >= -1e-12 * obj["exact"], argv


@pytest.mark.parametrize("argv, exact, gap", [
    (("{graph}",), 0.9354143466934853, -1.1102230246251565e-16),
    (("--l-matrix", "0.6", "14"), 1.0, 0.0),
    (("--l-matrix", "2.5", "16"), 2.433490291741473, 0.0),
])
def test_schur_norm_seeded_walk_prints_the_full_scans_digits(capsys, tmp_path, monkeypatch,
                                                             argv, exact, gap):
    # the digits the full scan printed before the oracle seeded a pruned
    # walk: a relabelled planted-clique graph (omega = 8) and one L-matrix
    # on each side of eta = 1
    rng = np.random.default_rng([0x5EBA11, 16])
    adj = np.triu(rng.random((16, 16)) < 0.6, 1)
    members = rng.choice(16, size=8, replace=False)
    adj[np.ix_(members, members)] = True
    adj = np.triu(adj, 1)
    perm = np.random.default_rng(3).permutation(16)
    graph = tmp_path / "graph16.json"
    save_matrix(graph, (adj | adj.T).astype(float)[np.ix_(perm, perm)], (16,))

    def no_scan(c):
        raise AssertionError("the full scan ran")

    monkeypatch.setattr(schurnorm, "_scan", no_scan)
    argv = [arg.format(graph=graph) for arg in argv]
    code, out, _ = run_cli(capsys, "--format", "json", "schur-norm", *argv)
    assert code == 0
    obj = json.loads(out)
    assert (obj["exact"], obj["gap"]) == (exact, gap)


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
    for size, read in (("3.5", "3.5"), ("0", "0"), ("nan", "nan"), ("inf", "inf"),
                       ("2.0", "2.0"), ("1e1", "10.0")):
        code, _, err = run_cli(capsys, "schur-norm", "--l-matrix", "2", size)
        assert code == 2, size
        assert err == f"error: --l-matrix size must be a positive integer, got {read}\n", size


def test_l_matrix_values_are_numbers(capsys):
    # an integer literal stays an int, so a size is a count; argparse names
    # the kind of a value that is not a number
    assert [type(cli.number(text)) for text in ("3", "-2", "3.0", "1e1", "nan")] == [
        int, int, float, float, float]
    # an integer literal beyond float range reads as inf, as float() reads it
    assert cli.number("1" + "0" * 400) == math.inf
    with pytest.raises(SystemExit) as exc:
        cli.main(["schur-norm", "--l-matrix", "x", "3"])
    assert exc.value.code == 2
    assert "argument --l-matrix: invalid number value: 'x'" in capsys.readouterr().err


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


def _certified_in_decimal(eta, m, mode):
    # the closed-form qubit radius a^2 = 2^m / (3^(m-1) + 1), compared squared
    with localcontext() as ctx:
        ctx.prec = 40
        d = Decimal(2) ** m
        a2 = d / (Decimal(3) ** (m - 1) + 1)
        if mode == "pseudopure":
            measured, bound2 = Decimal(eta) * m / d, a2 / ((d - 1) * (d - a2))
        else:
            measured, bound2 = _exact_thermal_norm(eta, m), a2 / (d * (d - a2))
        return measured * measured <= bound2


@pytest.mark.parametrize("eta", ["1e-60", "1e-200"])
@pytest.mark.parametrize("mode", ["thermal", "pseudopure"])
def test_nmr_tiny_eta_has_a_threshold(capsys, mode, eta):
    code, out, err = run_cli(capsys, "--format", "json", "nmr", "--mode", mode, "--eta", eta)
    assert (code, err) == (0, "")
    m = json.loads(out)["threshold"]
    assert _certified_in_decimal(float(eta), m, mode)
    assert not _certified_in_decimal(float(eta), m + 1, mode)
    want = 2
    while _certified_in_decimal(float(eta), want + 1, mode):
        want += 1
    assert m == want


@pytest.mark.parametrize("mode", ["thermal", "pseudopure"])
def test_nmr_margins_show_their_logs_below_the_double_range(capsys, mode):
    # both linear margins underflow to 0 at eta = 1e-200; their log10s are
    # finite and decide on which side of the bound each count lies
    code, out, _ = run_cli(capsys, "nmr", "--mode", mode, "--eta", "1e-200")
    assert code == 0
    at, above = [line for line in out.splitlines() if line.startswith("  m = ")]
    assert at != above
    code, out, _ = run_cli(capsys, "--format", "json", "nmr", "--mode", mode, "--eta", "1e-200")
    margins = json.loads(out)["margins"]
    assert margins["above_threshold"]["m"] == margins["at_threshold"]["m"] + 1
    for label, certified in (("at_threshold", True), ("above_threshold", False)):
        margin = margins[label]
        assert (margin["measured"], margin["bound"]) == (0.0, 0.0)
        assert math.isfinite(margin["log10_measured"]) and math.isfinite(margin["log10_bound"])
        assert (margin["log10_measured"] <= margin["log10_bound"]) == certified
        measured, bound = (x / math.log(10.0) for x in nmr.log_measured_and_bound(
            1e-200, margin["m"], mode, "recursion"))
        assert (margin["log10_measured"], margin["log10_bound"]) == (measured, bound)
        assert f"(log10 {measured:.9g} vs {bound:.9g})" in (at if certified else above)


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
        assert (code, out, err) == (2, "", "error: seed must be a nonnegative integer, got -1\n")
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
gap:    0
"""),
    (["nmr"], """\
mode: pseudopure   eta = 3.746e-05   baseline = recursion
threshold: 35 qubits certified separable
entanglement not certified possible until 36
  m = 35: measured 3.81580321e-14 vs bound 4.1774739e-14 (log10 -13.418414 vs -13.3790863)
  m = 36: measured 1.96241308e-14 vs bound 1.70544658e-14 (log10 -13.7072096 vs -13.7681619)
gb03 baseline comparison: threshold 22
"""),
    (["nmr", "--mode", "thermal", "--baseline", "gb03"], """\
mode: thermal   eta = 3.746e-05   baseline = gb03
threshold: 13 qubits certified separable
entanglement not certified possible until 14
  m = 13: measured 1.49225994e-06 vs bound 2.69739839e-06 (log10 -5.82615552 vs -5.56905491)
  m = 14: measured 1.09501942e-06 vs bound 9.53674324e-07 (log10 -5.96057818 vs -6.02059991)
gb03 baseline comparison: threshold 13
"""),
]


def test_human_output_is_pinned(capsys, tmp_path):
    id8 = tmp_path / "id8.json"
    save_matrix(id8, np.eye(8) / 8, (2, 2, 2))
    for argv, want in PINNED_HUMAN_OUTPUT:
        argv = [arg.format(id8=id8) for arg in argv]
        assert run_cli(capsys, *argv) == (0, want, ""), argv
