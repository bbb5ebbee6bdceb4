"""Tests of the benchmark itself: answer checks, span arithmetic, wrapping.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import sepball  # noqa: E402
from sepball import certify, cli, matcore, schurnorm  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def small_certify_request(tmp_path) -> workloads.Request:
    """A 3-qubit state inside the ball, with its reference answer."""
    rng = np.random.default_rng(7)
    d, m = 8, 3
    b = workloads.normalized_qubit_radius(m)
    rho = np.eye(d) / d + 0.5 * b * workloads._unit_hermitian(rng, d, True)
    path = tmp_path / "sep3.json"
    matcore.save_matrix(path, rho, (2,) * m)
    check = workloads._certify_check(0, "separable", float(np.linalg.norm(rho - np.eye(d) / d)),
                                     b, None)
    return workloads.Request("sep3", ("--format", "json", "certify", str(path)), check)


def test_correct_certify_answer_passes(tmp_path):
    client = run.Client(cli, [small_certify_request(tmp_path)])
    client.run_round()
    assert client.errors == []


def test_injected_wrong_verdict_is_an_error(tmp_path, monkeypatch):
    req = small_certify_request(tmp_path)
    real = certify.certify_normalized

    def wrong(rho, dims):
        cert = real(rho, dims)
        return certify.Certificate(certify.INCONCLUSIVE, cert.bound_used, cert.measured,
                                   cert.margin, cert.dims)

    monkeypatch.setattr(certify, "certify_normalized", wrong)
    client = run.Client(cli, [req])
    client.run_round()
    # inconclusive also changes the exit code, which is checked first
    assert client.errors == [{"kind": "sep3", "problem": "exit code 3, expected 0"}]


def test_injected_wrong_measurement_is_an_error(tmp_path, monkeypatch):
    req = small_certify_request(tmp_path)
    real = certify.certify_normalized

    def off(rho, dims):
        cert = real(rho, dims)
        return certify.Certificate(cert.verdict, cert.bound_used, cert.measured * (1 + 1e-6),
                                   cert.margin, cert.dims)

    monkeypatch.setattr(certify, "certify_normalized", off)
    client = run.Client(cli, [req])
    client.run_round()
    assert len(client.errors) == 1
    assert "measured" in client.errors[0]["problem"]


def cheap_schur_requests(tmp_path):
    reqs = workloads.build_schur(3, tmp_path, matcore)
    return [r for r in reqs if r.kind in ("l12_below", "l12_above", "graph12_sparse")]


def test_schur_references_pass(tmp_path):
    client = run.Client(cli, cheap_schur_requests(tmp_path))
    client.run_round()
    assert client.errors == []


def test_injected_wrong_norm_is_an_error(tmp_path, monkeypatch):
    reqs = cheap_schur_requests(tmp_path)
    real = schurnorm.schur_two_inf_norm
    monkeypatch.setattr(schurnorm, "schur_two_inf_norm", lambda b: real(b) * 1.001)
    client = run.Client(cli, reqs)
    client.run_round()
    assert len(client.errors) == len(reqs)
    assert all("exact" in e["problem"] for e in client.errors)


def test_oracle_above_exact_is_an_error():
    check = workloads._schur_check(1.0, 1.0, 1.0)
    assert check(0, json.dumps({"n": 4, "oracle": 1.0, "exact": 1.0})) is None
    assert check(0, json.dumps({"n": 4, "oracle": 1.01, "exact": 1.0})) is not None
    assert check(2, json.dumps({"n": 4, "oracle": 1.0, "exact": 1.0})) is not None


def test_verify_tally():
    check = workloads._verify_check
    assert check(0, "PASS a\n32/32 checks passed\n") is None
    assert check(0, "33/33 checks passed") is None
    assert check(1, "FAIL a\n31/32 checks passed") is not None
    assert check(0, "31/32 checks passed") is not None
    assert check(0, "3/3 checks passed") is not None


def test_clique_number_and_motzkin_straus():
    rng = np.random.default_rng(0)
    adj = workloads.planted_clique_graph(rng, 10, 0.2, 5)
    omega = workloads.clique_number(adj)
    assert omega >= 5
    brute = max(
        bin(mask).count("1")
        for mask in range(1, 1 << 10)
        if all(adj[i, j] for i in range(10) for j in range(i + 1, 10)
               if mask >> i & 1 and mask >> j & 1)
    )
    assert omega == brute
    exact = schurnorm.simplex_qp_max(adj).value
    assert exact == pytest.approx(1.0 - 1.0 / omega, abs=1e-12)


def test_l_matrix_reference_matches_package():
    for eta, n in ((0.5, 6), (1.0, 5), (2.5, 7)):
        want = workloads.l_matrix_norm(eta, n)
        assert schurnorm.schur_two_inf_norm(schurnorm.l_matrix(eta, n)) == pytest.approx(
            want, rel=1e-12)


def test_self_time_on_synthetic_nested_spans():
    #   0 root [0, 10]
    #   1   a  [1, 4]     child of root
    #   2     g [2, 3]    child of a
    #   3   b  [3, 6]     child of root, overlaps a
    #   4   c  [9, 12]    child of root, runs past it
    start = [0.0, 1.0, 2.0, 3.0, 9.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    got = spans.self_times(start, end, parent)
    # root: 10 minus the union [1, 6] + [9, 10] of its children
    assert got.tolist() == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_self_time_ignores_span_order():
    start = [0.0, 3.0, 1.0]
    end = [5.0, 4.0, 2.0]
    parent = [-1, 0, 0]
    assert spans.self_times(start, end, parent).tolist() == pytest.approx([3.0, 1.0, 1.0])


def test_outermost_skips_nested_members():
    # 0 hermitian > 1 as_matrix ; 2 eig > 3 hermitian > 4 as_matrix
    fid = [1, 2, 3, 1, 2]
    parent = [-1, 0, -1, 2, 3]
    mask = spans.outermost(fid, parent, {1, 2})
    assert mask.tolist() == [True, False, False, True, False]


def test_wrapper_reaches_every_binding():
    modules = spans.package_modules(sepball)
    originals = spans.public_functions(modules)
    bindings = [(mod, name, obj) for mod in modules for name, obj in vars(mod).items()
                if id(obj) in originals]
    # the import-copied names are the reason for wrapping every binding
    assert any(mod is certify and name == "is_psd" for mod, name, _ in bindings)
    tracer = spans.Tracer()
    tracer.install(sepball)
    try:
        for mod, name, obj in bindings:
            wrapped = getattr(mod, name)
            assert wrapped is not obj, f"{mod.__name__}.{name} not wrapped"
            assert wrapped.__wrapped__ is obj
        assert certify.is_psd is matcore.is_psd
        assert sepball.partial_transpose is matcore.partial_transpose
        certify.certify_normalized(np.eye(4) / 4, (2, 2))
    finally:
        tracer.uninstall()
    for mod, name, obj in bindings:
        assert getattr(mod, name) is obj
    table = tracer.table()
    labels = [table.names[f] for f in table.fid]
    psd = labels.index("matcore.is_psd")
    assert labels[table.parent[psd]] == "certify.certify_normalized"


def test_self_times_and_bench_time_account_for_wall(tmp_path):
    reqs = cheap_schur_requests(tmp_path)
    tracer = spans.Tracer()
    tracer.install(sepball)
    try:
        client = run.Client(cli, reqs, tracer=tracer)
        wall = client.run_round()
    finally:
        tracer.uninstall()
    setup = spans.Tracer().table()
    metrics = spans.layer_metrics(tracer.table(), setup, 1, wall, wall)
    total = sum(metrics[name] for name in spans.MODULE_SELF.values()) + metrics["bench.self_s"]
    assert total == pytest.approx(wall, rel=1e-9)
    assert metrics["schurnorm.exact_calls"] == 3
    assert metrics["schurnorm.exact_s.n12"] == pytest.approx(metrics["schurnorm.exact_s"])
    assert all(value >= 0 for name, value in metrics.items() if name != "trace.overhead_s")


def test_probe_samples_inside_a_call_and_is_subtracted():
    probe = run.SpeedProbe()
    probe()
    first = len(probe.times)

    def busy():
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            pass
        return 7

    result, seconds, scaled = probe.timed(busy)
    samples = probe.times[first:]
    assert result == 7
    # one probe before, one after, and the timer's samples in between
    assert len(samples) >= 4
    assert seconds < 0.5
    assert seconds + probe.stolen == pytest.approx(0.5, abs=0.02)
    assert scaled == pytest.approx(seconds * run.PROBE_REF_S / statistics.fmean(samples))


def test_round_times_add_up(tmp_path):
    client = run.Client(cli, cheap_schur_requests(tmp_path), run.SpeedProbe())
    client.run_round()
    checking = client.round_times[0] - sum(client.latencies)
    assert 0 <= checking < 0.1
    assert client.scaled_rounds[0] == pytest.approx(sum(client.scaled) + checking)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 19) is None
    got = run.tail([float(i) for i in range(1, 41)])
    assert got["percentile"] == 75.0
    assert got["beyond"] == 10
    assert got["value_s"] == 30.0
    assert run.tail([1.0] * 1000)["percentile"] == 99.0


def test_independent_radius_matches_package():
    from sepball import ballbounds

    for m in (3, 8, 10):
        a = ballbounds.recursion_radius((2,) * m)
        assert workloads.qubit_radius(m) == pytest.approx(a, rel=1e-12)
        assert workloads.normalized_qubit_radius(m) == pytest.approx(
            ballbounds.normalized_radius(a, 2**m), rel=1e-12)
    assert workloads.ppt_threshold(8) == pytest.approx(1.0 / 129.0)
    assert math.isclose(workloads.l_matrix_norm(1.0, 9), 1.0)
