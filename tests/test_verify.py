"""The self-check suite in several processes: the same results as one.

``run_suite`` runs its checks in the calling process and forked children.
These tests pin that the result list does not depend on how many processes
ran it, that an error other than a failed assertion reaches the caller as
it would from a serial run, and that a child that cannot be forked or dies
costs only time.  The conftest fixtures check that no child outlives a
test and that every test leaves the BLAS thread count as it found it, also
where the suite raises.
"""

import errno
import os
import time
import warnings

import pytest

from sepball import matcore, verify


@pytest.fixture
def processes(monkeypatch):
    """``processes(n)`` makes ``run_suite`` run in ``n`` processes."""

    def force(n):
        monkeypatch.setattr(matcore, "cpus", lambda: n)
        assert verify.workers() == n

    return force


def _triples(results):
    return [(r.name, r.passed, r.detail) for r in results]


def _alone(suite, seed):
    """Each check run on its own, last to first, in this process."""
    fast = suite == "fast"
    got = {}
    for name, fn in reversed(verify.CHECKS):
        try:
            fn(seed, fast)
            got[name] = (name, True, "ok")
        except AssertionError as exc:
            got[name] = (name, False, str(exc) or "assertion failed")
    return [got[name] for name, _ in verify.CHECKS]


def _slow(fn):
    """``fn`` after a pause long enough for every forked child to take checks."""

    def check(seed, fast):
        time.sleep(0.05)
        return fn(seed, fast)

    return check


def _passes(seed, fast):
    pass


def _fails(seed, fast):
    raise AssertionError(f"failed at seed {seed}")


def _fails_bare(seed, fast):
    raise AssertionError


@pytest.mark.parametrize("seed", [1, 2])
def test_suite_matches_each_check_run_alone_in_any_number_of_processes(processes, seed):
    want = _alone("fast", seed)
    for n in (1, 2, 3):
        processes(n)
        assert _triples(verify.run_suite("fast", seed)) == want, n


@pytest.mark.parametrize("suite", ["fast", "all"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_suite_results_do_not_depend_on_blas_threads(processes, suite, seed):
    # in two processes each runs one BLAS thread per CPU it is shared out;
    # in one, the process keeps all of its BLAS threads
    processes(1)
    serial = _triples(verify.run_suite(suite, seed))
    processes(2)
    assert _triples(verify.run_suite(suite, seed)) == serial


def test_one_process_runs_each_check_once(processes, count_calls):
    # no check warns or raises, so none is run again in the caller
    processes(1)
    calls = count_calls(verify, "_run_check")
    assert all(r.passed for r in verify.run_suite("fast", 3))
    assert len(calls) == len(verify.CHECKS)


def test_checks_are_shared_between_processes(processes, monkeypatch):
    def report_pid(seed, fast):
        raise AssertionError(str(os.getpid()))

    monkeypatch.setattr(verify, "CHECKS", [(f"x.{i}", _slow(report_pid)) for i in range(8)])
    processes(2)
    results = verify.run_suite("fast", 0)
    assert [r.name for r in results] == [f"x.{i}" for i in range(8)]
    assert len({r.detail for r in results}) == 2
    assert all(r.seconds >= 0.05 for r in results)


def test_failures_keep_their_detail_in_checks_order(processes, monkeypatch):
    checks = [("x.passes", _passes), ("x.fails", _fails), ("x.bare", _fails_bare)] * 3
    monkeypatch.setattr(verify, "CHECKS", [(name, _slow(fn)) for name, fn in checks])
    want = [("x.passes", True, "ok"), ("x.fails", False, "failed at seed 7"),
            ("x.bare", False, "assertion failed")] * 3
    for n in (1, 2, 3):
        processes(n)
        assert _triples(verify.run_suite("all", 7)) == want, n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_other_errors_reach_the_caller_first_in_checks_order(processes, monkeypatch, n):
    def type_error(seed, fast):
        raise TypeError("not a number")

    def value_error(seed, fast):
        raise ValueError("not in range")

    # a failed assertion is a result; the TypeError is the first error
    checks = [_passes, _fails, _passes, type_error, value_error, _passes]
    monkeypatch.setattr(verify, "CHECKS", [(f"x.{i}", _slow(fn)) for i, fn in enumerate(checks)])
    processes(n)
    with pytest.raises(TypeError, match="not a number"):
        verify.run_suite("fast", 0)


def test_a_failed_fork_costs_only_time(processes, monkeypatch):
    want = _alone("fast", 1)
    fork = os.fork
    attempts = []

    def fork_fails_first():
        attempts.append(None)
        if len(attempts) == 1:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", fork_fails_first)
    processes(3)
    assert _triples(verify.run_suite("fast", 1)) == want
    assert len(attempts) == 2


def test_a_child_that_dies_costs_only_time(processes, monkeypatch):
    caller = os.getpid()

    def dies_in_a_child(seed, fast):
        if os.getpid() != caller:
            os._exit(1)

    monkeypatch.setattr(verify, "CHECKS", [(f"x.{i}", _slow(dies_in_a_child)) for i in range(6)])
    processes(3)
    assert _triples(verify.run_suite("fast", 0)) == [(f"x.{i}", True, "ok") for i in range(6)]


@pytest.mark.parametrize("n", [1, 2])
def test_a_warning_reaches_the_caller_once(processes, monkeypatch, n):
    def warns(seed, fast):
        warnings.warn("drifted", RuntimeWarning)

    checks = [_passes, warns, _passes, _passes]
    monkeypatch.setattr(verify, "CHECKS", [(f"x.{i}", _slow(fn)) for i, fn in enumerate(checks)])
    processes(n)
    with pytest.warns(RuntimeWarning, match="drifted") as record:
        results = verify.run_suite("fast", 0)
    assert len(record) == 1
    assert all(r.passed for r in results)


def test_children_are_killed_when_the_caller_raises(processes, monkeypatch):
    caller = os.getpid()

    def interrupted_here_stuck_in_a_child(seed, fast):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(verify, "CHECKS", [(f"x.{i}", interrupted_here_stuck_in_a_child)
                                           for i in range(6)])
    processes(3)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        verify.run_suite("fast", 0)
    assert time.perf_counter() - start < 30
