"""Seeded inputs, request lists and reference answers for each workload.

Every reference answer is computed here, from how the input was built or
from a closed form, never by calling the package: the certify verdicts come
from the construction of each state (with the paper's closed-form radius
recomputed below), the Schur-map norms from the L-matrix closed form and the
Motzkin-Straus identity, and the self-check from the suite's own tally.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Relative tolerance for numbers the package prints against numbers
#: computed here; both sides are float64, only summation order differs.
REL_TOL = 1e-9

#: A constructed state must sit at least this factor away from the bound.
MARGIN = 1.5


@dataclass(frozen=True)
class Request:
    """One CLI invocation and the check of its exit code and output."""

    kind: str
    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]  # None when the answer is right


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise RuntimeError(f"generated input violates its construction: {what}")


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def qubit_radius(m: int) -> float:
    """Closed-form unnormalized separable-ball radius for m qubits:
    sqrt(2^m / (3^(m-1) + 1))."""
    return math.sqrt(2.0**m / (3.0 ** (m - 1) + 1.0))


def normalized_qubit_radius(m: int) -> float:
    """Radius a / sqrt(d (d - a^2)) of the ball around I/d, d = 2^m."""
    a, d = qubit_radius(m), 2.0**m
    return a / math.sqrt(d * (d - a * a))


def ppt_threshold(m: int) -> float:
    """GHZ weight above which p GHZ + (1-p) I/d has a non-PPT cut: 1/(1+2^(m-1))."""
    return 1.0 / (1.0 + 2.0 ** (m - 1))


def _unit_hermitian(rng, d: int, traceless: bool) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2
    if traceless:
        h -= np.trace(h).real / d * np.eye(d)
    return h / np.linalg.norm(h)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _certify_check(rc: int, verdict: str, measured: float, bound: float,
                   ppt: str | None) -> Callable[[int, str], str | None]:
    def check(got_rc: int, out: str) -> str | None:
        if got_rc != rc:
            return f"exit code {got_rc}, expected {rc}"
        obj = _last_json(out)
        if obj["verdict"] != verdict:
            return f"verdict {obj['verdict']}, expected {verdict}"
        if not _close(obj["measured"], measured):
            return f"measured {obj['measured']!r}, expected {measured!r}"
        if not _close(obj["bound"], bound):
            return f"bound {obj['bound']!r}, expected {bound!r}"
        if obj.get("ppt") != ppt:
            return f"ppt {obj.get('ppt')!r}, expected {ppt!r}"
        return None

    return check


def build_certify(seed: int, workdir: Path, matcore) -> list[Request]:
    """10-qubit states of every verdict and 8-qubit states with ``--ppt``."""
    rng = np.random.default_rng([seed, 1])
    reqs: list[Request] = []

    def write(name: str, rho: np.ndarray, m: int) -> str:
        path = str(workdir / f"{name}.json")
        matcore.save_matrix(path, rho, (2,) * m)
        return path

    def distance(rho: np.ndarray, center: np.ndarray) -> float:
        return float(np.linalg.norm(rho - center))

    def add(kind, argv, rc, verdict, measured, bound, ppt=None):
        reqs.append(Request(kind, ("--format", "json", "certify", *argv),
                            _certify_check(rc, verdict, measured, bound, ppt)))

    # 10 qubits: every verdict, with and without an eigensolve
    m, d = 10, 1024
    eye = np.eye(d)
    b = normalized_qubit_radius(m)
    a = qubit_radius(m)

    sep = _hermitize(eye / d + rng.uniform(0.3, 0.6) * b * _unit_hermitian(rng, d, True))
    sep_path = write("sep10", sep, m)
    dist = distance(sep, eye / d)
    _require(dist * MARGIN <= b, "separable state too close to the bound")
    add("sep10", (sep_path,), 0, "separable", dist, b)

    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    wishart = _hermitize(g @ g.conj().T)
    wishart /= np.trace(wishart).real
    wishart_path = write("wishart10", wishart, m)
    dist = distance(wishart, eye / d)
    _require(dist >= MARGIN * b, "state too close to the bound")
    add("wishart10", (wishart_path,), 3, "inconclusive", dist, b)

    # (1+s) I/d - s psi psi† has trace one and lowest eigenvalue (1+s)/d - s
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    s = rng.uniform(3.0, 5.0) / d
    not_psd = _hermitize((1.0 + s) * eye / d - s * np.outer(psi, psi.conj()))
    not_psd_path = write("notpsd10", not_psd, m)
    add("notpsd10", (not_psd_path,), 4, "not_psd", distance(not_psd, eye / d), b)

    # I + Delta inside the unnormalized ball: trace d, so the normalized test
    # rejects it while the unnormalized one certifies it
    x = _hermitize(eye + rng.uniform(0.3, 0.6) * a * _unit_hermitian(rng, d, False))
    x_path = write("unnorm10", x, m)
    add("notnorm10", (x_path,), 4, "not_normalized", distance(x, eye / d), b)
    dist = distance(x, eye)
    _require(dist * MARGIN <= a, "unnormalized state too close to the bound")
    add("unnorm10", ("--unnormalized", x_path), 0, "separable", dist, a)

    # 8 qubits with --ppt: a full scan of all cuts, or an exit at the first
    m, d = 8, 256
    eye = np.eye(d)
    b = normalized_qubit_radius(m)
    sep = _hermitize(eye / d + rng.uniform(0.3, 0.6) * b * _unit_hermitian(rng, d, True))
    path = write("sep8", sep, m)
    add("sep8_ppt", ("--ppt", path), 0, "separable", distance(sep, eye / d), b,
        "all cuts positive")

    ghz = np.zeros((d, d))
    ghz[0, 0] = ghz[0, -1] = ghz[-1, 0] = ghz[-1, -1] = 0.5
    p_star = ppt_threshold(m)
    for kind, scale, ppt in (("ghz8_ppt_holds", rng.uniform(0.4, 0.6), "all cuts positive"),
                             ("ghz8_ppt_fails", rng.uniform(1.5, 3.0), "VIOLATED")):
        p = scale * p_star
        rho = p * ghz + (1.0 - p) * eye / d
        path = write(kind, rho, m)
        dist = distance(rho, eye / d)
        _require(dist >= MARGIN * b, "state too close to the bound")
        add(kind, ("--ppt", path), 3, "inconclusive", dist, b, ppt)
    return reqs


# ---------------------------------------------------------------------------
# schur
# ---------------------------------------------------------------------------

def l_matrix_norm(eta: float, n: int) -> float:
    """Schur-map norm of the L-matrix (1 on, eta off the diagonal).

    y^t C y = eta^2 + (1 - eta^2) |y|^2 on the simplex, so the maximum is 1
    at a vertex for eta <= 1 and sqrt((eta^2 (n-1) + 1)/n) at the uniform
    point for eta >= 1.
    """
    if eta <= 1.0:
        return 1.0
    return math.sqrt((eta * eta * (n - 1) + 1.0) / n)


def clique_number(adj: np.ndarray) -> int:
    """Largest clique, by exhaustive search over cliques in increasing order."""
    n = adj.shape[0]
    nbrs = [frozenset(np.flatnonzero(adj[i]).tolist()) for i in range(n)]
    best = 0

    def grow(size: int, candidates: frozenset) -> None:
        nonlocal best
        best = max(best, size)
        if size + len(candidates) <= best:
            return
        for v in sorted(candidates):
            grow(size + 1, frozenset(u for u in candidates & nbrs[v] if u > v))

    grow(0, frozenset(range(n)))
    return best


def planted_clique_graph(rng, n: int, p: float, k: int) -> np.ndarray:
    """G(n, p) with a clique on k random vertices, as a 0/1 adjacency matrix."""
    adj = np.triu(rng.random((n, n)) < p, 1)
    members = rng.choice(n, size=k, replace=False)
    adj[np.ix_(members, members)] = True
    adj = np.triu(adj, 1)
    return (adj | adj.T).astype(float)


#: Seed of the one graph behind each graph request kind.
GRAPH_FAMILY = 0x5EBA11


def _schur_check(exact: float | None, oracle_low: float,
                 oracle_high: float) -> Callable[[int, str], str | None]:
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}, expected 0"
        obj = _last_json(out)
        oracle = obj["oracle"]
        if exact is not None:
            if "exact" not in obj or not _close(obj["exact"], exact):
                return f"exact {obj.get('exact')!r}, expected {exact!r}"
            if oracle > obj["exact"] * (1 + REL_TOL):
                return f"oracle {oracle!r} exceeds exact {obj['exact']!r}"
        elif "exact" in obj:
            return "oracle-only request reported an exact norm"
        if not oracle_low * (1 - REL_TOL) <= oracle <= oracle_high * (1 + REL_TOL):
            return f"oracle {oracle!r} outside [{oracle_low!r}, {oracle_high!r}]"
        return None

    return check


def build_schur(seed: int, workdir: Path, matcore) -> list[Request]:
    """Exact norms at n = 12, 14, 16 and oracle-only norms at n = 100 and 300."""
    rng = np.random.default_rng([seed, 2])
    reqs: list[Request] = []

    def l_request(kind, eta, n, oracle_only=False):
        want = l_matrix_norm(eta, n)
        argv = ("--format", "json", "schur-norm")
        if oracle_only:
            argv += ("--oracle-only",)
        # the oracle keeps the best vertex, worth 1, and is a lower bound
        check = (_schur_check(None, min(1.0, want), want) if oracle_only
                 else _schur_check(want, 1.0, want))
        reqs.append(Request(kind, argv + ("--l-matrix", repr(eta), str(n)), check))

    def graph_request(kind, n, p, k, oracle_only=False):
        # The exact solver's time depends on how many faces are singular, so
        # each kind has one graph and the seed relabels its vertices: every
        # seed then does the same work.  The oracle's restarts follow the
        # vertex order, so oracle-only graphs are not relabelled.
        adj = planted_clique_graph(np.random.default_rng([GRAPH_FAMILY, n]), n, p, k)
        if not oracle_only:
            perm = rng.permutation(n)
            adj = adj[np.ix_(perm, perm)]
        omega = clique_number(adj)
        want = math.sqrt(1.0 - 1.0 / omega)
        path = str(workdir / f"{kind}.json")
        matcore.save_matrix(path, adj, (n,))
        argv = ("--format", "json", "schur-norm")
        if oracle_only:
            argv += ("--oracle-only",)
            check = _schur_check(None, 0.0, want)
        else:
            check = _schur_check(want, 0.0, want)
        reqs.append(Request(kind, argv + (path,), check))

    l_request("l12_below", rng.uniform(0.3, 0.8), 12)
    l_request("l12_above", rng.uniform(1.5, 3.0), 12)
    graph_request("graph12_sparse", 12, 0.25, 4)
    graph_request("graph12_dense", 12, 0.6, 6)
    l_request("l14_below", rng.uniform(0.3, 0.8), 14)
    l_request("l14_above", rng.uniform(1.5, 3.0), 14)
    graph_request("graph14_dense", 14, 0.6, 7)
    l_request("l16_above", rng.uniform(1.5, 3.0), 16)
    graph_request("graph16_dense", 16, 0.6, 8)
    # the ascent's iteration count depends on eta, so eta is fixed here
    l_request("oracle_l100_above", 2.0, 100, oracle_only=True)
    l_request("oracle_l300_below", 0.5, 300, oracle_only=True)
    graph_request("oracle_graph300", 300, 0.03, 10, oracle_only=True)
    return reqs


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

#: Checks in the ``verify all`` suite at the time the benchmark was defined.
MIN_CHECKS = 32

_TALLY = re.compile(r"^(\d+)/(\d+) checks passed$")


def _verify_check(rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    match = _TALLY.match(out.strip().splitlines()[-1])
    if match is None:
        return "no check tally on the last line"
    passed, total = int(match[1]), int(match[2])
    if passed != total or total < MIN_CHECKS:
        return f"{passed}/{total} checks passed, expected all of at least {MIN_CHECKS}"
    return None


def build_selfcheck(seed: int, workdir: Path, matcore) -> list[Request]:
    """``verify all`` with five seeds drawn from the workload seed.

    The suite's sampling checks take longer on some seeds than on others,
    so a round averages over five.
    """
    rng = np.random.default_rng([seed, 3])
    return [
        Request("verify_all", ("--seed", str(int(s)), "verify", "all"), _verify_check)
        for s in rng.integers(0, 2**31, size=5)
    ]


BUILDERS = {
    "certify": build_certify,
    "schur": build_schur,
    "selfcheck": build_selfcheck,
}
