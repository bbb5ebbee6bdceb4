"""Certificate tests: ball verdicts, pseudopure bounds, PPT cross-checks."""

import json
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from sepball import ballbounds, certify, matcore
from sepball.matcore import frobenius_norm
from sepball.sampling import (
    random_density_matrix,
    random_traceless_unit_hermitian,
    rng_from_seed,
)


def bell_state() -> np.ndarray:
    b = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            b[i, j] = 0.5
    return b


def test_maximally_mixed_is_separable():
    cert = certify.certify_normalized(np.eye(4) / 4, (2, 2))
    assert cert.verdict == certify.SEPARABLE
    assert cert.measured == 0.0
    assert not cert.boundary
    assert cert.psd_check == "ball"


def test_certify_normalized_validates_and_solves_once(count_calls):
    rho = random_density_matrix(rng_from_seed(29), 8)
    validations = count_calls(matcore, "as_matrix")
    hermitian = count_calls(matcore, "hermitian")
    eigensolves = count_calls(np.linalg, "eigvalsh")
    factorizations = count_calls(np.linalg, "cholesky")
    cert = certify.certify_normalized(rho, (2, 2, 2))
    assert cert.verdict == certify.INCONCLUSIVE
    # outside the PSD ball around I/d, so one factorization decides
    assert cert.psd_check == "cholesky"
    assert (len(validations), len(hermitian), len(eigensolves), len(factorizations)) == (1, 1, 0, 1)


def test_certificates_and_ppt_read_a_state_without_validating(count_calls):
    rng = rng_from_seed(31)
    inputs = [random_density_matrix(rng, 8), np.eye(8) / 8, np.eye(8) / 2,
              np.diag([0.6, 0.5, 0.0, -0.1, 0.0, 0.0, 0.0, 0.0])]
    checks = (certify.certify_normalized, certify.certify_unnormalized, certify.ppt_all_cuts)

    def answers(x):
        got = [fn(x, (2, 4)) for fn in checks[:2]]
        try:
            got.append(checks[2](x, (2, 4)))
        except ValueError as exc:
            got.append(str(exc))
        return got

    want = [answers(rho) for rho in inputs]
    states = [matcore.measure(rho, (2, 4)) for rho in inputs]
    hermitian = count_calls(matcore, "hermitian")
    assert [answers(state) for state in states] == want
    assert hermitian == []
    assert want[-1][0].verdict == certify.NOT_PSD and want[-1][2] == "input is not PSD"
    for fn in checks:
        with pytest.raises(ValueError, match="state has dims"):
            fn(states[0], (4, 2))


def test_a_state_is_decided_psd_once(monkeypatch):
    # PSD but outside the PSD ball around I/d: a Cholesky decides, once for
    # the certificate and the PPT scan together
    rho = random_density_matrix(rng_from_seed(41), 8)
    want = (certify.certify_normalized(rho, (2, 4)), certify.ppt_all_cuts(rho, (2, 4)))
    state = matcore.measure(rho, (2, 4))
    assert state.floor < 0 and state.normalized
    is_psd, on_input = matcore.is_psd, []

    def recording(h, *args, **kwargs):
        on_input.append(h is state.h)
        return is_psd(h, *args, **kwargs)

    for module in (matcore, certify):
        monkeypatch.setattr(module, "is_psd", recording)
    got = (certify.certify_normalized(state, (2, 4)), certify.ppt_all_cuts(state, (2, 4)))
    assert got == want
    assert got[0].psd_check == "cholesky"
    assert on_input.count(True) == 1


def test_mu_measures_one_party():
    # the same doubles as before State decided normalization and PSD
    pi = np.zeros((4, 4))
    pi[0, 0] = 1.0
    rng = rng_from_seed(43)
    inputs = [np.eye(8) / 8, pi, random_density_matrix(rng, 6), random_density_matrix(rng, 2)]
    assert [certify.mu(x).hex() for x in inputs] == [
        "0x0.0p+0", "0x1.bb67ae8584caap+0", "0x1.babc557bc466fp+0", "0x1.cfe4f74d18a67p-1"]
    # one party of dimension 1 is not a state the ball test knows
    with pytest.raises(ValueError, match="^local dimension must be an integer >= 2, got 1$"):
        certify.mu(np.ones((1, 1)))


@pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "unnormalized"])
def test_certify_peak_memory(normalized):
    # a 10-qubit state inside the PSD ball, 16 MB as a matrix, and d times
    # it for the unnormalized test: the symmetrized copy and one temporary
    # of hermitian's are all either adds
    d = 1024
    rho = np.eye(d) / d + 0.5 / d * random_traceless_unit_hermitian(rng_from_seed(37), d)
    x = rho if normalized else d * rho
    fn = certify.certify_normalized if normalized else certify.certify_unnormalized
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cert = fn(x, (2,) * 10)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert cert.psd_check == ("ball" if normalized else "skipped")
    assert peak <= 34e6
    if not normalized:
        h = matcore.hermitian(x)
        assert cert.measured == frobenius_norm(h - np.eye(d))


def test_identity_unnormalized():
    cert = certify.certify_unnormalized(np.eye(4), (2, 2))
    assert cert.verdict == certify.SEPARABLE
    assert cert.bound_used == 1.0
    assert cert.psd_check == "skipped"


def test_bell_state_inconclusive():
    cert = certify.certify_normalized(bell_state(), (2, 2))
    assert cert.verdict == certify.INCONCLUSIVE
    # [DERIVED] ||bell - I/4||_2 = sqrt(3)/2
    assert cert.measured == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-14)


def test_non_normalized_and_non_psd_rejected():
    cert = certify.certify_normalized(np.eye(4) / 2, (2, 2))
    assert (cert.verdict, cert.psd_check) == (certify.NOT_NORMALIZED, "skipped")
    rho = np.diag([0.6, 0.5, 0.0, -0.1])
    cert = certify.certify_normalized(rho, (2, 2))
    assert (cert.verdict, cert.psd_check) == (certify.NOT_PSD, "eig")


def test_boundary_band():
    dims = (2, 2)
    b = ballbounds.normalized_radius(1.0, 4)
    rng = rng_from_seed(2)
    delta = random_traceless_unit_hermitian(rng, 4)
    on_edge = np.eye(4) / 4 + b * delta
    cert = certify.certify_normalized(on_edge, dims)
    assert cert.verdict == certify.SEPARABLE
    assert cert.boundary
    outside = np.eye(4) / 4 + b * (1.0 + 1e-6) * delta
    cert = certify.certify_normalized(outside, dims)
    assert cert.verdict == certify.INCONCLUSIVE


def test_mu_optimal_scaling():
    # for rho = I/d the optimal deviation is zero
    assert certify.mu(np.eye(8) / 8) == 0.0
    # [DERIVED] pure state in dim d: purity 1, mu = sqrt(d - 1)
    pi = np.zeros((4, 4))
    pi[0, 0] = 1.0
    assert certify.mu(pi) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    with pytest.raises(ValueError):
        certify.mu(np.eye(4))  # not normalized


def test_certificate_json_roundtrip():
    cert = certify.certify_normalized(np.eye(8) / 8, (2, 2, 2))
    assert certify.Certificate.from_json(cert.to_json()) == cert
    # certificates written before psd_check was recorded still load
    obj = json.loads(cert.to_json())
    del obj["psd_check"]
    assert certify.Certificate.from_json(json.dumps(obj)).psd_check is None


def test_pseudopure_bound_matches_materialized_edge():
    dims = (2, 2)
    d = 4
    eps = certify.pseudopure_bound(dims)
    pi = np.zeros((d, d))
    pi[0, 0] = 1.0
    rho = eps * pi + (1 - eps) * np.eye(d) / d
    measured = frobenius_norm(rho - np.eye(d) / d)
    bound = ballbounds.normalized_radius(ballbounds.recursion_radius(dims), d)
    assert measured == pytest.approx(bound, abs=1e-14)


def test_certify_pseudopure_verdicts():
    dims = (2,) * 6
    eps = certify.pseudopure_bound(dims)
    assert certify.certify_pseudopure(eps * 0.99, dims).verdict == certify.SEPARABLE
    assert certify.certify_pseudopure(eps * 0.99, dims).psd_check == "skipped"
    assert (
        certify.certify_pseudopure(eps * 1.01, dims).verdict == certify.INCONCLUSIVE
    )
    with pytest.raises(ValueError):
        certify.certify_pseudopure(1.5, dims)


@pytest.mark.parametrize("eps", [True, False, "0.1", None, 1j, math.nan, -0.1, 1.5])
def test_certify_pseudopure_refuses_eps_outside_the_reals_in_0_1(eps):
    with pytest.raises(ValueError) as refused:
        certify.certify_pseudopure(eps, (2, 2))
    assert str(refused.value) == f"epsilon must be a real number in [0, 1], got {eps!r}"


def test_certify_pseudopure_takes_eps_0_and_1():
    dims = (2, 2)
    assert certify.certify_pseudopure(0, dims).verdict == certify.SEPARABLE
    assert certify.certify_pseudopure(np.float64(0.0), dims).verdict == certify.SEPARABLE
    assert certify.certify_pseudopure(1, dims).verdict == certify.INCONCLUSIVE
    assert certify.certify_pseudopure(1, dims) == certify.certify_pseudopure(1.0, dims)


#: Profiles holding an integral float, refused like any other non-integer count.
FLOAT_DIMS = [[np.int64(2), 2.0], [2.0, 2.0]]


@pytest.mark.parametrize("dims", [*FLOAT_DIMS, (2, 2), [np.int64(2), 2]])
def test_certify_pseudopure_records_checked_dims(dims):
    if any(dims is refused for refused in FLOAT_DIMS):
        with pytest.raises(ValueError, match=r"^local dimension must be an integer >= 2, got 2\.0$"):
            certify.certify_pseudopure(0.01, dims)
        return
    cert = certify.certify_pseudopure(0.01, dims)
    assert cert.dims == (2, 2) and all(type(d) is int for d in cert.dims)
    assert '"dims": [2, 2]' in cert.to_json()
    assert json.loads(cert.to_json()) == cert.to_dict()


def test_ppt_all_cuts_bell_violation():
    assert not certify.ppt_all_cuts(bell_state(), (2, 2))
    assert certify.ppt_all_cuts(np.eye(4) / 4, (2, 2))


def test_ppt_all_cuts_separable_products():
    rng = rng_from_seed(17)
    for _ in range(20):
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 2)
        rho_c = random_density_matrix(rng, 2)
        rho = np.kron(np.kron(rho_a, rho_b), rho_c)
        assert certify.ppt_all_cuts(rho, (2, 2, 2))


def test_ball_boundary_states_pass_ppt():
    rng = rng_from_seed(23)
    for dims in [(2, 2), (2, 2, 2)]:
        d = math.prod(dims)
        b = ballbounds.normalized_radius(ballbounds.recursion_radius(dims), d)
        for _ in range(25):
            rho = np.eye(d) / d + b * random_traceless_unit_hermitian(rng, d)
            cert = certify.certify_normalized(rho, dims)
            assert cert.verdict == certify.SEPARABLE
            assert certify.ppt_all_cuts(rho, dims)


# ---------------------------------------------------------------------------
# PSD decisions against the eigensolve-only references
# ---------------------------------------------------------------------------

def _reference_is_psd(h, tol=matcore.PSD_TOL) -> bool:
    """``is_psd``'s rule from one eigensolve per matrix, no other check."""
    w = np.linalg.eigvalsh(h)
    scale = np.maximum(1.0, np.abs(w).max(axis=-1))
    return bool(np.all(w[..., 0] >= -tol * scale))


def _reference_ppt(rho, dims):
    """None for non-PSD input, else whether every bipartition's partial
    transpose is PSD: one eigensolve per subset holding party 0."""
    if not _reference_is_psd(rho):
        return None
    m = len(dims)
    for size in range(1, m):
        for rest in combinations(range(1, m), size - 1):
            pt = rho
            for p in (0, *rest):
                pt = matcore.partial_transpose(pt, dims, p)
            if not _reference_is_psd(pt):
                return False
    return True


def _ppt(rho, dims):
    try:
        return certify.ppt_all_cuts(rho, dims)
    except ValueError:
        return None


def _assert_same_decisions(rho, dims):
    """``is_psd``, ``ppt_all_cuts`` and the certificate agree with the references."""
    want_psd = _reference_is_psd(rho)
    assert bool(matcore.is_psd(rho)) is want_psd
    assert _ppt(rho, dims) is _reference_ppt(rho, dims)
    cert = certify.certify_normalized(rho, dims)
    if not want_psd:
        assert (cert.verdict, cert.psd_check) == (certify.NOT_PSD, "eig")
    else:
        assert cert.verdict in (certify.SEPARABLE, certify.INCONCLUSIVE)
        assert cert.psd_check in ("ball", "cholesky", "eig")


def _with_spectrum(seed: int, w) -> np.ndarray:
    """Q diag(w) Q† for a seeded random unitary Q."""
    rng = rng_from_seed(seed)
    d = len(w)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return matcore.hermitian((q * np.asarray(w, float)) @ q.conj().T)


@pytest.mark.parametrize("d", [4, 16, 64])
@pytest.mark.parametrize("norm", [0.5, 1.0, 1e3])
@pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3, 0.25, 0.0, -1.0])
def test_is_psd_matches_eigensolve_at_the_tolerance(d, norm, factor):
    # lambda_min = -factor * tau, tau = PSD_TOL * max(1, ||H||_inf)
    tau = matcore.PSD_TOL * max(1.0, norm)
    rng = rng_from_seed(int(d * norm) + 7)
    w = np.concatenate([[norm], rng.uniform(0.1, 1.0, d - 2) * norm, [-factor * tau]])
    h = _with_spectrum(d, w)
    got = matcore.is_psd(h)
    assert bool(got) is _reference_is_psd(h) is (factor <= 1)
    # only the eigensolve rejects; a margin of tau/4 above -tau/2 factors
    if factor > 1:
        assert got.method == "eig"
    if factor <= 0.25:
        assert got.method == "cholesky"


def test_is_psd_scaling_cases_match_eigensolve():
    cases = [np.diag([1.0, 0.0]), np.diag([1.0, -1e-6]), np.diag([1e12, -1e-2]),
             np.stack([np.diag([1.0, 0.0]), np.diag([1e12, -1e-2])]),
             np.stack([np.diag([1e12, 0.0]), np.diag([1.0, -1e-2])]),
             np.stack([np.diag([1.0, -1e-6]), np.eye(2)])]
    for h in cases:
        got = matcore.is_psd(h)
        assert bool(got) is _reference_is_psd(h)
        assert got.method == ("cholesky" if h.ndim == 2 and got else "eig")


def werner(p: float) -> np.ndarray:
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return p * np.outer(psi, psi) + (1.0 - p) * np.eye(4) / 4


@pytest.mark.parametrize("r", [1e-10, 5e-10, 1e-9])
def test_werner_decisions_match_eigensolve(r):
    # p = (1 + r)/3: the partial transpose's lowest eigenvalue is -r/4, so
    # the state is entangled and no certificate may call it separable; PPT
    # sees it only once r/4 exceeds PSD_TOL
    rho = werner((1.0 + r) / 3.0)
    _assert_same_decisions(rho, (2, 2))
    assert certify.certify_normalized(rho, (2, 2)).verdict == certify.INCONCLUSIVE
    assert certify.ppt_all_cuts(rho, (2, 2)) is (r / 4 <= matcore.PSD_TOL)


@pytest.mark.parametrize("m", range(3, 9))
@pytest.mark.parametrize("ratio", [0.5, 0.99, 1.01, 2.0])
def test_ghz_mixture_decisions_match_eigensolve(m, ratio):
    # p GHZ + (1 - p) I/d has a non-PPT cut exactly when p > p* = 1/(1 + 2^(m-1))
    d = 2**m
    p = ratio / (1.0 + 2.0 ** (m - 1))
    ghz = np.zeros((d, d))
    ghz[0, 0] = ghz[0, -1] = ghz[-1, 0] = ghz[-1, -1] = 0.5
    rho = p * ghz + (1.0 - p) * np.eye(d) / d
    _assert_same_decisions(rho, (2,) * m)
    assert certify.ppt_all_cuts(rho, (2,) * m) is (ratio < 1)
