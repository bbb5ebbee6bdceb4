"""Separability certificates for concrete density matrices.

A certificate is sufficient-only: ``separable`` is a guarantee, while
``inconclusive`` just means the ball test did not apply.  PPT is provided
as an independent necessary-condition cross-check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from . import ballbounds
from .matcore import (
    check_dims,
    frobenius_norm,
    hermitian,
    is_psd,
    measure,
    transpose_parties,
)

#: Relative width of the band around the bound inside which a verdict is
#: still reported separable, with a "boundary" annotation.
BOUNDARY_BAND = 1e-9

TRACE_TOL = 1e-10

SEPARABLE = "separable"
INCONCLUSIVE = "inconclusive"
NOT_PSD = "not_psd"
NOT_NORMALIZED = "not_normalized"


@dataclass(frozen=True)
class Certificate:
    verdict: str
    bound_used: float
    measured: float
    margin: float
    dims: tuple[int, ...]
    boundary: bool = field(default=False)
    #: How PSD was decided: "ball", "cholesky", "eig" or "skipped" (no check
    #: ran); None when not recorded.
    psd_check: str | None = field(default=None)

    def to_json(self) -> str:
        return json.dumps(
            {
                "verdict": self.verdict,
                "bound": self.bound_used,
                "measured": self.measured,
                "margin": self.margin,
                "dims": list(self.dims),
                "boundary": self.boundary,
                "psd_check": self.psd_check,
            }
        )

    @staticmethod
    def from_json(text: str) -> "Certificate":
        obj = json.loads(text)
        return Certificate(
            verdict=obj["verdict"],
            bound_used=obj["bound"],
            measured=obj["measured"],
            margin=obj["margin"],
            dims=tuple(obj["dims"]),
            boundary=obj.get("boundary", False),
            psd_check=obj.get("psd_check"),
        )


def _ball_verdict(measured: float, bound: float, dims, psd_check: str = "skipped") -> Certificate:
    band = BOUNDARY_BAND * bound
    if measured <= bound + band:
        return Certificate(
            SEPARABLE, bound, measured, bound - measured, tuple(dims),
            boundary=measured > bound - band, psd_check=psd_check,
        )
    return Certificate(INCONCLUSIVE, bound, measured, bound - measured, tuple(dims),
                       psd_check=psd_check)


def mu(rho) -> float:
    """Optimal perturbation size over scalings rho = alpha (I + Delta).

    Returns ``sqrt(d - 1/tr(rho^2))``, the smallest achievable ||Delta||_2
    (attained at alpha = tr rho^2).
    """
    rho = hermitian(rho)
    d = rho.shape[0]
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"state is not normalized: tr = {tr}")
    if not is_psd(rho):
        raise ValueError("state is not positive semidefinite")
    # tr(rho^2) = ||rho||_2^2 for Hermitian rho, summed without a square root
    purity = float(np.vdot(rho, rho).real)
    return math.sqrt(max(d - 1.0 / purity, 0.0))


def certify_unnormalized(x, dims: Sequence[int]) -> Certificate:
    """Ball test for an unnormalized density matrix: ||X - I||_2 vs the radius.

    ``x`` is a matrix or a ``matcore.State`` of one (see ``matcore.measure``).
    """
    state = measure(x, dims)
    bound = ballbounds.radius_report(state.dims).unnormalized_radius
    measured = frobenius_norm(state.h - np.eye(len(state.h)))
    return _ball_verdict(measured, bound, state.dims)


def certify_normalized(rho, dims: Sequence[int]) -> Certificate:
    """Ball test for a normalized state: ||rho - I/d||_2 vs a/sqrt(d(d-a^2)).

    ``rho`` is a matrix or a ``matcore.State`` of one (see
    ``matcore.measure``).  PSD is decided by ``is_psd`` from the trace and
    the distance already measured (``State.floor``) before any
    factorization; the certificate's ``psd_check`` names the check that
    decided.
    """
    state = measure(rho, dims)
    bound = ballbounds.radius_report(state.dims).normalized_radius
    measured, dims = state.distance, state.dims
    if abs(state.trace - 1.0) > TRACE_TOL:
        return Certificate(NOT_NORMALIZED, bound, measured, bound - measured, dims,
                           psd_check="skipped")
    psd = is_psd(state.h, floor=state.floor)
    if not psd:
        return Certificate(NOT_PSD, bound, measured, bound - measured, dims,
                           psd_check=psd.method)
    return _ball_verdict(measured, bound, dims, psd.method)


def pseudopure_bound(dims: Sequence[int], *, baseline: str = "recursion") -> float:
    """Largest epsilon certified separable for a pseudopure state on ``dims``.

    See ``ballbounds.log_pseudopure_bound``; ``baseline`` is any method of
    ``ballbounds.log_radius``.  Evaluated in the log domain (``ballbounds.log_bounds``)
    so arbitrarily many qubits are fine.
    """
    return math.exp(ballbounds.log_bounds(check_dims(dims), baseline)[2])


def certify_pseudopure(eps: float, dims: Sequence[int], *, baseline: str = "recursion") -> Certificate:
    """Ball test for a pseudopure state, without materializing it."""
    if not 0 <= eps <= 1:
        raise ValueError("epsilon must lie in [0, 1]")
    bound = pseudopure_bound(dims, baseline=baseline)
    return _ball_verdict(eps, bound, dims)


def ppt_all_cuts(rho, dims: Sequence[int]) -> bool:
    """True iff the partial transpose across every bipartition is PSD.

    A necessary condition for separability; used to falsify-test the ball
    certificates (every certified state must pass).  Raises ``ValueError``
    when the input itself is not PSD.  ``rho`` is a matrix or a
    ``matcore.State`` of one.  Every partial transpose has the input's trace
    and distance from I/d, so when ``State.floor`` is >= 0 all cuts pass
    without a factorization.
    """
    state = measure(rho, dims)
    if not is_psd(state.h, floor=state.floor):
        raise ValueError("input is not PSD")
    if state.floor >= 0:
        return True
    m = len(state.dims)
    parties = range(m)
    # Transposing a subset S is equivalent to transposing its complement
    # (up to global transpose, which preserves the spectrum): half suffices.
    for size in range(1, m // 2 + 1):
        for subset in combinations(parties, size):
            if size == m - size and 0 not in subset:
                continue
            if not is_psd(transpose_parties(state.h, state.dims, subset)):
                return False
    return True
