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
from .matcore import (check_dims, check_real, distance_from_scalar, is_psd, measure,
                      transpose_parties)

#: Relative width of the band around the bound inside which a verdict is
#: still reported separable, with a "boundary" annotation.  It is kept at
#: rounding level: states built on the bound in floating point land within
#: it, while an entangled (2,2) Werner state 1e-10 past the bound does not.
BOUNDARY_BAND = 1e-12

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
    #: How PSD was decided: "ball", "cholesky", "witness", "eig" or
    #: "skipped" (no check ran); None when not recorded.
    psd_check: str | None = field(default=None)
    #: With "witness": the proved upper bound on lambda_min, the witness
    #: vector's Rayleigh quotient plus its rounding bound; else None.
    rayleigh_bound: float | None = field(default=None)

    def to_dict(self) -> dict:
        """The certificate as the JSON object that ``to_json`` writes."""
        return {
            "verdict": self.verdict,
            "bound": self.bound_used,
            "measured": self.measured,
            "margin": self.margin,
            "dims": list(self.dims),
            "boundary": self.boundary,
            "psd_check": self.psd_check,
            "rayleigh_bound": self.rayleigh_bound,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

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
            rayleigh_bound=obj.get("rayleigh_bound"),
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
    (attained at alpha = tr rho^2).  ``rho`` is measured as one party of
    dimension d >= 2 (``matcore.measure``), whose ``State`` decides its
    normalization and PSD.
    """
    state = measure(rho, np.shape(rho)[:1])
    if not state.normalized:
        raise ValueError(f"state is not normalized: tr = {state.trace}")
    if not state.psd:
        raise ValueError("state is not positive semidefinite")
    # tr(rho^2) = ||rho||_2^2 for Hermitian rho, summed without a square root
    purity = float(np.vdot(state.h, state.h).real)
    return math.sqrt(max(state.h.shape[0] - 1.0 / purity, 0.0))


def certify_unnormalized(x, dims: Sequence[int]) -> Certificate:
    """Ball test for an unnormalized density matrix: ||X - I||_2 vs the radius.

    ``x`` is a matrix or a ``matcore.State`` of one (see ``matcore.measure``).
    """
    state = measure(x, dims)
    bound = ballbounds.radius_report(state.dims).unnormalized_radius
    measured = distance_from_scalar(state.h, 1.0)
    return _ball_verdict(measured, bound, state.dims)


def certify_normalized(rho, dims: Sequence[int]) -> Certificate:
    """Ball test for a normalized state: ||rho - I/d||_2 vs a/sqrt(d(d-a^2)).

    ``rho`` is a matrix or a ``matcore.State`` of one (see
    ``matcore.measure``).  Normalization and PSD are the ``State``'s
    decisions (``State.normalized`` and ``State.psd``, which tries the floor
    from the trace and distance already measured before any factorization);
    the certificate's ``psd_check`` names the check that decided, and a
    witness's ``rayleigh_bound`` is recorded.
    """
    state = measure(rho, dims)
    bound = ballbounds.radius_report(state.dims).normalized_radius
    measured, dims = state.distance, state.dims
    if not state.normalized:
        return Certificate(NOT_NORMALIZED, bound, measured, bound - measured, dims,
                           psd_check="skipped")
    psd = state.psd
    if not psd:
        return Certificate(NOT_PSD, bound, measured, bound - measured, dims,
                           psd_check=psd.method, rayleigh_bound=psd.bound)
    return _ball_verdict(measured, bound, dims, psd.method)


def pseudopure_bound(dims: Sequence[int], *, baseline: str = "recursion") -> float:
    """Largest epsilon certified separable for a pseudopure state on ``dims``.

    See ``ballbounds.log_pseudopure_bound``; ``baseline`` is any method of
    ``ballbounds.log_radius``.  Evaluated in the log domain (``ballbounds.log_bounds``)
    so arbitrarily many qubits are fine.
    """
    return math.exp(ballbounds.log_bounds(check_dims(dims), baseline)[2])


def certify_pseudopure(eps: float, dims: Sequence[int], *, baseline: str = "recursion") -> Certificate:
    """Ball test for a pseudopure state, without materializing it.

    ``eps`` must be a real number in [0, 1], not a bool.
    """
    eps = check_real(eps, "epsilon must be a real number in [0, 1]", lambda eps: 0 <= eps <= 1)
    dims = check_dims(dims)
    bound = pseudopure_bound(dims, baseline=baseline)
    return _ball_verdict(eps, bound, dims)


def ppt_all_cuts(rho, dims: Sequence[int]) -> bool:
    """True iff the partial transpose across every bipartition is PSD.

    A necessary condition for separability; used to falsify-test the ball
    certificates (every certified state must pass).  Raises ``ValueError``
    when the input itself is not PSD, as ``State.psd`` decides it: a
    ``State`` a certificate has already read is not checked again.  ``rho``
    is a matrix or a ``matcore.State`` of one.  Every partial transpose has
    the input's trace and distance from (trace/d)·I, so when ``State.floor``
    is >= 0 all cuts pass without a factorization, at any trace.
    """
    state = measure(rho, dims)
    if not state.psd:
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
