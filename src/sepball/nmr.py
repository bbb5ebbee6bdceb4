"""Thermal and pseudopure NMR states and their separability thresholds.

Thresholds are decided with the exact formulas on both sides (the small-eta
approximations are kept only as cross-checks), evaluated in the log domain
so qubit counts far beyond the materialization cap are fine.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import ballbounds
from .matcore import check_count, check_materializable, kron_all

#: Single-spin polarization beta*mu*B at T = 300 K, B = 11 T.
ETA_DEFAULT = 3.746e-5

#: Threshold scans stop here; reaching the cap is an error, never silence.
SCAN_CAP = 500

#: Above this polarization the linearization of exp(+-eta) is unreliable.
LINEARIZATION_WARN = 0.1


@dataclass(frozen=True)
class NmrParams:
    """Polarization and qubit count for an NMR ensemble."""

    eta: float
    m: int

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"polarization must be finite and positive, got {self.eta!r}")
        object.__setattr__(self, "m", check_count(self.m, "m", 1))
        if self.eta > LINEARIZATION_WARN:
            warnings.warn(
                f"eta = {self.eta} is large; the thermal-state linearization "
                "is only accurate for eta << 1",
                stacklevel=2,
            )


def thermal_state(p: NmrParams) -> np.ndarray:
    """m-fold tensor power of diag((1+eta)/2, (1-eta)/2)."""
    check_materializable(2**p.m, 2**p.m)
    single = np.diag([(1.0 + p.eta) / 2.0, (1.0 - p.eta) / 2.0]).astype(complex)
    return kron_all([single] * p.m)


def thermal_deviation_norm(p: NmrParams) -> float:
    """Closed form ||rho - I/d||_2 = sqrt(((1 + eta^2)^m - 1) / 2^m).

    Log-domain evaluation; no materialization cap.
    """
    return _thermal_norm(p.eta, p.m)


def _thermal_norm(eta: float, m: int) -> float:
    # below 1e-150, (1 + eta^2)^m - 1 is m eta^2 to double precision, and
    # below 1.5e-154 eta^2 itself leaves the normal range
    log_num = (math.log(math.expm1(m * math.log1p(eta * eta))) if eta >= 1e-150
               else math.log(m) + 2.0 * math.log(eta))
    return math.exp(0.5 * (log_num - m * math.log(2.0)))


def pseudopure_epsilon(p: NmrParams) -> float:
    """Pseudopure purity from thermal input: eta * m / 2^m."""
    return _epsilon(p.eta, p.m)


def _epsilon(eta: float, m: int) -> float:
    return math.ldexp(eta * m, -m)


def bipartite_qubit_count(eta: float) -> float:
    """Qubits needed before any bipartition could show entanglement: 1/eta."""
    if eta <= 0:
        raise ValueError("polarization must be positive")
    return 1.0 / eta


def log_normalized_bound(m: int, baseline: str) -> float:
    """log of the normalized-ball radius for m qubits with the chosen bound."""
    return ballbounds.log_bounds((2,) * m, baseline)[1]


def measured_and_bound(
    eta: float, m: int, mode: str, baseline: str
) -> tuple[float, float]:
    """The m-qubit state's measured deviation and the largest certified one.

    ``"thermal"``: ``thermal_deviation_norm`` against the normalized-ball
    radius.  ``"pseudopure"``: ``pseudopure_epsilon`` against
    ``certify.pseudopure_bound``, the exact ball condition
    ``eps <= b / sqrt((d-1)(d-b^2))``.  Both bounds come from
    ``ballbounds.log_bounds``; ``baseline`` is any method of
    ``ballbounds.log_radius``.  eta and m are trusted (``threshold`` checks
    eta once for its whole scan), so no ``NmrParams`` is built per m.
    """
    _, log_normalized, log_pseudopure = ballbounds.log_bounds((2,) * m, baseline)
    if mode == "pseudopure":
        return _epsilon(eta, m), math.exp(log_pseudopure)
    if mode == "thermal":
        return _thermal_norm(eta, m), math.exp(log_normalized)
    raise ValueError(f"unknown mode {mode!r}")


def threshold(eta: float, mode: str, baseline: str) -> int:
    """Largest m for which the ``mode`` state is certified separable.

    measured/bound from ``measured_and_bound`` grows strictly with m: it is
    ``sqrt(((1 + eta^2)^m - 1)(d - a^2)) / a`` (thermal) or
    ``eta m sqrt((1 - 1/d)(1/a^2 - 1/d))`` (pseudopure), with d = 2^m rising
    and the radius a falling in m for every method.  So the certified
    counts run from 2 up to the threshold, and the scan stops at the first
    count that is not certified.  ``baseline`` is any method of
    ``ballbounds.log_radius``.
    """
    if not 0 < eta < LINEARIZATION_WARN:
        raise ValueError(f"eta must lie in (0, {LINEARIZATION_WARN})")
    last = None
    for m in range(2, SCAN_CAP + 1):
        measured, bound = measured_and_bound(eta, m, mode, baseline)
        if measured > bound:
            break
        last = m
    if last == SCAN_CAP:
        raise ValueError(f"threshold scan reached the cap of {SCAN_CAP} qubits")
    if last is None:
        raise ValueError("no qubit count certified separable within the scan range")
    return last


def pseudopure_threshold(eta: float, baseline: str = "recursion") -> int:
    """Largest m for which the standard pseudopure state is certified separable."""
    return threshold(eta, "pseudopure", baseline)


def thermal_threshold(eta: float, baseline: str = "recursion") -> int:
    """Largest m for which the thermal state itself is certified separable."""
    return threshold(eta, "thermal", baseline)
