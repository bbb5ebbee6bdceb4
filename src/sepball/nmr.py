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
from .matcore import check_materializable, kron_all

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
        if not 0 < self.eta:
            raise ValueError("polarization must be positive")
        if self.eta > LINEARIZATION_WARN:
            warnings.warn(
                f"eta = {self.eta} is large; the thermal-state linearization "
                "is only accurate for eta << 1",
                stacklevel=2,
            )
        if self.m < 1:
            raise ValueError("need at least one qubit")


def thermal_state(p: NmrParams) -> np.ndarray:
    """m-fold tensor power of diag((1+eta)/2, (1-eta)/2)."""
    check_materializable(2**p.m)
    single = np.diag([(1.0 + p.eta) / 2.0, (1.0 - p.eta) / 2.0]).astype(complex)
    return kron_all([single] * p.m)


def thermal_deviation_norm(p: NmrParams) -> float:
    """Closed form ||rho - I/d||_2 = sqrt(((1 + eta^2)^m - 1) / 2^m).

    Log-domain evaluation; no materialization cap.
    """
    log_num = math.log(math.expm1(p.m * math.log1p(p.eta * p.eta)))
    return math.exp(0.5 * (log_num - p.m * math.log(2.0)))


def pseudopure_epsilon(p: NmrParams) -> float:
    """Pseudopure purity from thermal input: eta * m / 2^m."""
    return p.eta * p.m * math.exp(-p.m * math.log(2.0))


def bipartite_qubit_count(eta: float) -> float:
    """Qubits needed before any bipartition could show entanglement: 1/eta."""
    if eta <= 0:
        raise ValueError("polarization must be positive")
    return 1.0 / eta


def log_normalized_bound(m: int, baseline: str) -> float:
    """log of the normalized-ball radius for m qubits with the chosen bound."""
    log_a = ballbounds.log_radius((2,) * m, baseline)
    return ballbounds.log_normalized_radius(log_a, m * math.log(2.0))


def _scan_threshold(eta: float, separable_at) -> int:
    if not 0 < eta < LINEARIZATION_WARN:
        raise ValueError(f"eta must lie in (0, {LINEARIZATION_WARN})")
    last = None
    for m in range(2, SCAN_CAP + 1):
        if separable_at(m):
            last = m
    if last == SCAN_CAP:
        raise RuntimeError(f"threshold scan reached the cap of {SCAN_CAP} qubits")
    if last is None:
        raise RuntimeError("no qubit count certified separable within the scan range")
    return last


def pseudopure_threshold(eta: float, baseline: str = "recursion") -> int:
    """Largest m for which the standard pseudopure state is certified separable.

    Uses the exact ball condition ``eps <= b / sqrt((d-1)(d-b^2))`` with
    eps = eta*m/2^m and b the chosen unnormalized radius.
    """

    def separable_at(m: int) -> bool:
        log_d = m * math.log(2.0)
        log_eps = math.log(eta * m) - log_d
        log_b = ballbounds.log_radius((2,) * m, baseline)
        return log_eps <= ballbounds.log_pseudopure_bound(log_b, log_d)

    return _scan_threshold(eta, separable_at)


def thermal_threshold(eta: float, baseline: str = "recursion") -> int:
    """Largest m for which the thermal state itself is certified separable."""

    def separable_at(m: int) -> bool:
        log_measured = math.log(thermal_deviation_norm(NmrParams(eta, m)))
        return log_measured <= log_normalized_bound(m, baseline)

    return _scan_threshold(eta, separable_at)
