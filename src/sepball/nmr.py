"""Thermal and pseudopure NMR states and their separability thresholds.

Thresholds are decided with the exact formulas on both sides (the small-eta
approximations are kept only as cross-checks).  ``threshold`` doubles the
qubit count m from 2 until m is not certified, then bisects, and decides
each m in the log domain: the measured deviation's log against the log of
the bound from ``ballbounds.log_bounds``.  So any polarization in
(0, ``LINEARIZATION_WARN``) has a threshold, found in O(log m) bound
evaluations, even where both linear values underflow to 0.  The
polarization has one rule, ``check_polarization``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import ballbounds
from .matcore import check_count, check_materializable, check_real, kron_all

#: Single-spin polarization beta*mu*B at T = 300 K, B = 11 T.
ETA_DEFAULT = 3.746e-5

#: Above this polarization the linearization of exp(+-eta) is unreliable.
LINEARIZATION_WARN = 0.1


def check_polarization(eta) -> float:
    """Validate a polarization: a ``matcore.check_real``, finite and > 0.

    The package's one rule for the polarization eta.  Returns it as float.
    """
    return check_real(eta, "polarization must be finite and positive",
                      lambda eta: 0 < eta < math.inf)


@dataclass(frozen=True)
class NmrParams:
    """Polarization and qubit count for an NMR ensemble."""

    eta: float
    m: int

    def __post_init__(self):
        object.__setattr__(self, "eta", check_polarization(self.eta))
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
    return math.exp(_log_thermal_norm(p.eta, p.m))


def _log_thermal_norm(eta: float, m: int) -> float:
    # below 1e-150, (1 + eta^2)^m - 1 is m eta^2 to double precision, and
    # below 1.5e-154 eta^2 itself leaves the normal range
    log_num = (math.log(math.expm1(m * math.log1p(eta * eta))) if eta >= 1e-150
               else math.log(m) + 2.0 * math.log(eta))
    return 0.5 * (log_num - m * math.log(2.0))


def pseudopure_epsilon(p: NmrParams) -> float:
    """Pseudopure purity from thermal input: eta * m / 2^m."""
    return _epsilon(p.eta, p.m)


def _epsilon(eta: float, m: int) -> float:
    return math.ldexp(eta * m, -m)


def bipartite_qubit_count(eta: float) -> float:
    """Qubits needed before any bipartition could show entanglement: 1/eta."""
    return 1.0 / check_polarization(eta)


def log_normalized_bound(m: int, baseline: str) -> float:
    """log of the normalized-ball radius for m qubits with the chosen bound."""
    return ballbounds.log_bounds((2,) * m, baseline)[1]


def log_measured_and_bound(eta: float, m: int, mode: str, baseline: str) -> tuple[float, float]:
    """Natural logs of ``measured_and_bound``'s two values, which never underflow.

    eta must pass ``check_polarization`` and m be an integer >= 2
    (``check_count``).
    """
    eta, m = check_polarization(eta), check_count(m, "m", 2)
    _, log_normalized, log_pseudopure = ballbounds.log_bounds((2,) * m, baseline)
    if mode == "pseudopure":
        return math.log(eta * m) - m * math.log(2.0), log_pseudopure
    if mode == "thermal":
        return _log_thermal_norm(eta, m), log_normalized
    raise ValueError(f"unknown mode {mode!r}")


def measured_and_bound(
    eta: float, m: int, mode: str, baseline: str
) -> tuple[float, float]:
    """The m-qubit state's measured deviation and the largest certified one.

    ``"thermal"``: ``thermal_deviation_norm`` against the normalized-ball
    radius.  ``"pseudopure"``: ``pseudopure_epsilon`` against
    ``certify.pseudopure_bound``, the exact ball condition
    ``eps <= b / sqrt((d-1)(d-b^2))``.  Both bounds come from
    ``ballbounds.log_bounds``; ``baseline`` is any method of
    ``ballbounds.log_radius``.  eta and m are checked as
    ``log_measured_and_bound`` checks them.  Below the double range a value
    comes out as 0; ``threshold`` decides on the logs instead.
    """
    log_measured, log_bound = log_measured_and_bound(eta, m, mode, baseline)
    # eta and m passed its checks, which return float(eta) and int(m); eta m
    # / 2^m is exact up to eta m's rounding, and exp of its log is not
    measured = _epsilon(float(eta), int(m)) if mode == "pseudopure" else math.exp(log_measured)
    return measured, math.exp(log_bound)


def threshold(eta: float, mode: str, baseline: str) -> int:
    """Largest m for which the ``mode`` state is certified separable.

    measured/bound from ``measured_and_bound`` grows strictly with m: it is
    ``sqrt(((1 + eta^2)^m - 1)(d - a^2)) / a`` (thermal) or
    ``eta m sqrt((1 - 1/d)(1/a^2 - 1/d))`` (pseudopure), with d = 2^m rising
    and the radius a <= 1 falling in m for every method, so every factor
    rises.  So the certified counts run from 2 up to the threshold: m
    doubles from 2 until it is not certified, and a bisection between the
    last two counts finds the threshold.  Each m is decided on the logs of
    both values, which stay finite at any eta in (0, ``LINEARIZATION_WARN``)
    where the linear values underflow.  ``baseline`` is any method of
    ``ballbounds.log_radius``.
    """
    eta = check_polarization(eta)
    if eta >= LINEARIZATION_WARN:
        raise ValueError(f"eta must lie in (0, {LINEARIZATION_WARN})")

    def certified(m: int) -> bool:
        log_measured, log_bound = log_measured_and_bound(eta, m, mode, baseline)
        return log_measured <= log_bound

    if not certified(2):
        raise ValueError("no qubit count certified separable")
    low, high = 2, 4
    while certified(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if certified(mid) else (low, mid)
    return low


def pseudopure_threshold(eta: float, baseline: str = "recursion") -> int:
    """Largest m for which the standard pseudopure state is certified separable."""
    return threshold(eta, "pseudopure", baseline)


def thermal_threshold(eta: float, baseline: str = "recursion") -> int:
    """Largest m for which the thermal state itself is certified separable."""
    return threshold(eta, "thermal", baseline)
