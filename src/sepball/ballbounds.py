"""Radius formulas for the multipartite separable ball around the identity.

Everything here is closed-form arithmetic: the party-by-party recursion, its
exact solution for equal local dimensions, the weaker corollary bounds, the
baseline from earlier work, and normalized-ball conversions.  Large party
counts are handled in the log domain.  Every bound leaves it once, through
``math.exp`` of its log, except the gb03 row of ``radius_report``, which is
``gb03_baseline``'s exact closed form.  Human output is the same as in earlier
versions; JSON values can differ from theirs in the last digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .matcore import check_count, check_dims, check_radius

def recursion_radius(dims: Sequence[int]) -> float:
    """Separable-ball radius (Frobenius, unnormalized) via the recursion.

    The base case is a bipartite ball of radius one; each further party of
    dimension ``d_n`` multiplies the radius by
    ``sqrt(d_n / (2 (1 - a^2/prod) (d_n - 1) + 1))``.
    Parties are folded in left to right, exactly in the order given.  A
    radius below the double range comes out as 0.
    """
    dims = check_dims(dims)
    if len(dims) < 2:
        raise ValueError("the recursion needs at least 2 parties")
    return math.ldexp(*_fold(dims))


def _fold(dims: tuple[int, ...]) -> tuple[float, int]:
    """The recursion's radius a as a ``math.frexp`` mantissa and binary exponent.

    In linear doubles a subnormal radius stalls, each step rounding back to
    the smallest subnormals; the pair keeps every step's relative rounding.
    Where a is a normal double, ``ldexp`` of the pair is the linear fold's
    value bit for bit.
    """
    mant, exp = 1.0, 0
    prod = float(dims[0]) * float(dims[1])
    for dn in dims[2:]:
        ratio = math.ldexp(mant * mant / prod, 2 * exp)
        mant, shift = math.frexp(mant * math.sqrt(dn / (2.0 * (1.0 - ratio) * (dn - 1) + 1.0)))
        exp += shift
        prod *= dn
    return mant, exp


def closed_form_radius(d0: int, m: int) -> float:
    """Exact solution of the recursion for m parties of equal dimension d0:

    ``r_m = sqrt(d0^m / ((2 d0 - 1)^(m-2) (d0^2 - 1) + 1))``.
    """
    return math.exp(log_closed_form_radius(d0, m))


def log_closed_form_radius(d0: int, m: int) -> float:
    """Natural log of ``closed_form_radius``; safe for very large m."""
    d0, m = check_count(d0, "d0", 2), check_count(m, "m", 2)
    # log denominator with (2 d0 - 1)^(m-2) factored out: for large m the
    # leftover 1/(2 d0 - 1)^(m-2) underflows harmlessly, and m = 2 gives 0
    log_q = (m - 2) * math.log(2 * d0 - 1)
    log_den = log_q + math.log(d0 * d0 - 1 + math.exp(-log_q))
    return 0.5 * (m * math.log(d0) - log_den)


def qubit_asymptotic_exponent() -> float:
    """The qubit radius decays like 2^(-gamma m) with gamma = (ln3/ln2 - 1)/2."""
    return 0.5 * (math.log(3) / math.log(2) - 1.0)


def weak_radius(d0: int, m: int) -> float:
    """The weaker corollary bound ``(d0 / (2 d0 - 1))^(m/2 - 1)``."""
    return math.exp(log_weak_radius(d0, m))


def log_weak_radius(d0: int, m: int) -> float:
    d0, m = check_count(d0, "d0", 2), check_count(m, "m", 2)
    return (m / 2.0 - 1.0) * math.log(d0 / (2.0 * d0 - 1.0))


def gb03_baseline(m: int) -> float:
    """Prior-work comparison baseline ``(1/2)^(m/2 - 1)``, correctly rounded."""
    m = check_count(m, "m", 2)
    return math.ldexp(math.sqrt(0.5) if m % 2 else 1.0, 1 - m // 2)


def log_gb03_baseline(m: int) -> float:
    m = check_count(m, "m", 2)
    return (m / 2.0 - 1.0) * math.log(0.5)


def log_radius(dims: tuple[int, ...], method: str = "recursion") -> float:
    """Log unnormalized radius for checked dims; the one dispatch on method
    names, apart from ``radius_report``'s exact gb03 row.

    ``"recursion"`` is its closed form when all local dimensions are equal
    (cheap at any count) and ``recursion_radius`` otherwise;
    ``"closed_form"`` and ``"weak_corollary"`` need equal local dimensions;
    ``"gb03"`` depends only on the party count.
    """
    m = len(dims)
    if m < 2:
        raise ValueError("the radius bounds need at least 2 parties")
    if method == "gb03":
        return log_gb03_baseline(m)
    if method not in ("recursion", "closed_form", "weak_corollary"):
        raise ValueError(f"unknown method {method!r}")
    if dims.count(dims[0]) == m:
        if method == "weak_corollary":
            return log_weak_radius(dims[0], m)
        return log_closed_form_radius(dims[0], m)
    if method != "recursion":
        raise ValueError(f"{method} needs equal local dimensions")
    mant, exp = _fold(dims)
    return math.log(mant) + exp * math.log(2.0)


def log_bounds(dims: tuple[int, ...], method: str) -> tuple[float, float, float]:
    """Logs of the radius by ``method`` (see ``log_radius``), its normalized
    conversion and the pseudopure bound, for checked dims.

    The one evaluator from dims to the bounds: ``radius_report``,
    ``certify.pseudopure_bound`` and the ``nmr`` thresholds all read it.
    """
    log_a = log_radius(dims, method)
    log_d = math.fsum(math.log(di) for di in dims)
    return log_a, log_normalized_radius(log_a, log_d), log_pseudopure_bound(log_a, log_d)


def normalized_radius(a: float, d: int) -> float:
    """Convert an unnormalized radius to the normalized-state ball radius:

    ``a / sqrt(d (d - a^2))`` (the exact form, not the loosened ``a/d``).
    """
    if not 0 < a:
        raise ValueError("radius must be positive")
    d = check_count(d, "d", 2)
    return math.exp(log_normalized_radius(math.log(a), math.log(d)))


def log_normalized_radius(log_a: float, log_d: float) -> float:
    """Log-domain ``normalized_radius``: log a and log d in, log radius out."""
    # log(d - a^2) = log d + log1p(-a^2/d); a^2/d via exp of logs.
    ratio = math.exp(2.0 * log_a - log_d)
    if ratio >= 1.0:
        raise ValueError("a^2 >= d: degenerate denominator")
    return log_a - 0.5 * (2.0 * log_d + math.log1p(-ratio))


def log_pseudopure_bound(log_a: float, log_d: float) -> float:
    """Log of the largest pseudopure weight eps inside the separable ball.

    ``eps * pi + (1 - eps) I/d`` sits at distance ``eps sqrt((d-1)/d)`` from
    I/d, so the exact condition ``eps <= a / sqrt((d-1)(d-a^2))`` is the
    normalized radius times ``sqrt(d/(d-1))``.
    """
    return log_normalized_radius(log_a, log_d) - 0.5 * math.log1p(-math.exp(-log_d))


def qubit_normalized_radius(m: int) -> float:
    """Normalized m-qubit ball radius ``sqrt(3^(m+1)/(3^m + 3)) * 6^(-m/2)``.

    Algebraically equal to ``closed_form_radius(2, m) / 2^m`` for m >= 2.
    """
    return math.exp(log_qubit_normalized_radius(m))


def log_qubit_normalized_radius(m: int) -> float:
    m = check_count(m, "m", 1)
    log3 = math.log(3.0)
    # log(3^m + 3) = m log 3 + log1p(3^(1-m))
    log_den = m * log3 + math.log1p(3.0 ** (1 - m))
    log_prefactor = 0.5 * ((m + 1) * log3 - log_den)
    return log_prefactor - (m / 2.0) * math.log(6.0)


def gamma_bound(d1: int, d2: int, a: float) -> float:
    """Bound on the blockwise 2-to-inf norm over ball-positive stochastic maps:

    ``(1/a) sqrt((2 (1 - a^2/d2) (d1 - 1) + 1) / d1)``, valid for a > 1/d2.
    """
    d1, d2, a = check_count(d1, "d1", 2), check_count(d2, "d2", 2), check_radius(a)
    if a <= 1.0 / d2:
        raise ValueError(f"premise violated: need a > 1/d2 = {1.0 / d2}")
    return math.sqrt((2.0 * (1.0 - a * a / d2) * (d1 - 1) + 1.0) / d1) / a


def lambda_bound(a: float, d2: int) -> float:
    """2-to-inf norm bound on traceless inputs: ``(1/a) sqrt(2 (1 - a^2/d2))``."""
    a, d2 = check_radius(a), check_count(d2, "d2", 2)
    return math.sqrt(2.0 * (1.0 - a * a / d2)) / a


def lambdaprime_bound(a: float, d2: int) -> float:
    """2-to-inf norm bound on all inputs: ``sqrt(2/a^2 - 1/d2)``."""
    a, d2 = check_radius(a), check_count(d2, "d2", 2)
    return math.sqrt(2.0 / (a * a) - 1.0 / d2)


@dataclass(frozen=True)
class RadiusReport:
    """Unnormalized and normalized radii for one dims profile and method."""

    dims: tuple[int, ...]
    unnormalized_radius: float
    normalized_radius: float
    method: str


def radius_report(dims: Sequence[int], method: str = "recursion") -> RadiusReport:
    """The radius by ``method`` (see ``log_radius``; gb03's is
    ``gb03_baseline``) and its normalized conversion, evaluated in the log
    domain: any party count works, and a value below the double range comes
    out as 0.
    """
    dims = check_dims(dims)
    log_a, log_normalized, _ = log_bounds(dims, method)
    # gb03's radius is a power of sqrt(2), which exp of its rounded log misses
    a = gb03_baseline(len(dims)) if method == "gb03" else math.exp(log_a)
    return RadiusReport(dims, a, math.exp(log_normalized), method)
