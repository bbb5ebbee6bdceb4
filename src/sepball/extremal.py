"""The extremal stochastic ball-positive map and its tightness harnesses.

The map ``tau`` sends I to I, two specific unit-Frobenius Hermitian patterns
(a diagonal one and an off-diagonal one) to scaled Pauli patterns, and kills
the rest of matrix space.  With the critical scale
``mu = (1/a) sqrt(1 - a^2/d2)`` it is exactly positive on the radius-a ball
cone.  Its 2-to-inf norm is the traceless-input bound lambda, attained on
(X + iZ)/sqrt2, and no input, ``worst_case_input`` included, reaches the
all-matrices bound lambda' = ``sqrt(2/a^2 - 1/d2)``.  At (a, d2) = (0.3, 4)
the designed input reaches 4.634733579, lambda is 4.660710485 and lambda'
is 4.687453703.

Why, for d1 = 2: tau(X) = sum_k <u_k, X> v_k with u = (I/sqrt(d2), Z, X)
the patterns and v = (I/sqrt(d2), mu sigma_z, mu sigma_x).  Its norm is the
largest ||tau†(x z†)||_2 over unit x, z, and ||tau†(x z†)||_2² = z† M z with
M = sum_k (v_k x)(v_k x)† = (1/(2 d2))(I + r·sigma) + mu²(I - r_y sigma_y),
r the Bloch vector of x.  So lambda_max(M) = c + ||b|| with
c = 1/(2 d2) + mu² and ||b||² = (1 - r_y²)/(4 d2²) + r_y² (mu² - 1/(2 d2))²,
linear in r_y² and, since mu² >= 1/d2, largest at r_y = ±1, where it is
2 mu² = lambda².  Meanwhile tr M = 1/d2 + 2 mu² = lambda'² for every unit x,
so reaching lambda' needs lambda_min(M) = 0; at the maximizer
lambda_min(M) = 1/d2.

``ball_positivity_check`` decides its inputs in stacks, not one at a time:
the directed probes one binding direction (``2 * PROBE_STEPS`` inputs) at a
time, then the seeded draws in blocks of at most ``SAMPLE_BLOCK``.  Each
stack costs one matrix product (``apply_map``) and one stacked eigensolve
(``is_psd``, whose rule is applied to every input of the stack), and the
test stops at the first stack holding a failing input.  The draws are the
same, in the same order, whatever the block size, and memory stays
O(``SAMPLE_BLOCK`` * d2^2) for any number of samples.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import chain

import numpy as np

from . import ballbounds
from .matcore import (
    MapOnMatrices,
    apply_map,
    as_matrix,
    block_norm_matrix,
    check_count,
    check_materializable,
    check_radius,
    check_real,
    frobenius_norm,
    hermitian,
    is_psd,
    operator_norm,
    tilde_apply,
    tracelessify_offdiag,
)
from .sampling import random_unit_hermitians, rng_from_seed

#: Points per binding direction in the directed-probe grid.
PROBE_STEPS = 201

#: Most draws the ball-positivity test holds at once.
SAMPLE_BLOCK = 256

#: PSD tolerance of the ball-positivity test (looser than ``PSD_TOL``).
BALL_PSD_TOL = 1e-9

#: Slack allowed on each link of the block norm-inequality chain.
CHAIN_TOL = 1e-9


def critical_mu(a: float, d2: int) -> float:
    """Largest scale keeping tau positive on the radius-a ball cone."""
    a, d2 = check_radius(a), check_count(d2, "d2", 2)
    return math.sqrt(1.0 - a * a / d2) / a


def _pattern(d: int, name: str, least: int, entries: dict) -> np.ndarray:
    """The d×d complex matrix holding ``entries`` ({(i, j): value}), zero elsewhere.

    d is the count ``name``, at least ``least``; the size is asked of
    ``check_materializable`` before the array is built.
    """
    d = check_count(d, name, least)
    check_materializable(d, d)
    out = np.zeros((d, d), dtype=complex)
    for (i, j), value in entries.items():
        out[i, j] = value
    return out


def z_pattern(d2: int) -> np.ndarray:
    """Unit-Frobenius diagonal input pattern: diag(1/sqrt2, -1/sqrt2, 0, ...)."""
    return _pattern(d2, "d2", 2, {(0, 0): 1.0 / math.sqrt(2.0), (1, 1): -1.0 / math.sqrt(2.0)})


def x_pattern(d2: int) -> np.ndarray:
    """Unit-Frobenius diagonal input pattern on slots 3 and 4."""
    return _pattern(d2, "d2", 4, {(2, 2): -1.0 / math.sqrt(2.0), (3, 3): 1.0 / math.sqrt(2.0)})


def padded_sigma_z(d1: int) -> np.ndarray:
    """Pauli Z in the top-left 2×2 corner of a d1×d1 zero matrix."""
    return _pattern(d1, "d1", 2, {(0, 0): 1.0, (1, 1): -1.0})


def padded_sigma_x(d1: int) -> np.ndarray:
    """Pauli X in the top-left 2×2 corner of a d1×d1 zero matrix."""
    return _pattern(d1, "d1", 2, {(0, 1): 1.0, (1, 0): 1.0})


def build_tau(a: float, d2: int, d1: int = 2, mu_scale: float = 1.0) -> MapOnMatrices:
    """Construct the extremal map for ball radius ``a`` on M(d2) -> M(d1).

    Defined by tau(I) = I, tau(Z) = mu sigma_z, tau(X) = mu sigma_x with the
    critical mu, zero on the orthocomplement of span{I, Z, X}, extended
    complex-linearly (hence Hermiticity-preserving) to all of M(d2).

    ``mu_scale`` rescales mu away from the critical value; any value above 1
    breaks ball positivity (the critical mu is extremal).  It must be a
    finite ``matcore.check_real``: a bool, NaN or infinity raises
    ``ValueError``.
    """
    d2, d1 = check_count(d2, "d2", 4), check_count(d1, "d1", 2)
    check_materializable(d2, d2, d1, d1)
    mu_scale = check_real(mu_scale, "mu_scale must be a finite number", math.isfinite)
    mu = mu_scale * critical_mu(a, d2)
    # Orthonormal (trace inner product) Hermitian triple spanning the support.
    basis_in = [
        np.eye(d2, dtype=complex) / math.sqrt(d2),
        z_pattern(d2),
        x_pattern(d2),
    ]
    basis_out = [
        np.eye(d1, dtype=complex) / math.sqrt(d2),
        mu * padded_sigma_z(d1),
        mu * padded_sigma_x(d1),
    ]
    images = np.zeros((d2, d2, d1, d1), dtype=complex)
    for u, img in zip(basis_in, basis_out):
        # <u, E_ij> = tr(u† E_ij) = u_ji (u Hermitian)
        images += u.T[:, :, None, None] * img[None, None, :, :]
    return MapOnMatrices(d2, d1, images)


def worst_case_input(a: float, d2: int) -> np.ndarray:
    """Unit-Frobenius input mixing the identity into (X + iZ)/sqrt2.

    ``Y = (alpha/sqrt(d2)) I + (beta/sqrt2)(X + iZ)`` with the weights set by
    ``lambda = (1/a) sqrt(2 (1 - a^2/d2))`` (``ballbounds.lambda_bound``).
    It was designed to attain the all-matrices bound ``sqrt(2/a^2 - 1/d2)``,
    but tau's ratio on it stays below lambda, since its identity part does
    not line up with its (X + iZ) part; the module docstring shows that no
    input reaches that bound.
    """
    d2 = check_count(d2, "d2", 4)
    check_materializable(d2, d2)
    lam = ballbounds.lambda_bound(a, d2)
    alpha = math.sqrt(1.0 / (1.0 + lam * lam * d2))
    beta = math.sqrt(lam * lam * d2 / (1.0 + lam * lam * d2))
    return (
        alpha / math.sqrt(d2) * np.eye(d2, dtype=complex)
        + beta / math.sqrt(2.0) * (x_pattern(d2) + 1j * z_pattern(d2))
    )


def achieved_ratio(phi: MapOnMatrices, y) -> float:
    """||phi(Y)||_inf / ||Y||_2."""
    y = as_matrix(y)
    norm_in = frobenius_norm(y)
    if norm_in == 0:
        raise ValueError("zero input")
    return operator_norm(apply_map(phi, y)) / norm_in


def _directed_probes(a: float, d2: int) -> Iterator[np.ndarray]:
    """Deterministic boundary probes of the radius-a Hermitian sphere.

    Mixes a trace component into the binding traceless directions; the
    worst case for the critical map lies on this family.  Yields one
    ``(2 * PROBE_STEPS, d2, d2)`` stack per direction: for each trace weight
    c in ``linspace(-a, a, PROBE_STEPS)``, the probes
    ``c I/sqrt(d2) + t zhat`` and ``c I/sqrt(d2) - t zhat``, t = sqrt(a^2 - c^2).
    """
    directions = [z_pattern(d2)]
    if d2 >= 4:
        directions.append(x_pattern(d2))
        directions.append((directions[0] + directions[1]) / math.sqrt(2.0))
    c = np.linspace(-a, a, PROBE_STEPS)
    t = np.sqrt(np.maximum(a * a - c * c, 0.0))
    eye = np.eye(d2, dtype=complex)
    trace_part = np.repeat(c / math.sqrt(d2), 2)[:, None, None] * eye
    signed_t = np.stack([t, -t], axis=1).reshape(-1, 1, 1)
    for zhat in directions:
        yield trace_part + signed_t * zhat


def ball_positivity_check(
    phi: MapOnMatrices,
    a: float,
    samples: int = 1000,
    seed: int | None = None,
) -> bool:
    """Probabilistic ball-positivity test: phi(I + Delta) PSD on the sphere.

    Tests a deterministic grid of directed probes along the binding
    directions, then draws ``samples`` seeded Hermitian Delta uniformly on
    the radius-a Frobenius sphere (the worst case is on the boundary by
    homogeneity), ``SAMPLE_BLOCK`` at a time.  A sound falsifier,
    probabilistic verifier.  ``a`` must lie in (0, 1], the domain of
    ``critical_mu``, ``samples`` must be a nonnegative integer, and phi must
    be a stochastic map on M(d2) with d2 >= 2.
    """
    samples, a = check_count(samples, "samples", 0), check_radius(a)
    d2 = phi.in_dim
    # the probe stacks; each draw stack is refused by random_unit_hermitians
    check_materializable(2 * PROBE_STEPS, d2, d2)
    if d2 < 2 or not phi.is_stochastic():
        raise ValueError("phi must be a stochastic map on M(d2) with d2 >= 2")
    eye = np.eye(d2)
    rng = rng_from_seed(seed)
    # a block is drawn only when the stacks before it have passed
    draws = (
        a * random_unit_hermitians(rng, min(SAMPLE_BLOCK, samples - start), d2)
        for start in range(0, samples, SAMPLE_BLOCK)
    )
    return all(
        is_psd(apply_map(phi, eye + deltas), BALL_PSD_TOL)
        for deltas in chain(_directed_probes(a, d2), draws)
    )


def block_chain_check(phi: MapOnMatrices, a_mat, a: float) -> bool:
    """Verify the blockwise norm-inequality chain on one Hermitian input.

    After making off-diagonal blocks traceless, checks
    ``||tilde_phi(A)||_inf <= ||Phi_inf||_inf <= ||M||_inf`` where
    ``Phi_inf`` collects per-block output operator norms and ``M`` has
    ``(1/a) ||A_ii||_2`` on the diagonal and ``lambda ||A_ij||_2`` off it.
    """
    d2 = phi.in_dim
    lam = ballbounds.lambda_bound(a, d2)
    a_mat = hermitian(a_mat)
    if a_mat.shape[0] % d2 != 0:
        raise ValueError("input dimension must be a multiple of the map's in_dim")
    d1 = a_mat.shape[0] // d2
    x, _ = tracelessify_offdiag(a_mat, d1, d2)

    # tilde_phi(A) is the block matrix of the phi(A_ij), so Phi_inf is its
    # matrix of block operator norms
    tilde = tilde_apply(phi, x, d1)
    link1 = operator_norm(tilde)
    link2 = operator_norm(block_norm_matrix(tilde, d1, phi.out_dim, "inf"))

    two_norms = block_norm_matrix(x, d1, d2, "two")
    bound_mat = lam * two_norms
    np.fill_diagonal(bound_mat, np.diag(two_norms) / a)
    link3 = operator_norm(bound_mat)

    return link1 <= link2 + CHAIN_TOL and link2 <= link3 + CHAIN_TOL
