"""Seeded random generators shared by the sampling-based checks and tests."""

from __future__ import annotations

import numpy as np

from .matcore import check_count, check_materializable

#: Default seed for every sampling-based check (overridable via CLI / env).
DEFAULT_SEED = 0xB0B5


def rng_from_seed(seed: int | None = None) -> np.random.Generator:
    """The generator of ``seed``, or of ``DEFAULT_SEED`` for None.

    The package's one seed rule: any other seed must be a nonnegative
    integer (``check_count``), so a bool or a float is refused.
    """
    return np.random.default_rng(DEFAULT_SEED if seed is None else check_count(seed, "seed", 0))


def random_complex_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    check_materializable(d, d)
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = random_complex_matrix(rng, d)
    return (a + a.conj().T) / 2


def random_unit_hermitians(
    rng: np.random.Generator, k: int, d: int, traceless: bool = False
) -> np.ndarray:
    """``k`` uniform directions on the Frobenius unit sphere of Hermitian
    matrices, stacked as a ``(k, d, d)`` array.

    Gaussian on an orthonormal Hermitian basis, then normalized; the measure
    is rotation invariant.  With ``traceless`` each draw is projected to
    trace zero before it is normalized.  The stack reads the generator's
    stream exactly as ``k`` calls of ``random_hermitian`` do (real part, then
    imaginary part, per draw), so drawing in blocks of any size gives the
    same draws in the same order.
    """
    check_materializable(k, d, d)
    # worked on in place: besides the stack, one conjugate and one product
    h = rng.standard_normal((k, 2, d, d))
    h = h[:, 0] + 1j * h[:, 1]
    h += h.conj().transpose(0, 2, 1)
    h /= 2
    if traceless:
        h -= np.trace(h, axis1=1, axis2=2).real[:, None, None] / d * np.eye(d)
    h /= np.linalg.norm(h, axis=(1, 2), keepdims=True)
    return h


def random_unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    """Wishart-distributed normalized density matrix (full rank)."""
    g = random_complex_matrix(rng, d)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_product_ensemble(
    rng: np.random.Generator, d1: int, d2: int, size: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Random (x, y) pairs; y unit norm, weights carried by ||x||."""
    pairs = []
    for _ in range(size):
        x = rng.standard_normal(d1) + 1j * rng.standard_normal(d1)
        x *= rng.uniform(0.2, 1.5)
        y = random_unit_vector(rng, d2)
        pairs.append((x, y))
    return pairs
