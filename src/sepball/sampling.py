"""Seeded random generators shared by the sampling-based checks and tests."""

from __future__ import annotations

import numpy as np

#: Default seed for every sampling-based check (overridable via CLI / env).
DEFAULT_SEED = 0xB0B5


def rng_from_seed(seed: int | None = None) -> np.random.Generator:
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def random_complex_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = random_complex_matrix(rng, d)
    return (a + a.conj().T) / 2


def random_unit_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    """Uniform direction on the Frobenius unit sphere of Hermitian matrices."""
    h = random_hermitian(rng, d)
    return h / np.linalg.norm(h)


def random_traceless_unit_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    """Uniform direction on the unit sphere of traceless Hermitian matrices.

    Gaussian on an orthonormal Hermitian basis, projected to traceless,
    then normalized; the resulting measure is rotation invariant.
    """
    h = random_hermitian(rng, d)
    h -= np.trace(h).real / d * np.eye(d)
    return h / np.linalg.norm(h)


def random_unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    """Wishart-distributed normalized density matrix (full rank)."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
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
