"""Seeded draws: stacked draws read the generator as per-draw ones do."""

import numpy as np
import pytest

from sepball.sampling import random_hermitian, random_unit_hermitians, rng_from_seed


@pytest.mark.parametrize("traceless", [False, True])
def test_random_unit_hermitians_match_per_draw_loop(traceless):
    d, k = 5, 40
    rng = rng_from_seed(3)
    want = []
    for _ in range(k):
        # the per-draw formula the stacked draw replaced
        h = random_hermitian(rng, d)
        if traceless:
            h -= np.trace(h).real / d * np.eye(d)
        want.append(h / np.linalg.norm(h))
    stacked = rng_from_seed(3)
    got = np.concatenate(
        [random_unit_hermitians(stacked, n, d, traceless) for n in (1, 7, 32)]
    )
    assert stacked.bit_generator.state == rng.bit_generator.state
    assert np.max(np.abs(got - np.array(want))) <= 1e-15
    assert np.max(np.abs(got - got.conj().transpose(0, 2, 1))) == 0.0
    assert np.allclose(np.linalg.norm(got, axis=(1, 2)), 1.0, rtol=0, atol=1e-15)
    if traceless:
        assert np.max(np.abs(np.trace(got, axis1=1, axis2=2))) <= 1e-15
