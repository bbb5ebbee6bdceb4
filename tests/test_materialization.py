"""The one memory rule: ``matcore.check_materializable`` refuses any array of
more than ``MATERIALIZATION_CAP``² entries, and every builder and reader asks
it before building."""

import json
import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest

from sepball import extremal, geometry, matcore, nmr, schurnorm
from sepball import sampling
from sepball.sampling import random_unit_hermitians, rng_from_seed


def test_rule_counts_entries():
    cap = matcore.MATERIALIZATION_CAP
    matcore.check_materializable(cap, cap)
    matcore.check_materializable(cap * cap)
    matcore.check_materializable(4, cap // 2, cap // 2)
    for shape in [(cap + 1, cap + 1), (cap, cap + 1), (cap * cap + 1,), (5, cap // 2, cap // 2)]:
        with pytest.raises(matcore.MaterializationError, match=f"materialization cap {cap}"):
            matcore.check_materializable(*shape)


def test_rule_counts_numpy_integers_without_overflow():
    # 60000^4 wraps around in int64 arithmetic
    with pytest.raises(matcore.MaterializationError):
        matcore.check_materializable(*[np.int64(60000)] * 4)


#: The cap the builders run under below: at most 16² = 256 entries per array.
SMALL_CAP = 16

#: The size at which every builder below is refused: 1024² entries, 8 MiB or
#: more, where the call's own traced peak must stay under ``REFUSAL_PEAK``.
ABOVE = 1024
REFUSAL_PEAK = 1 << 16


def _unit(d: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[0] = 1.0
    return v


def _flat_file(n: int) -> bytes:
    """The n×n zero matrix in the writer's layout, without spaces."""
    return b'{"dims": [%d], "entries": [%s]}' % (n, b",".join([b"[0,0]"] * (n * n)))


def _json_file(n: int) -> str:
    """A file for the full JSON reader (entries before dims) claiming dims [n]."""
    return json.dumps({"entries": [[0, 0]] * SMALL_CAP**2, "dims": [n]})


#: Each builder and reader as make(n) -> call: the largest array the call
#: builds holds exactly n² entries.  ``make`` builds the inputs, so the
#: call's traced memory is its own.
MATERIALIZERS = {
    "as_matrix": lambda n: partial(matcore.as_matrix, np.zeros((n, n), dtype=complex)),
    "kron": lambda n: partial(matcore.kron, np.eye(2), np.eye(n // 2)),
    "identity_map": lambda n: partial(matcore.identity_map, math.isqrt(n)),
    "apply_map": lambda n: partial(
        matcore.apply_map,
        matcore.MapOnMatrices(2, n // 8, np.zeros((2, 2, n // 8, n // 8), dtype=complex)),
        np.zeros((64, 2, 2)),
    ),
    "read_flat": lambda n: partial(matcore._read_flat, _flat_file(n)),
    "read_json": lambda n: partial(matcore.matrix_from_json, _json_file(n)),
    "l_matrix": lambda n: partial(schurnorm.l_matrix, 2.0, n),
    "thermal_state": lambda n: partial(nmr.thermal_state, nmr.NmrParams(0.01, n.bit_length() - 1)),
    "sep_symmetry_witness": lambda n: partial(
        geometry.sep_symmetry_witness, (2, n // 2), [_unit(2), _unit(n // 2)]
    ),
    "mes_symmetry_witness": lambda n: partial(geometry.mes_symmetry_witness, math.isqrt(n)),
    "witness_states": lambda n: partial(
        getattr, geometry.ConvexWitness(np.full(4, 0.25), np.zeros((4, n // 2)), None), "states"
    ),
    "unitary_basis": lambda n: partial(geometry.unitary_basis, math.isqrt(n)),
    "maximally_entangled_projector": lambda n: partial(
        geometry.maximally_entangled_projector, math.isqrt(n)
    ),
    "build_tau": lambda n: partial(extremal.build_tau, 0.5, n // 2),
    "random_unit_hermitians": lambda n: partial(random_unit_hermitians, rng_from_seed(0), 4, n // 2),
    # the probe stacks, 2·PROBE_STEPS = 16 inputs of order n/4; the draw
    # stacks are random_unit_hermitians'
    "ball_positivity_check": lambda n: partial(
        extremal.ball_positivity_check, extremal.build_tau(0.5, n // 4), 0.5, samples=16
    ),
    "worst_case_input": lambda n: partial(extremal.worst_case_input, 0.5, n),
    "z_pattern": lambda n: partial(extremal.z_pattern, n),
    "x_pattern": lambda n: partial(extremal.x_pattern, n),
    "padded_sigma_z": lambda n: partial(extremal.padded_sigma_z, n),
    "padded_sigma_x": lambda n: partial(extremal.padded_sigma_x, n),
    "complete_local_basis": lambda n: partial(geometry.complete_local_basis, np.full(n, n**-0.5)),
    "random_complex_matrix": lambda n: partial(sampling.random_complex_matrix, rng_from_seed(0), n),
    "random_hermitian": lambda n: partial(sampling.random_hermitian, rng_from_seed(0), n),
    "random_density_matrix": lambda n: partial(sampling.random_density_matrix, rng_from_seed(0), n),
}


@pytest.mark.parametrize("name", list(MATERIALIZERS))
def test_every_builder_asks_the_rule_before_building(monkeypatch, name):
    # a square probe count, so the probe stack can sit exactly at the cap
    monkeypatch.setattr(extremal, "PROBE_STEPS", 8)
    at_cap, above = MATERIALIZERS[name](SMALL_CAP), MATERIALIZERS[name](ABOVE)
    monkeypatch.setattr(matcore, "MATERIALIZATION_CAP", SMALL_CAP)
    at_cap()
    monkeypatch.setattr(matcore, "MATERIALIZATION_CAP", SMALL_CAP - 1)
    with pytest.raises(matcore.MaterializationError):
        at_cap()
    monkeypatch.setattr(matcore, "MATERIALIZATION_CAP", SMALL_CAP)
    tracemalloc.start()
    try:
        with pytest.raises(matcore.MaterializationError,
                           match=f"materialization cap {SMALL_CAP}") as refused:
            above()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < REFUSAL_PEAK
    # the refusal names the call's largest array, not a smaller step on the way
    shape = re.search(r"a ([0-9x]+) array", str(refused.value))[1]
    assert math.prod(map(int, shape.split("x"))) == ABOVE**2
