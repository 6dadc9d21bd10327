"""Call order does not change any output.

A system caches the spectrum ``sigma(T)^2`` of its analysis matrix on first
use, whether a verdict (``classify``, ``ck_sufficient_condition``) or a
factor (``canonical_dual``, ``truncate``, ``inverse_frame_operator``) asks
first, and its block factor ``R_i`` whenever a per-block value is first
needed (``classify``, ``ck_sufficient_condition``, ``error_report``, the
erasure-optimal duals).  Every op must return the same bits, or raise the
same error with the same message, on a cold system as on one warmed by any
other op.
"""

from dataclasses import astuple

import numpy as np
import pytest

import gframes as gf
from gframes._linalg import complex_gaussian
from gframes.generate import random_projective, random_system

DROP = (0,)


def nearest(system):
    approximation, distance = gf.nearest_projective(system)
    return approximation.analysis, distance


def worst_case(system):
    found = gf.wce_solve(system, iterations=20)
    return found.dual.analysis, found.achieved, found.lower_bound, found.steps


OPS = {
    "classify": lambda s: astuple(gf.classify(s)),
    "canonical_dual": lambda s: gf.canonical_dual(s).analysis,
    "truncate": lambda s: astuple(gf.truncate(s, DROP)),
    "ck_sufficient_condition": lambda s: gf.ck_sufficient_condition(s, DROP),
    "inverse_frame_operator": gf.inverse_frame_operator,
    "error_report": lambda s: astuple(gf.error_report(s, gf.canonical_dual(s))),
    "nearest_projective": nearest,
    "optimal_dual_two_error": lambda s: gf.optimal_dual_two_error(s).analysis,
    "wce_solve": worst_case,
}


def blocks_times(system, matrix):
    return gf.ReconstructionSystem(tuple(np.asarray(b) @ matrix for b in system.blocks))


def edge_systems():
    base = random_system(6, (2, 3, 4, 2), 1)
    flat = np.eye(6)
    flat[0, 0] = 0.0  # every block misses the first coordinate
    return {
        "general": random_system(12, (3,) * 8, 2),
        "fewer_rows_than_d": gf.ReconstructionSystem(
            tuple(complex_gaussian(np.random.default_rng(3), (2, 2, 6)))),
        "rank_deficient": blocks_times(base, flat),
        "scaled_1e-8": blocks_times(base, 1e-8 * np.eye(6)),
        "mixed_projective": random_projective(8, (1, 3, 4, 2, 4), 11),
    }


def outcome(op, system):
    """The op's result, or the type and message of what it raised."""
    try:
        return OPS[op](system)
    except gf.GFramesError as exc:
        return type(exc), str(exc)


def same(a, b) -> bool:
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if a is None or b is None or isinstance(a, (type, str)):
        return a == b
    return np.array_equal(a, b)


def fresh(system):
    return gf.ReconstructionSystem(system.blocks)


SYSTEMS = edge_systems()


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
@pytest.mark.parametrize("first", sorted(OPS))
def test_outputs_do_not_depend_on_which_op_fills_the_cache(kind, first):
    system = SYSTEMS[kind]
    cold = {op: outcome(op, fresh(system)) for op in OPS}
    warm = fresh(system)
    outcome(first, warm)
    if first != "nearest_projective":  # the one op that reads neither cache
        assert "_spectrum" in vars(warm)
    for op in OPS:
        assert same(outcome(op, warm), cold[op]), op


def test_verdicts_of_the_edge_systems():
    cases = SYSTEMS
    assert gf.classify(cases["general"]).is_rs
    assert gf.classify(cases["scaled_1e-8"]).is_rs
    assert gf.classify(cases["mixed_projective"]).is_projective
    for kind in ("fewer_rows_than_d", "rank_deficient"):
        assert not gf.classify(cases[kind]).is_rs
        kind_of, message = outcome("canonical_dual", fresh(cases[kind]))
        assert kind_of is gf.NotReconstructionSystemError
        assert message.startswith("block Gram sum is singular")


@pytest.mark.parametrize("first", ["classify", "canonical_dual"])
def test_cached_spectrum_is_read_only(first):
    system = fresh(SYSTEMS["general"])
    outcome(first, system)
    spectrum = system._spectrum
    assert not spectrum.flags.writeable
    with pytest.raises(ValueError):
        spectrum[0] = 0.0
    assert spectrum.shape == (system.d,)
