"""Call order does not change any output.

A system caches the spectrum ``sigma(T)^2`` of its analysis matrix on first
use, whether a verdict (``classify``, ``ck_sufficient_condition``) or a
factor (``canonical_dual``, ``truncate``, ``inverse_frame_operator``) asks
first; its block factor ``R_i`` whenever a per-block value is first
needed (``classify``, ``ck_sufficient_condition``, ``error_report``, the
erasure-optimal duals); ``R^{-1}`` of ``T = Q R`` whenever an op first
inverts ``R`` (``canonical_dual``, ``dual_manifold``, ``truncate``,
``inverse_frame_operator``, the erasure-optimal duals); and, in one memo for
the last drop set (``_kept``), the survivors' spectrum whenever ``truncate``
or ``truncated_canonical_dual`` factors the kept rows, and from ``truncate``
to the next ``truncated_canonical_dual`` the kept rows' Householder factor.
Every op must return the same bits, or raise the same error with the same
message, on a cold system as on one warmed by any other op, and every cache
must hold the bits that its own values-only QR gives; the memo's hand-off,
while ``truncate`` holds it there, those of the kept rows' own QR.  The d = 48 system
runs the block recursion of ``triangular_inverse``.
"""

from dataclasses import astuple

import numpy as np
import pytest

import gframes as gf
import gframes.core as core
import gframes.stability as stability
from gframes._linalg import complex_gaussian, householder_basis, triangular_inverse
from gframes.generate import random_projective, random_system

DROP = (0,)
SECOND_DROP = (1,)


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
    "truncate_second_drop": lambda s: astuple(gf.truncate(s, SECOND_DROP)),
    "truncated_canonical_dual": lambda s: gf.truncated_canonical_dual(s, DROP).analysis,
    "truncate_then_dual": lambda s: (astuple(gf.truncate(s, DROP)),
                                     gf.truncated_canonical_dual(s, DROP).analysis),
    "dual_manifold": lambda s: gf.dual_manifold(s).base_synthesis,
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
        "d48": random_system(48, (4,) * 16, 5),
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


def kept_rows(system, drop):
    return np.concatenate([block for i, block in enumerate(system.blocks) if i not in drop])


def check_caches(system):
    """A cached ``R^{-1}`` and survivors' memo hold the bits of their own values-only QR."""
    cache = vars(system)
    if "_r_inverse" in cache:
        expected = triangular_inverse(np.linalg.qr(system.analysis, mode="r"))
        assert np.array_equal(cache["_r_inverse"], expected)
    if "_kept" in cache:
        drop, spectrum, handed = cache["_kept"]
        r = np.linalg.qr(kept_rows(system, drop), mode="r")
        assert np.array_equal(spectrum, core._squared_spectrum(r, system.d))
        if handed is not None:
            r, reflectors, tau = handed
            q, expected = np.linalg.qr(kept_rows(system, drop))
            assert np.array_equal(r, expected)
            assert np.array_equal(householder_basis(reflectors, tau), q)


SYSTEMS = edge_systems()


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
@pytest.mark.parametrize("first", sorted(OPS))
def test_outputs_do_not_depend_on_which_op_fills_the_cache(kind, first):
    system = SYSTEMS[kind]
    cold = {op: outcome(op, fresh(system)) for op in OPS}
    warm = fresh(system)
    outcome(first, warm)
    if first == "truncated_canonical_dual":  # factors the kept rows only
        assert "_kept" in vars(warm)
    elif first != "nearest_projective":  # the one op that reads no cache
        assert "_spectrum" in vars(warm)
    check_caches(warm)
    for op in OPS:
        assert same(outcome(op, warm), cold[op]), op
    assert "_kept" in vars(warm)  # the truncated dual leaves it, RS or not
    check_caches(warm)
    assert ("_r_inverse" in vars(warm)) == gf.classify(system).is_rs


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


def test_a_drop_set_memo_is_read_for_that_drop_set_only(monkeypatch):
    survivors = []
    from_analysis = stability._from_analysis

    def kept(*args, **kwargs):
        survivors.append(from_analysis(*args, **kwargs))
        return survivors[-1]

    monkeypatch.setattr(stability, "_from_analysis", kept)
    base = SYSTEMS["general"]
    system = fresh(base)
    for other in ([0], [3], [0, 3, 5], [1, 2]):
        gf.truncate(system, [0, 3])
        _, memo, _ = vars(system)["_kept"]
        survivors.clear()
        dual = gf.truncated_canonical_dual(system, other)
        assert vars(survivors[0])["_spectrum"] is not memo
        assert vars(system)["_kept"][0] == tuple(other)
        cold = gf.truncated_canonical_dual(fresh(base), other)
        assert np.array_equal(dual.analysis, cold.analysis)
        report = gf.truncate(system, [0, 3])
        assert same(astuple(report), astuple(gf.truncate(fresh(base), [0, 3])))
    # the same drop set, listed in another order, reads the memo
    _, memo, _ = vars(system)["_kept"]
    survivors.clear()
    gf.truncated_canonical_dual(system, [3, 0])
    assert vars(survivors[0])["_spectrum"] is memo


@pytest.mark.parametrize("first", ["canonical_dual", "dual_manifold", "truncate",
                                   "inverse_frame_operator"])
def test_cached_r_inverse_and_memo_are_read_only(first):
    system = fresh(SYSTEMS["general"])
    outcome(first, system)
    r_inverse = vars(system)["_r_inverse"]
    assert not r_inverse.flags.writeable
    with pytest.raises(ValueError):
        r_inverse[0, 0] = 0.0
    assert r_inverse.shape == (system.d, system.d)
    gf.truncated_canonical_dual(system, DROP)
    _, spectrum, _ = vars(system)["_kept"]
    assert not spectrum.flags.writeable
    assert spectrum.shape == (system.d,)


def test_a_cached_r_inverse_keeps_every_tolerance_check():
    system = blocks_times(random_system(6, (2, 3, 4, 2), 1), np.diag([1.0] * 5 + [1e-5]))
    assert gf.classify(system, 1e-12).is_rs and not gf.classify(system, 1e-9).is_rs
    strict = {"inverse_frame_operator": lambda s: gf.inverse_frame_operator(s, 1e-9),
              "truncate": lambda s: gf.truncate(s, DROP, 1e-9),
              "canonical_dual": lambda s: gf.canonical_dual(s, 1e-9)}
    for name, op in strict.items():
        warm = fresh(system)
        loose = gf.inverse_frame_operator(warm, 1e-12)  # caches R^{-1}
        assert "_r_inverse" in vars(warm)
        errors = []
        for target in (fresh(system), warm):
            with pytest.raises(gf.NotReconstructionSystemError) as raised:
                op(target)
            errors.append(str(raised.value))
        assert errors[0] == errors[1], name
        assert np.array_equal(gf.inverse_frame_operator(warm, 1e-12), loose)


def arrays(value):
    """The arrays held in ``value``, a system's cached value or memo (nested tuples)."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, gf.ReconstructionSystem):
        return [value.analysis]
    return [a for item in value for a in arrays(item)] if isinstance(value, tuple) else []


def memo_arrays(system):
    return arrays(vars(system).get("_kept", ()))


@pytest.mark.parametrize("kind", ["general", "d48"])
def test_truncate_hands_its_factor_to_the_next_dual_only(kind):
    base = SYSTEMS[kind]
    system = fresh(base)
    kept = kept_rows(system, DROP).shape
    gf.truncate(system, DROP)
    held = memo_arrays(system)
    assert sum(a.shape == kept for a in held) == 1  # the reflectors, and no copy of the rows
    # besides them R_J, tau and the survivors' spectrum
    assert sum(a.size for a in held) == kept[0] * kept[1] + system.d ** 2 + min(kept) + system.d
    gf.truncate(system, SECOND_DROP)  # another drop set replaces it
    assert vars(system)["_kept"][0] == SECOND_DROP
    assert sum(a.shape == kept for a in memo_arrays(system)) == 1
    gf.truncate(system, DROP)
    handed = gf.truncated_canonical_dual(system, DROP)
    assert vars(system)["_kept"][2] is None  # only the survivors' spectrum is left
    assert [a.shape for a in memo_arrays(system)] == [(system.d,)]
    assert np.array_equal(handed.analysis, gf.truncated_canonical_dual(fresh(base), DROP).analysis)
    gf.truncate(system, SECOND_DROP)
    gf.truncated_canonical_dual(system, DROP)  # a dual on another drop set drops the hand-off
    assert vars(system)["_kept"][2] is None
