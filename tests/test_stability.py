"""Dropping blocks: the multiplicative factor, bounds, and the survivor dual."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gframes as gf
from gframes._linalg import complex_gaussian, dagger, frobenius
from gframes.errors import NotReconstructionSystemError, StructuralError
from gframes.generate import partition_protocol, random_system
from helpers import draw_general, eigen_bounds, spectral_norm


def test_dropping_nothing_changes_nothing():
    system = gf.fixtures()["overlapping_planes"]
    report = gf.truncate(system, [])
    assert report.dropped == ()
    assert report.kept == (0, 1)
    assert np.max(np.abs(report.truncation_factor - np.eye(3))) <= 1e-12
    assert report.is_rs_after
    lower, upper = eigen_bounds(gf.frame_operator(system))
    assert abs(report.lower_bound_estimate - lower) <= 1e-12
    assert report.bounds_after is not None
    assert abs(report.bounds_after[0] - lower) <= 1e-12
    assert abs(report.bounds_after[1] - upper) <= 1e-12


def test_fixture_truncation_collapses():
    system = gf.fixtures()["overlapping_planes"]
    report = gf.truncate(system, [1])
    assert np.allclose(report.truncation_factor, np.diag([0.0, 1.0, 0.5]), atol=1e-12)
    assert not report.is_rs_after
    assert report.bounds_after is None
    assert abs(report.lower_bound_estimate) <= 1e-12
    with pytest.raises(NotReconstructionSystemError):
        gf.truncated_canonical_dual(system, [1])

    holds, estimate = gf.ck_sufficient_condition(system, [1])
    assert not holds
    assert abs(estimate) <= 1e-12


def test_factor_reproduces_survivor_gram():
    rng = np.random.default_rng(501)
    for _ in range(20):
        system = draw_general(rng)
        size = int(rng.integers(0, system.m))
        drop = list(rng.choice(system.m, size=size, replace=False))
        report = gf.truncate(system, drop)
        product = report.truncation_factor @ gf.frame_operator(system)
        assert np.max(np.abs(report.truncated_frame_operator - product)) <= 1e-10
        direct = sum(dagger(system.blocks[i]) @ system.blocks[i] for i in report.kept) \
            if report.kept else np.zeros((system.d, system.d))
        assert np.max(np.abs(report.truncated_frame_operator - direct)) <= 1e-10


def test_bound_estimates_bracket_the_truth():
    rng = np.random.default_rng(502)
    seen_stable = 0
    for _ in range(20):
        system = draw_general(rng)
        drop = [int(rng.integers(0, system.m))]
        report = gf.truncate(system, drop)
        if not report.is_rs_after:
            continue
        seen_stable += 1
        lower, upper = eigen_bounds(gf.frame_operator(system))
        after_lower, after_upper = report.bounds_after
        assert report.lower_bound_estimate <= after_lower + 1e-10
        assert after_lower <= after_upper
        assert after_upper <= upper + 1e-10
    assert seen_stable >= 5


def test_truncated_dual_agrees_with_direct_canonical():
    rng = np.random.default_rng(503)
    for _ in range(10):
        system = draw_general(rng)
        drop = [int(rng.integers(0, system.m))]
        report = gf.truncate(system, drop)
        if not report.is_rs_after:
            continue
        dual = gf.truncated_canonical_dual(system, drop)
        survivors = gf.ReconstructionSystem([system.blocks[i] for i in report.kept])
        assert gf.blockwise_distance(dual, gf.canonical_dual(survivors)) <= 1e-9
        assert gf.verify_dual(dual, survivors).dual_residual <= 1e-8

        # second characterization, computed here from the factor
        factor_inverse = np.linalg.inv(report.truncation_factor)
        inverse = gf.inverse_frame_operator(system)
        for block, i in zip(dual.blocks, report.kept):
            alt = system.blocks[i] @ inverse @ factor_inverse
            assert np.max(np.abs(block - alt)) <= 1e-9


def test_truncated_dual_after_dropping_a_dominant_block():
    system = random_system(4, (2, 2, 2, 2), 1)
    scaled = gf.ReconstructionSystem((100.0 * system.blocks[0],) + system.blocks[1:])
    survivors = gf.ReconstructionSystem(system.blocks[1:])
    dual = gf.truncated_canonical_dual(scaled, [0])
    assert gf.blockwise_distance(dual, gf.canonical_dual(survivors)) <= 1e-12


def test_energy_condition_guarantee():
    system = partition_protocol(6, 2, 3, seed=504)
    # each block carries spectral energy 1/3, the lower bound is 1
    holds, estimate = gf.ck_sufficient_condition(system, [0, 4])
    assert holds
    assert abs(estimate - (1.0 - 2.0 / 3.0)) <= 1e-10
    report = gf.truncate(system, [0, 4])
    assert report.is_rs_after
    assert report.bounds_after[0] >= estimate - 1e-10

    dropped_energy = sum(spectral_norm(system.blocks[i]) ** 2 for i in (0, 4))
    lower = eigen_bounds(gf.frame_operator(system))[0]
    assert abs((lower - dropped_energy) - estimate) <= 1e-12


def test_energy_condition_is_only_sufficient():
    rng = np.random.default_rng(505)
    # hunt for a case that stays a system even though the test is inconclusive
    found = False
    for _ in range(40):
        system = draw_general(rng)
        drop = [int(rng.integers(0, system.m))]
        holds, _ = gf.ck_sufficient_condition(system, drop)
        stable = gf.truncate(system, drop).is_rs_after
        if holds:
            assert stable
        elif stable:
            found = True
    assert found


def test_truncation_validation():
    system = gf.fixtures()["overlapping_planes"]
    with pytest.raises(StructuralError):
        gf.truncate(system, [0, 1])
    with pytest.raises(StructuralError):
        gf.truncate(system, [0, 0])
    with pytest.raises(StructuralError):
        gf.truncate(system, [2])
    flat = gf.ReconstructionSystem([np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]])])
    with pytest.raises(NotReconstructionSystemError):
        gf.truncate(flat, [0])
    with pytest.raises(NotReconstructionSystemError, match="^block Gram sum is singular"):
        gf.ck_sufficient_condition(flat, [0])


def test_dropped_index_error_messages():
    system = gf.fixtures()["overlapping_planes"]
    for dropped, message in (([0, 0], "dropped indices must not repeat"),
                             ([2], r"dropped indices must lie in \[0, 2\)"),
                             ([-1], r"dropped indices must lie in \[0, 2\)")):
        with pytest.raises(StructuralError, match=f"^{message}$"):
            gf.truncate(system, dropped)
        with pytest.raises(StructuralError, match=f"^{message}$"):
            gf.ck_sufficient_condition(system, dropped)
        with pytest.raises(StructuralError, match=f"^{message}$"):
            gf.truncated_canonical_dual(system, dropped)
    with pytest.raises(StructuralError, match="^cannot drop every block$"):
        gf.truncated_canonical_dual(system, [0, 1])


@pytest.mark.parametrize("dropped", [[1.5], [True], [np.True_], [1.0], ["1"], [np.array(True)]],
                         ids=["float", "bool", "numpy_bool", "integral_float", "str", "bool_array"])
def test_dropped_indices_that_are_not_integers_are_refused(dropped):
    system = gf.fixtures()["overlapping_planes"]
    for op in (gf.truncate, gf.ck_sufficient_condition, gf.truncated_canonical_dual):
        with pytest.raises(StructuralError, match="^dropped indices must be integers$"):
            op(system, dropped)


@pytest.mark.parametrize("dropped", [1, None, np.int64(0), np.array(1)],
                         ids=["int", "none", "numpy_int", "zero_dimensional_array"])
def test_dropped_indices_that_are_not_a_collection_are_refused(dropped):
    system = gf.fixtures()["overlapping_planes"]
    for op in (gf.truncate, gf.ck_sufficient_condition, gf.truncated_canonical_dual):
        with pytest.raises(StructuralError,
                           match="^dropped indices must be a collection of integers$"):
            op(system, dropped)


def test_numpy_integer_indices_are_accepted():
    system = random_system(6, (2, 3, 4, 2), 1)
    expected = gf.truncate(system, [1, 3])
    for dropped in (np.array([1, 3]), [np.int8(1), np.uint64(3)], (np.array(3), 1)):
        report = gf.truncate(system, dropped)
        assert report.dropped == (1, 3) and type(report.dropped[0]) is int
        assert np.array_equal(report.truncation_factor, expected.truncation_factor)


FIXTURES = gf.fixtures()


@st.composite
def truncations(draw):
    """A system and a proper drop set: fixtures, Gaussian blocks with no conditioning
    floor, and Gaussian blocks whose first block dominates by up to 1e8."""
    source = draw(st.sampled_from(["fixture", "gaussian", "dominant"]))
    if source == "fixture":
        system = FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))]
    else:
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
        d = draw(st.integers(min_value=1, max_value=6))
        k = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=6))
        system = gf.ReconstructionSystem([complex_gaussian(rng, (ki, d)) for ki in k])
        if source == "dominant":
            c = 10.0 ** draw(st.integers(min_value=1, max_value=8))
            system = gf.ReconstructionSystem((c * system.blocks[0],) + system.blocks[1:])
    drop = draw(st.lists(st.integers(min_value=0, max_value=system.m - 1), unique=True,
                         max_size=system.m - 1))
    return system, drop


@settings(max_examples=150, deadline=None)
@given(truncations())
def test_truncated_dual_is_the_canonical_dual_of_the_kept_blocks(case):
    system, drop = case
    survivors = gf.ReconstructionSystem([b for i, b in enumerate(system.blocks)
                                         if i not in drop])
    try:
        expected = gf.canonical_dual(survivors)
    except NotReconstructionSystemError:
        with pytest.raises(NotReconstructionSystemError,
                           match="^surviving blocks have no positive lower frame bound$"):
            gf.truncated_canonical_dual(system, drop)
        return
    dual = gf.truncated_canonical_dual(system, drop)
    assert dual.k == expected.k
    assert frobenius(dual.analysis - expected.analysis) <= 1e-12 * frobenius(expected.analysis)


def test_truncated_dual_of_a_system_that_is_not_rs():
    # the dominant first block puts the whole system past the RS rule; the rest is RS
    system = random_system(4, (2, 2, 2, 2), 1)
    dominated = gf.ReconstructionSystem((1e6 * system.blocks[0],) + system.blocks[1:])
    assert not gf.classify(dominated).is_rs
    with pytest.raises(NotReconstructionSystemError, match="^block Gram sum is singular"):
        gf.truncate(dominated, [0])
    dual = gf.truncated_canonical_dual(dominated, [0])
    expected = gf.canonical_dual(gf.ReconstructionSystem(system.blocks[1:]))
    assert frobenius(dual.analysis - expected.analysis) <= 1e-12 * frobenius(expected.analysis)


def _dominant_drop(c):
    """``random_system(4, (2, 2, 2, 2), 1)`` with block 0 scaled by ``c``."""
    system = random_system(4, (2, 2, 2, 2), 1)
    return gf.ReconstructionSystem((c * system.blocks[0],) + system.blocks[1:])


@st.composite
def scaled_drops(draw):
    """An RS-drawn Gaussian system of uniform or mixed block heights whose dropped blocks
    are scaled by one factor from 1e-8 to 1e8, and its (non-empty, proper) drop set."""
    m = draw(st.integers(min_value=2, max_value=6))
    height = st.integers(min_value=1, max_value=4)
    k = draw(st.one_of(height.map(lambda ki: (ki,) * m), st.tuples(*[height] * m)))
    d = draw(st.integers(min_value=1, max_value=min(8, sum(k))))
    system = random_system(d, k, draw(st.integers(min_value=0, max_value=2**31)))
    drop = draw(st.lists(st.integers(min_value=0, max_value=m - 1), unique=True,
                         min_size=1, max_size=m - 1))
    c = 10.0 ** draw(st.floats(min_value=-8.0, max_value=8.0))
    return gf.ReconstructionSystem([c * b if i in drop else b
                                    for i, b in enumerate(system.blocks)]), drop


@settings(max_examples=150, deadline=None)
@given(scaled_drops())
@example((_dominant_drop(1e4), [0]))
def test_truncate_judges_the_survivors_as_classify_and_the_truncated_dual_do(case):
    system, drop = case
    if not gf.classify(system).is_rs:  # M_J needs S^{-1}
        with pytest.raises(NotReconstructionSystemError, match="^block Gram sum is singular"):
            gf.truncate(system, drop)
        return
    report = gf.truncate(system, drop)
    shape = gf.classify(gf.ReconstructionSystem([system.blocks[i] for i in report.kept]))
    try:
        gf.truncated_canonical_dual(system, drop)
        returns = True
    except NotReconstructionSystemError:
        returns = False
    assert report.is_rs_after == shape.is_rs == returns
    if report.is_rs_after:
        assert report.bounds_after == (shape.lower_bound, shape.upper_bound)
    else:
        assert report.bounds_after is None
