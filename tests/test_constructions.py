"""Group orbits, commuting-projection duals, minimal-redundancy criteria."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gframes as gf
from gframes._linalg import complex_gaussian, dagger, hermitian_part, random_unitary
from gframes.errors import (
    NotReconstructionSystemError,
    PreconditionError,
    StructuralError,
)
from gframes.generate import (
    commuting_projective,
    random_coisometry,
    random_projective,
    random_system,
)
from helpers import LADDER_FACTORS, LADDER_TOLERANCES, draw_commuting, draw_riesz, riesz_pair


def test_cyclic_representation_structure():
    rep = gf.cyclic_shift_representation(5)
    assert rep.order == 5
    assert rep.dimension == 5
    assert rep.identity_index == 0
    assert np.array_equal(rep.unitaries[0], np.eye(5))
    shift = rep.unitaries[1]
    assert np.max(np.abs(shift @ rep.unitaries[4] - np.eye(5))) <= 1e-12
    for g in range(5):
        for h in range(5):
            assert rep.table[g, h] == (g + h) % 5
    # the powers are those of the shift built by n - 1 products, and the orbit's blocks are
    # the products V U_g one element at a time, bit for bit
    rng = np.random.default_rng(703)
    for n in (1, 2, 3, 5, 8):
        rep = gf.cyclic_shift_representation(n)
        shift = np.zeros((n, n), dtype=np.complex128)
        shift[np.arange(n), np.arange(n) - 1] = 1.0
        powers = [np.eye(n, dtype=np.complex128)]
        for _ in range(n - 1):
            powers.append(shift @ powers[-1])
        assert all(np.array_equal(u, power) for u, power in zip(rep.unitaries, powers))
        base = complex_gaussian(rng, (min(2, n), n), 1.0)
        blocks = gf.group_rs(rep, base).blocks
        assert all(np.array_equal(block, base @ u) for block, u in zip(blocks, powers))


def test_representation_validation():
    with pytest.raises(StructuralError):
        gf.UnitaryRepresentation((2.0 * np.eye(2),), np.array([[0]]))
    with pytest.raises(StructuralError):
        gf.UnitaryRepresentation((np.eye(2), -np.eye(2)),
                                 np.array([[0, 0], [0, 0]]))
    with pytest.raises(StructuralError):
        gf.UnitaryRepresentation((np.eye(2),), np.array([[0, 1]]))
    with pytest.raises(StructuralError):
        gf.UnitaryRepresentation((), np.zeros((0, 0), dtype=int))
    with pytest.raises(StructuralError, match="^representation has no identity element$"):
        gf.UnitaryRepresentation((np.eye(2), np.eye(2)), np.array([[1, 1], [1, 1]]))
    with pytest.raises(StructuralError):
        gf.cyclic_shift_representation(0)
    # a non-finite element is not unitary, a 0-d element is no matrix, and a table of
    # floats or bools is not read as indices
    with np.errstate(invalid="ignore"):
        for element in (np.full((2, 2), np.nan), np.diag([np.inf, 1.0])):
            with pytest.raises(StructuralError, match="^element 0 is not unitary$"):
                gf.UnitaryRepresentation((element,), np.array([[0]]))
    with pytest.raises(StructuralError, match="^element 0 is not 1 x 1$"):
        gf.UnitaryRepresentation((np.array(1.0),), np.array([[0]]))
    # nor is a 0 x 0 element a representation on any C^d
    with pytest.raises(StructuralError,
                       match="^element 0 is 0 x 0; elements must be at least 1 x 1$"):
        gf.UnitaryRepresentation((np.zeros((0, 0)),), np.array([[0]]))
    for table in ([[0.7]], [[0.0]], [[False]]):
        with pytest.raises(StructuralError,
                           match=r"^table must be 1 x 1 with entries in \[0, 1\)$"):
            gf.UnitaryRepresentation((np.eye(1),), np.array(table))


def test_representation_keeps_read_only_copies_of_its_inputs():
    # the caller's arrays stay writable, and a later write to them does not reach the
    # validated representation
    shift = gf.cyclic_shift_representation(3).unitaries[1].copy()
    unitaries = (np.eye(3, dtype=np.complex128), shift, shift @ shift)
    table = (np.arange(3)[:, None] + np.arange(3)) % 3
    rep = gf.UnitaryRepresentation(unitaries, table)
    assert table.flags.writeable and shift.flags.writeable
    shift[0, 0], table[0, 0] = 5.0, 2
    assert rep.unitaries[1][0, 0] == 0 and rep.table[0, 0] == 0
    assert not any(u.flags.writeable for u in rep.unitaries) and not rep.table.flags.writeable


def test_direct_product_structure():
    product = gf.direct_product(gf.cyclic_shift_representation(2),
                                gf.cyclic_shift_representation(3))
    assert product.order == 6
    assert product.dimension == 6
    expected = np.kron(gf.cyclic_shift_representation(2).unitaries[1],
                       gf.cyclic_shift_representation(3).unitaries[2])
    assert np.max(np.abs(product.unitaries[1 * 3 + 2] - expected)) <= 1e-12


def test_orbit_of_coordinate_row_is_self_dual():
    rep = gf.cyclic_shift_representation(4)
    base = np.zeros((1, 4))
    base[0, 0] = 1.0
    system = gf.group_rs(rep, base)
    info = gf.classify(system)
    assert info.is_protocol and info.is_uniform and info.is_riesz
    assert gf.blockwise_distance(gf.canonical_dual(system), system) <= 1e-12


def test_orbit_checks_on_random_bases():
    rng = np.random.default_rng(701)
    reps = [gf.cyclic_shift_representation(5),
            gf.direct_product(gf.cyclic_shift_representation(2),
                              gf.cyclic_shift_representation(2))]
    for rep in reps:
        base = complex_gaussian(rng, (2, rep.dimension), 1.0)
        report = gf.group_rs_checks(rep, base)
        assert report.commutation_residual <= 1e-10
        assert report.canonical_dual_deviation <= 1e-10
        assert report.projective_approximation_deviation is not None
        assert report.projective_approximation_deviation <= 1e-9


def test_orbit_checks_flag_rank_deficient_bases():
    rep = gf.cyclic_shift_representation(4)
    row = np.array([[1.0, 0.5, 0.25, 0.125]])
    base = np.vstack([row, row])
    report = gf.group_rs_checks(rep, base)
    assert report.projective_approximation_deviation is None
    assert report.commutation_residual <= 1e-10
    assert report.canonical_dual_deviation <= 1e-10


def test_orbit_projective_systems_satisfy_the_worst_case_criterion():
    rng = np.random.default_rng(702)
    rep = gf.cyclic_shift_representation(6)
    system = gf.group_rs(rep, 1.3 * random_coisometry(rng, 2, 6))
    info = gf.classify(system)
    assert info.is_projective and info.is_uniform
    assert gf.wce_condition(system) is not None


def test_group_rs_validation():
    rep = gf.cyclic_shift_representation(3)
    with pytest.raises(StructuralError):
        gf.group_rs(rep, np.zeros((4, 3)))
    with pytest.raises(StructuralError):
        gf.group_rs(rep, np.zeros((1, 4)))
    with pytest.raises(NotReconstructionSystemError, match="^block Gram sum is singular"):
        gf.group_rs_checks(rep, np.zeros((1, 3)))


@given(st.integers(min_value=1, max_value=25))
def test_unit_sum_coefficients_properties(count):
    coefficients = gf.unit_sum_coefficients(count)
    assert len(coefficients) == count
    for c in coefficients:
        assert abs(abs(c) - 1.0) <= 1e-12
    total = sum(np.conj(c) for c in coefficients)
    assert abs(total - 1.0) <= 1e-12


def test_unit_sum_coefficients_validation():
    with pytest.raises(StructuralError):
        gf.unit_sum_coefficients(0)


def test_orders_and_counts_must_be_integers():
    # floats and bools are refused with a message naming the argument, not cut or
    # passed on to numpy; numpy integers are read as ints
    for bad in (2.5, 3.0, True):
        with pytest.raises(StructuralError, match="^n must be an integer$"):
            gf.cyclic_shift_representation(bad)
        with pytest.raises(StructuralError, match="^count must be an integer$"):
            gf.unit_sum_coefficients(bad)
    assert gf.cyclic_shift_representation(np.int64(3)).order == 3
    assert gf.unit_sum_coefficients(np.int32(3)) == gf.unit_sum_coefficients(3)


def test_commuting_dual_of_the_planes_fixture():
    system = gf.fixtures()["overlapping_planes"]
    dual = gf.commuting_projective_dual(system)
    assert gf.verify_dual(dual, system).dual_residual <= 1e-12
    info = gf.classify(dual)
    assert info.is_projective
    assert np.allclose(info.weights, [1.0, 1.0], atol=1e-12)
    # the shared axis carries conjugate unimodular coefficients
    entry = dual.blocks[0][1, 2]
    assert abs(abs(entry) - 1.0) <= 1e-12
    assert abs(entry.imag) > 0.5


def test_commuting_dual_with_orthogonal_ranges_is_canonical():
    system = commuting_projective(6, [(0, 1), (2, 3), (4, 5)], seed=703,
                                  weights=[0.7, 1.4, 2.1])
    dual = gf.commuting_projective_dual(system)
    assert gf.blockwise_distance(dual, gf.canonical_dual(system)) <= 1e-10


def test_commuting_dual_on_random_draws():
    rng = np.random.default_rng(704)
    for _ in range(10):
        system, _ = draw_commuting(rng)
        dual = gf.commuting_projective_dual(system)
        assert gf.verify_dual(dual, system).dual_residual <= 1e-9
        dual_info = gf.classify(dual)
        assert dual_info.is_projective
        weights = gf.classify(system).weights
        assert np.allclose(dual_info.weights,
                           [1.0 / v for v in weights], atol=1e-8)


def assert_projective_dual(system):
    dual = gf.commuting_projective_dual(system)
    assert gf.verify_dual(dual, system).dual_residual <= 1e-12
    dual_info = gf.classify(dual)
    assert dual_info.is_projective
    weights = gf.classify(system).weights
    assert np.allclose(dual_info.weights, [1.0 / v for v in weights], rtol=1e-12, atol=0)
    return dual


@pytest.mark.parametrize("m", [10, 20, 30, 40, 80])
def test_commuting_dual_is_exact_with_many_blocks(m):
    # one small range followed by m - 1 full ones: a separation of the eigenspaces by
    # one weighted sum of the P_i loses the small range in rounding as m grows
    system = commuting_projective(3, [(0,)] + [(0, 1, 2)] * (m - 1), seed=m)
    assert_projective_dual(system)


def test_commuting_dual_matches_the_known_eigenspaces():
    rng = np.random.default_rng(710)
    d = 7
    masks = [(0, 1, 2), (2, 3), (1, 2, 3, 4, 5), (5, 6), (0, 6), (2, 5)]
    weights = [0.6, 1.1, 1.7, 0.9, 1.3, 2.0]
    unitary = random_unitary(rng, d)
    system = gf.ReconstructionSystem(tuple(v * dagger(unitary[:, list(mask)])
                                           for v, mask in zip(weights, masks)))

    patterns = {}
    for j in range(d):
        patterns.setdefault(tuple(j in mask for mask in masks), []).append(j)
    factors = [np.zeros((d, d), dtype=np.complex128) for _ in masks]
    for pattern, coordinates in patterns.items():
        # any orthonormal basis of the eigenspace gives the same projection
        basis = unitary[:, coordinates] @ random_unitary(rng, len(coordinates))
        eigenspace = basis @ dagger(basis)
        members = [i for i, inside in enumerate(pattern) if inside]
        for coefficient, i in zip(gf.unit_sum_coefficients(len(members)), members):
            factors[i] += coefficient * eigenspace
    reference = gf.ReconstructionSystem(tuple(
        (b @ u) / (v * v) for b, u, v in zip(system.blocks, factors, weights)))

    dual = assert_projective_dual(system)
    assert gf.blockwise_distance(dual, reference) <= 1e-12


@st.composite
def mask_families(draw):
    """Up to 60 masks on C^d, d <= 8: a few random ranges, then up to 51 blocks
    that are often the full range, so that many late blocks separate nothing."""
    d = draw(st.integers(min_value=1, max_value=8))
    mask = st.sets(st.integers(min_value=0, max_value=d - 1), min_size=1)
    masks = draw(st.lists(mask, min_size=1, max_size=8))
    masks += draw(st.lists(st.one_of(st.just(set(range(d))), mask), max_size=51))
    uncovered = set(range(d)).difference(*masks)
    if uncovered:
        masks.append(uncovered)
    return d, [tuple(sorted(mask)) for mask in masks]


@settings(max_examples=30, deadline=None)
@given(mask_families(), st.integers(min_value=0, max_value=2**31))
def test_commuting_dual_property_over_mask_families(family, seed):
    d, masks = family
    assert_projective_dual(commuting_projective(d, masks, seed))


@pytest.mark.parametrize("epsilon", [1e-3, 1e-5, 1e-8])
def test_commuting_dual_rejects_slightly_rotated_blocks(epsilon):
    system = commuting_projective(4, [(0, 1), (1, 2), (2, 3)], seed=3)
    rng = np.random.default_rng(711)
    values, vectors = np.linalg.eigh(hermitian_part(complex_gaussian(rng, (4, 4))))
    rotation = (vectors * np.exp(1j * epsilon * values)) @ dagger(vectors)
    blocks = list(system.blocks)
    blocks[2] = blocks[2] @ rotation
    rotated = gf.ReconstructionSystem(blocks)
    assert gf.classify(rotated).is_projective
    with pytest.raises(PreconditionError, match="do not commute"):
        gf.commuting_projective_dual(rotated)


def test_commuting_dual_preconditions():
    generic = random_projective(4, (2, 2), seed=705)
    with pytest.raises(PreconditionError):
        gf.commuting_projective_dual(generic)
    with pytest.raises(PreconditionError):
        gf.commuting_projective_dual(random_system(3, (2, 2), seed=706))
    flat = gf.ReconstructionSystem([np.array([[1.0, 0.0, 0.0, 0.0]])])
    with pytest.raises(NotReconstructionSystemError):
        gf.commuting_projective_dual(flat)


def test_riesz_fixture_verdicts():
    fixtures = gf.fixtures()
    missing = gf.riesz_projective_dual_check(fixtures["riesz_without_projective_dual"])
    assert not missing.has_projective_dual
    assert not missing.canonical_dual_projective
    assert not missing.per_index[0].is_scaled_isometry

    present = gf.riesz_projective_dual_check(fixtures["riesz_with_projective_dual"])
    assert present.has_projective_dual
    assert present.canonical_dual_projective
    assert all(c.is_scaled_isometry for c in present.per_index)
    assert [c.index for c in present.per_index] == [0, 1]


def test_riesz_singleton_blocks_always_pass():
    rng = np.random.default_rng(707)
    for _ in range(5):
        system = draw_riesz(rng, singleton_blocks=True)
        check = gf.riesz_projective_dual_check(system)
        assert check.has_projective_dual
        assert check.canonical_dual_projective


def test_riesz_orthogonal_sum_passes():
    block_a = 1.5 * np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    block_b = 0.7 * np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    check = gf.riesz_projective_dual_check(gf.ReconstructionSystem([block_a, block_b]))
    assert check.has_projective_dual
    assert check.canonical_dual_projective


def test_riesz_criteria_agree_on_random_draws():
    rng = np.random.default_rng(708)
    for _ in range(20):
        system = draw_riesz(rng)
        check = gf.riesz_projective_dual_check(system)
        assert check.has_projective_dual == check.canonical_dual_projective


@pytest.mark.parametrize("k", [2, 3])
def test_flatness_verdicts_agree_on_the_riesz_ladder(k):
    # The restriction criterion, the check on the unique dual W, the coisometry test
    # on W_0 and classify of W_0 alone all judge sigma(W_0)^2 flat exactly when f < 1/2.
    for tolerance in LADDER_TOLERANCES:
        for factor in LADDER_FACTORS:
            for seed in range(3):
                first, system = riesz_pair(k, factor * tolerance, seed)
                check = gf.riesz_projective_dual_check(system, tolerance)
                alone = gf.classify(gf.ReconstructionSystem((first,)), tolerance)
                verdicts = (check.has_projective_dual, check.canonical_dual_projective,
                            gf.is_weighted_coisometry(first, tolerance), alone.is_projective)
                assert verdicts == (factor < 0.5,) * 4, (tolerance, factor, seed)


def test_riesz_check_preconditions():
    with pytest.raises(PreconditionError):
        gf.riesz_projective_dual_check(gf.fixtures()["overlapping_planes"])
    singular = gf.ReconstructionSystem([np.array([[1.0, 0.0]]),
                                        np.array([[2.0, 0.0]])])
    with pytest.raises(NotReconstructionSystemError, match="^block Gram sum is singular"):
        gf.riesz_projective_dual_check(singular)


def test_enlarged_system_still_lacks_projective_duals():
    fixtures = gf.fixtures()
    system = fixtures["redundant_without_projective_dual"]
    info = gf.classify(system)
    assert info.is_rs and info.is_projective and info.is_uniform
    assert not info.is_riesz
    assert not gf.classify(gf.canonical_dual(system)).is_projective
    for sample in gf.dual_manifold_sample(system, seed=709, count=50):
        assert not gf.classify(sample).is_projective
    # the third block shares the second block's kernel exactly
    second = np.asarray(system.blocks[1])
    third = np.asarray(system.blocks[2])
    gram_gap = dagger(second) @ second - dagger(third) @ third
    assert np.max(np.abs(gram_gap)) <= 1e-12


def test_fixture_inventory():
    fixtures = gf.fixtures()
    assert sorted(fixtures) == [
        "overlapping_planes",
        "overlapping_planes_dual",
        "redundant_without_projective_dual",
        "riesz_with_projective_dual",
        "riesz_without_projective_dual",
    ]
    for system in fixtures.values():
        assert gf.classify(system).is_rs
