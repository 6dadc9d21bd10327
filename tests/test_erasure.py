"""Erasure error model, the two-error optimum, and worst-case minimization."""

import numpy as np
import pytest

import gframes as gf
import gframes.erasure as erasure
from gframes._linalg import dagger, frobenius
from gframes.errors import (
    NotReconstructionSystemError,
    PreconditionError,
    StructuralError,
)
from gframes.generate import partition_protocol, random_system
from helpers import (
    draw_general,
    draw_nonuniform_projective,
    draw_protocol,
    draw_riesz,
    draw_uniform_projective,
)


def doubled_fixture():
    """Planes fixture with the second block scaled, so weights are (1, 2)."""
    base = gf.fixtures()["overlapping_planes"]
    return gf.ReconstructionSystem([base.blocks[0], 2.0 * np.asarray(base.blocks[1])])


def test_mask_accounting_and_validation():
    mask = gf.ErasureMask({0, 2}, 4)
    assert mask.dropped == (0, 2)
    assert mask.kept == (1, 3)
    single = gf.ErasureMask(1, 3)
    assert single.dropped == (1,)
    with pytest.raises(StructuralError):
        gf.ErasureMask([1, 1], 3)
    with pytest.raises(StructuralError):
        gf.ErasureMask({3}, 3)
    with pytest.raises(StructuralError):
        gf.ErasureMask({-1}, 3)
    with pytest.raises(StructuralError):
        gf.ErasureMask(frozenset(), 0)


def test_mask_error_messages():
    for indices, m, message in (([1, 1], 3, "mask indices must not repeat"),
                                ([1, 1], 0, "mask indices must not repeat"),
                                ([0], 0, "mask needs m >= 1"),
                                ([3], 3, r"mask indices must lie in \[0, 3\)"),
                                ([-1], 3, r"mask indices must lie in \[0, 3\)")):
        with pytest.raises(StructuralError, match=f"^{message}$"):
            gf.ErasureMask(indices, m)


def test_blind_reconstruction_limits():
    rng = np.random.default_rng(401)
    system = draw_general(rng)
    dual = gf.canonical_dual(system)
    x = rng.standard_normal(system.d) + 1j * rng.standard_normal(system.d)
    packets = gf.analysis_apply(system, x)

    unharmed = gf.blind_reconstruct(system, dual, packets,
                                    gf.ErasureMask(frozenset(), system.m))
    assert np.max(np.abs(unharmed - x)) <= 1e-9

    nothing = gf.blind_reconstruct(system, dual, packets,
                                   gf.ErasureMask(frozenset(range(system.m)), system.m))
    assert np.array_equal(nothing, np.zeros(system.d))

    for j in range(system.m):
        part = gf.blind_reconstruct(system, dual, packets, gf.ErasureMask(j, system.m))
        missing = dagger(dual.blocks[j]) @ np.asarray(packets[j])
        assert np.max(np.abs((x - part) - missing)) <= 1e-9


def test_blind_reconstruction_validation():
    system = gf.fixtures()["overlapping_planes"]
    dual = gf.canonical_dual(system)
    packets = gf.analysis_apply(system, np.ones(3))
    other = gf.fixtures()["riesz_with_projective_dual"]
    with pytest.raises(StructuralError):
        gf.blind_reconstruct(system, other, packets, gf.ErasureMask(0, 2))
    with pytest.raises(StructuralError):
        gf.blind_reconstruct(system, dual, packets, gf.ErasureMask(0, 3))
    with pytest.raises(StructuralError):
        gf.blind_reconstruct(system, dual, packets[:1], gf.ErasureMask(0, 2))
    with pytest.raises(StructuralError):
        gf.blind_reconstruct(system, dual, [packets[0], np.zeros(3)], gf.ErasureMask(0, 2))


def test_error_report_against_trace_oracle():
    rng = np.random.default_rng(402)
    system = draw_general(rng)
    dual = gf.canonical_dual(system)
    report = gf.error_report(system, dual)
    for i, (w, v) in enumerate(zip(dual.blocks, system.blocks)):
        op = dagger(w) @ v
        gram_trace = float(np.real(np.trace(dagger(op) @ op)))
        assert abs(report.per_index[i] ** 2 - gram_trace) <= 1e-12
    assert abs(report.two_error ** 2 - sum(e * e for e in report.per_index)) <= 1e-12
    assert report.worst_case == max(report.per_index)
    assert report.worst_case <= report.two_error + 1e-15
    assert report.two_error <= np.sqrt(system.m) * report.worst_case + 1e-12


@pytest.mark.parametrize("c", [1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_error_report_matches_the_direct_block_products(c):
    # d = 3 with mixed block sizes, a block taller than the domain (k = 5 > d)
    # and a rank-one block; the duals are the canonical one and random blocks
    rng = np.random.default_rng(415)
    d, sizes = 3, (2, 5, 3, 1)

    def gaussian(k):
        return rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))

    blocks = [gaussian(k) for k in sizes]
    blocks[2] = np.outer(gaussian(3)[:, 0], gaussian(1)[0])
    base = gf.ReconstructionSystem(blocks)
    system = gf.ReconstructionSystem([c * b for b in blocks])
    for candidate in (gf.canonical_dual(base).blocks, [gaussian(k) for k in sizes]):
        dual = gf.ReconstructionSystem([c * w for w in candidate])
        report = gf.error_report(system, dual)
        for got, w, v in zip(report.per_index, dual.blocks, system.blocks):
            direct = frobenius(dagger(w) @ v)
            assert abs(got - direct) <= 1e-12 * direct
        assert report.worst_case == max(report.per_index)


def test_error_report_single_identity_block():
    system = gf.ReconstructionSystem([np.eye(2)])
    report = gf.error_report(system, gf.canonical_dual(system))
    assert abs(report.per_index[0] - np.sqrt(2.0)) <= 1e-12


def test_projective_per_index_identity():
    rng = np.random.default_rng(403)
    system = draw_nonuniform_projective(rng)
    weights = gf.classify(system).weights
    for dual in gf.dual_manifold_sample(system, seed=4030, count=3):
        report = gf.error_report(system, dual)
        for e, v, w in zip(report.per_index, weights, dual.blocks):
            assert abs(e - v * frobenius(w)) <= 1e-9


def test_two_error_optimum_fixture_values():
    system = doubled_fixture()
    best = gf.optimal_dual_two_error(system)
    assert np.allclose(best.blocks[0], [[0, 1, 0], [0, 0, 0.5]], atol=1e-12)
    assert np.allclose(best.blocks[1], [[0.5, 0, 0], [0, 0, 0.25]], atol=1e-12)
    assert gf.verify_dual(best, system).dual_residual <= 1e-10

    report = gf.error_report(system, best)
    assert abs(report.two_error ** 2 - 2.5) <= 1e-12
    canonical = gf.error_report(system, gf.canonical_dual(system))
    assert canonical.two_error > report.two_error + 1e-3


def test_two_error_optimum_is_canonical_for_uniform_weights():
    rng = np.random.default_rng(404)
    for _ in range(10):
        system = draw_uniform_projective(rng)
        best = gf.optimal_dual_two_error(system)
        assert gf.blockwise_distance(best, gf.canonical_dual(system)) <= 1e-10


def test_two_error_difference_identity():
    rng = np.random.default_rng(405)
    system = draw_nonuniform_projective(rng)
    weights = gf.classify(system).weights
    best = gf.optimal_dual_two_error(system)
    floor = gf.error_report(system, best).two_error ** 2
    for dual in gf.dual_manifold_sample(system, seed=4050, count=20):
        gap = gf.error_report(system, dual).two_error ** 2 - floor
        shift = sum(v * v * frobenius(np.asarray(w) - np.asarray(b)) ** 2
                    for v, w, b in zip(weights, dual.blocks, best.blocks))
        assert abs(gap - shift) <= 1e-8 * max(1.0, abs(gap))
        assert gap >= -1e-10


def test_two_error_optimum_preconditions():
    rng = np.random.default_rng(406)
    non_projective = draw_general(rng)
    assert not gf.classify(non_projective).is_projective
    with pytest.raises(PreconditionError):
        gf.optimal_dual_two_error(non_projective)

    flat = gf.ReconstructionSystem([np.array([[1.0, 0.0, 0.0]]),
                                    np.array([[1.0, 0.0, 0.0]])])
    assert gf.classify(flat).is_projective
    with pytest.raises(NotReconstructionSystemError):
        gf.optimal_dual_two_error(flat)


def test_worst_case_condition_values():
    planes = gf.fixtures()["overlapping_planes"]
    value = gf.wce_condition(planes)
    assert value is not None
    assert abs(value - np.sqrt(5.0) / 2.0) <= 1e-12

    protocol = partition_protocol(6, 2, 2, seed=407)
    value = gf.wce_condition(protocol)
    # t copies scaled 1/sqrt(t): weight squared 1/2, block rank 2
    assert value is not None
    assert abs(value - 0.5 * np.sqrt(2.0)) <= 1e-12

    assert gf.wce_condition(doubled_fixture()) is None

    with pytest.raises(PreconditionError):
        gf.wce_condition(draw_general(np.random.default_rng(408)))


def test_worst_case_condition_certifies_canonical():
    # when the criterion value exists it equals the canonical dual's worst case
    rng = np.random.default_rng(409)
    system = draw_protocol(rng)
    value = gf.wce_condition(system)
    canonical = gf.error_report(system, gf.canonical_dual(system))
    assert value is not None
    assert abs(value - canonical.worst_case) <= 1e-10
    for sample in gf.dual_manifold_sample(system, seed=4090, count=50):
        assert gf.error_report(system, sample).worst_case >= value - 1e-9


def test_wce_minimize_fixture_and_determinism():
    system = gf.fixtures()["overlapping_planes"]
    dual_a, value_a = gf.wce_minimize(system, iterations=300)
    dual_b, value_b = gf.wce_minimize(system, iterations=300)
    assert value_a == value_b
    assert gf.blockwise_distance(dual_a, dual_b) == 0.0
    assert abs(value_a - np.sqrt(5.0) / 2.0) <= 1e-9
    assert gf.verify_dual(dual_a, system).dual_residual <= 1e-9


def test_wce_minimize_riesz_returns_the_unique_dual():
    rng = np.random.default_rng(410)
    system = draw_riesz(rng)
    dual, value = gf.wce_minimize(system, iterations=50)
    canonical = gf.canonical_dual(system)
    assert gf.blockwise_distance(dual, canonical) <= 1e-10
    assert abs(value - gf.error_report(system, canonical).worst_case) <= 1e-12


def test_wce_minimize_never_exceeds_canonical():
    rng = np.random.default_rng(411)
    system = random_system(4, (2, 3, 2), rng)
    canonical_worst = gf.error_report(system, gf.canonical_dual(system)).worst_case
    dual, value = gf.wce_minimize(system, iterations=500)
    assert value <= canonical_worst + 1e-12
    assert abs(gf.error_report(system, dual).worst_case - value) <= 1e-12
    assert gf.verify_dual(dual, system).dual_residual <= 1e-8


def test_wce_minimize_validation():
    wide = random_system(2, (3, 2), seed=412)
    assert not gf.classify(wide).is_injective
    with pytest.raises(PreconditionError):
        gf.wce_minimize(wide)
    system = gf.fixtures()["overlapping_planes"]
    with pytest.raises(StructuralError):
        gf.wce_minimize(system, iterations=0)


def scaled(system, c):
    return gf.ReconstructionSystem([c * np.asarray(b) for b in system.blocks])


def test_wce_solve_is_scale_invariant():
    # the error operators W_i^* V_i do not change under V -> cV, W -> W / c
    for seed in range(4):
        system = random_system(5, (2, 2, 3, 1), seed=seed)
        reference = gf.wce_solve(system)
        for c in (1e-3, 1e-1, 1.0, 10.0, 1e3):
            solution = gf.wce_solve(scaled(system, c))
            assert abs(solution.achieved - reference.achieved) <= 1e-7 * reference.achieved
            assert abs(solution.lower_bound - reference.lower_bound) <= 1e-7 * reference.lower_bound
            gap = gf.blockwise_distance(scaled(solution.dual, c), reference.dual)
            assert gap <= 1e-7 * max(frobenius(np.asarray(w)) for w in reference.dual.blocks)


def test_wce_solve_certifies_its_gap_against_sampled_duals():
    for seed in range(4):
        system = random_system(5, (2, 2, 3, 1), seed=seed)
        solution = gf.wce_solve(system)
        canonical = gf.error_report(system, gf.canonical_dual(system)).worst_case
        assert solution.achieved < canonical - 1e-3
        assert solution.achieved == gf.error_report(system, solution.dual).worst_case
        assert gf.verify_dual(solution.dual, system).dual_residual <= 1e-9
        assert solution.lower_bound <= solution.achieved * (1 + 1e-9)
        assert solution.achieved - solution.lower_bound <= 1e-6 * solution.achieved
        assert 1 <= solution.steps <= 5000
        samples = gf.dual_manifold_sample(system, seed=4130 + seed, count=1000)
        lowest = min(gf.error_report(system, s).worst_case for s in samples)
        assert lowest >= solution.lower_bound - 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_wce_solve_closes_slow_ascents_in_few_steps(seed):
    # the multiplicative step alone took 79 to 389 steps on these; seeds 1 and 2 have
    # their optimum on the boundary of the simplex (one weight tends to zero)
    system = random_system(5, (2, 2, 3, 1), seed=seed)
    solution = gf.wce_solve(system)
    canonical = gf.error_report(system, gf.canonical_dual(system)).worst_case
    assert solution.steps <= 60
    assert solution.achieved - solution.lower_bound <= 1e-9 * solution.achieved
    assert gf.verify_dual(solution.dual, system).dual_residual <= 1e-9
    assert solution.achieved <= canonical


@pytest.mark.parametrize("floored", [False, True])
def test_weighted_family_hessian_matches_central_differences(floored):
    # mixed block heights; a weight at the floor stays fixed, so only the Hessian's
    # entries on the other weights are compared
    system = random_system(5, (2, 2, 3, 1), seed=1)
    family = erasure._WeightedDuals(system)
    weights = np.array([0.6, 1.0, 0.45, 0.3])
    if floored:
        weights[3] = erasure._WEIGHT_FLOOR
    _, errors, pinv = family.solve(weights)
    free = np.flatnonzero(weights >= erasure._FACE_FLOOR)
    assert free.size == system.m - floored
    hessian = family.hessian(weights, errors, pinv)[np.ix_(free, free)]
    scale = np.max(np.abs(hessian))
    assert np.max(np.abs(hessian - hessian.T)) <= 1e-12 * scale

    def f(shift):
        return family.solve(weights + shift)[0]

    h = 1e-4
    steps = h * np.eye(system.m)
    for a, i in enumerate(free):
        assert abs((f(steps[i]) - f(-steps[i])) / (2 * h) - errors[i]) <= 1e-7 * errors[i]
        for b, j in enumerate(free):
            central = (f(steps[i] + steps[j]) - f(steps[i] - steps[j])
                       - f(steps[j] - steps[i]) + f(-steps[i] - steps[j])) / (4 * h * h)
            assert abs(central - hessian[a, b]) <= 1e-6 * scale


def test_wce_solve_unique_dual_has_zero_gap():
    system = draw_riesz(np.random.default_rng(414))
    solution = gf.wce_solve(system)
    assert solution.steps == 0
    assert solution.lower_bound == solution.achieved
    assert gf.blockwise_distance(solution.dual, gf.canonical_dual(system)) == 0.0


def test_weighted_duals_reject_row_spaces_missing_a_direction():
    flat = gf.ReconstructionSystem([np.array([[1.0, 0.0, 0.0]]),
                                    np.array([[2.0, 0.0, 0.0]])])
    with pytest.raises(NotReconstructionSystemError):
        gf.wce_solve(flat)
    with pytest.raises(NotReconstructionSystemError):
        gf.optimal_dual_two_error(flat)


def test_weighted_duals_of_an_ill_conditioned_system_that_passes_is_rs():
    # lambda_min / lambda_max = 1.21e-9, just above the 1e-9 rule: the block bases
    # U_i = R_i^{-*} V_i are a block-row scaling of T, more ill-conditioned than T
    # itself, so no frame bound may be re-checked on them
    angle = 2.2 * 10 ** -4.5
    system = gf.ReconstructionSystem([np.array([[0.1, 0.0]])] * 100
                                     + [np.array([[np.cos(angle), np.sin(angle)]])])
    shape = gf.classify(system)
    assert shape.is_rs and shape.is_projective
    assert shape.lower_bound / shape.upper_bound == pytest.approx(1.21e-9, rel=1e-6)
    solution = gf.wce_solve(system)
    assert gf.verify_dual(solution.dual, system).dual_residual <= 1e-9
    assert solution.achieved - solution.lower_bound <= 1e-9 * solution.achieved
    two_error = gf.optimal_dual_two_error(system)
    assert gf.verify_dual(two_error, system).dual_residual <= 1e-9
    canonical = gf.canonical_dual(system)
    assert (gf.error_report(system, two_error).two_error
            <= gf.error_report(system, canonical).two_error * (1 + 1e-12))
