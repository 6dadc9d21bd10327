"""Erasure error model, the two-error optimum, and worst-case minimization."""

import numpy as np
import pytest

import gframes as gf
import gframes.core as core
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
                                ([-1], 3, r"mask indices must lie in \[0, 3\)"),
                                ([1], 2.5, "m must be an integer"),
                                ([1], 2.0, "m must be an integer"),
                                ([1], True, "m must be an integer"),
                                ([1], np.float64(3.0), "m must be an integer")):
        with pytest.raises(StructuralError, match=f"^{message}$"):
            gf.ErasureMask(indices, m)


@pytest.mark.parametrize("indices", [True, np.True_, 1.0, 1.5, [True], {1.5}, [np.array(True)],
                                     np.array(1.5)],
                         ids=["bool", "numpy_bool", "integral_float", "float", "bool_list",
                              "float_set", "bool_array", "zero_dimensional_float_array"])
def test_mask_indices_that_are_not_integers_are_refused(indices):
    with pytest.raises(StructuralError, match="^mask indices must be integers$"):
        gf.ErasureMask(indices, 3)


def test_mask_takes_numpy_integers():
    for indices in (np.int64(1), np.array(1), np.array([1]), [np.uint8(1)], (np.array(1),)):
        mask = gf.ErasureMask(indices, 3)
        assert mask.dropped == (1,) and type(mask.dropped[0]) is int
    assert type(gf.ErasureMask([1], np.int64(3)).m) is int


@pytest.mark.parametrize("indices", [None, object()], ids=["none", "object"])
def test_mask_indices_that_are_not_a_collection_are_refused(indices):
    with pytest.raises(StructuralError, match="^mask indices must be a collection of integers$"):
        gf.ErasureMask(indices, 3)


def test_a_failed_precondition_is_reported_before_the_rs_rule():
    # a rank-1 block of two rows beside one row over C^4: not injective, not projective,
    # K = 3 != d, and the block Gram sum is singular
    blocks = ([[1, 0, 0, 0], [2, 0, 0, 0]], [[0, 1, 0, 0]])
    for op, message in (
            (gf.optimal_dual_two_error, "two-error optimization needs an injective system"),
            (gf.wce_solve, "worst-case optimization needs an injective system"),
            (gf.wce_condition, "the worst-case criterion applies to projective systems"),
            (gf.riesz_projective_dual_check,
             "the criterion applies when total block dimension equals d")):
        system = gf.ReconstructionSystem(blocks)
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            op(system)
        assert "_r_inverse" not in vars(system)
    system = gf.ReconstructionSystem(blocks)
    with pytest.raises(NotReconstructionSystemError, match="^block Gram sum is singular"):
        gf.canonical_dual(system)
    assert "_r_inverse" not in vars(system)  # a system that fails the rule holds no R^{-1}


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
    with pytest.raises(StructuralError, match="^dual and system signatures differ$"):
        gf.error_report(system, other)
    with pytest.raises(StructuralError):
        gf.blind_reconstruct(system, dual, packets, gf.ErasureMask(0, 3))
    with pytest.raises(StructuralError):
        gf.blind_reconstruct(system, dual, packets[:1], gf.ErasureMask(0, 2))
    with pytest.raises(StructuralError):
        gf.blind_reconstruct(system, dual, [packets[0], np.zeros(3)], gf.ErasureMask(0, 2))


def kept_block_sum(dual, packets, mask):
    """Blind reconstruction as a loop over the kept blocks alone."""
    out = np.zeros(dual.d, dtype=np.complex128)
    for i in mask.kept:
        out += dagger(dual.blocks[i]) @ np.asarray(packets[i], dtype=np.complex128)
    return out


def test_blind_reconstruction_is_the_kept_block_sum_bit_for_bit():
    system = random_system(12, (1, 3, 4, 2, 4), 7)
    dual = gf.canonical_dual(system)
    rng = np.random.default_rng(403)
    packets = gf.analysis_apply(system, rng.standard_normal(12) + 1j * rng.standard_normal(12))
    # bytes, not array_equal, so that a -0 where the loop holds +0 would show
    masks = [frozenset(), *({j} for j in range(system.m)), range(system.m)]
    for lost in masks:
        mask = gf.ErasureMask(lost, system.m)
        rebuilt = gf.blind_reconstruct(system, dual, packets, mask)
        assert rebuilt.tobytes() == kept_block_sum(dual, packets, mask).tobytes()
        if lost:  # the lost slot is never read
            holes = [None if i in lost else y for i, y in enumerate(packets)]
            assert np.array_equal(gf.blind_reconstruct(system, dual, holes, mask), rebuilt)
    with pytest.raises(StructuralError, match="^expected 5 packets, got 6$"):
        gf.blind_reconstruct(system, dual, [*packets, packets[0]], gf.ErasureMask(0, 5))


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


@pytest.mark.parametrize("k", [(3,) * 5, (2, 5, 3, 1, 4)], ids=["uniform", "mixed"])
def test_error_report_is_the_stacked_norm_bit_for_bit(k):
    # the inline norms and aggregates are those of np.linalg.norm and np.sqrt, not
    # merely close to them
    system = random_system(4, k, 416)
    factor = system._block_factor
    duals = [gf.canonical_dual(system), *gf.dual_manifold_sample(system, 417, 5)]
    for dual in duals:
        report = gf.error_report(system, dual)
        norms = np.linalg.norm(factor @ core._block_stack(dual), axis=(1, 2))
        assert all(got == float(expected) for got, expected in zip(report.per_index, norms,
                                                                    strict=True))
        assert report.two_error == float(np.sqrt(sum(e * e for e in report.per_index)))
        assert report.worst_case == max(report.per_index)


def test_error_report_reads_the_sampler_scores_only_against_the_sampled_system(monkeypatch):
    system = random_system(5, (2, 3, 1, 4), 420)
    samples = gf.dual_manifold_sample(system, 421, 70)
    computed = []
    scores = core._scores

    def counted(owner, stacks):
        computed.append(owner)
        return scores(owner, stacks)

    monkeypatch.setattr(core, "_scores", counted)
    memoized = [gf.error_report(system, sample) for sample in samples]
    assert computed == []
    # a copy with equal blocks, or another system of the same signature, is not the
    # sampled system: the errors are computed, and agree with the sampler's bits
    copy = gf.ReconstructionSystem(system.blocks)
    doubled = gf.ReconstructionSystem([2.0 * b for b in system.blocks])
    for sample, memo in zip(samples, memoized, strict=True):
        report = gf.error_report(copy, sample)
        assert np.array_equal(report.per_index, memo.per_index) and report == memo
        report = gf.error_report(doubled, sample)
        for got, w, v in zip(report.per_index, sample.blocks, doubled.blocks, strict=True):
            direct = frobenius(dagger(w) @ v)
            assert abs(got - direct) <= 1e-12 * direct
    assert computed == [copy, doubled] * len(samples)


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
    # two_error(W)^2 - two_error(B)^2 = sum_i ||V_i^* (W_i - B_i)||^2, which reads
    # sum_i v_i^2 ||W_i - B_i||^2 on a projective system
    projective = draw_nonuniform_projective(np.random.default_rng(405))
    mixed = random_system(7, (2, 3, 1, 2, 3), seed=4051)
    assert not gf.classify(mixed).is_projective
    for system in (projective, mixed):
        weights = gf.classify(system).weights  # None unless projective
        best = gf.optimal_dual_two_error(system)
        floor = gf.error_report(system, best).two_error ** 2
        for dual in gf.dual_manifold_sample(system, seed=4050, count=20):
            gap = gf.error_report(system, dual).two_error ** 2 - floor
            moves = [np.asarray(w) - np.asarray(b) for w, b in zip(dual.blocks, best.blocks)]
            shifts = [sum(frobenius(dagger(v) @ x) ** 2 for v, x in zip(system.blocks, moves))]
            if weights is not None:
                shifts.append(sum(v * v * frobenius(x) ** 2 for v, x in zip(weights, moves)))
            for shift in shifts:
                assert abs(gap - shift) <= 1e-8 * max(1.0, abs(gap))
            assert gap >= -1e-10


def orthonormal_rows(block):
    """Orthonormal rows spanning the row space of a full-row-rank block."""
    return np.linalg.svd(block)[2][:block.shape[0]]


@pytest.mark.parametrize("seed", range(8))
def test_two_error_optimum_of_non_projective_systems(seed):
    # U_i spans the row space of V_i, D = sum_i U_i^* U_i = sum_i P_i; the optimum is
    # B_i = (V_i V_i^*)^{-1} V_i U_i^* C_i with C the canonical dual of the U_i
    system = random_system(7, (2, 3, 1, 2, 3), seed)
    assert not gf.classify(system).is_projective
    best = gf.optimal_dual_two_error(system)
    assert gf.verify_dual(best, system).dual_residual <= 1e-9

    bases = [orthonormal_rows(np.asarray(v)) for v in system.blocks]
    projections = sum(dagger(u) @ u for u in bases)
    trace = float(np.real(np.trace(np.linalg.inv(projections))))
    floor = gf.error_report(system, best).two_error
    assert abs(floor ** 2 - trace) <= 1e-12 * trace

    normalized = gf.canonical_dual(gf.ReconstructionSystem(bases))
    for v, u, c, b in zip(system.blocks, bases, normalized.blocks, best.blocks):
        v = np.asarray(v)
        expected = np.linalg.solve(v @ dagger(v), v @ dagger(u) @ np.asarray(c))
        assert np.max(np.abs(np.asarray(b) - expected)) <= 1e-10 * np.max(np.abs(expected))

    canonical = gf.error_report(system, gf.canonical_dual(system)).two_error
    assert floor < canonical
    samples = gf.dual_manifold_sample(system, seed=4060 + seed, count=1000)
    assert min(gf.error_report(system, s).two_error for s in samples) >= floor - 1e-9


def test_two_error_optimum_preconditions():
    rng = np.random.default_rng(406)
    non_projective = draw_general(rng)
    assert not gf.classify(non_projective).is_projective
    best = gf.optimal_dual_two_error(non_projective)
    assert gf.verify_dual(best, non_projective).dual_residual <= 1e-9

    wide = random_system(2, (3, 2), seed=802)
    assert not gf.classify(wide).is_injective
    with pytest.raises(PreconditionError,
                       match="^two-error optimization needs an injective system$"):
        gf.optimal_dual_two_error(wide)

    flat = gf.ReconstructionSystem([np.array([[1.0, 0.0, 0.0]]),
                                    np.array([[1.0, 0.0, 0.0]])])
    assert gf.classify(flat).is_injective
    with pytest.raises(NotReconstructionSystemError, match="^block Gram sum is singular"):
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
    for iterations in (2.5, 3.0, True, "3"):  # none is cut to an integer
        with pytest.raises(StructuralError, match="^iterations must be an integer$"):
            gf.wce_minimize(system, iterations=iterations)


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
    with pytest.raises(NotReconstructionSystemError, match="^block Gram sum is singular"):
        gf.wce_solve(flat)
    with pytest.raises(NotReconstructionSystemError, match="^block Gram sum is singular"):
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

