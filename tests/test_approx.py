"""Polar factors and the nearest projective system."""

import numpy as np
import pytest

import gframes as gf
from gframes._linalg import complex_gaussian, dagger, frobenius, null_space, random_unitary
from gframes.errors import PreconditionError, StructuralError
from gframes.generate import random_coisometry, random_projective, random_system
from helpers import draw_injective, draw_nonuniform_projective


def test_polar_factors_reconstruct_the_block():
    rng = np.random.default_rng(601)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        d = int(rng.integers(k, k + 5))
        block = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
        factors = gf.polar_coisometry(block)
        u, p = factors.coisometry, factors.positive
        assert np.max(np.abs(u @ p - block)) <= 1e-10
        assert np.max(np.abs(u @ dagger(u) - np.eye(k))) <= 1e-10
        assert np.max(np.abs(p - dagger(p))) <= 1e-12
        assert np.min(np.linalg.eigvalsh(p)) >= -1e-10

        # same factorization read on the adjoint side
        left, sigma, _ = np.linalg.svd(block, full_matrices=False)
        adjoint_modulus = left @ np.diag(sigma) @ dagger(left)
        assert np.max(np.abs(dagger(block) - dagger(u) @ adjoint_modulus)) <= 1e-10


def test_polar_of_scaled_coisometry_is_identity_like():
    rng = np.random.default_rng(602)
    u = random_coisometry(rng, 3, 6)
    factors = gf.polar_coisometry(2.5 * u)
    assert np.max(np.abs(factors.coisometry - u)) <= 1e-10
    assert np.max(np.abs(factors.positive - 2.5 * dagger(u) @ u)) <= 1e-10


def test_polar_coisometry_is_the_closest():
    rng = np.random.default_rng(603)
    block = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    best = gf.polar_coisometry(block).coisometry
    mine = frobenius(block - best)
    for _ in range(500):
        other = random_coisometry(rng, 3, 7)
        assert mine <= frobenius(block - other) + 1e-12


def test_polar_kernel_matches_block_kernel():
    rng = np.random.default_rng(604)
    block = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    u = gf.polar_coisometry(block).coisometry
    kernel = null_space(block, 1e-9)
    assert np.max(np.abs(u @ kernel)) <= 1e-9


def test_polar_rejects_bad_blocks():
    with pytest.raises(PreconditionError):
        gf.polar_coisometry(np.zeros((3, 2)))
    with pytest.raises(PreconditionError):
        gf.polar_coisometry(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(PreconditionError):
        gf.polar_coisometry(np.zeros(3))
    for empty in ((0, 3), (0, 0)):
        with pytest.raises(PreconditionError, match="^block must have at least one row$"):
            gf.polar_coisometry(np.zeros(empty))
    # non-finite entries are refused before the SVD, in the constructor's words
    for bad in ([[np.nan, 0.0]], [[np.inf, 1.0]]):
        with pytest.raises(StructuralError, match="^block contains non-finite entries$"):
            gf.polar_coisometry(bad)


def test_weighted_coisometry_detection():
    rng = np.random.default_rng(605)
    u = random_coisometry(rng, 2, 5)
    assert gf.is_weighted_coisometry(2.0 * u)
    assert gf.is_weighted_coisometry(u)
    assert not gf.is_weighted_coisometry(np.diag([2.0, 4.0]))
    assert not gf.is_weighted_coisometry(np.zeros((2, 3)))
    assert not gf.is_weighted_coisometry(np.ones((3, 2)))
    assert not gf.is_weighted_coisometry(np.zeros((0, 3)))
    assert not gf.is_weighted_coisometry([[np.nan, 0.0]])
    assert not gf.is_weighted_coisometry([[np.inf, 1.0]])
    canonical = gf.canonical_dual(gf.fixtures()["overlapping_planes"])
    assert not gf.is_weighted_coisometry(canonical.blocks[0])


def test_nearest_projective_fixes_projective_input():
    rng = np.random.default_rng(606)
    system = draw_nonuniform_projective(rng)
    approx, distance = gf.nearest_projective(system)
    assert distance <= 1e-10
    assert gf.blockwise_distance(approx, system) <= 1e-9


def test_nearest_projective_frozen_example():
    system = gf.ReconstructionSystem([np.diag([2.0, 4.0])])
    approx, distance = gf.nearest_projective(system)
    assert np.allclose(approx.blocks[0], 3.0 * np.eye(2), atol=1e-12)
    assert abs(distance - np.sqrt(2.0)) <= 1e-12


def test_nearest_projective_distance_formula():
    rng = np.random.default_rng(607)
    system = draw_injective(rng)
    approx, distance = gf.nearest_projective(system)
    info = gf.classify(approx)
    assert info.is_projective

    total = 0.0
    for block, weight in zip(system.blocks, info.weights):
        sigma = np.linalg.svd(np.asarray(block), compute_uv=False)
        assert abs(weight - float(np.mean(sigma))) <= 1e-10
        total += float(np.sum((sigma - np.mean(sigma)) ** 2))
    assert abs(distance - np.sqrt(total)) <= 1e-10

    stacked_gap = frobenius(gf.analysis_matrix(system) - gf.analysis_matrix(approx))
    assert abs(distance - stacked_gap) <= 1e-10


def test_nearest_projective_beats_sampled_competitors():
    rng = np.random.default_rng(608)
    system = draw_injective(rng)
    _, distance = gf.nearest_projective(system)
    for _ in range(200):
        competitor = random_projective(system.d, system.k, rng)
        gap = np.sqrt(sum(frobenius(np.asarray(a) - np.asarray(b)) ** 2
                          for a, b in zip(system.blocks, competitor.blocks)))
        assert gap >= distance - 1e-9


def test_weight_perturbation_worsens_the_fit():
    rng = np.random.default_rng(609)
    system = draw_injective(rng)
    approx, distance = gf.nearest_projective(system)
    info = gf.classify(approx)
    for i in range(system.m):
        for sign in (1.0, -1.0):
            blocks = [np.asarray(b, dtype=np.complex128).copy() for b in approx.blocks]
            blocks[i] *= (info.weights[i] + sign * 1e-4) / info.weights[i]
            gap = np.sqrt(sum(frobenius(np.asarray(a) - b) ** 2
                              for a, b in zip(system.blocks, blocks)))
            assert gap > distance


def test_nearest_projective_requires_injectivity():
    wide = random_system(2, (3, 2), seed=610)
    with pytest.raises(PreconditionError):
        gf.nearest_projective(wide)


def test_nearest_projective_precondition_messages():
    system = random_system(4, (2, 2, 1), seed=611)
    with pytest.raises(StructuralError, match="^tolerance must be positive$"):
        gf.nearest_projective(system, tolerance=0)
    # the second block is 2 x 4 but has rank one
    deficient = gf.ReconstructionSystem([np.eye(4)[:2], np.array([[1.0, 2.0, 0.0, 0.0],
                                                                  [2.0, 4.0, 0.0, 0.0]])])
    with pytest.raises(PreconditionError,
                       match="^projective approximation needs an injective system$"):
        gf.nearest_projective(deficient)


def polar_reference(system):
    """Blockwise ``alpha_i U_i`` from ``polar_coisometry``, one block at a time."""
    blocks = []
    for block in system.blocks:
        sigma = np.linalg.svd(np.asarray(block), compute_uv=False)
        blocks.append(float(np.mean(sigma)) * gf.polar_coisometry(block).coisometry)
    return blocks


MIXED = random_system(6, (2, 5, 3, 1, 5), seed=612)
UNIFORM = random_system(8, (3,) * 5, seed=613)


@pytest.mark.parametrize("system", [MIXED, UNIFORM], ids=["mixed", "uniform"])
def test_stacked_nearest_projective_matches_blockwise_polar(system):
    approx, distance = gf.nearest_projective(system)
    assert approx.k == system.k
    for block, expected in zip(approx.blocks, polar_reference(system)):
        assert frobenius(block - expected) <= 1e-12 * frobenius(expected)
    direct = frobenius(gf.analysis_matrix(system) - gf.analysis_matrix(approx))
    assert abs(distance - direct) <= 1e-12 * direct


def verdict(system):
    try:
        approx, _ = gf.nearest_projective(system)
    except PreconditionError:
        return None
    shape = gf.classify(approx)
    return shape.is_projective, shape.is_uniform, shape.is_injective


@pytest.mark.parametrize("system", [
    MIXED,
    UNIFORM,
    random_projective(6, (2, 3, 3), seed=614, weights=[1.0, 1.0, 1.0]),
    gf.ReconstructionSystem([np.eye(4)[:2], np.array([[1.0, 2.0, 0.0, 0.0],
                                                      [2.0, 4.0, 0.0, 0.0]])]),
    random_system(2, (3, 2), seed=610),
], ids=["mixed", "uniform", "uniform-projective", "rank-deficient", "wide"])
def test_nearest_projective_verdicts_do_not_depend_on_scale(system):
    reference = verdict(system)
    approx = gf.nearest_projective(system)[0] if reference is not None else None
    for c in (10.0 ** j for j in range(-8, 9)):
        scaled = gf.ReconstructionSystem(tuple(c * np.asarray(b) for b in system.blocks))
        assert verdict(scaled) == reference
        if approx is not None:
            result = gf.analysis_matrix(gf.nearest_projective(scaled)[0])
            expected = c * gf.analysis_matrix(approx)
            assert frobenius(result - expected) <= 1e-12 * frobenius(expected)


def conditioned_block(rng, k, d, kappa):
    """A ``k x d`` block with singular values spaced geometrically from 1 to ``1 / kappa``."""
    return (random_unitary(rng, k) * np.geomspace(1.0, 1.0 / kappa, k)) @ random_unitary(rng, d)[:k]


def test_nearest_projective_refuses_exactly_what_classify_calls_not_injective():
    # kappa^2 = 1 / tolerance is the injectivity threshold of a block
    edge = np.sqrt(1e9)
    ladder = [1e4, 2e4, 3e4, 1e5, 1e6] + [edge * (1 + delta)
                                          for delta in (-1e-3, -1e-6, 0.0, 1e-6, 1e-3)]
    rng = np.random.default_rng(615)
    refused = []
    for kappa in ladder:
        blocks = [complex_gaussian(rng, (2, 6)), conditioned_block(rng, 3, 6, kappa),
                  complex_gaussian(rng, (4, 6)), complex_gaussian(rng, (1, 6))]
        system = gf.ReconstructionSystem(blocks)
        try:
            gf.nearest_projective(system)
        except PreconditionError:
            refused.append(True)
        else:
            refused.append(False)
        assert refused[-1] == (not gf.classify(system).is_injective)
    assert any(refused) and not all(refused)


@pytest.mark.parametrize("seed", range(3))
def test_nearest_projective_of_mixed_heights_with_padding(seed):
    # a square block, rows of one and blocks of every height in between
    system = random_system(5, (5, 1, 3, 1, 2, 4), seed=616 + seed)
    approx, distance = gf.nearest_projective(system)
    assert approx.k == system.k
    for block, expected in zip(approx.blocks, polar_reference(system)):
        assert frobenius(block - expected) <= 1e-12 * frobenius(expected)
    direct = frobenius(gf.analysis_matrix(system) - gf.analysis_matrix(approx))
    assert abs(distance - direct) <= 1e-12 * direct
    assert gf.classify(approx).is_projective


def test_polar_factors_of_ill_conditioned_blocks_are_coisometries_to_kappa_eps():
    rng = np.random.default_rng(619)
    kappas = (1.0, 1e1, 1e2, 1e3, 1e4, 3e4)
    system = gf.ReconstructionSystem([conditioned_block(rng, 4, 9, kappa) for kappa in kappas])
    approx, _ = gf.nearest_projective(system)
    for block, reference, kappa in zip(approx.blocks, system.blocks, kappas):
        alpha = float(np.mean(np.linalg.svd(reference, compute_uv=False)))
        coisometry = block / alpha
        miss = np.linalg.norm(coisometry @ dagger(coisometry) - np.eye(4), 2)
        assert miss <= 32 * kappa * np.finfo(float).eps


@pytest.mark.parametrize("seed", range(3))
def test_nearest_projective_is_projective_at_a_tight_tolerance(seed):
    # a kappa = 1e4 block is injective at 1e-12, where a kappa eps miss of U U^* from I
    # would exceed the flatness bound
    tolerance = 1e-12
    rng = np.random.default_rng(620 + seed)
    blocks = [conditioned_block(rng, 4, 9, 1e4), complex_gaussian(rng, (3, 9)),
              conditioned_block(rng, 2, 9, 1e3)]
    system = gf.ReconstructionSystem(blocks)
    approx, _ = gf.nearest_projective(system, tolerance)
    assert gf.classify(approx, tolerance).is_projective
    for block in approx.blocks:
        gram = block @ dagger(block)
        scale = np.trace(gram).real / len(gram)
        assert np.linalg.norm(gram / scale - np.eye(len(gram)), 2) <= 32 * np.finfo(float).eps
