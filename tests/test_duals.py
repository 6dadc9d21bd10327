"""Canonical dual, dual verification, and the affine family of all duals."""

import numpy as np
import pytest

import gframes as gf
from gframes._linalg import complex_gaussian, dagger, frobenius
from gframes.errors import (
    NotReconstructionSystemError,
    SamplingError,
    StructuralError,
)
from helpers import draw_general, draw_protocol, draw_riesz


def test_canonical_dual_synthesis_is_pseudoinverse():
    rng = np.random.default_rng(301)
    for _ in range(10):
        system = draw_general(rng)
        dual = gf.canonical_dual(system)
        pinv = np.linalg.pinv(gf.analysis_matrix(system))
        assert np.max(np.abs(gf.synthesis_matrix(dual) - pinv)) <= 1e-10


def test_canonical_dual_fixture_values():
    system = gf.fixtures()["overlapping_planes"]
    dual = gf.canonical_dual(system)
    assert np.allclose(dual.blocks[0], [[0, 1, 0], [0, 0, 0.5]], atol=1e-14)
    assert np.allclose(dual.blocks[1], [[1, 0, 0], [0, 0, 0.5]], atol=1e-14)
    report = gf.verify_dual(dual, system)
    assert report.is_dual and report.dual_residual <= 1e-14


def test_canonical_dual_frame_operator_is_inverse():
    rng = np.random.default_rng(302)
    system = draw_general(rng)
    product = gf.frame_operator(gf.canonical_dual(system)) @ gf.frame_operator(system)
    assert np.max(np.abs(product - np.eye(system.d))) <= 1e-9


def test_duals_reconstruct_on_both_sides():
    rng = np.random.default_rng(303)
    system = draw_general(rng)
    duals = [gf.canonical_dual(system)]
    duals += gf.dual_manifold_sample(system, seed=3030, count=3)
    for dual in duals:
        for _ in range(5):
            x = rng.standard_normal(system.d) + 1j * rng.standard_normal(system.d)
            via_dual = gf.synthesis_apply(dual, gf.analysis_apply(system, x))
            via_system = gf.synthesis_apply(system, gf.analysis_apply(dual, x))
            assert np.max(np.abs(via_dual - x)) <= 1e-9
            assert np.max(np.abs(via_system - x)) <= 1e-9


def test_protocol_is_self_dual():
    rng = np.random.default_rng(304)
    system = draw_protocol(rng)
    assert gf.blockwise_distance(gf.canonical_dual(system), system) <= 1e-12


def test_verify_dual_measures_identity_deviation():
    system = gf.fixtures()["overlapping_planes"]
    self_report = gf.verify_dual(system, system)
    expected = frobenius(gf.frame_operator(system) - np.eye(3))
    assert abs(self_report.dual_residual - expected) <= 1e-15
    assert not self_report.is_dual

    omega = gf.fixtures()["overlapping_planes_dual"]
    report = gf.verify_dual(omega, system)
    assert report.dual_residual <= 1e-12
    assert gf.classify(omega).is_projective


def test_verify_dual_rejects_signature_mismatch():
    fixtures = gf.fixtures()
    with pytest.raises(StructuralError):
        gf.verify_dual(fixtures["overlapping_planes"],
                       fixtures["riesz_with_projective_dual"])


def test_manifold_origin_is_canonical():
    rng = np.random.default_rng(305)
    system = draw_general(rng)
    manifold = gf.dual_manifold(system)
    origin = manifold.system_at(np.zeros((system.d, system.tr_k)))
    assert gf.blockwise_distance(origin, gf.canonical_dual(system)) <= 1e-12


def test_manifold_projector_properties():
    rng = np.random.default_rng(306)
    system = draw_general(rng)
    manifold = gf.dual_manifold(system)
    p = manifold.range_complement
    assert np.max(np.abs(p @ p - p)) <= 1e-9
    assert np.max(np.abs(p - dagger(p))) <= 1e-12
    # complement rank is the excess of rows over the space dimension
    assert abs(np.trace(p).real - (system.tr_k - system.d)) <= 1e-8


def test_manifold_points_are_duals():
    rng = np.random.default_rng(307)
    system = draw_general(rng)
    manifold = gf.dual_manifold(system)
    for _ in range(10):
        z = complex_gaussian(rng, (system.d, system.tr_k), 2.0)
        candidate = manifold.system_at(z)
        assert gf.verify_dual(candidate, system).dual_residual <= 1e-9


def test_manifold_parameter_shape_checked():
    system = gf.fixtures()["overlapping_planes"]
    manifold = gf.dual_manifold(system)
    with pytest.raises(StructuralError):
        manifold.synthesis_at(np.zeros((2, 2)))


def test_sampling_is_deterministic_and_valid():
    rng = np.random.default_rng(308)
    system = draw_general(rng)
    first = gf.dual_manifold_sample(system, seed=42, count=4)
    second = gf.dual_manifold_sample(system, seed=42, count=4)
    other = gf.dual_manifold_sample(system, seed=43, count=4)
    assert len(first) == 4
    for a, b in zip(first, second):
        assert gf.blockwise_distance(a, b) == 0.0
    assert any(gf.blockwise_distance(a, b) > 1e-6 for a, b in zip(first, other))
    for sample in first:
        assert gf.verify_dual(sample, system).dual_residual <= 1e-9
        assert gf.classify(sample).is_rs


def test_riesz_systems_have_a_unique_dual():
    rng = np.random.default_rng(309)
    for _ in range(5):
        system = draw_riesz(rng)
        canonical = gf.canonical_dual(system)
        manifold = gf.dual_manifold(system)
        assert np.max(np.abs(manifold.range_complement)) <= 1e-9
        for sample in gf.dual_manifold_sample(system, seed=3090, count=5, scale=10.0):
            assert gf.blockwise_distance(sample, canonical) <= 1e-9


def test_degenerate_systems_are_rejected():
    flat = gf.ReconstructionSystem([np.array([[1.0, 0.0, 0.0]]),
                                    np.array([[2.0, 0.0, 0.0]])])
    with pytest.raises(NotReconstructionSystemError):
        gf.canonical_dual(flat)
    with pytest.raises(NotReconstructionSystemError):
        gf.dual_manifold(flat)
    with pytest.raises(NotReconstructionSystemError):
        gf.inverse_frame_operator(flat)


def test_sample_count_validation():
    system = gf.fixtures()["overlapping_planes"]
    with pytest.raises(StructuralError):
        gf.dual_manifold_sample(system, seed=0, count=0)


def test_sampling_error_when_every_draw_degenerates():
    # an enormous chart offset pushes lambda_max ~ scale^2 while interlacing
    # pins lambda_min at O(1), so the relative conditioning check rejects
    # every draw
    system = gf.fixtures()["overlapping_planes"]
    with pytest.raises(SamplingError):
        gf.dual_manifold_sample(system, seed=0, count=1, scale=1e12,
                                max_redraws=5)


@pytest.mark.parametrize("d, k", [(6, (2, 5, 3, 1, 5)), (4, (1, 1, 3, 2)), (5, (2, 2, 2))])
def test_stacked_verify_dual_matches_the_blockwise_sum(d, k):
    rng = np.random.default_rng(309)
    system = gf.ReconstructionSystem([complex_gaussian(rng, (ki, d)) for ki in k])
    for candidate in (gf.canonical_dual(system),
                      gf.ReconstructionSystem([complex_gaussian(rng, (ki, d)) for ki in k])):
        total = sum(dagger(w) @ v for w, v in zip(candidate.blocks, system.blocks))
        blockwise = frobenius(total - np.eye(d))
        scale = frobenius(candidate.analysis) * frobenius(system.analysis)
        assert abs(gf.verify_dual(candidate, system).dual_residual - blockwise) <= 1e-12 * scale
