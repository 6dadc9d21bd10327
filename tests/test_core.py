"""Core data model: frame operator, analysis/synthesis, classification."""

import dataclasses

import numpy as np
import pytest

import gframes as gf
import gframes.core as core
from gframes._linalg import complex_gaussian, dagger, random_unitary
from gframes.errors import NotReconstructionSystemError, PreconditionError, StructuralError
from gframes.generate import partition_protocol, random_projective, random_system
from helpers import (
    draw_general,
    draw_nonuniform_projective,
    draw_uniform_projective,
    eigen_bounds,
)


def frame_operator_oracle(system):
    """Entrywise triple loop, independent of any matrix product routine."""
    s = np.zeros((system.d, system.d), dtype=np.complex128)
    for block in system.blocks:
        k = block.shape[0]
        for a in range(system.d):
            for b in range(system.d):
                s[a, b] += sum(np.conj(block[r, a]) * block[r, b] for r in range(k))
    return s


def test_frame_operator_matches_entrywise_sum():
    rng = np.random.default_rng(101)
    for _ in range(5):
        system = draw_general(rng)
        s = gf.frame_operator(system)
        assert np.max(np.abs(s - frame_operator_oracle(system))) <= 1e-12
        assert np.array_equal(s, dagger(s))


def test_fixture_frame_operator_is_diagonal():
    system = gf.fixtures()["overlapping_planes"]
    assert np.array_equal(gf.frame_operator(system), np.diag([1.0, 1.0, 2.0]))


def test_analysis_matches_stacked_matrix():
    rng = np.random.default_rng(102)
    system = draw_general(rng)
    stacked = np.vstack([np.asarray(b) for b in system.blocks])
    assert np.array_equal(gf.analysis_matrix(system), stacked)
    x = rng.standard_normal(system.d) + 1j * rng.standard_normal(system.d)
    packets = gf.analysis_apply(system, x)
    assert np.max(np.abs(np.concatenate(packets) - stacked @ x)) <= 1e-13
    y = np.concatenate(packets)
    assert np.max(np.abs(gf.synthesis_apply(system, packets) - dagger(stacked) @ y)) <= 1e-13


def test_fixture_analysis_values():
    system = gf.fixtures()["overlapping_planes"]
    packets = gf.analysis_apply(system, np.array([1.0, 2.0, 3.0]))
    assert np.allclose(packets[0], [2.0, 3.0], atol=1e-15)
    assert np.allclose(packets[1], [1.0, 3.0], atol=1e-15)


def test_frame_inequality_and_operator_composition():
    rng = np.random.default_rng(103)
    system = draw_general(rng)
    s = gf.frame_operator(system)
    info = gf.classify(system)
    for _ in range(20):
        x = rng.standard_normal(system.d) + 1j * rng.standard_normal(system.d)
        energy = float(np.real(np.vdot(x, s @ x)))
        norm_sq = float(np.real(np.vdot(x, x)))
        assert info.lower_bound * norm_sq <= energy + 1e-9 * norm_sq
        assert energy <= info.upper_bound * norm_sq + 1e-9 * norm_sq
        recombined = gf.synthesis_apply(system, gf.analysis_apply(system, x))
        assert np.max(np.abs(recombined - s @ x)) <= 1e-12


def test_rank_characterizes_reconstruction():
    rng = np.random.default_rng(104)
    full = draw_general(rng)
    assert gf.classify(full).is_rs
    assert np.linalg.matrix_rank(gf.analysis_matrix(full)) == full.d

    deficient_blocks = []
    for block in full.blocks:
        damaged = np.array(block)
        damaged[:, -1] = 0.0
        deficient_blocks.append(damaged)
    deficient = gf.ReconstructionSystem(deficient_blocks)
    assert not gf.classify(deficient).is_rs
    assert np.linalg.matrix_rank(gf.analysis_matrix(deficient)) < deficient.d


def test_fixture_classification_flags():
    fixtures = gf.fixtures()

    overlap = gf.classify(fixtures["overlapping_planes"])
    assert overlap.is_rs and overlap.is_injective and overlap.is_projective
    assert overlap.is_uniform and not overlap.is_protocol and not overlap.is_riesz
    assert overlap.weights is not None
    assert np.allclose(overlap.weights, [1.0, 1.0], atol=1e-12)

    plain = gf.classify(fixtures["riesz_without_projective_dual"])
    assert plain.is_rs and plain.is_riesz and plain.is_projective

    scaled = gf.classify(fixtures["riesz_with_projective_dual"])
    assert scaled.is_riesz and scaled.is_projective and not scaled.is_uniform
    assert scaled.weights is not None
    assert np.allclose(sorted(scaled.weights), [1.0, np.sqrt(2.0)], atol=1e-12)

    enlarged = gf.classify(fixtures["redundant_without_projective_dual"])
    assert enlarged.is_rs and enlarged.is_projective and enlarged.is_uniform
    assert not enlarged.is_riesz


def test_zero_block_breaks_injectivity_and_projectivity():
    rng = np.random.default_rng(105)
    block = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    zero = np.zeros((1, 3))
    info = gf.classify(gf.ReconstructionSystem([block, zero]))
    assert not info.is_injective
    assert not info.is_projective


def test_projectivity_survives_left_unitaries():
    rng = np.random.default_rng(106)
    system = draw_nonuniform_projective(rng)
    rotated = []
    for block in system.blocks:
        q, _ = np.linalg.qr(rng.standard_normal((block.shape[0],) * 2)
                            + 1j * rng.standard_normal((block.shape[0],) * 2))
        rotated.append(q @ block)
    before = gf.classify(system)
    after = gf.classify(gf.ReconstructionSystem(rotated))
    assert after.is_projective
    assert np.allclose(after.weights, before.weights, atol=1e-10)


def test_uniformity_flag_tracks_weight_spread():
    rng = np.random.default_rng(107)
    uniform = gf.classify(draw_uniform_projective(rng))
    assert uniform.is_projective and uniform.is_uniform
    spread = gf.classify(draw_nonuniform_projective(rng))
    assert spread.is_projective and not spread.is_uniform


def test_partition_protocol_classification():
    info = gf.classify(partition_protocol(6, 2, 2, seed=108))
    assert info.is_protocol and info.is_uniform and info.is_projective
    assert abs(info.lower_bound - 1.0) <= 1e-12
    assert abs(info.upper_bound - 1.0) <= 1e-12


def test_classification_bounds_are_eigenvalues():
    rng = np.random.default_rng(109)
    system = draw_general(rng)
    info = gf.classify(system)
    low, high = eigen_bounds(gf.frame_operator(system))
    assert abs(info.lower_bound - low) <= 1e-13
    assert abs(info.upper_bound - high) <= 1e-13


def test_signature_and_properties():
    system = gf.fixtures()["riesz_with_projective_dual"]
    assert system.m == 2
    assert system.k == (2, 2)
    assert system.d == 4
    assert system.tr_k == 4
    assert system.signature == gf.RSSignature(m=2, k=(2, 2), d=4)
    assert system.signature.tr_k == 4


def test_systems_of_one_shape_share_a_signature_that_carries_their_layout():
    sizes = (1, 3, 4, 2, 4)
    first, second = random_system(6, sizes, 120), random_projective(6, sizes, 121)
    built = gf.ReconstructionSystem(first.blocks)
    rebuilt = gf.system_from_synthesis(gf.synthesis_matrix(second), sizes)
    signature = first.signature
    dual = gf.canonical_dual(first)
    assert all(s.signature is signature for s in (second, built, rebuilt, dual))
    # the padding mask marks each block's rows of the padded stack, and the slices its rows of T
    rows = signature._rows
    assert not rows.flags.writeable
    assert rows.shape == (5, 4) and rows.sum(axis=1).tolist() == list(sizes)
    assert all(rows[i, :ki].all() and not rows[i, ki:].any() for i, ki in enumerate(sizes))
    assert isinstance(signature._slices, tuple)
    for name in ("_rows", "_slices"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(signature, name, None)
    for system in (first, second):
        for rows_i, block in zip(signature._slices, system.blocks):
            assert np.shares_memory(block, system.analysis)
            assert np.array_equal(system.analysis[rows_i], block)
    # the layout is no field: a signature a user builds is the same value
    assert [f.name for f in dataclasses.fields(gf.RSSignature)] == ["m", "k", "d"]
    user = gf.RSSignature(m=5, k=sizes, d=6)
    assert user is not signature
    assert user == signature and hash(user) == hash(signature)
    assert repr(user) == repr(signature) == "RSSignature(m=5, k=(1, 3, 4, 2, 4), d=6)"
    assert gf.RSSignature(m=5, k=sizes, d=7) != signature


def test_signature_validation():
    with pytest.raises(StructuralError):
        gf.RSSignature(m=2, k=(2,), d=3)
    with pytest.raises(StructuralError):
        gf.RSSignature(m=1, k=(0,), d=3)
    with pytest.raises(StructuralError):
        gf.RSSignature(m=0, k=(), d=3)
    for sizes in ((1.5, 2), (2.0, 2), (True, 2), ("2", 2)):  # none is cut to an integer
        with pytest.raises(StructuralError, match="^signature block sizes k must be integers$"):
            gf.RSSignature(m=2, k=sizes, d=4)
        with pytest.raises(StructuralError, match="^block sizes k must be integers$"):
            gf.system_from_synthesis(np.ones((4, 4)), sizes)
    for m, d, name in ((2, 3.5, "d"), (2, 4.0, "d"), (2, True, "d"), (2, "4", "d"),
                       (2.0, 4, "m"), (True, 4, "m"), (np.float64(2), 4, "m")):
        with pytest.raises(StructuralError, match=f"^signature {name} must be an integer$"):
            gf.RSSignature(m=m, k=(1, 2), d=d)
    signature = gf.RSSignature(m=2, k=(np.int64(1), np.uint8(2)), d=4)
    assert signature.k == (1, 2) and all(type(ki) is int for ki in signature.k)
    signature = gf.RSSignature(m=np.int64(2), k=(1, 2), d=np.uint8(4))
    assert (signature.m, signature.d) == (2, 4)
    assert type(signature.m) is int and type(signature.d) is int


def test_system_validation():
    with pytest.raises(StructuralError):
        gf.ReconstructionSystem([])
    with pytest.raises(StructuralError):
        gf.ReconstructionSystem([np.zeros((2, 3)), np.zeros((2, 4))])
    with pytest.raises(StructuralError):
        gf.ReconstructionSystem([np.zeros(3)])
    with pytest.raises(StructuralError):
        gf.ReconstructionSystem([np.array([[np.nan, 0.0]])])
    with pytest.raises(StructuralError):
        gf.ReconstructionSystem([np.zeros((0, 3))])


def test_blocks_are_read_only():
    system = gf.fixtures()["overlapping_planes"]
    with pytest.raises((ValueError, RuntimeError)):
        system.blocks[0][0, 0] = 5.0


def test_blocks_are_read_only_views_of_the_analysis_matrix():
    rng = np.random.default_rng(112)
    for system in (draw_general(rng), random_projective(7, (3, 1, 2, 4), rng),
                   gf.dual_manifold_sample(draw_general(rng), 1, 2)[1]):
        assert not system.analysis.flags.writeable
        assert system.analysis.shape == (system.tr_k, system.d)
        start = 0
        for block, ki in zip(system.blocks, system.k):
            assert not block.flags.writeable
            assert np.shares_memory(block, system.analysis)
            assert np.array_equal(block, system.analysis[start:start + ki])
            start += ki


def test_system_keeps_its_own_copy_of_the_inputs():
    first = np.array([[1.0, 2.0, 3.0]])
    second = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=np.complex128)
    system = gf.ReconstructionSystem([first, second])
    first[0, 0] = 9.0
    second[1, 2] = 9.0
    assert np.array_equal(system.blocks[0], [[1.0, 2.0, 3.0]])
    assert system.blocks[1][1, 2] == 1.0
    assert not np.shares_memory(system.analysis, second)


def test_validation_errors_name_the_block():
    good = np.eye(2, 3)
    with pytest.raises(StructuralError, match="^block 2 contains non-finite entries$"):
        gf.ReconstructionSystem([good, good, np.array([[0.0, 1.0, np.inf]])])
    with pytest.raises(StructuralError, match="^block 1 contains non-finite entries$"):
        gf.ReconstructionSystem([good, np.array([[0.0, complex(0.0, np.nan), 0.0]]), good])
    with pytest.raises(StructuralError, match=r"^block 1 has 4 columns, expected 3 \(common domain\)$"):
        gf.ReconstructionSystem([good, np.eye(2, 4)])


def test_batched_construction_is_one_at_a_time_and_names_the_block():
    rng = np.random.default_rng(114)
    sizes = (2, 1, 3)
    stack = rng.standard_normal((4, 6, 3)) + 1j * rng.standard_normal((4, 6, 3))
    systems = core._from_analyses(stack.copy(), sizes)
    for system, analysis in zip(systems, stack, strict=True):
        single = core._from_analysis(analysis, sizes)
        assert system.k == single.k and system.signature == single.signature
        assert not system.analysis.flags.writeable and system._scored is None
        for a, b in zip(system.blocks, single.blocks, strict=True):
            assert np.array_equal(a, b)
    # the first non-finite entry in stack order is in row 2 of the second system
    broken = stack.copy()
    broken[2, 3, 1] = np.nan
    broken[1, 2, 0] = np.inf
    with pytest.raises(StructuralError, match="^block 1 contains non-finite entries$"):
        core._from_analyses(broken, sizes)
    with pytest.raises(StructuralError, match="^block 2 contains non-finite entries$"):
        core._from_analysis(broken[2], sizes)


def test_analysis_matrix_is_a_writable_copy():
    rng = np.random.default_rng(113)
    system = draw_general(rng)
    matrix = gf.analysis_matrix(system)
    assert matrix.flags.writeable
    assert np.array_equal(matrix, np.vstack(system.blocks))
    matrix[0, 0] += 1.0
    assert np.array_equal(system.analysis, np.vstack(system.blocks))
    assert not np.array_equal(matrix, system.analysis)


def test_apply_validation():
    system = gf.fixtures()["overlapping_planes"]
    with pytest.raises(StructuralError):
        gf.analysis_apply(system, np.zeros(4))
    with pytest.raises(StructuralError):
        gf.synthesis_apply(system, [np.zeros(2)])
    with pytest.raises(StructuralError):
        gf.synthesis_apply(system, [np.zeros(2), np.zeros(3)])
    # a synthesis matrix is d x K for the given sizes, and the sizes name a block
    for synthesis, shape in ((np.zeros((3, 4)), r"\(3, 4\)"), (np.zeros(3), r"\(3,\)")):
        with pytest.raises(StructuralError,
                           match=rf"^synthesis matrix must have 3 columns, got shape {shape}$"):
            gf.system_from_synthesis(synthesis, (1, 2))
    with pytest.raises(StructuralError, match="^a system needs at least one block$"):
        gf.system_from_synthesis(np.zeros((3, 0)), ())


def test_synthesis_split_round_trip():
    rng = np.random.default_rng(110)
    system = draw_general(rng)
    rebuilt = gf.system_from_synthesis(gf.synthesis_matrix(system), system.k)
    assert rebuilt.signature == system.signature
    for mine, theirs in zip(rebuilt.blocks, system.blocks):
        assert np.max(np.abs(mine - theirs)) <= 1e-15


def test_blockwise_distance():
    rng = np.random.default_rng(111)
    system = draw_general(rng)
    assert gf.blockwise_distance(system, system) == 0.0
    shifted = gf.ReconstructionSystem(
        [np.asarray(b) + (0.5 if i == 0 else 0.0)
         for i, b in enumerate(system.blocks)])
    assert gf.blockwise_distance(system, shifted) > 0.1
    with pytest.raises(StructuralError):
        gf.blockwise_distance(system, random_system(system.d + 1, system.k, rng))


def test_random_projective_honors_requested_weights():
    weights = [0.7, 1.3, 2.0]
    system = random_projective(5, (2, 3, 1), seed=112, weights=weights)
    info = gf.classify(system)
    assert info.is_projective
    assert np.allclose(info.weights, weights, atol=1e-10)


@pytest.mark.parametrize("tolerance, problem", [(0.0, "positive"), (-1.0, "positive"),
                                                (np.nan, "positive"), (np.inf, "finite")])
def test_every_verdict_checks_its_tolerance(tolerance, problem):
    system = gf.fixtures()["riesz_with_projective_dual"]
    for judge in (gf.classify, gf.nearest_projective, gf.riesz_projective_dual_check,
                  lambda s, t: gf.is_weighted_coisometry(s.blocks[0], t),
                  lambda s, t: gf.polar_coisometry(s.blocks[0], t),
                  lambda s, t: gf.verify_dual(s, s, t)):
        with pytest.raises(StructuralError, match=f"^tolerance must be {problem}$"):
            judge(system, tolerance)


@pytest.mark.parametrize("exponent", [2.0, 3.2, 4.4, 5.6, 6.8, 8.0])
def test_one_square_block_is_injective_exactly_when_it_is_rs(exponent):
    # U diag(1, 1/2, 1/kappa) U': both verdicts hold exactly when kappa^-2 > 1e-9, and
    # nearest_projective accepts the block exactly when canonical_dual does
    kappa = 10.0 ** exponent
    for seed in range(5):
        rng = np.random.default_rng(seed)
        block = (random_unitary(rng, 3) * [1.0, 0.5, 1.0 / kappa]) @ random_unitary(rng, 3)
        system = gf.ReconstructionSystem((block,))
        shape = gf.classify(system)
        assert shape.is_injective == shape.is_rs == (kappa ** -2 > 1e-9)
        try:
            gf.nearest_projective(system)
            accepted = True
        except PreconditionError:
            accepted = False
        try:
            gf.canonical_dual(system)
            returned = True
        except NotReconstructionSystemError:
            returned = False
        assert accepted == returned == shape.is_rs


def test_block_sigma_matches_a_per_block_svd():
    # sigma(R_i) from the cached block factor against np.linalg.svd of each V_i: mixed
    # heights, k_i > d, rank-deficient blocks and blocks scaled by 1e-8 and 1e8
    rng = np.random.default_rng(131)
    d = 5
    blocks = [complex_gaussian(rng, (k, d)) for k in (1, 3, 7, 2, 5, 4, 6)]
    blocks[1] = 1e-8 * blocks[1]
    blocks[4] = 1e8 * blocks[4]
    blocks[5] = np.outer(complex_gaussian(rng, (4,)), complex_gaussian(rng, (d,)))  # rank 1
    blocks[6] = 1e8 * blocks[6] @ np.diag([1.0, 1.0, 1.0, 0.0, 0.0])  # rank 3 of 6 rows
    system = gf.ReconstructionSystem(blocks)
    table = core._block_sigma(system)
    assert table.shape == (system.m, max(system.k))
    for row, block in zip(table, blocks):
        reference = np.linalg.svd(block, compute_uv=False)
        assert np.all(row[reference.size:] == 0.0)
        assert np.max(np.abs(row[:reference.size] - reference)) <= 1e-14 * reference[0]
