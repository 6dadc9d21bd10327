"""Batched samplers against one-at-a-time references: the same draws, bit for bit.

The acceptance tests judge the optimal duals and projective approximations
against fixed sets of sampled competitors.  These references rebuild each
sampler the way it draws conceptually, one block or one dual at a time, so
any batching must keep every competitor identical.
"""

import numpy as np
import pytest

import gframes as gf
import gframes.core as core
import gframes.duals as duals
import gframes.generate as generate
from gframes._linalg import (
    complex_gaussian,
    dagger,
    hermitian_part,
    random_unitary,
    singular_values,
)
from gframes.errors import SamplingError, StructuralError
from gframes.generate import (
    commuting_projective,
    partition_protocol,
    random_coisometry,
    random_projective,
    random_riesz,
    random_system,
)
from helpers import eigen_bounds

MIXED_SIZES = [(3, 1, 4, 2), (1, 1, 1, 1, 1, 1, 1), (4, 4, 4), (2, 3), (1, 4, 1, 4, 2)]
# Drawn over C^d with d = max(max(k), 5), each has blocks with k_i = d.
FULL_WIDTH_SIZES = [(5, 5, 1), (6, 2, 6, 3)]
# Conditioning floors near the median of lambda_min / lambda_max over
# each shape's projective draws, so that about half of the attempts are rejected.
REJECTING_FLOORS = {(3, 1, 4, 2): 0.17, (1, 1, 1, 1, 1, 1, 1): 0.036, (4, 4, 4): 0.33,
                    (2, 3): 0.022, (1, 4, 1, 4, 2): 0.22, (5, 5, 1): 0.68, (6, 2, 6, 3): 0.5}


def gram_loop(system):
    """Block Gram sum added block by block in order, then symmetrized."""
    total = np.zeros((system.d, system.d), dtype=np.complex128)
    for block in system.blocks:
        total += dagger(block) @ block
    return hermitian_part(total)


def projective_reference(d, k, seed, weights=None, conditioning=1e-3):
    """``(system, attempts)`` drawn one coisometry at a time."""
    rng = np.random.default_rng(seed)
    for attempt in range(1, 101):
        if weights is None:
            scales = 0.5 + 1.5 * rng.random(len(k))
        else:
            scales = np.asarray(weights, dtype=float)
        system = gf.ReconstructionSystem(
            tuple(v * random_coisometry(rng, ki, d) for v, ki in zip(scales, k)))
        lower, upper = eigen_bounds(gram_loop(system))
        if lower > conditioning * upper:
            return system, attempt
    raise AssertionError("reference found no well-conditioned system")


def dual_sample_reference(system, seed, count, scale=1.0, tolerance=1e-9, max_redraws=100):
    """``(samples, attempts)`` drawn one dual at a time, with chart parameters of
    standard deviation ``scale / sigma_max(T)``."""
    manifold = gf.dual_manifold(system, tolerance)
    deviation = scale / np.sqrt(gf.classify(system).upper_bound)
    rng = np.random.default_rng(seed)
    samples, attempts = [], 0
    for _ in range(count):
        for _ in range(max_redraws):
            attempts += 1
            candidate = manifold.system_at(
                complex_gaussian(rng, (system.d, system.tr_k), deviation))
            lower, upper = eigen_bounds(gram_loop(candidate))
            if lower > tolerance * upper:
                samples.append(candidate)
                break
        else:
            raise SamplingError(f"no usable dual after {max_redraws} redraws")
    return samples, attempts


def riesz_reference(k, seed, conditioning=1e-2):
    d = sum(k)
    rng = np.random.default_rng(seed)
    for _ in range(100):
        square = complex_gaussian(rng, (d, d))
        sigma = singular_values(square)
        if float(sigma[-1]) > conditioning * float(sigma[0]):
            blocks, offset = [], 0
            for ki in k:
                blocks.append(square[offset:offset + ki])
                offset += ki
            return gf.ReconstructionSystem(tuple(blocks))
    raise AssertionError("reference found no well-conditioned square matrix")


def protocol_reference(d, block_dim, copies, seed):
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(copies):
        unitary = random_unitary(rng, d)
        for start in range(0, d, block_dim):
            blocks.append(dagger(unitary[:, start:start + block_dim]) / np.sqrt(copies))
    return gf.ReconstructionSystem(tuple(blocks))


def product_table_reference(a, b):
    mb = b.order
    table = np.zeros((a.order * mb, a.order * mb), dtype=int)
    for ga in range(a.order):
        for gb in range(mb):
            for ha in range(a.order):
                for hb in range(mb):
                    table[ga * mb + gb, ha * mb + hb] = a.table[ga, ha] * mb + b.table[gb, hb]
    return table


def assert_same_blocks(first, second):
    assert first.k == second.k and first.d == second.d
    for a, b in zip(first.blocks, second.blocks):
        assert np.array_equal(a, b)


def test_frame_operator_is_the_block_ordered_sum():
    rng = np.random.default_rng(401)
    for k in MIXED_SIZES:
        system = random_system(max(k) + 2, k, rng)
        assert np.array_equal(gf.frame_operator(system), gram_loop(system))


@pytest.mark.parametrize("k", MIXED_SIZES + FULL_WIDTH_SIZES)
def test_random_projective_matches_blockwise_draws(k):
    d = max(max(k), 5)
    for seed in (0, 1, 17, 2024):
        assert_same_blocks(random_projective(d, k, seed), projective_reference(d, k, seed)[0])
    weights = [0.6 + 0.3 * i for i in range(len(k))]
    assert_same_blocks(random_projective(d, k, 5, weights=weights),
                       projective_reference(d, k, 5, weights=weights)[0])

    # rejected attempts consume the same draws: the same systems from one
    # generator, and the same generator state afterwards
    floor = REJECTING_FLOORS[k]
    mine, theirs = np.random.default_rng(409), np.random.default_rng(409)
    accepted, attempts = 8, 0
    for _ in range(accepted):
        reference, tries = projective_reference(d, k, theirs, conditioning=floor)
        assert_same_blocks(random_projective(d, k, mine, conditioning=floor), reference)
        attempts += tries
    assert attempts - accepted >= attempts / 3
    assert np.array_equal(mine.standard_normal(4), theirs.standard_normal(4))


def test_random_projective_with_generator_seed():
    mine, theirs = np.random.default_rng(402), np.random.default_rng(402)
    for k in MIXED_SIZES:
        d = max(k) + 1
        assert_same_blocks(random_projective(d, k, mine), projective_reference(d, k, theirs)[0])
    # both consumed the generator identically
    assert np.array_equal(mine.standard_normal(4), theirs.standard_normal(4))


@pytest.mark.parametrize("k", MIXED_SIZES)
def test_dual_manifold_sample_matches_sequential(k):
    system = random_system(max(k) + 1, k, 403)
    for seed, count, scale in ((0, 1, 1.0), (7, 70, 1.0), (11, 150, 2.5)):
        batched = gf.dual_manifold_sample(system, seed, count, scale=scale)
        reference, _ = dual_sample_reference(system, seed, count, scale=scale)
        assert len(batched) == count
        for a, b in zip(batched, reference):
            assert_same_blocks(a, b)


def test_dual_manifold_sample_with_generator_seed():
    system = random_system(4, (2, 1, 3), 404)
    mine, theirs = np.random.default_rng(405), np.random.default_rng(405)
    for count in (3, 65, 130):
        batched = gf.dual_manifold_sample(system, mine, count)
        reference, _ = dual_sample_reference(system, theirs, count)
        for a, b in zip(batched, reference):
            assert_same_blocks(a, b)
    # no attempt was drawn that the one-at-a-time loop would not draw
    assert np.array_equal(mine.standard_normal(4), theirs.standard_normal(4))


def test_dual_manifold_sample_redraws_match_and_run_out():
    # On a protocol (S = I) a large relative tolerance rejects many sampled
    # duals whose own Gram sum is far from flat.
    system = partition_protocol(4, 2, 2, seed=406)
    tolerance = 0.11
    batched = gf.dual_manifold_sample(system, 3, 80, tolerance=tolerance)
    reference, attempts = dual_sample_reference(system, 3, 80, tolerance=tolerance)
    assert attempts > 80 + 40  # dozens of attempts were redrawn
    for a, b in zip(batched, reference):
        assert_same_blocks(a, b)

    mine, theirs = np.random.default_rng(407), np.random.default_rng(407)
    with pytest.raises(SamplingError, match="no usable dual after 6 redraws"):
        gf.dual_manifold_sample(system, mine, 5, tolerance=0.9, max_redraws=6)
    with pytest.raises(SamplingError):
        dual_sample_reference(system, theirs, 5, tolerance=0.9, max_redraws=6)
    assert np.array_equal(mine.standard_normal(4), theirs.standard_normal(4))


@pytest.mark.parametrize("system, count, scale, tolerance", [
    (random_system(5, (3,) * 4, 418), 150, 1.0, 1e-9),
    (random_system(5, (3, 1, 4, 2), 418), 150, 2.5, 1e-9),
    (partition_protocol(4, 2, 2, seed=406), 80, 1.0, 0.11),
], ids=["uniform", "mixed-scaled", "redrawn"])
def test_dual_manifold_sample_scores_are_fresh_error_reports(system, count, scale, tolerance):
    # each chunk is scored in one pass; every score is the error_report of a copy
    # without the sampler's scores, and the samples and the generator state are those
    # of the one-at-a-time loop
    mine, theirs = np.random.default_rng(419), np.random.default_rng(419)
    samples = gf.dual_manifold_sample(system, mine, count, scale=scale, tolerance=tolerance)
    reference, attempts = dual_sample_reference(system, theirs, count, scale=scale,
                                                tolerance=tolerance)
    assert count > duals._SAMPLE_CHUNK
    assert attempts > count + 20 if tolerance > 1e-9 else attempts == count
    for sample, expected in zip(samples, reference, strict=True):
        assert_same_blocks(sample, expected)
        owner, scores, row = sample._scored
        assert owner is system and not scores.flags.writeable
        memoized = gf.error_report(system, sample)
        for fresh in (gf.error_report(system, gf.ReconstructionSystem(sample.blocks)),
                      gf.error_report(gf.ReconstructionSystem(system.blocks), sample)):
            assert np.array_equal(memoized.per_index, fresh.per_index) and memoized == fresh
    assert np.array_equal(mine.standard_normal(4), theirs.standard_normal(4))


def test_certified_attempts_are_those_the_eigenvalues_accept(monkeypatch):
    # The certificate decides the attempts whose duality bound clears the tolerance and
    # leaves the others to the eigenvalues; the samples, the SamplingError and the generator
    # state stay those of the one-at-a-time loop, which judges every attempt by eigenvalues.
    # On this d = 5 system the bound decides every attempt at scale 1e2, a share at 10^3.75
    # (10^5.75 at tolerance 1e-15), none at 10^4.25, where the eigenvalues reject some, and
    # at 1e6 every attempt is rejected.  The bound is unchanged at 2^+-300.
    base = random_system(5, (3, 1, 2, 1), 418)
    sent = []  # how many attempts of each batch the certificate left undecided
    judged = duals._analysis_is_rs
    monkeypatch.setattr(duals, "_analysis_is_rs",
                        lambda analyses, tolerance: sent.append(len(analyses))
                        or judged(analyses, tolerance))

    def draw(sampler, system, rng, scale, tolerance):
        try:
            return sampler(system, rng, 40, scale=scale, tolerance=tolerance)
        except SamplingError as exc:
            return str(exc)

    def reference(*args, **kwargs):
        return dual_sample_reference(*args, **kwargs)[0]

    cases = [(1e2, 1e-9, 0, "certified"), (10**3.75, 1e-9, 0, "mixed"),
             (10**4.25, 1e-9, 0, "undecided"), (1e6, 1e-9, 0, "refused"),
             (10**5.75, 1e-15, 0, "mixed"), (10**3.75, 1e-9, 300, "mixed"),
             (10**3.75, 1e-9, -300, "mixed")]
    for scale, tolerance, power, kind in cases:
        system = gf.ReconstructionSystem([block * 2.0**power for block in base.blocks])
        mine, theirs = np.random.default_rng(420), np.random.default_rng(420)
        sent.clear()
        samples = draw(gf.dual_manifold_sample, system, mine, scale, tolerance)
        expected = draw(reference, system, theirs, scale, tolerance)
        assert np.array_equal(mine.bit_generator.state["state"]["state"],
                              theirs.bit_generator.state["state"]["state"])
        if kind == "refused":
            assert samples == expected == "no usable dual after 100 redraws"
            continue
        assert len(samples) == len(expected) == 40
        for sample, other in zip(samples, expected):
            assert np.array_equal(sample.analysis, other.analysis)
        undecided = sum(sent)
        assert {"certified": undecided == 0, "mixed": 0 < undecided < 40,
                "undecided": undecided > 40}[kind], (scale, tolerance, power, sent)


@pytest.mark.parametrize("k", MIXED_SIZES)
def test_random_riesz_matches_blockwise_slices(k):
    for seed in range(20):
        assert_same_blocks(random_riesz(k, seed), riesz_reference(k, seed))
    # a tighter conditioning floor rejects a third to two thirds of the draws
    for seed in range(5):
        assert_same_blocks(random_riesz(k, seed, conditioning=0.05),
                           riesz_reference(k, seed, conditioning=0.05))


@pytest.mark.parametrize("d, block_dim, copies", [(4, 2, 2), (6, 2, 3), (6, 3, 1), (5, 1, 4),
                                                  (8, 8, 2)])
def test_partition_protocol_matches_blockwise_slices(d, block_dim, copies):
    for seed in range(20):
        assert_same_blocks(partition_protocol(d, block_dim, copies, seed),
                           protocol_reference(d, block_dim, copies, seed))
    mine, theirs = np.random.default_rng(408), np.random.default_rng(408)
    assert_same_blocks(partition_protocol(d, block_dim, copies, mine),
                       protocol_reference(d, block_dim, copies, theirs))
    assert np.array_equal(mine.standard_normal(4), theirs.standard_normal(4))


def test_generators_reject_malformed_shapes():
    for d, block_dim in ((4, 0), (4, -2), (0, 1), (-4, 2), (4, 3)):
        with pytest.raises(StructuralError,
                           match="^block_dim must be a positive divisor of d >= 1$"):
            partition_protocol(d, block_dim, 1, 0)
    for d, block_dim, copies, message in ((4, 2, 1.5, "copies"), (4.0, 2, 1, "d"),
                                          (4, True, 1, "block_dim"), (4, 2, False, "copies")):
        with pytest.raises(StructuralError, match=f"^{message} must be an integer$"):
            partition_protocol(d, block_dim, copies, 0)
    for d, masks, message in ((4, [(0, 1), (2, 3.7)], "^mask entries must be integers$"),
                              (4, [(0, 1), (True, 2, 3)], "^mask entries must be integers$"),
                              (3, [(0, 0, 1), (2,)], "^mask entries must not repeat$"),
                              (4.0, [(0, 1), (2, 3)], "^d must be an integer$")):
        with pytest.raises(StructuralError, match=message):
            commuting_projective(d, masks, 0)
    with pytest.raises(StructuralError, match="^a system needs at least one block$"):
        random_riesz((), 0)
    with pytest.raises(StructuralError, match="^block 0 must be a non-empty 2-d matrix"):
        random_riesz((0,), 0)


@pytest.mark.parametrize("orders", [(1, 1), (2, 3), (3, 2), (4, 4), (1, 5)])
def test_direct_product_table_matches_the_pairwise_loop(orders):
    a, b = (gf.cyclic_shift_representation(n) for n in orders)
    assert np.array_equal(gf.direct_product(a, b).table, product_table_reference(a, b))
    nested = gf.direct_product(gf.direct_product(a, b), a)
    assert np.array_equal(nested.table,
                          product_table_reference(gf.direct_product(a, b), a))


def test_random_projective_plans_serve_interleaved_shapes():
    # one generator across the same sizes at two domains and two orders of one
    # multiset of sizes: every shape draws from its own plan, built once, and each
    # draw is the blockwise one
    shapes = [(4, (3, 1, 2)), (6, (3, 1, 2)), (4, (2, 3, 1)), (6, (3, 1, 2)), (4, (3, 1, 2)),
              (4, (2, 3, 1)), (5, (2, 3, 1))]
    generate._draw_plan.cache_clear()
    mine, theirs = np.random.default_rng(410), np.random.default_rng(410)
    for i, (d, k) in enumerate(shapes):
        weights = None if i % 2 else [0.6 + 0.3 * j for j in range(len(k))]
        assert_same_blocks(random_projective(d, k, mine, weights=weights),
                           projective_reference(d, k, theirs, weights=weights)[0])
    assert generate._draw_plan.cache_info().misses == len(set(shapes))
    assert np.array_equal(mine.standard_normal(4), theirs.standard_normal(4))


@pytest.mark.parametrize("generator", ["random_projective", "commuting_projective"])
def test_generators_refuse_weights_that_are_not_positive_and_finite(generator):
    def draw(weights):
        if generator == "random_projective":
            return random_projective(4, (2, 2), 0, weights=weights)
        return commuting_projective(4, [(0, 1), (2, 3)], 0, weights=weights)

    message = "^weights must be positive and finite, one per block$"
    for bad in (np.nan, np.inf, -np.inf, 0.0, -1.0):
        with pytest.raises(StructuralError, match=message):
            draw([1.0, bad])
    for wrong_length in ([1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]):
        with pytest.raises(StructuralError, match=message):
            draw(wrong_length)
    assert draw([1.0, 2.0]).k == (2, 2)


def test_refused_generator_calls_draw_nothing():
    # each argument is checked before the first draw, so the caller's generator is
    # left as it was, and the message names the argument that was refused
    positive, finite = "^conditioning must be positive$", "^conditioning must be finite$"
    weights = "^weights must be positive and finite, one per block$"
    refusals = [
        (lambda rng: random_projective(4, (2, 2), rng, conditioning=0.0), positive),
        (lambda rng: random_projective(4, (2, 2), rng, conditioning=np.inf), finite),
        (lambda rng: random_projective(4, (2, 2), rng, weights=[1.0, np.nan]), weights),
        (lambda rng: random_projective(4, (), rng), "^a system needs at least one block$"),
        (lambda rng: random_projective(4, (0, 2), rng), r"^block 0 must be .* shape \(0, 4\)$"),
        (lambda rng: random_system(4, (2, 2), rng, conditioning=np.nan), positive),
        (lambda rng: random_system(4, (2, 2), rng, conditioning=-1.0), positive),
        (lambda rng: random_system(4, (), rng), "^a system needs at least one block$"),
        (lambda rng: random_system(4, (0, 2), rng), r"^block 0 must be .* shape \(0, 4\)$"),
        (lambda rng: random_system(4, (2, -1), rng), r"^block 1 must be .* shape \(-1, 4\)$"),
        (lambda rng: random_system(0, (2, 2), rng), r"^block 0 must be .* shape \(2, 0\)$"),
        (lambda rng: random_projective(4, (2, 10**6), rng), "^a coisometry needs k <= d$"),
        (lambda rng: random_coisometry(rng, 0, 4), r"^block 0 must be .* shape \(0, 4\)$"),
        (lambda rng: random_coisometry(rng, -1, 4), r"^block 0 must be .* shape \(-1, 4\)$"),
        (lambda rng: random_coisometry(rng, 5, 4), "^a coisometry needs k <= d$"),
        (lambda rng: random_riesz((2, 2), rng, conditioning=0.0), positive),
        (lambda rng: random_riesz((), rng), "^a system needs at least one block$"),
        (lambda rng: random_riesz((2, -1), rng), r"^block 1 must be .* shape \(-1, 1\)$"),
        (lambda rng: random_riesz((2.7, 1), rng), "^block sizes k must be integers$"),
        (lambda rng: random_system(4, (2.9, 2.9), rng), "^block sizes k must be integers$"),
        (lambda rng: random_system(4.0, (2, 2), rng), "^d must be an integer$"),
        (lambda rng: random_projective(4, (2, True), rng), "^block sizes k must be integers$"),
        (lambda rng: random_coisometry(rng, 2, 4.5), "^d must be an integer$"),
        (lambda rng: random_system(4, (2, 2), rng, scale=np.nan), "^scale must be positive$"),
        (lambda rng: random_system(4, (2, 2), rng, scale=0.0), "^scale must be positive$"),
        (lambda rng: random_system(4, (2, 2), rng, scale=np.inf), "^scale must be finite$"),
        (lambda rng: commuting_projective(4, [(0, 1), (2, 3)], rng, weights=[np.inf, 1.0]),
         weights),
        (lambda rng: commuting_projective(4, [(0, 1), (2, 3.7)], rng),
         "^mask entries must be integers$"),
        (lambda rng: commuting_projective(3, [(0, 0, 1), (2,)], rng),
         "^mask entries must not repeat$"),
        (lambda rng: partition_protocol(4, 2, 1.5, rng), "^copies must be an integer$"),
        (lambda rng: partition_protocol(4.0, 2, 1, rng), "^d must be an integer$"),
        (lambda rng: partition_protocol(4, True, 1, rng), "^block_dim must be an integer$"),
        (lambda rng: partition_protocol(4, 2, 0, rng), "^copies must be at least 1$"),
        (lambda rng: commuting_projective(4, [(0, 1), ()], rng),
         "^need at least one non-empty mask per block$"),
        (lambda rng: commuting_projective(4, [], rng),
         "^need at least one non-empty mask per block$"),
        (lambda rng: commuting_projective(4, [(0, 1), (2, 4)], rng),
         r"^mask entries must lie in \[0, 4\)$"),
        (lambda rng: commuting_projective(4, [(0, 1), (2,)], rng),
         "^masks must cover every coordinate$"),
    ]
    for refuse, message in refusals:
        rng = np.random.default_rng(411)
        state = rng.bit_generator.state
        with pytest.raises(StructuralError, match=message):
            refuse(rng)
        assert rng.bit_generator.state == state
    # an oversized coisometry is refused before any shape layout is built
    misses = core._layout.cache_info().misses
    with pytest.raises(StructuralError, match="^a coisometry needs k <= d$"):
        random_projective(4, (10**6,), 0)
    assert core._layout.cache_info().misses == misses


def test_generators_give_up_after_their_attempts():
    # no draw of these shapes is conditioned to within 0.999, so every attempt is redrawn
    for draw, message in (
            (random_system, r"^no well-conditioned system for d=4, k=\(2, 2\)$"),
            (random_projective, r"^no well-conditioned projective system for d=4, k=\(2, 2\)$")):
        with pytest.raises(SamplingError, match=message):
            draw(4, (2, 2), 0, conditioning=0.999)
    with pytest.raises(SamplingError, match="^no well-conditioned square matrix for d=4$"):
        random_riesz((2, 2), 0, conditioning=0.999)


def test_refused_dual_samples_draw_nothing():
    # count, max_redraws and scale are checked before the first draw; none is cut to an
    # integer, and the message names the argument that was refused
    system = random_system(4, (2, 2, 1), 414)
    refusals = [
        (dict(count=1.5), "^count must be an integer$"),
        (dict(count=True), "^count must be an integer$"),
        (dict(count=0), "^count must be at least 1$"),
        (dict(count=2, max_redraws=2.5), "^max_redraws must be an integer$"),
        (dict(count=2, scale=np.nan), "^scale must be positive$"),
        (dict(count=2, scale=0.0), "^scale must be positive$"),
        (dict(count=2, scale=-1.0), "^scale must be positive$"),
        (dict(count=2, scale=np.inf), "^scale must be finite$"),
    ]
    for arguments, message in refusals:
        rng = np.random.default_rng(414)
        state = rng.bit_generator.state
        with pytest.raises(StructuralError, match=message):
            gf.dual_manifold_sample(system, rng, **arguments)
        assert rng.bit_generator.state == state
    drawn = gf.dual_manifold_sample(system, 414, np.int64(3), max_redraws=np.int32(5))
    for mine, theirs in zip(drawn, gf.dual_manifold_sample(system, 414, 3), strict=True):
        assert_same_blocks(mine, theirs)
