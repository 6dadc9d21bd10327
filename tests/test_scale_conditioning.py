"""Verdicts that do not depend on units, and duals whose accuracy follows kappa(T).

Scaling every block by ``c > 0`` scales the analysis matrix ``T`` and leaves
every structural verdict unchanged, so the ladders below compare the
verdicts at ``c = 10^j``, ``j = -8..8``, with those at ``c = 1``.  The
canonical dual comes from a QR factor of ``T``, so its residual
``||sum_i W_i^* V_i - I||`` grows like ``eps * kappa(T)``: on the d=6
systems below it stayed under ``0.76 * d * eps * kappa(T)`` in 2000 draws
with kappa up to 3e4, where a dual built from ``S^{-1}`` grows like
``eps * kappa(T)^2``.  A system judged RS has ``kappa(T)`` at most
``tolerance^{-1/2}``, so the dual is either accurate or refused.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gframes as gf
from gframes._linalg import dagger, random_unitary
from gframes.errors import NotReconstructionSystemError, PreconditionError
from gframes.generate import partition_protocol, random_projective, random_system
from helpers import riesz_pair

EPS = np.finfo(float).eps
SCALES = [10.0 ** j for j in range(-8, 9)]


def scaled(system, c):
    return gf.ReconstructionSystem(tuple(c * np.asarray(b) for b in system.blocks))


def conditioned(kappa, seed, d=6, k=(2,) * 6):
    """Analysis matrix ``U diag(s) V^*`` with singular values from 1 down to ``1 / kappa``."""
    rng = np.random.default_rng(seed)
    left = random_unitary(rng, sum(k))[:, :d]
    right = random_unitary(rng, d)
    sigma = np.logspace(0, -np.log10(kappa), d)
    return gf.system_from_synthesis(((left * sigma) @ right.conj().T).conj().T, k)


def residual(system):
    return gf.verify_dual(gf.canonical_dual(system), system).dual_residual


def verdicts(system, drop):
    shape = gf.classify(system)
    wce = None
    if shape.is_projective and shape.is_rs:
        wce = gf.wce_condition(system) is not None
    after = gf.truncate(system, drop).is_rs_after if shape.is_rs else None
    return (shape.is_rs, shape.is_injective, shape.is_projective, shape.is_uniform, after, wce)


@pytest.mark.parametrize("c", [1e-5, 1e-8, 2.0**300])
def test_scaled_planes_fixture_is_a_system_with_an_accurate_dual(c):
    system = scaled(gf.fixtures()["overlapping_planes"], c)
    with np.errstate(over="raise"):  # sigma(T)^4 overflows at c = 2^300; no verdict squares it
        assert gf.classify(system).is_rs
        assert residual(system) <= 1e-12


def test_scaled_random_system_has_a_canonical_dual():
    system = scaled(random_system(6, (2, 3, 4, 2), 1), 1e-6)
    assert gf.verify_dual(gf.canonical_dual(system), system).is_dual


def assert_scaled(first, second, c, rtol):
    """``first`` is ``c`` times ``second``, block for block, to ``rtol`` relative."""
    assert first.k == second.k
    target = c * second.analysis
    assert np.linalg.norm(first.analysis - target) <= rtol * np.linalg.norm(target)


def test_random_system_keeps_the_same_attempt_at_every_scale():
    unit = random_system(6, (2, 3, 4, 2), 1)
    for c in SCALES:
        assert_scaled(random_system(6, (2, 3, 4, 2), 1, scale=c), unit, c, 1e-15)


def test_random_projective_keeps_the_same_attempt_at_every_weight_scale():
    weights = np.array([0.6, 0.9, 1.2, 1.5])
    for seed in range(3):
        unit = random_projective(6, (2, 3, 4, 2), seed, weights=weights)
        for c in SCALES:
            assert_scaled(random_projective(6, (2, 3, 4, 2), seed, weights=c * weights),
                          unit, c, 1e-15)


def test_dual_samples_of_a_scaled_system_are_the_samples_divided_by_c():
    system = random_system(6, (2, 3, 4, 2), 1)
    unit = gf.dual_manifold_sample(system, 7, 20)
    for c in SCALES:
        samples = gf.dual_manifold_sample(scaled(system, c), 7, 20)
        assert len(samples) == len(unit)
        for sample, reference in zip(samples, unit):
            assert_scaled(sample, reference, 1.0 / c, 1e-13)


def test_canonical_dual_at_kappa_1e4():
    system = conditioned(1e4, 0)
    assert np.isclose(np.linalg.cond(system.analysis), 1e4)
    assert residual(system) <= 1e-12


@pytest.mark.parametrize("d", [48, 64])
@pytest.mark.parametrize("kappa", [1.0, 1e2, 1e4])
def test_duals_above_order_32_are_accurate_to_kappa(d, kappa):
    # R^{-1} of these systems and of their survivors comes from the block recursion
    system = conditioned(kappa, d, d, (4,) * (d // 2))
    assert residual(system) <= 4 * d * EPS * kappa
    drop = (0, 5)
    kept = np.concatenate([b for i, b in enumerate(system.blocks) if i not in drop])
    assert gf.truncate(system, drop).is_rs_after
    dual = gf.truncated_canonical_dual(system, drop)
    error = np.linalg.norm(dagger(dual.analysis) @ kept - np.eye(d))
    assert error <= 4 * d * EPS * np.linalg.cond(kept)


def draw(kind, seed, m):
    rng = np.random.default_rng(seed)
    d = 6
    if kind == "general":
        return random_system(d, (2,) * m, rng)
    if kind == "projective":
        return random_projective(d, (2,) * m, rng)
    if kind == "uniform":
        return random_projective(d, (2,) * m, rng, weights=[0.7] * m)
    return partition_protocol(d, 2, m // 3, rng)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["general", "projective", "uniform", "protocol"]),
       st.integers(min_value=0, max_value=2**31), st.sampled_from([3, 6, 81]))
def test_verdicts_do_not_depend_on_units(kind, seed, m):
    system = draw(kind, seed, m)
    drop = tuple(range(0, m, 3))
    expected = verdicts(system, drop)
    assert all(verdicts(scaled(system, c), drop) == expected for c in SCALES)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=7.0), st.integers(min_value=0, max_value=2**31))
def test_dual_is_accurate_to_kappa_or_refused(exponent, seed):
    kappa = 10.0 ** exponent
    system = conditioned(kappa, seed)
    is_rs = gf.classify(system).is_rs
    try:
        error = residual(system)
    except NotReconstructionSystemError:
        # refused exactly when sigma_min^2 <= 1e-9 sigma_max^2, i.e. kappa >= 1e4.5
        assert not is_rs and kappa > 3e4
        return
    assert is_rs
    assert error <= 1e-9 and error <= 4 * system.d * EPS * kappa


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=4.0, max_value=5.0), st.integers(min_value=0, max_value=2**31),
       st.sampled_from([1e-16, 1.0, 1e16]))
def test_classify_is_rs_exactly_when_the_canonical_dual_returns(exponent, seed, c):
    system = scaled(conditioned(10.0 ** exponent, seed), c)
    try:
        gf.canonical_dual(system)
        returned = True
    except NotReconstructionSystemError:
        returned = False
    assert gf.classify(system).is_rs == returned


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
def test_many_blocks(c):
    system = scaled(random_system(12, (1,) * 80, 80), c)
    assert gf.classify(system).is_rs
    assert residual(system) <= 1e-12
    drop = tuple(range(40))
    assert gf.truncate(system, drop).is_rs_after
    survivors = gf.truncated_canonical_dual(system, drop)
    kept = gf.ReconstructionSystem(system.blocks[40:])
    assert gf.blockwise_distance(survivors, gf.canonical_dual(kept)) <= 1e-12 / c


def test_block_rank_and_flatness_verdicts_do_not_depend_on_units():
    # bases whose second row leans on the first by eps, and Riesz pairs spread on either
    # side of the flatness boundary: every verdict at c = 10^j is the one at c = 1
    rng = np.random.default_rng(1313)
    rep = gf.cyclic_shift_representation(5)
    row, other = random_unitary(rng, 5)[:2]
    bases = [np.vstack((row, row + 10.0 ** -j * other)) for j in np.arange(3.0, 7.0, 0.5)]
    pairs = [riesz_pair(k, factor * 1e-9, seed) for k in (2, 3) for factor in (0.45, 0.55)
             for seed in range(2)]

    def refused(block):
        try:
            gf.polar_coisometry(block)
        except PreconditionError:
            return True
        return False

    def judged(c):
        blocks = [c * block for block in bases + [first for first, _ in pairs]]
        checks = [gf.riesz_projective_dual_check(scaled(system, c)) for _, system in pairs]
        return ([gf.is_weighted_coisometry(block) for block in blocks],
                [refused(block) for block in blocks],
                [(check.has_projective_dual, check.canonical_dual_projective)
                 + tuple(index.is_scaled_isometry for index in check.per_index)
                 for check in checks],
                [gf.group_rs_checks(rep, c * base).projective_approximation_deviation is None
                 for base in bases])

    expected = judged(1.0)
    coisometry, refusals, riesz, deficient = expected
    # each family holds verdicts of both kinds, so the ladder crosses its boundary
    assert all(True in family and False in family
               for family in (coisometry, refusals, deficient, [r[0] for r in riesz]))
    for c in SCALES:
        assert judged(c) == expected, c
