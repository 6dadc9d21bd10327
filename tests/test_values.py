"""Systems, signatures and representations are values: every path that makes or copies
one keeps the invariants of construction."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

import gframes as gf
import gframes.core as core
from gframes._linalg import complex_gaussian
from gframes.generate import (
    commuting_projective,
    partition_protocol,
    random_projective,
    random_riesz,
    random_system,
)
from helpers import (
    SYSTEM_SLOTS,
    assert_representation_invariants,
    assert_system_invariants,
)

SIZES, D = (1, 3, 4, 2, 4), 6
# coordinate masks of those heights that cover C^6
MASKS = ((0,), (1, 2, 3), (0, 2, 4, 5), (3, 5), (1, 2, 4, 5))


def mixed(seed=310):
    return random_system(D, SIZES, seed)


def base(seed):
    """A 2 x 6 base block for the orbits of the order-6 group Z_3 x Z_2 on C^6."""
    return complex_gaussian(np.random.default_rng(seed), (2, 6))


def manifold_point(system):
    manifold = gf.dual_manifold(system)
    rng = np.random.default_rng(313)
    return manifold.system_at(0.1 * rng.standard_normal(manifold.base_synthesis.shape))


def loaded(tmp_path):
    path = tmp_path / "system.json"
    gf.save_system(mixed(), path)
    return gf.load_system(path)


# every path that returns a system; each takes the test's tmp_path
PATHS = {
    "constructor": lambda tmp: gf.ReconstructionSystem(mixed().blocks),
    "system_from_synthesis": lambda tmp: gf.system_from_synthesis(
        gf.synthesis_matrix(mixed()), SIZES),
    "system_from_dict": lambda tmp: gf.system_from_dict(gf.system_to_dict(mixed())),
    "load_system": loaded,
    "dataclasses.replace": lambda tmp: dataclasses.replace(mixed()),
    "random_system": lambda tmp: mixed(),
    "random_projective": lambda tmp: random_projective(D, SIZES, 311),
    "random_riesz": lambda tmp: random_riesz(SIZES, 312),
    "partition_protocol": lambda tmp: partition_protocol(6, 2, 2, 313),
    "commuting_projective": lambda tmp: commuting_projective(D, MASKS, 314),
    "dual_manifold_sample": lambda tmp: gf.dual_manifold_sample(mixed(), 315, 3)[-1],
    "DualManifold.system_at": lambda tmp: manifold_point(mixed()),
    "canonical_dual": lambda tmp: gf.canonical_dual(mixed()),
    "truncated_canonical_dual": lambda tmp: gf.truncated_canonical_dual(mixed(), (0, 3)),
    "optimal_dual_two_error": lambda tmp: gf.optimal_dual_two_error(mixed()),
    "wce_solve": lambda tmp: gf.wce_solve(mixed()).dual,
    "nearest_projective": lambda tmp: gf.nearest_projective(mixed())[0],
    "group_rs": lambda tmp: gf.group_rs(
        gf.direct_product(gf.cyclic_shift_representation(3), gf.cyclic_shift_representation(2)),
        base(316)),
    "commuting_projective_dual": lambda tmp: gf.commuting_projective_dual(
        commuting_projective(D, MASKS, 317)),
}


@pytest.mark.parametrize("path", list(PATHS))
def test_every_path_that_makes_a_system_keeps_its_invariants(path, tmp_path):
    system = PATHS[path](tmp_path)
    assert_system_invariants(system)
    # and so does the system after ops have filled its caches; the dual comes first, so
    # that the factor of T seeds the spectrum
    gf.canonical_dual(system)
    gf.truncate(system, (0,))
    gf.classify(system)
    assert_system_invariants(system)


def test_every_fixture_keeps_its_invariants():
    for system in gf.fixtures().values():
        assert_system_invariants(system)


def cached():
    """A system holding every cache an op can leave: spectrum, block factor, R^{-1} and the
    truncation memo."""
    system = mixed()
    gf.error_report(system, gf.canonical_dual(system))
    gf.truncate(system, (0, 3))
    assert set(vars(system)) - SYSTEM_SLOTS == {"_spectrum", "_block_factor", "_r_inverse",
                                                "_kept"}
    return system


def sampled():
    system = mixed()
    return gf.dual_manifold_sample(system, 318, 4)[1]


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("source", [mixed, cached, sampled])
@pytest.mark.parametrize("how", list(COPIES))
def test_a_copied_system_is_rebuilt_through_the_constructor(how, source):
    system = source()
    twin = COPIES[how](system)
    assert_system_invariants(twin)
    assert twin is not system and twin.analysis is not system.analysis
    assert np.array_equal(twin.analysis, system.analysis)
    assert set(vars(twin)) == SYSTEM_SLOTS  # no cache travels with a copy
    assert twin._scored is None  # a copy is not the very system the sampler scored
    with pytest.raises(ValueError):
        twin.blocks[0][0, 0] = 5.0
    assert_system_invariants(system)


def test_a_pickled_sample_reports_its_errors_bit_for_bit():
    system = mixed()
    samples = gf.dual_manifold_sample(system, 319, 5)
    for sample in samples:
        twin = pickle.loads(pickle.dumps(sample))
        assert twin._scored is None and sample._scored is not None
        assert gf.error_report(system, twin) == gf.error_report(system, sample)


@pytest.mark.parametrize("how", list(COPIES))
def test_a_copied_signature_is_the_shared_read_only_one(how):
    signature = mixed().signature
    rows = signature._rows  # cached on the signature before it is copied
    for original in (signature, gf.RSSignature(5, SIZES, D)):
        twin = COPIES[how](original)
        assert twin == original and twin is core._layout(SIZES, D)
        assert not twin._rows.flags.writeable and np.array_equal(twin._rows, rows)
        assert twin._slices == signature._slices


@pytest.mark.parametrize("how", list(COPIES))
def test_a_copied_representation_is_validated_and_read_only(how):
    rep = gf.direct_product(gf.cyclic_shift_representation(3), gf.cyclic_shift_representation(2))
    twin = COPIES[how](rep)
    assert_representation_invariants(twin)
    assert np.array_equal(twin._stack, rep._stack) and np.array_equal(twin.table, rep.table)
    assert twin.identity_index == rep.identity_index
    with pytest.raises(ValueError):
        twin._stack[1] = 5.0
    block = base(320)
    assert np.array_equal(gf.group_rs(twin, block).analysis, gf.group_rs(rep, block).analysis)


def test_a_signature_is_shared_while_its_shape_is_cached():
    system = gf.fixtures()["overlapping_planes"]
    assert_system_invariants(system)
    # fill the bounded cache with other shapes, which evicts this one
    for height in range(1, core._layout.cache_info().maxsize + 2):
        core._layout((height,), 1)
    shared = core._layout(system.k, system.d)
    assert system.signature is not shared and system.signature == shared
    assert_system_invariants(system, just_built=False)
    # a system built now shares the signature that the cache holds now
    assert gf.ReconstructionSystem(system.blocks).signature is shared
