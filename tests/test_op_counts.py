"""Each op factors the analysis matrix once, and builds S, spectra and inverses only where it needs them.

The counters wrap ``core._block_gram`` (every ``frame_operator`` call goes
through it) and the ``numpy.linalg`` entry points ``qr``, ``eigvalsh``,
``inv`` and ``svd``.  Every op that needs the frame bounds or ``S^{-1}``
takes them from one QR of the analysis matrix ``T = Q R`` (one ``qr``, at
most one ``inv`` of ``R``, and one values-only ``svd`` of ``R`` the first
time a system is factored, since the system caches that spectrum); no op
builds ``S`` block by block or inverts it.  The survivors of a truncation
are a system of their own, factored and judged the same way.  Every
per-block value comes from the zero-padded block stack: the block spectra
(injectivity, weights, the dropped norms in truncation) are one values-only
``svd`` of the block factor ``R_i``, which one ``qr`` of the stack computes
once per system and ``error_report`` shares; polar factors are one stacked
``svd`` of the stack itself.  Calls numpy makes internally (``norm(a, 2)``, ``solve``) are
not counted.  A separate counter checks that ``error_report`` factors each
system once, however many duals it scores against it.
"""

from collections import Counter

import numpy as np
import pytest

import gframes as gf
import gframes.core as core
import gframes.stability as stability
from gframes.errors import StructuralError
from gframes.generate import (
    commuting_projective,
    random_projective,
    random_riesz,
    random_system,
)


@pytest.fixture
def counts(monkeypatch):
    tally = Counter()

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            tally[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(core, "_block_gram", "gram")
    counted(np.linalg, "qr", "qr")
    counted(np.linalg, "eigvalsh", "eigvalsh")
    counted(np.linalg, "inv", "inv")
    counted(np.linalg, "svd", "svd")
    return tally


GENERAL = random_system(64, (4,) * 32, 5)
PROJECTIVE = random_projective(12, (3,) * 6, 11)
RIESZ = random_riesz((2, 3, 1, 2), 3)
COMMUTING = commuting_projective(6, [(0, 1, 2), (1, 2, 3), (3, 4, 5), (0, 5)], seed=4)


def orbit_checks():
    base = np.random.default_rng(0).standard_normal((2, 6)).astype(np.complex128)
    return gf.group_rs_checks(gf.cyclic_shift_representation(6), base)


def fresh(system):
    """A copy without a cached block factor or spectrum, so that counts do not depend on
    test order."""
    return gf.ReconstructionSystem(system.blocks)


CASES = {
    # one analysis QR and its spectrum for the bound and S^{-1} = R^{-1} R^{-*}; one QR of the
    # kept rows and its spectrum for the survivors' verdict, bounds and S_J = R_J^* R_J;
    # M_J's singular values
    "truncate": (lambda: gf.truncate(fresh(GENERAL), [0, 3]),
                 {"qr": 2, "inv": 1, "svd": 3}),
    # no truncate: one analysis QR of the kept rows for their bound and their dual
    "truncated_canonical_dual": (lambda: gf.truncated_canonical_dual(fresh(GENERAL), [0, 3]),
                                 {"qr": 1, "inv": 1, "svd": 1}),
    # one full analysis QR for the verdict and the dual, which seeds the cached spectrum
    "canonical_dual": (lambda: gf.canonical_dual(fresh(GENERAL)),
                       {"qr": 1, "inv": 1, "svd": 1}),
    # no S at all; one thin SVD of the padded block stack
    "nearest_projective": (lambda: gf.nearest_projective(GENERAL), {"svd": 1}),
    # one stacked product, no factorization
    "verify_dual": (lambda: gf.verify_dual(GENERAL, GENERAL), {}),
    # classify's stacked block spectra and one analysis QR for the bounds and the canonical
    # dual; error_report's block factor
    "wce_condition": (lambda: gf.wce_condition(fresh(PROJECTIVE)),
                      {"qr": 2, "inv": 1, "svd": 1 + 1}),
    # plus the weighted family: one full QR of the padded blocks, one stacked inv of all
    # R_i, one QR per step
    "wce_solve": (lambda: gf.wce_solve(fresh(PROJECTIVE), iterations=3),
                  {"qr": 2 + 1 + 3, "inv": 1 + 1, "svd": 1 + 1}),
    # one analysis QR for the system; per block a kernel SVD and a restriction SVD; the
    # block spectra of the system and of its dual, each one block QR and one SVD of its R_i
    "riesz_projective_dual_check": (lambda: gf.riesz_projective_dual_check(RIESZ),
                                    {"qr": 1 + 2, "inv": 1, "svd": 1 + 2 * RIESZ.m + 2}),
    # no S at all: the weights come from one block QR and one values-only SVD of its R_i
    "commuting_projective_dual": (lambda: gf.commuting_projective_dual(COMMUTING),
                                  {"qr": 1, "svd": 1}),
    # one analysis QR for S = R^* R, the dual and S^{-1}; one SVD of the dual base, then
    # nearest_projective's one stacked SVD
    "group_rs_checks": (orbit_checks, {"qr": 1, "inv": 1, "svd": 1 + 1 + 1}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_linear_algebra_counts(counts, name):
    op, expected = CASES[name]
    op()
    assert dict(counts) == expected


def test_wce_solve_checks_its_arguments_before_factoring(counts):
    # the order of cli.main: the tolerance, then the iteration budget, then the system
    with pytest.raises(StructuralError, match="^tolerance must be positive$"):
        gf.wce_solve(fresh(PROJECTIVE), iterations=0, tolerance=0.0)
    with pytest.raises(StructuralError, match="^iterations must be at least 1$"):
        gf.wce_solve(fresh(PROJECTIVE), iterations=0)
    assert dict(counts) == {}


def test_classify_reads_a_cached_spectrum(counts):
    system = fresh(GENERAL)
    gf.canonical_dual(system)
    counts.clear()
    gf.classify(system)
    assert dict(counts) == {"qr": 1, "svd": 1}  # the block factor and its spectra; no factor of T


def test_ops_on_one_system_take_one_spectrum(counts, monkeypatch):
    spectra = []
    squared_spectrum = core._squared_spectrum

    def counted(*args, **kwargs):
        spectra.append(squared_spectrum(*args, **kwargs))
        return spectra[-1]

    survivors = []
    from_analysis = stability._from_analysis

    def kept(*args, **kwargs):
        survivors.append(from_analysis(*args, **kwargs))
        return survivors[-1]

    monkeypatch.setattr(core, "_squared_spectrum", counted)
    monkeypatch.setattr(stability, "_from_analysis", kept)
    system = fresh(GENERAL)
    drop = [0, 3]
    duals = []
    pipeline = [
        # the block QR and the SVD of its R_i for the block spectra, and the values-only
        # QR and SVD of R the verdict needs
        (lambda: gf.classify(system), {"qr": 2, "svd": 2}),
        # the full QR the dual needs, and no SVD: the spectrum is cached
        (lambda: duals.append(gf.canonical_dual(system)), {"qr": 1, "inv": 1}),
        # no factor at all: the block factor is cached
        (lambda: gf.error_report(system, duals[0]), {}),
        # R for S^{-1}; the kept rows' R_J and its spectrum; M_J's singular values
        (lambda: gf.truncate(system, drop), {"qr": 2, "inv": 1, "svd": 2}),
        # no factor at all: the dropped blocks' norms take one SVD of the cached R_i
        (lambda: gf.ck_sufficient_condition(system, drop), {"svd": 1}),
        (lambda: gf.inverse_frame_operator(system), {"qr": 1, "inv": 1}),
    ]
    for op, expected in pipeline:
        counts.clear()
        op()
        assert dict(counts) == expected
    assert len(survivors) == 1  # truncate's kept blocks
    # one spectrum per system: each system's cached spectrum is the only one taken for it
    cached = [vars(owner)["_spectrum"] for owner in (system, survivors[0])]
    assert [sum(taken is spectrum for taken in spectra) for spectrum in cached] == [1, 1]
    assert len(spectra) == 2


def test_error_report_factors_each_system_once(monkeypatch):
    factorizations = Counter()
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        factorizations["qr"] += 1
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    system = random_system(6, (2, 3, 4, 2, 4), 8)
    first, second = gf.dual_manifold_sample(system, seed=9, count=2)
    assert factorizations["qr"] == 1  # the sampler's chart comes from one analysis QR
    factorizations.clear()
    gf.error_report(system, first)
    assert factorizations["qr"] == 1
    gf.error_report(system, second)
    gf.error_report(system, first)
    assert factorizations["qr"] == 1
