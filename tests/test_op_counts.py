"""Each op factors the analysis matrix once, and builds S, spectra and inverses only where it needs them.

The counters wrap ``core.frame_operator`` (the block Gram sum ``S``) and the
``numpy.linalg`` entry points ``qr``, ``eigvalsh``, ``inv`` and ``svd``.  They
count ``_linalg.qr_basis``, the first half ``_linalg.householder`` of a QR and
``_linalg.hermitian_eigenvalues`` (the same LAPACK calls without numpy's
wrapper) as ``qr`` and ``eigvalsh``, and ``_linalg.triangular_inverse`` of
``R`` as one ``inv``, wrapped where ``generate`` and ``core`` call them.
Every op that needs the frame bounds or ``S^{-1}`` takes them from one QR of
the analysis matrix ``T = Q R`` (one ``qr``, at most one ``inv`` of ``R``, and
one values-only ``svd`` of ``R`` the first time a system is factored, since
the system caches that spectrum); no op builds ``S`` block by block or
inverts it, and no op's precondition takes more than the one verdict
it reads (no library op calls ``classify``).  The system also caches
``R^{-1}``, so ``S^{-1}`` on a system that some op has inverted takes no
``qr`` and no ``inv``.  The survivors of a truncation are factored and judged
the same way; their spectrum is memoized on the system per drop set, so the
second truncation op on one drop set takes no ``svd`` of ``R_J``, and
``truncated_canonical_dual`` after ``truncate`` forms ``Q_J`` from the
reflectors that ``truncate`` left, with no ``qr``.  Every
per-block value comes from the zero-padded block stack: the block spectra
(injectivity, weights, the dropped norms in truncation) are one values-only
``svd`` of the block factor ``R_i``, which one ``qr`` of the stack computes
once per system and ``error_report`` shares; ``nearest_projective`` takes its
verdict and its polar factors from one full ``svd`` of that factor in place
of the values-only one, never from an ``svd`` of the blocks themselves.  Calls
numpy makes internally (``norm(a, 2)``, ``solve``) are
not counted.  A separate counter checks that ``error_report`` factors each
system once, however many duals it scores against it (``dual_manifold_sample``
takes that factor itself to score its samples), and another that each
``random_projective`` attempt, kept or rejected, is one ``qr`` and one ``eigvalsh``.
``dual_manifold_sample`` takes no ``eigvalsh`` for the attempts its duality
certificate accepts.
"""

from collections import Counter

import numpy as np
import pytest

import gframes as gf
import gframes.core as core
import gframes.generate as generate
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

    counted(core, "frame_operator", "gram")
    counted(np.linalg, "qr", "qr")
    counted(np.linalg, "eigvalsh", "eigvalsh")
    counted(np.linalg, "inv", "inv")
    counted(np.linalg, "svd", "svd")
    counted(generate, "qr_basis", "qr")
    counted(core, "householder", "qr")
    counted(core, "triangular_inverse", "inv")
    counted(core, "hermitian_eigenvalues", "eigvalsh")
    return tally


GENERAL = random_system(64, (4,) * 32, 5)
PROJECTIVE = random_projective(12, (3,) * 6, 11)
MIXED = random_system(12, (1, 3, 4, 2, 4), 7)
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
    # no S at all: the block QR and one SVD of the m x 4 x 4 factor for the injectivity
    # verdict and the polar factors
    "nearest_projective": (lambda: gf.nearest_projective(fresh(GENERAL)), {"qr": 1, "svd": 1}),
    # one stacked product, no factorization
    "verify_dual": (lambda: gf.verify_dual(GENERAL, GENERAL), {}),
    # one analysis QR, its spectrum and R^{-1} for the chart; the block QR for the scores.
    # Every attempt on a well-conditioned system is certified by W^* T = I at the default
    # tolerance, so the 200 draws take no eigvalsh
    "dual_manifold_sample": (lambda: gf.dual_manifold_sample(fresh(MIXED), seed=9, count=200),
                             {"qr": 2, "inv": 1, "svd": 1}),
    # the stacked block spectra and one analysis QR for the bounds and the canonical
    # dual; error_report's block factor
    "wce_condition": (lambda: gf.wce_condition(fresh(PROJECTIVE)),
                      {"qr": 2, "inv": 1, "svd": 1 + 1}),
    # plus the weighted family: one full QR of the padded blocks, one stacked inv of all
    # R_i, one QR per step
    "wce_solve": (lambda: gf.wce_solve(fresh(PROJECTIVE), iterations=3),
                  {"qr": 2 + 1 + 3, "inv": 1 + 1, "svd": 1 + 1}),
    # one code path with or without projective blocks: the stacked block spectra and
    # one values-only analysis QR and SVD for the bounds; the weighted family's full QR of
    # the padded blocks, its stacked inv of all R_i and one QR at uniform weights
    "optimal_dual_two_error": (lambda: gf.optimal_dual_two_error(fresh(MIXED)),
                               {"qr": 4, "inv": 1, "svd": 2}),
    "optimal_dual_two_error_projective": (lambda: gf.optimal_dual_two_error(fresh(PROJECTIVE)),
                                          {"qr": 4, "inv": 1, "svd": 2}),
    # one analysis QR for the system; per block a kernel SVD and a restriction SVD; the
    # block spectra of its dual, one block QR and one SVD of its R_i (the precondition is
    # combinatorial and takes none of the system's)
    "riesz_projective_dual_check": (lambda: gf.riesz_projective_dual_check(RIESZ),
                                    {"qr": 1 + 1, "inv": 1, "svd": 1 + 2 * RIESZ.m + 1}),
    # no S at all: the weights come from one block QR and one values-only SVD of its R_i
    "commuting_projective_dual": (lambda: gf.commuting_projective_dual(COMMUTING),
                                  {"qr": 1, "svd": 1}),
    # one analysis QR for the dual and S^{-1} (S is the product T^* T); one SVD of the dual
    # base, then nearest_projective's block QR of the dual and one SVD of its block factor
    "group_rs_checks": (orbit_checks, {"qr": 1 + 1, "inv": 1, "svd": 1 + 1 + 1}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_linear_algebra_counts(counts, name):
    op, expected = CASES[name]
    op()
    assert dict(counts) == expected


@pytest.mark.parametrize("system", [GENERAL, MIXED],
                         ids=["uniform", "mixed"])
def test_nearest_projective_takes_one_svd_of_the_block_factor(monkeypatch, system):
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    gf.nearest_projective(fresh(system))
    width = max(system.k)
    # the m x width x width block factor, not the m x width x d block stack
    assert shapes == [(system.m, width, width)]


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
        # S^{-1} from the cached R^{-1}; the kept rows' R_J and its spectrum; M_J's singular
        # values
        (lambda: gf.truncate(system, drop), {"qr": 1, "svd": 2}),
        # R_J^{-1} for their dual; Q_J comes from truncate's reflectors and the spectrum is
        # memoized
        (lambda: gf.truncated_canonical_dual(system, drop), {"inv": 1}),
        # no factor at all: the dropped blocks' norms take one SVD of the cached R_i
        (lambda: gf.ck_sufficient_condition(system, drop), {"svd": 1}),
        # no factor at all: R^{-1} is cached
        (lambda: gf.inverse_frame_operator(system), {}),
    ]
    for op, expected in pipeline:
        counts.clear()
        op()
        assert dict(counts) == expected
    assert len(survivors) == 1  # the kept blocks of truncated_canonical_dual
    # one spectrum per system and drop set: truncate's memo is the survivors' spectrum
    cached = [vars(owner)["_spectrum"] for owner in (system, *survivors)]
    assert cached[1] is vars(system)["_kept"][1]
    assert [sum(taken is spectrum for taken in spectra) for spectrum in cached] == [1, 1]
    assert len(spectra) == 2


@pytest.mark.parametrize("d, k, conditioning", [(12, (3,) * 6, 1e-3), (7, (1, 4, 1, 4, 2), 1e-3),
                                               (5, (4, 4, 4), 0.33)],
                         ids=["uniform", "mixed", "rejecting"])
def test_random_projective_takes_one_qr_and_one_eigvalsh_per_attempt(counts, monkeypatch,
                                                                     d, k, conditioning):
    attempts = Counter()
    is_rs = generate._analysis_is_rs

    def judged(*args, **kwargs):
        attempts["attempt"] += 1
        return is_rs(*args, **kwargs)

    monkeypatch.setattr(generate, "_analysis_is_rs", judged)
    rng = np.random.default_rng(12)
    for _ in range(6):
        random_projective(d, k, rng, conditioning=conditioning)
    n = attempts["attempt"]
    # the stacked QR of the padded draws and the verdict's eigvalsh; no svd, no inv
    assert dict(counts) == {"qr": n, "eigvalsh": n}
    assert n > 6 if conditioning > 1e-3 else n == 6  # the floor rejected some attempts


def test_error_report_factors_each_system_once(monkeypatch):
    factorizations = Counter()
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        factorizations["qr"] += 1
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    system = random_system(6, (2, 3, 4, 2, 4), 8)
    first, second = gf.dual_manifold_sample(system, seed=9, count=2)
    # the sampler's chart comes from one analysis QR, its scores from the block QR
    assert factorizations["qr"] == 2
    factorizations.clear()
    gf.error_report(system, first)  # the sampler's scores
    gf.error_report(system, second)
    gf.error_report(system, gf.ReconstructionSystem(first.blocks))  # the cached block factor
    assert factorizations["qr"] == 0
    other = gf.ReconstructionSystem(system.blocks)  # equal blocks, no scores, no block factor
    gf.error_report(other, first)
    gf.error_report(other, second)
    assert factorizations["qr"] == 1
