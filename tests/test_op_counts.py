"""Each op builds the block Gram sum S, takes its spectrum and inverts it as few times as it needs.

The counters wrap ``core._block_gram`` (every ``frame_operator`` call goes
through it) and the ``numpy.linalg`` entry points ``eigvalsh``, ``inv`` and
``svd``.  Calls numpy makes internally (``norm(a, 2)``, ``qr``, ``solve``)
are not counted.  A separate counter checks that ``error_report`` factors
each system once, however many duals it scores against it.
"""

from collections import Counter

import numpy as np
import pytest

import gframes as gf
import gframes.core as core
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


CASES = {
    # S once, its spectrum once, S^{-1} once; the survivors' bounds and M_J's singular values
    "truncate": (lambda: gf.truncate(GENERAL, [0, 3]),
                 {"gram": 1, "eigvalsh": 2, "inv": 1, "svd": 1}),
    # truncate's S^{-1} is reused; the two extra inverses are the truncated S and M_J
    "truncated_canonical_dual": (lambda: gf.truncated_canonical_dual(GENERAL, [0, 3]),
                                 {"gram": 1, "eigvalsh": 2, "inv": 3, "svd": 1}),
    # no S at all; per block one values-only SVD and the polar SVD
    "nearest_projective": (lambda: gf.nearest_projective(GENERAL),
                           {"svd": 2 * GENERAL.m}),
    # classify's S is inverted directly
    "wce_condition": (lambda: gf.wce_condition(PROJECTIVE),
                      {"gram": 1, "eigvalsh": 1, "inv": 1, "svd": PROJECTIVE.m}),
    # plus the weighted family: one spectrum of the stacked bases, one R_i^{-1} per block
    "wce_solve": (lambda: gf.wce_solve(PROJECTIVE, iterations=3),
                  {"gram": 1, "eigvalsh": 2, "inv": 1 + PROJECTIVE.m, "svd": PROJECTIVE.m}),
    # one S for the system; per block a kernel SVD, a restriction SVD and the dual's spectrum
    "riesz_projective_dual_check": (lambda: gf.riesz_projective_dual_check(RIESZ),
                                    {"gram": 1, "eigvalsh": 1, "inv": 1, "svd": 4 * RIESZ.m}),
    # no S at all: the weights come from one values-only SVD per block
    "commuting_projective_dual": (lambda: gf.commuting_projective_dual(COMMUTING),
                                  {"svd": COMMUTING.m}),
    # S, its spectrum and S^{-1} once; two SVDs of the dual base, then nearest_projective's
    "group_rs_checks": (orbit_checks, {"gram": 1, "eigvalsh": 1, "inv": 1, "svd": 2 + 2 * 6}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_linear_algebra_counts(counts, name):
    op, expected = CASES[name]
    op()
    assert dict(counts) == expected


def test_error_report_factors_each_system_once(monkeypatch):
    factorizations = Counter()
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        factorizations["qr"] += 1
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    system = random_system(6, (2, 3, 4, 2, 4), 8)
    first, second = gf.dual_manifold_sample(system, seed=9, count=2)
    gf.error_report(system, first)
    assert factorizations["qr"] == 1
    gf.error_report(system, second)
    gf.error_report(system, first)
    assert factorizations["qr"] == 1
