"""Acceptance gate: one check per headline guarantee, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Every tolerance below is part of the package contract; loosening one is a
behavior change, not a test fix.
"""

import numpy as np

import gframes as gf
from gframes._linalg import complex_gaussian, frobenius
from gframes.generate import random_projective, random_system
from helpers import (
    draw_commuting,
    draw_injective,
    draw_nonuniform_projective,
    draw_protocol,
    draw_riesz,
    draw_shape,
    eigen_bounds,
    spectral_norm,
)


def verdict(number: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"acceptance {number:02d} [{status}] {label}")
    assert not failures, f"criterion {number} ({label}): " + "; ".join(failures)


def test_criterion_01_planes_fixture_regression():
    failures = []
    fixtures = gf.fixtures()
    system = fixtures["overlapping_planes"]

    gram = gf.frame_operator(system)
    if np.max(np.abs(gram - np.diag([1.0, 1.0, 2.0]))) > 1e-14:
        failures.append("frame operator is not diag(1, 1, 2)")

    first = gf.canonical_dual(system).blocks[0]
    if gf.is_weighted_coisometry(first):
        failures.append("canonical dual first block passed the coisometry test")

    candidate = fixtures["overlapping_planes_dual"]
    report = gf.verify_dual(candidate, system)
    if report.dual_residual > 1e-12:
        failures.append(f"dual residual {report.dual_residual:.3e} > 1e-12")
    if not gf.classify(candidate).is_projective:
        failures.append("the companion dual is not projective")

    verdict(1, "planes fixture regression", failures)


def test_criterion_02_two_error_optimum_beats_all_sampled_duals():
    failures = []
    for trial in range(50):
        rng = np.random.default_rng(920000 + trial)
        system = draw_nonuniform_projective(rng)
        best = gf.optimal_dual_two_error(system)
        floor = gf.error_report(system, best).two_error

        samples = gf.dual_manifold_sample(system, seed=921000 + trial, count=1000)
        lowest = min(gf.error_report(system, s).two_error for s in samples)
        if lowest < floor - 1e-9:
            failures.append(f"trial {trial}: sampled dual at {lowest:.12f} "
                            f"beats the optimum {floor:.12f}")

        manifold = gf.dual_manifold(system)
        base = gf.synthesis_matrix(best)
        direction_rng = np.random.default_rng(922000 + trial)
        for _ in range(50):
            step = complex_gaussian(direction_rng, base.shape, 1.0)
            step = 1e-4 * step / frobenius(step)
            shifted = gf.system_from_synthesis(base + step @ manifold.range_complement,
                                               system.k)
            increase = gf.error_report(system, shifted).two_error ** 2 - floor ** 2
            if increase < -1e-8:
                failures.append(f"trial {trial}: directional decrease {increase:.3e}")
                break
    verdict(2, "two-error optimum beats 1000 sampled duals x 50 systems", failures)


def test_criterion_03_uniform_weights_make_canonical_optimal():
    failures = []
    for trial in range(100):
        rng = np.random.default_rng(930000 + trial)
        d, k = draw_shape(rng, injective=True)
        weight = float(0.5 + 1.5 * rng.random())
        system = random_projective(d, k, rng, weights=[weight] * len(k))
        gap = gf.blockwise_distance(gf.optimal_dual_two_error(system),
                                    gf.canonical_dual(system))
        if gap > 1e-10:
            failures.append(f"trial {trial}: blockwise gap {gap:.3e}")
    verdict(3, "uniform projective: optimum equals canonical dual", failures)


def test_criterion_04_normalized_factorization_identity():
    failures = []
    for trial in range(50):
        rng = np.random.default_rng(920000 + trial)  # criterion-2 batch
        system = draw_nonuniform_projective(rng)
        weights = gf.classify(system).weights
        best = gf.optimal_dual_two_error(system)

        normalized = gf.ReconstructionSystem(
            [np.asarray(b) / v for b, v in zip(system.blocks, weights)])
        via_normalized = gf.canonical_dual(normalized)
        gap = max(np.max(np.abs(np.asarray(w) - np.asarray(u) / v))
                  for w, u, v in zip(best.blocks, via_normalized.blocks, weights))
        if gap > 1e-10:
            failures.append(f"trial {trial}: factorization gap {gap:.3e}")
    verdict(4, "optimum factors through the normalized system's canonical dual",
            failures)


def test_criterion_05_worst_case_optimality_of_canonical_dual():
    failures = []
    for trial in range(50):
        rng = np.random.default_rng(950000 + trial)
        system = draw_protocol(rng)
        criterion = gf.wce_condition(system)
        if criterion is None:
            failures.append(f"trial {trial}: constant-norm criterion missing")
            continue

        canonical = gf.canonical_dual(system)
        floor = gf.error_report(system, canonical).worst_case
        samples = gf.dual_manifold_sample(system, seed=951000 + trial, count=1000)
        lowest = min(gf.error_report(system, s).worst_case for s in samples)
        if lowest < floor - 1e-6:
            failures.append(f"trial {trial}: sampled worst case {lowest:.9f} "
                            f"under {floor:.9f}")

        _, achieved = gf.wce_minimize(system)
        if abs(achieved - floor) > 1e-5:
            failures.append(f"trial {trial}: minimizer reached {achieved:.9f}, "
                            f"canonical worst case is {floor:.9f}")
    verdict(5, "canonical dual is worst-case optimal on constant-norm systems",
            failures)


def test_criterion_06_truncation_identities_and_bounds():
    failures = []
    for trial in range(200):
        rng = np.random.default_rng(960000 + trial)
        d, k = draw_shape(rng)
        system = random_system(d, k, rng)
        size = int(rng.integers(0, system.m))
        drop = sorted(int(i) for i in rng.choice(system.m, size=size, replace=False))

        report = gf.truncate(system, drop)
        gram = gf.frame_operator(system)
        identity_gap = frobenius(report.truncated_frame_operator
                                 - report.truncation_factor @ gram)
        if identity_gap > 1e-10:
            failures.append(f"trial {trial}: factor identity off by {identity_gap:.3e}")

        lower, upper = eigen_bounds(gram)
        if report.is_rs_after:
            after_lower, after_upper = report.bounds_after
            if report.lower_bound_estimate > after_lower + 1e-10:
                failures.append(f"trial {trial}: lower estimate exceeds the bound")
            if after_upper > upper + 1e-10:
                failures.append(f"trial {trial}: upper bound grew")

            dual = gf.truncated_canonical_dual(system, drop)
            inverse_factor = np.linalg.inv(report.truncation_factor)
            inverse_gram = gf.inverse_frame_operator(system)
            agreement = max(
                np.max(np.abs(np.asarray(block)
                              - system.blocks[i] @ inverse_gram @ inverse_factor))
                for block, i in zip(dual.blocks, report.kept))
            if agreement > 1e-9:
                failures.append(f"trial {trial}: dual formulas differ by {agreement:.3e}")

        holds, estimate = gf.ck_sufficient_condition(system, drop)
        if holds:
            if not report.is_rs_after:
                failures.append(f"trial {trial}: energy condition held but "
                                "the survivors are not a system")
            elif estimate > report.bounds_after[0] + 1e-10:
                failures.append(f"trial {trial}: energy estimate exceeds the bound")
            dropped_energy = sum(spectral_norm(system.blocks[i]) ** 2 for i in drop)
            if abs((lower - dropped_energy) - estimate) > 1e-10:
                failures.append(f"trial {trial}: energy estimate is inconsistent")
    verdict(6, "truncation factor identity, bound bracketing, dual agreement",
            failures)


def test_criterion_07_projective_approximation_optimality():
    failures = []
    for trial in range(50):
        rng = np.random.default_rng(970000 + trial)
        system = draw_injective(rng)
        approx, distance = gf.nearest_projective(system)
        weights = gf.classify(approx).weights

        for i, block in enumerate(system.blocks):
            sigma = np.linalg.svd(np.asarray(block), compute_uv=False)
            if abs(weights[i] - float(np.sum(sigma)) / block.shape[0]) > 1e-12:
                failures.append(f"trial {trial}: weight {i} is not the mean "
                                "singular value")

        for _ in range(1000):
            competitor = random_projective(system.d, system.k, rng)
            gap = np.sqrt(sum(frobenius(np.asarray(a) - np.asarray(b)) ** 2
                              for a, b in zip(system.blocks, competitor.blocks)))
            if gap < distance - 1e-9:
                failures.append(f"trial {trial}: competitor at {gap:.12f} beats "
                                f"{distance:.12f}")
                break

        for i in range(system.m):
            for sign in (1.0, -1.0):
                scaled = [np.asarray(b, dtype=np.complex128).copy()
                          for b in approx.blocks]
                scaled[i] *= (weights[i] + sign * 1e-4) / weights[i]
                perturbed = np.sqrt(sum(frobenius(np.asarray(a) - b) ** 2
                                        for a, b in zip(system.blocks, scaled)))
                if perturbed <= distance:
                    failures.append(f"trial {trial}: weight perturbation did not "
                                    "increase the distance")

        _, fixed_distance = gf.nearest_projective(approx)
        if fixed_distance > 1e-12:
            failures.append(f"trial {trial}: projective input moved by "
                            f"{fixed_distance:.3e}")
    verdict(7, "nearest projective beats 1000 competitors x 50 systems", failures)


def test_criterion_08_group_orbit_structure():
    failures = []
    representations = [gf.cyclic_shift_representation(n) for n in (4, 5, 6, 7, 8)]
    representations += [
        gf.direct_product(gf.cyclic_shift_representation(2),
                          gf.cyclic_shift_representation(2)),
        gf.direct_product(gf.cyclic_shift_representation(2),
                          gf.cyclic_shift_representation(3)),
        gf.direct_product(gf.cyclic_shift_representation(2),
                          gf.cyclic_shift_representation(4)),
    ]
    rng = np.random.default_rng(980000)
    for index, rep in enumerate(representations):
        for _ in range(3):
            k = int(rng.integers(1, min(4, rep.dimension) + 1))
            base = complex_gaussian(rng, (k, rep.dimension), 1.0)
            report = gf.group_rs_checks(rep, base)
            if report.commutation_residual > 1e-10:
                failures.append(f"rep {index}: commutation residual "
                                f"{report.commutation_residual:.3e}")
            if report.canonical_dual_deviation > 1e-10:
                failures.append(f"rep {index}: dual orbit deviation "
                                f"{report.canonical_dual_deviation:.3e}")
            if report.projective_approximation_deviation is None:
                failures.append(f"rep {index}: approximation check skipped")
            elif report.projective_approximation_deviation > 1e-9:
                failures.append(f"rep {index}: approximation orbit deviation "
                                f"{report.projective_approximation_deviation:.3e}")
    verdict(8, "orbit systems: commutation, dual orbit, projective orbit", failures)


def test_criterion_09_minimal_redundancy_projective_duals():
    failures = []
    fixtures = gf.fixtures()

    missing = gf.riesz_projective_dual_check(fixtures["riesz_without_projective_dual"])
    if missing.has_projective_dual:
        failures.append("the obstructed fixture reported a projective dual")
    if missing.per_index[0].is_scaled_isometry:
        failures.append("the obstructed fixture's first block passed the "
                        "restriction test")
    present = gf.riesz_projective_dual_check(fixtures["riesz_with_projective_dual"])
    if not present.has_projective_dual:
        failures.append("the companion fixture reported no projective dual")

    for trial in range(50):
        rng = np.random.default_rng(940000 + trial)
        system = draw_riesz(rng, singleton_blocks=(trial % 5 == 0))
        check = gf.riesz_projective_dual_check(system)
        if check.has_projective_dual != check.canonical_dual_projective:
            failures.append(f"trial {trial}: restriction and direct criteria "
                            "disagree")
        canonical = gf.canonical_dual(system)
        for sample in gf.dual_manifold_sample(system, seed=941000 + trial, count=5):
            if gf.blockwise_distance(sample, canonical) > 1e-10:
                failures.append(f"trial {trial}: sampled dual left the canonical one")
                break
    verdict(9, "minimal redundancy: dual uniqueness and the projective criterion",
            failures)


def test_criterion_10_commuting_projection_duals():
    failures = []
    seen = set()
    for trial in range(30):
        rng = np.random.default_rng(990000 + trial)
        forced = (trial % 8) + 1 if trial < 16 else None
        system, counts = draw_commuting(rng, multiplicity=forced)
        seen.update(counts)

        dual = gf.commuting_projective_dual(system)
        residual = gf.verify_dual(dual, system).dual_residual
        if residual > 1e-9:
            failures.append(f"trial {trial}: dual residual {residual:.3e}")
        if not gf.classify(dual).is_projective:
            failures.append(f"trial {trial}: constructed dual is not projective")
    if not set(range(1, 9)) <= seen:
        failures.append(f"multiplicities covered only {sorted(seen)}")
    verdict(10, "commuting projections: projective duals across multiplicities 1-8",
            failures)
