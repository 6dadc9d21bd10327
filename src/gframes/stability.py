"""Stability of reconstruction under dropping whole blocks.

Dropping the blocks in ``J`` multiplies the block Gram sum on the left by

    M_J = I - sum_{i in J} V_i^* V_i S^{-1}

so the survivors form a usable system exactly when this factor is
invertible, and then their canonical dual is reachable two ways: from the
truncated Gram sum directly, or from the full canonical dual times
``M_J^{-1}``.  A cheap sufficient condition for invertibility is that the
dropped spectral energy ``sum_{i in J} ||V_i||_sp^2`` stays below the lower
frame bound.  Indices are 0-based.

``S``, its lower bound and ``S^{-1}`` are computed once per call, through the
singular-``S`` check shared with ``duals``; ``truncated_canonical_dual``
reuses the ``S^{-1}`` that went into ``M_J``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._linalg import (
    dagger,
    eigen_bounds,
    frobenius,
    hermitian_part,
    singular_values,
    spectral_norm,
    threshold,
)
from .core import DEFAULT_TOLERANCE, ReconstructionSystem, _index_subset
from .duals import _checked_frame_operator
from .errors import GFramesError, NotReconstructionSystemError, StructuralError

__all__ = [
    "TruncationReport",
    "ck_sufficient_condition",
    "truncate",
    "truncated_canonical_dual",
]


@dataclass(frozen=True, eq=False)
class TruncationReport:
    """Outcome of dropping a block subset.

    ``truncation_factor`` is the matrix ``M_J`` above; multiplying it into
    the original Gram sum reproduces ``truncated_frame_operator``, which is
    formed as ``S - sum_{i in J} V_i^* V_i``, not from the surviving blocks.
    ``lower_bound_estimate`` is the guaranteed lower frame bound
    ``A / ||M_J^{-1}||_sp``; ``bounds_after`` holds the actual extreme
    eigenvalues of the truncated Gram sum when the survivors form a system.
    """

    dropped: tuple[int, ...]
    kept: tuple[int, ...]
    truncation_factor: np.ndarray
    is_rs_after: bool
    truncated_frame_operator: np.ndarray
    lower_bound_estimate: float
    bounds_after: tuple[float, float] | None


def _truncation(system: ReconstructionSystem, dropped: Iterable[int],
                tolerance: float) -> tuple[TruncationReport, np.ndarray]:
    """``truncate`` together with the inverse full Gram sum ``S^{-1}`` it used."""
    drop = _index_subset(dropped, system.m, "dropped")
    if len(drop) == system.m:
        raise StructuralError("cannot drop every block")
    gram, lower, _ = _checked_frame_operator(system, tolerance)
    inverse = np.linalg.inv(gram)

    removed = np.zeros((system.d, system.d), dtype=np.complex128)
    for i in drop:
        removed += dagger(system.blocks[i]) @ system.blocks[i]
    factor = np.eye(system.d) - removed @ inverse

    sigma = singular_values(factor)
    smallest = float(sigma[-1])
    is_rs_after = smallest > threshold(tolerance, float(sigma[0]))

    kept = tuple(i for i in range(system.m) if i not in drop)
    survivor_gram = hermitian_part(gram - removed)

    report = TruncationReport(
        dropped=drop,
        kept=kept,
        truncation_factor=factor,
        is_rs_after=is_rs_after,
        truncated_frame_operator=survivor_gram,
        lower_bound_estimate=lower * smallest,
        bounds_after=eigen_bounds(survivor_gram) if is_rs_after else None,
    )
    return report, inverse


def truncate(system: ReconstructionSystem, dropped: Iterable[int],
             tolerance: float = DEFAULT_TOLERANCE) -> TruncationReport:
    """Drop the blocks in ``dropped`` (a proper subset) and report stability."""
    return _truncation(system, dropped, tolerance)[0]


def truncated_canonical_dual(system: ReconstructionSystem, dropped: Iterable[int],
                             tolerance: float = DEFAULT_TOLERANCE) -> ReconstructionSystem:
    """Canonical dual of the survivors, computed two ways and cross-checked.

    Path one inverts the truncated Gram sum; path two multiplies the full
    canonical dual blocks by the inverse truncation factor.  The two agree
    mathematically; a discrepancy beyond ``tolerance`` (relative) means the
    truncation is too ill-conditioned to trust and raises ``GFramesError``.
    """
    report, full_inverse = _truncation(system, dropped, tolerance)
    if not report.is_rs_after:
        raise NotReconstructionSystemError(
            "surviving blocks have no positive lower frame bound")
    direct_inverse = np.linalg.inv(report.truncated_frame_operator)
    direct = [system.blocks[i] @ direct_inverse for i in report.kept]

    factor_inverse = np.linalg.inv(report.truncation_factor)
    via_factor = [system.blocks[i] @ full_inverse @ factor_inverse for i in report.kept]

    scale = max(frobenius(b) for b in direct)
    deviation = max(frobenius(a - b) for a, b in zip(direct, via_factor))
    if deviation > threshold(tolerance, scale):
        raise GFramesError(
            f"truncated dual characterizations disagree by {deviation:.3e}")
    return ReconstructionSystem(tuple(direct))


def ck_sufficient_condition(system: ReconstructionSystem, dropped: Iterable[int],
                            tolerance: float = DEFAULT_TOLERANCE) -> tuple[bool, float]:
    """Spectral-energy test for safe truncation.

    Returns ``(holds, estimate)`` where ``estimate = A - sum_{i in J}
    ||V_i||_sp^2``; when positive, the survivors are guaranteed to form a
    system with lower frame bound at least ``estimate``.
    """
    drop = _index_subset(dropped, system.m, "dropped")
    lower = _checked_frame_operator(system, tolerance)[1]
    total = sum(spectral_norm(system.blocks[i]) ** 2 for i in drop)
    estimate = lower - total
    return total < lower, float(estimate)
