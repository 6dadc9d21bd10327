"""Stability of reconstruction under dropping whole blocks.

Dropping the blocks in ``J`` multiplies the block Gram sum on the left by

    M_J = S_J S^{-1} = I - sum_{i in J} V_i^* V_i S^{-1}

(``S_J`` is the survivors' Gram sum), so the survivors form a usable system
exactly when this factor is invertible.  A cheap sufficient condition for
invertibility is that the dropped spectral energy ``sum_{i in J} ||V_i||_sp^2``
stays below the lower frame bound.  Indices are 0-based.

Both truncation functions copy the kept rows and judge them by the one
``is_rs`` rule on their own QR factor ``R_J``, so ``truncate``'s verdict and
bounds, ``classify`` of the kept blocks and ``truncated_canonical_dual`` agree,
however large the dropped blocks are.  ``truncate`` forms ``S_J = R_J^* R_J``
and ``S^{-1}`` from the ``R^{-1}`` the system caches.  The survivors' factor
and spectrum come from ``core._survivor_factor`` and ``core._survivor_dual``, which
share one memo per system for the last drop set, so the pair ``truncate``,
``truncated_canonical_dual`` factors the survivors once.
``ck_sufficient_condition`` reads the lower bound from the cached spectrum and
the dropped norms ``||V_i||_sp`` from the cached block factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _exports
from ._linalg import dagger, frobenius, hermitian_part, nonsingular, singular_values
from .core import (
    DEFAULT_TOLERANCE,
    ReconstructionSystem,
    _frame_bounds,
    _from_analysis,
    _index_subset,
    _inverse_gram,
    _survivor_dual,
    _survivor_factor,
)
from .errors import GFramesError, NotReconstructionSystemError, StructuralError

__all__ = _exports(__name__)


@dataclass(frozen=True, eq=False)
class TruncationReport:
    """Outcome of dropping a block subset.

    ``truncation_factor`` is the matrix ``M_J`` above; multiplying it into
    the original Gram sum reproduces ``truncated_frame_operator``, which is
    formed from the surviving blocks as ``R_J^* R_J``.  ``lower_bound_estimate``
    is the guaranteed lower frame bound ``A / ||M_J^{-1}||_sp``;
    ``bounds_after`` holds the extreme eigenvalues of the truncated Gram sum,
    read from the survivors' own spectrum, when ``is_rs_after`` says that the
    survivors pass the ``is_rs`` rule.
    """

    dropped: tuple[int, ...]
    kept: tuple[int, ...]
    truncation_factor: np.ndarray
    is_rs_after: bool
    truncated_frame_operator: np.ndarray
    lower_bound_estimate: float
    bounds_after: tuple[float, float] | None


def _survivor_rows(system: ReconstructionSystem, dropped: Iterable[int]
                   ) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
    """The checked dropped and kept indices, and a copy of the kept blocks' analysis rows."""
    drop = _index_subset(dropped, system.m, "dropped")
    if len(drop) == system.m:
        raise StructuralError("cannot drop every block")
    kept = tuple(i for i in range(system.m) if i not in drop)
    return drop, kept, np.concatenate([system.blocks[i] for i in kept])


def truncate(system: ReconstructionSystem, dropped: Iterable[int],
             tolerance: float = DEFAULT_TOLERANCE) -> TruncationReport:
    """Drop the blocks in ``dropped`` (a proper subset) and report stability; raises
    ``NotReconstructionSystemError`` unless the whole system is RS, as ``M_J`` needs ``S^{-1}``."""
    drop, kept, rows = _survivor_rows(system, dropped)
    inverse = _inverse_gram(system, tolerance)
    lower, _ = _frame_bounds(system, tolerance)
    r, spectrum = _survivor_factor(system, drop, rows)
    survivor_gram = hermitian_part(dagger(r) @ r)
    truncation_factor = survivor_gram @ inverse
    bounds = float(spectrum[-1]), float(spectrum[0])
    is_rs_after = nonsingular(*bounds, tolerance)
    return TruncationReport(
        dropped=drop,
        kept=kept,
        truncation_factor=truncation_factor,
        is_rs_after=is_rs_after,
        truncated_frame_operator=survivor_gram,
        lower_bound_estimate=lower * float(singular_values(truncation_factor)[-1]),
        bounds_after=bounds if is_rs_after else None,
    )


def truncated_canonical_dual(system: ReconstructionSystem, dropped: Iterable[int],
                             tolerance: float = DEFAULT_TOLERANCE) -> ReconstructionSystem:
    """Canonical dual of the survivors from their own QR factor, certified by its residual.

    Raises ``NotReconstructionSystemError`` when the kept rows fail the ``is_rs``
    rule, exactly when ``canonical_dual`` of the kept blocks raises, and
    ``GFramesError`` when ``||sum_{i not in J} W_i^* V_i - I|| > tolerance``.
    """
    drop, kept, rows = _survivor_rows(system, dropped)
    survivors = _from_analysis(rows, [system.k[i] for i in kept])
    try:
        dual = _survivor_dual(system, drop, survivors, tolerance)
    except NotReconstructionSystemError:
        raise NotReconstructionSystemError(
            "surviving blocks have no positive lower frame bound") from None
    residual = frobenius(dagger(dual.analysis) @ survivors.analysis - np.eye(system.d))
    if residual > tolerance:
        raise GFramesError(f"truncated canonical dual misses the identity by {residual:.3e}")
    return dual


def ck_sufficient_condition(system: ReconstructionSystem, dropped: Iterable[int],
                            tolerance: float = DEFAULT_TOLERANCE) -> tuple[bool, float]:
    """Spectral-energy test for safe truncation.

    Returns ``(holds, estimate)`` where ``estimate = A - sum_{i in J}
    ||V_i||_sp^2``; when positive, the survivors are guaranteed to form a
    system with lower frame bound at least ``estimate``.
    """
    drop = _index_subset(dropped, system.m, "dropped")
    lower, _ = _frame_bounds(system, tolerance)
    tops = []
    if drop:  # ||V_i||_sp = ||R_i||_sp from the cached block factor
        tops = np.linalg.svd(system._block_factor[list(drop)], compute_uv=False)[:, 0].tolist()
    total = sum(top ** 2 for top in tops)  # in block order, as a per-block loop adds them
    estimate = lower - total
    return total < lower, float(estimate)
