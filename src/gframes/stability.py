"""Stability of reconstruction under dropping whole blocks.

Dropping the blocks in ``J`` multiplies the block Gram sum on the left by

    M_J = S_J S^{-1} = I - sum_{i in J} V_i^* V_i S^{-1}

(``S_J`` is the survivors' Gram sum), so the survivors form a usable system
exactly when this factor is invertible.  A cheap sufficient condition for
invertibility is that the dropped spectral energy ``sum_{i in J} ||V_i||_sp^2``
stays below the lower frame bound.  Indices are 0-based.

Both truncation functions copy the kept rows once into a system of their own
and judge it by the one ``is_rs`` rule on its own QR factor ``R_J``, so
``truncate``'s verdict and bounds, ``classify`` of the kept blocks and
``truncated_canonical_dual`` (which does not run ``truncate``) agree, however
large the dropped blocks are.  ``truncate`` forms ``S_J = R_J^* R_J``, and
``S^{-1} = R^{-1} R^{-*}`` from the ``R^{-1}`` the system caches (see
``core.ReconstructionSystem``).  Each system memoizes the survivors' spectrum
``sigma(R_J)^2`` for the last drop set either function factored, so the
other one, called with that drop set, takes no SVD of ``R_J``.
``ck_sufficient_condition`` factors nothing once the system's spectrum and
block factor are cached: it reads the lower bound from the one and the
dropped blocks' spectral norms ``||R_i||_sp = ||V_i||_sp`` from one
values-only SVD of the other.  The truncated dual is certified by its
residual ``||sum_kept W_i^* V_i - I||``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._linalg import dagger, frobenius, hermitian_part, nonsingular, singular_values
from .core import (
    DEFAULT_TOLERANCE,
    ReconstructionSystem,
    _analysis_factor,
    _frame_bounds,
    _from_analysis,
    _index_subset,
    _inverse_gram,
)
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


def _rows(system: ReconstructionSystem, blocks: Sequence[int]) -> np.ndarray:
    """A copy of the analysis rows of the listed blocks, in block order."""
    chosen = np.zeros(system.m, dtype=bool)
    chosen[list(blocks)] = True
    return system.analysis[np.repeat(chosen, system.k)]


def _survivors(system: ReconstructionSystem, dropped: Iterable[int]
               ) -> tuple[tuple[int, ...], tuple[int, ...], ReconstructionSystem]:
    """The checked dropped and kept indices, and the kept blocks as a system of their own,
    its spectrum seeded from ``system``'s memo when that holds this drop set."""
    drop = _index_subset(dropped, system.m, "dropped")
    if len(drop) == system.m:
        raise StructuralError("cannot drop every block")
    kept = tuple(i for i in range(system.m) if i not in drop)
    survivors = _from_analysis(_rows(system, kept), [system.k[i] for i in kept])
    memo = vars(system).get("_kept_spectrum")
    if memo is not None and memo[0] == drop:
        vars(survivors)["_spectrum"] = memo[1]
    return drop, kept, survivors


def truncate(system: ReconstructionSystem, dropped: Iterable[int],
             tolerance: float = DEFAULT_TOLERANCE) -> TruncationReport:
    """Drop the blocks in ``dropped`` (a proper subset) and report stability; raises
    ``NotReconstructionSystemError`` unless the whole system is RS, as ``M_J`` needs ``S^{-1}``."""
    drop, kept, survivors = _survivors(system, dropped)
    inverse = _inverse_gram(system, tolerance)
    lower, _ = _frame_bounds(system)
    r = _analysis_factor(survivors, basis=False).r
    vars(system)["_kept_spectrum"] = drop, survivors._spectrum  # the memo _survivors reads
    survivor_gram = hermitian_part(dagger(r) @ r)
    truncation_factor = survivor_gram @ inverse
    bounds = _frame_bounds(survivors)
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
    ``GFramesError`` when ``||sum_kept W_i^* V_i - I|| > tolerance``.
    """
    drop, _, survivors = _survivors(system, dropped)
    factor = _analysis_factor(survivors)
    vars(system)["_kept_spectrum"] = drop, survivors._spectrum
    try:
        _frame_bounds(survivors, tolerance)
    except NotReconstructionSystemError:
        raise NotReconstructionSystemError(
            "surviving blocks have no positive lower frame bound") from None
    dual = factor.dual(survivors.k)
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
