"""Single-erasure error model and erasure-optimal duals.

When packet ``j`` is lost and the receiver reconstructs blindly (summing the
surviving packets through a dual ``W``), the error operator for a unit signal
is ``W_j^* V_j``.  Two figures of merit aggregate the per-index Frobenius
norms ``||W_j^* V_j||``: their Euclidean norm (``two_error``) and their
maximum (``worst_case``).

``error_report`` never forms the ``d x d`` products ``W_j^* V_j``: it takes
``||W_j^* V_j|| = ||R_j W_j||`` from the system's cached block factor, or
reads what ``dual_manifold_sample`` computed for a dual it drew from that
very system, with the same bits (``core._dual_scores``).

Both optima come from one weighted family of duals.  Write each block of an
injective system as ``V_i = R_i^* U_i`` with orthonormal rows ``U_i``, and for
weights ``lam_i > 0`` let ``D_lam = sum_i U_i^* U_i / lam_i``, a weighted sum of
the projections onto the block row spaces.  The dual minimizing
``sum_i lam_i ||W_i^* V_i||^2`` is

    W_i = lam_i^{-1} (V_i V_i^*)^{-1} V_i D_lam^{-1}

with value ``tr(D_lam^{-1})`` and per-block errors
``||W_i^* V_i||^2 = ||U_i D_lam^{-1}||^2 / lam_i^2``, which are also the
gradient of ``tr(D_lam^{-1})`` in ``lam``.

- Uniform weights give the unique two-error optimum (``optimal_dual_two_error``;
  Lopez and Han, 2010), which is the first point of ``wce_solve``'s ascent:

      W0_i = (V_i V_i^*)^{-1} V_i D^{-1},    D = sum_i U_i^* U_i

- For ``lam`` in the simplex, ``sqrt(tr(D_lam^{-1}))`` is a lower bound on the
  worst case of every dual, and the maximizing ``lam`` gives the worst-case
  optimum (minimax).  ``wce_solve`` climbs to it by multiplicative weights,
  then by Newton steps on the face of the simplex where the optimum lies, and
  returns the best dual found with the best lower bound, a duality
  certificate; ``wce_condition`` detects the regime where the canonical dual
  is provably the unique optimum.

Each op checks its own precondition first, reading only the block verdict it
needs (``core._block_spectra``: injectivity, or the projective weights), so a
system that fails it raises ``PreconditionError`` even when it also fails
``is_rs``; then the ``is_rs`` rule, from the cached spectrum or the one factor
of ``T`` that the canonical dual needs (``core._canonical``).

The family takes every ``U_i = Q_i^*`` and ``R_i`` from one full QR of the
same padded stack (numpy takes ``R`` from the same LAPACK call as the cached
factor), inverts all ``R_i`` in one stacked ``inv`` and builds each dual as
one padded product.  It re-checks no frame bound: the ``U_i`` are a
block-row scaling of ``T``, so they span ``C^d`` whenever ``T`` passes
``is_rs``.

``D_lam`` is never formed: with ``Y = diag(lam)^{-1/2} U`` (rows scaled
blockwise), ``D_lam = Y^* Y`` and ``D_lam^{-1} Y^*`` is the pseudoinverse of
``Y``, taken from a QR factorization that stays accurate when some weights
tend to zero.  The Hessian of ``tr(D_lam^{-1})`` that a Newton step needs
comes from the same pseudoinverse, so a step factors nothing else.

Block indices are 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Number

import numpy as np

from . import _exports
from ._linalg import check_tolerance, dagger, flat
from .core import (
    DEFAULT_TOLERANCE,
    ReconstructionSystem,
    _block_spectra,
    _block_stack,
    _canonical,
    _dual_scores,
    _frame_bounds,
    _from_analysis,
    _index_subset,
    _integer,
    _padded,
    synthesis_apply,
)
from .errors import PreconditionError, StructuralError

__all__ = _exports(__name__)

# Smallest weight relative to the largest: keeps 1/lam finite in the ascent.
_WEIGHT_FLOOR = np.finfo(float).eps ** 2
# Relative gap below which the ascent proposes Newton steps on the free face.
_NEWTON_GAP = 1e-1
# Smallest weight, relative to the largest, that a Newton step moves: below it the
# Hessian's diagonal is a difference of terms of size 1/lam_i and cancels.
_FACE_FLOOR = np.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class ErasureMask:
    """Set of lost packet indices out of ``m`` blocks (0-based)."""

    indices: frozenset
    m: int

    def __post_init__(self) -> None:
        raw = self.indices
        if isinstance(raw, Number) or getattr(raw, "ndim", None) == 0:  # one index
            raw = [raw]
        object.__setattr__(self, "m", _integer(self.m, "m must be an integer"))
        object.__setattr__(self, "indices", frozenset(_index_subset(raw, self.m, "mask")))

    @property
    def dropped(self) -> tuple[int, ...]:
        return tuple(sorted(self.indices))

    @property
    def kept(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.m) if i not in self.indices)


@dataclass(frozen=True)
class ErrorReport:
    """Per-index erasure errors with their Euclidean and max aggregates."""

    per_index: tuple[float, ...]
    two_error: float
    worst_case: float


def blind_reconstruct(system: ReconstructionSystem, dual: ReconstructionSystem,
                      packets, mask: ErasureMask) -> np.ndarray:
    """Sum the surviving packets through the dual: ``sum_{i not in J} W_i^* y_i``.

    This is the dual's ``synthesis_apply`` with each lost packet read as zeros,
    so a lost packet is never read.  The bits match a sum over the kept packets
    alone: a lost block adds an exact ``±0`` to a sum that starts at ``+0``.
    """
    if dual.signature != system.signature:
        raise StructuralError("dual and system signatures differ")
    if mask.m != system.m:
        raise StructuralError(f"mask is over {mask.m} packets, system has {system.m}")
    return synthesis_apply(dual, [np.zeros(system.k[i]) if i in mask.indices else y
                                  for i, y in enumerate(packets)])


def error_report(system: ReconstructionSystem,
                 dual: ReconstructionSystem) -> ErrorReport:
    """Per-index norms ``||W_j^* V_j||`` and their two aggregates."""
    if dual.signature != system.signature:
        raise StructuralError("dual and system signatures differ")
    per = tuple(_dual_scores(system, dual).tolist())
    return ErrorReport(per_index=per, two_error=math.sqrt(sum(e * e for e in per)),
                       worst_case=max(per))


@dataclass(frozen=True)
class WorstCaseSolution:
    """A dual with its worst-case error and a certificate of near-optimality.

    ``achieved`` is the measured worst case of ``dual``; ``lower_bound`` is a
    lower bound on the worst case of every dual, so the optimum lies in
    ``[lower_bound, achieved]``.  ``steps`` counts the weight vectors the
    ascent evaluated (0 when the dual is unique).
    """

    dual: ReconstructionSystem
    achieved: float
    lower_bound: float
    steps: int


class _WeightedDuals:
    """The duals minimizing ``sum_i lam_i ||W_i^* V_i||^2``, one per weight vector ``lam``."""

    def __init__(self, system: ReconstructionSystem) -> None:
        # V_i^* = Q_i R_i for all blocks in one QR of the zero-padded stack; the
        # padding leaves each leading Q_i and R_i as the block's own QR gives them
        q, r = np.linalg.qr(dagger(_block_stack(system)))
        self.rows = system.signature._rows
        self.bases = dagger(q)[self.rows]
        # (V_i V_i^*)^{-1} V_i = R_i^{-1} U_i; a unit diagonal on the padding keeps each
        # padded R_i invertible, and its inverse carries R_i^{-1} in the leading block
        self.coordinates = np.linalg.inv(r + ~self.rows[:, None, :] * np.eye(r.shape[-1]))
        self.sizes = np.asarray(system.k)
        self.starts = np.cumsum(self.sizes) - self.sizes

    def solve(self, weights: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """``(tr(D_lam^{-1}), squared per-block errors, pinv(Y))`` at ``weights``."""
        scales = np.repeat(weights ** -0.5, self.sizes)
        # Householder QR is row-wise stable on rows sorted heaviest first;
        # unsorted, weights near the floor left dual residuals near 1e-3.
        order = np.argsort(-scales, kind="stable")
        q, r = np.linalg.qr(scales[order, None] * self.bases[order])
        pinv = np.empty((r.shape[0], scales.size), dtype=np.complex128)
        pinv[:, order] = np.linalg.solve(r, dagger(q))
        energy = np.sum(np.abs(pinv) ** 2, axis=0)
        return float(energy.sum()), np.add.reduceat(energy, self.starts) / weights, pinv

    def hessian(self, weights: np.ndarray, errors: np.ndarray, pinv: np.ndarray) -> np.ndarray:
        """Hessian of ``tr(D_lam^{-1})`` in ``lam``, from ``solve``'s errors and ``pinv(Y)``.

        ``H_ij = 2 lam_i^-2 lam_j^-2 Re sum_{a in i, b in j} conj(A_ab) B_ab
        - delta_ij 2 g_i / lam_i`` with ``A = U D^{-1} U^*`` and ``B = U D^{-2} U^*``,
        both from ``G = pinv(Y) diag(lam^{1/2}) = D^{-1} U^*``: ``A = U G``, ``B = G^* G``.
        The row of a weight below ``_FACE_FLOOR`` cancels badly and is not to be used.
        """
        g = pinv * np.repeat(np.sqrt(weights), self.sizes)
        cross = np.real(np.conj(self.bases @ g) * (dagger(g) @ g))
        blocks = np.add.reduceat(np.add.reduceat(cross, self.starts, axis=0), self.starts, axis=1)
        inverse = weights ** -2.0
        return 2.0 * (inverse[:, None] * blocks * inverse - np.diag(errors / weights))

    def newton(self, weights: np.ndarray, bound: float, errors: np.ndarray,
               pinv: np.ndarray) -> np.ndarray | None:
        """Newton point of ``tr(D_lam^{-1})`` on the free face of the simplex at ``weights``.

        ``weights`` has largest entry 1 and ``bound = tr(D_lam^{-1}) / sum(lam)``.  The
        face holds the weights from ``_FACE_FLOOR`` up; a smaller weight goes to the
        floor when its gradient ``g_i`` is below ``bound`` and to ``_FACE_FLOOR``
        otherwise, so it can rise.  The step is cut short where a weight on the face
        would turn negative; that weight lands on the floor.  ``None`` when the
        equality-constrained system is singular.
        """
        free = weights >= _FACE_FLOOR
        size = np.count_nonzero(free)
        kkt = np.ones((size + 1, size + 1))
        kkt[:size, :size] = self.hessian(weights, errors, pinv)[np.ix_(free, free)]
        kkt[size, size] = 0.0
        try:
            direction = np.linalg.solve(kkt, np.append(-errors[free], 0.0))[:size]
        except np.linalg.LinAlgError:
            return None
        falling = direction < 0
        reach = np.min(weights[free][falling] / -direction[falling], initial=1.0)
        moved = weights.copy()
        moved[free] += reach * direction
        moved = np.maximum(moved / moved.max(), _WEIGHT_FLOOR)
        moved[~free] = np.where(errors[~free] < bound, _WEIGHT_FLOOR, _FACE_FLOOR)
        return moved

    def dual(self, weights: np.ndarray, pinv: np.ndarray) -> ReconstructionSystem:
        """``W_i = lam_i^{-1/2} R_i^{-1} (pinv(Y)_i)^*`` as one product of padded stacks."""
        stack = self.coordinates @ _padded(dagger(pinv), self.rows)
        return _from_analysis((stack / np.sqrt(weights)[:, None, None])[self.rows], self.sizes)


def optimal_dual_two_error(system: ReconstructionSystem,
                           tolerance: float = DEFAULT_TOLERANCE) -> ReconstructionSystem:
    """Unique two-error-optimal dual of an injective system, ``W_i = (V_i V_i^*)^{-1} V_i D^{-1}``
    with ``D`` the sum of the row-space projections; its squared two-error is ``tr(D^{-1})``."""
    if not _block_spectra(system, tolerance)[0]:
        raise PreconditionError("two-error optimization needs an injective system")
    _frame_bounds(system, tolerance)
    family = _WeightedDuals(system)
    uniform = np.ones(system.m)
    return family.dual(uniform, family.solve(uniform)[2])


def wce_condition(system: ReconstructionSystem,
                  tolerance: float = DEFAULT_TOLERANCE) -> float | None:
    """Common value of ``||S^{-1} V_i^* V_i||`` when it exists, else ``None``.

    When all the norms agree, the canonical dual is the unique worst-case
    optimal dual; returns the shared value in that case.  The norms are the
    canonical dual's erasure errors, since ``S^{-1} V_i^* V_i = W_i^* V_i``.
    """
    if _block_spectra(system, tolerance)[1] is None:
        raise PreconditionError("the worst-case criterion applies to projective systems")
    canonical = _canonical(system, tolerance)
    norms = error_report(system, canonical).per_index
    if flat(min(norms), max(norms), tolerance):
        return float(np.mean(norms))
    return None


def wce_solve(system: ReconstructionSystem, iterations: int = 5000,
              tolerance: float = DEFAULT_TOLERANCE) -> WorstCaseSolution:
    """Minimize the worst-case erasure error over all duals, with a certificate.

    An ascent on the weights ``lam`` of ``f(lam) = tr(D_lam^{-1})`` over the
    simplex.  Each step evaluates one weighted dual, with squared per-block
    errors ``g_i`` (the gradient of ``f``), and proposes the next weights in
    one of two ways:

    - the multiplicative step ``lam_i <- lam_i * sqrt(g_i)`` (then rescaled),
      the Silvey-Titterington-Torsney algorithm with exponent 1/2, which shifts
      weight to the blocks whose squared error is above the weighted average
      ``f(lam) / sum(lam)``.  The full exponent can fall into a two-cycle when
      many blocks overlap; the square root did not in any tested system.  That
      is an observation, not a theorem: Yu (2010) proves the multiplicative
      algorithm monotone for criteria of an information matrix linear in the
      weights, and ``D_lam`` is linear in ``1/lam``;
    - once the certified gap is below ``_NEWTON_GAP`` (relative), a Newton
      step on the free face: the weights from ``_FACE_FLOOR`` up.  A smaller
      weight whose ``g_i`` reaches ``f / sum(lam)`` is lifted to
      ``_FACE_FLOOR`` so it joins the face; the rest stay on the floor (see
      ``_WeightedDuals.newton``).  The step solves the equality-constrained
      system ``[H_FF 1; 1^T 0]`` with the Hessian of ``f`` and is cut short so
      that no weight turns negative; a weight the cut stops lands on the floor.

    The safeguard keeps the ascent monotone from the first Newton step on: a
    Newton point is kept only if it raises ``f / sum(lam)``; otherwise the
    next step is the multiplicative one from the point it left.  ``steps``
    counts the weight vectors evaluated, Newton points that were turned down
    included, and ``iterations`` caps it.  Every evaluated point certifies:
    its dual's worst case bounds the optimum above and ``sqrt(f / sum(lam))``
    below.  The ascent stops once the best dual's worst case is within
    ``tolerance`` (relative) of the best lower bound.

    The canonical dual is the starting incumbent and is kept unless a weighted
    dual beats it by more than the tolerance, so ``achieved`` never exceeds
    the canonical dual's worst case.  Minimal-redundancy systems have a unique
    dual, returned with zero gap.
    """
    check_tolerance(tolerance)
    if _integer(iterations, "iterations must be an integer") < 1:
        raise StructuralError("iterations must be at least 1")
    if not _block_spectra(system, tolerance)[0]:
        raise PreconditionError("worst-case optimization needs an injective system")

    canonical = _canonical(system, tolerance)
    incumbent = error_report(system, canonical).worst_case
    if system.tr_k == system.d:
        return WorstCaseSolution(canonical, incumbent, incumbent, 0)

    family = _WeightedDuals(system)
    weights, left = np.ones(system.m), None
    upper, lower, best = incumbent, 0.0, None
    for step in range(1, iterations + 1):
        value, errors, pinv = family.solve(weights)
        # tr(D_lam^{-1}) is homogeneous of degree 1 in lam: normalize to the simplex
        bound = value / weights.sum()
        lower = max(lower, float(np.sqrt(bound)))
        worst = float(np.sqrt(errors.max()))
        if worst < upper:
            upper, best = worst, (weights, pinv)
        if upper - lower <= tolerance * upper:
            break
        newton = None
        if left is not None and bound <= left[1]:
            # a Newton point must raise the bound: step from the point it left instead
            weights, _, errors = left
        elif upper - lower <= _NEWTON_GAP * upper:
            newton = family.newton(weights, bound, errors, pinv)
        left = None if newton is None else (weights, bound, errors)
        weights = weights * np.sqrt(errors) if newton is None else newton
        weights = np.maximum(weights / weights.max(), _WEIGHT_FLOOR)

    if best is not None:
        candidate = family.dual(*best)
        measured = error_report(system, candidate).worst_case
        if incumbent - measured > tolerance * incumbent:
            return WorstCaseSolution(candidate, measured, lower, step)
    return WorstCaseSolution(canonical, incumbent, lower, step)


def wce_minimize(system: ReconstructionSystem, iterations: int = 5000,
                 tolerance: float = DEFAULT_TOLERANCE) -> tuple[ReconstructionSystem, float]:
    """``(dual, achieved_worst_case)`` from ``wce_solve``."""
    solution = wce_solve(system, iterations, tolerance)
    return solution.dual, solution.achieved
