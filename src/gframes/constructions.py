"""Structured system constructions: group orbits, commuting-projection duals,
and projective duals of minimal-redundancy systems.

Three independent construction families live here.

Group orbits: a finite unitary representation ``g -> U_g`` turns one base
block ``V`` into the system ``{V U_g}``.  Its block Gram sum commutes with
every ``U_h``, so the canonical dual is again a group orbit (of ``V S^{-1}``)
and, for surjective bases, so is the nearest projective system.  The
representation keeps its elements as one read-only ``n x d x d`` stack, and
validation, the orbit and the commutators are stacked products over it.

Commuting projections: when the normalized block Gram matrices
``P_i = v_i^{-2} V_i^* V_i`` pairwise commute they share eigenspaces; placing
unimodular coefficients on the common eigenspace resolution produces duals
``W_i = v_i^{-2} V_i U_i`` that are themselves projective, provided the
coefficients assigned to each eigenspace have conjugates summing to one.

Minimal redundancy: when the block dimensions add up to the domain dimension
the dual is unique, so a projective dual exists iff the canonical dual is
projective; equivalently each block must act as a multiple of an isometry on
the intersection of the other blocks' kernels.  Both criteria are computed
and cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _exports
from ._linalg import (
    dagger,
    flat,
    frobenius,
    hermitian_part,
    nonsingular,
    null_space,
    singular_values,
)
from .core import (
    DEFAULT_TOLERANCE,
    ReconstructionSystem,
    _block_spectra,
    _canonical,
    _from_analysis,
    _integer,
    _inverse_gram,
    _read_only,
    blockwise_distance,
)
from .errors import (
    NotReconstructionSystemError,
    PreconditionError,
    StructuralError,
)

REPRESENTATION_TOLERANCE = 1e-10

# primitive sixth root of unity: unimodular, and it plus its conjugate is 1
_HEXAGONAL = complex(0.5, math.sqrt(3.0) / 2.0)

__all__ = _exports(__name__)


@dataclass(frozen=True, eq=False)
class UnitaryRepresentation:
    """Finite group of unitaries with its multiplication table.

    ``table[g, h]`` is the index of ``U_g U_h``.  The elements are copied once
    into a read-only ``n x d x d`` stack, of which ``unitaries`` holds
    read-only views, and the table into a read-only integer array, so later
    writes to the inputs do not reach the representation.  Validation checks
    the stack for unitarity, the table for closure against actual products
    and for an identity element, each matrix within ``1e-10`` in Frobenius
    norm; a non-finite element fails.  ``copy``, ``deepcopy`` and ``pickle``
    rebuild a representation from its elements and table through this check.
    """

    unitaries: tuple[np.ndarray, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        mats = [np.asarray(u, dtype=np.complex128) for u in self.unitaries]
        if not mats:
            raise StructuralError("a representation needs at least one element")
        d = mats[0].shape[0] if mats[0].ndim else 1  # a 0-d element is no 1 x 1 matrix
        for g, u in enumerate(mats):
            if u.shape != (d, d):
                raise StructuralError(f"element {g} is not {d} x {d}")
        if d < 1:
            raise StructuralError("element 0 is 0 x 0; elements must be at least 1 x 1")
        stack = _read_only(np.array(mats))
        unfit = _misfits(dagger(stack) @ stack - np.eye(d))
        if unfit.size:
            raise StructuralError(f"element {unfit[0]} is not unitary")
        m = len(mats)
        table = np.asarray(self.table)
        if (table.dtype.kind not in "iu" or table.shape != (m, m)
                or table.min() < 0 or table.max() >= m):
            raise StructuralError(f"table must be {m} x {m} with entries in [0, {m})")
        table = _read_only(table.astype(int))
        # reused across rows: fresh n x d x d temporaries per row cost more than the products
        product, picked = np.empty_like(stack), np.empty_like(stack)
        for g in range(m):
            np.matmul(stack[g], stack, out=product)
            np.take(stack, table[g], axis=0, out=picked, mode="clip")  # entries checked above
            unfit = _misfits(np.subtract(product, picked, out=product))
            if unfit.size:
                raise StructuralError(f"table entry ({g}, {unfit[0]}) does not match the product")
        # e is the identity index when row e and column e of the table both read 0..n-1
        identity = np.flatnonzero((np.stack((table, table.T)) == np.arange(m)).all(axis=(0, 2)))
        if not identity.size or _misfits(stack[identity[0]] - np.eye(d)).size:
            raise StructuralError("representation has no identity element")
        object.__setattr__(self, "unitaries", tuple(stack))
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_identity", int(identity[0]))

    def __reduce__(self):
        return UnitaryRepresentation, (self.unitaries, self.table)

    @property
    def order(self) -> int:
        return len(self.unitaries)

    @property
    def dimension(self) -> int:
        return self._stack.shape[1]

    @property
    def identity_index(self) -> int:
        return self._identity


def _misfits(difference: np.ndarray) -> np.ndarray:
    """Indices of the matrices of ``difference`` whose Frobenius norm exceeds
    ``REPRESENTATION_TOLERANCE``, read as squares; a non-finite difference always does."""
    rows = difference.reshape(*difference.shape[:-2], -1)
    return np.flatnonzero(~(np.vecdot(rows, rows).real <= REPRESENTATION_TOLERANCE**2))


def cyclic_shift_representation(n: int) -> UnitaryRepresentation:
    """Cyclic group of order ``n`` acting on ``C^n`` by coordinate shifts.

    ``U_g`` sends ``e_i`` to ``e_{i+g}``: it is ``I`` with its rows rolled down by ``g``.
    """
    n = _integer(n, "n must be an integer")
    if n < 1:
        raise StructuralError("order must be positive")
    order = np.arange(n)
    powers = np.eye(n, dtype=np.complex128)[(order - order[:, None]) % n]
    return UnitaryRepresentation(tuple(powers), (order[:, None] + order) % n)


def direct_product(a: UnitaryRepresentation,
                   b: UnitaryRepresentation) -> UnitaryRepresentation:
    """Product group acting on the tensor product space via Kronecker products."""
    mats = tuple(np.kron(ua, ub) for ua in a.unitaries for ub in b.unitaries)
    # table[(ga, gb), (ha, hb)] = (a.table[ga, ha], b.table[gb, hb]), pairs numbered ga * |b| + gb
    table = a.table[:, None, :, None] * b.order + b.table[None, :, None, :]
    return UnitaryRepresentation(mats, table.reshape(a.order * b.order, -1))


def group_rs(rep: UnitaryRepresentation, base: np.ndarray) -> ReconstructionSystem:
    """Orbit system ``{V U_g}`` of a ``k x d`` base block, ``k <= d``."""
    b = np.asarray(base, dtype=np.complex128)
    if b.ndim != 2 or b.shape[0] > b.shape[1]:
        raise StructuralError("base must be k x d with k <= d")
    if b.shape[1] != rep.dimension:
        raise StructuralError(
            f"base acts on C^{b.shape[1]} but the representation is on C^{rep.dimension}")
    return _from_analysis(np.concatenate(b @ rep._stack), (b.shape[0],) * rep.order)


@dataclass(frozen=True)
class GroupSystemReport:
    """Measured deviations from the structural claims about orbit systems.

    ``commutation_residual``: largest ``||S U_h - U_h S||`` over the group.
    ``canonical_dual_deviation``: blockwise distance between the canonical
    dual and the orbit of the dual base ``V S^{-1}``.
    ``projective_approximation_deviation``: blockwise distance between the
    nearest projective system to the canonical dual and the orbit of the
    rescaled polar coisometry of the dual base; ``None`` when the base is
    not surjective (the comparison needs full-rank blocks).
    """

    commutation_residual: float
    canonical_dual_deviation: float
    projective_approximation_deviation: float | None


def group_rs_checks(rep: UnitaryRepresentation, base: np.ndarray,
                    tolerance: float = DEFAULT_TOLERANCE) -> GroupSystemReport:
    """Verify the orbit-structure claims for one representation and base."""
    # imported here so that loading the fixtures does not load ``approx``
    from .approx import nearest_projective

    system = group_rs(rep, base)
    dual = _canonical(system, tolerance)
    gram = dagger(system.analysis) @ system.analysis
    commutation = np.linalg.norm(gram @ rep._stack - rep._stack @ gram, axis=(-2, -1)).max()

    dual_base = np.asarray(base, dtype=np.complex128) @ _inverse_gram(system, tolerance)
    dual_deviation = blockwise_distance(dual, group_rs(rep, dual_base))

    # one SVD of the dual base serves the rank test, the weight and the polar coisometry
    left, sigma, right = np.linalg.svd(dual_base, full_matrices=False)
    approx_deviation = None
    if nonsingular(sigma[-1] ** 2, sigma[0] ** 2, tolerance):
        weight = float(np.sum(sigma)) / dual_base.shape[0]
        approximation, _ = nearest_projective(dual, tolerance)
        approx_deviation = blockwise_distance(
            approximation, group_rs(rep, weight * (left @ right)))

    return GroupSystemReport(
        commutation_residual=float(commutation),
        canonical_dual_deviation=float(dual_deviation),
        projective_approximation_deviation=approx_deviation,
    )


def unit_sum_coefficients(count: int) -> tuple[complex, ...]:
    """``count`` unimodular coefficients whose conjugates sum to exactly 1.

    Odd counts use cancelling ``(1, -1)`` pairs plus a single ``1``; even
    counts use pairs plus a conjugate pair of primitive sixth roots of unity
    (which sum to 1).
    """
    count = _integer(count, "count must be an integer")
    if count < 1:
        raise StructuralError("count must be at least 1")
    pairs = (count - 1) // 2 if count % 2 else (count - 2) // 2
    coefficients: list[complex] = []
    for _ in range(pairs):
        coefficients.extend((1.0 + 0.0j, -1.0 + 0.0j))
    if count % 2:
        coefficients.append(1.0 + 0.0j)
    else:
        coefficients.extend((_HEXAGONAL, _HEXAGONAL.conjugate()))
    return tuple(coefficients)


def commuting_projective_dual(system: ReconstructionSystem,
                              tolerance: float = DEFAULT_TOLERANCE) -> ReconstructionSystem:
    """Projective dual of a projective system with commuting range projections.

    The normalized block Grams ``P_i = v_i^{-2} V_i^* V_i`` must pairwise
    commute.  Their common eigenspaces are found by refinement from ``C^d``:
    each ``P_i`` in turn splits every subspace found so far (orthonormal
    basis ``B``) by the eigenvectors of ``B^* P_i B``, those with eigenvalue
    above 1/2 inside range ``i`` and the rest outside.  The same pass raises
    ``PreconditionError`` when ``P_i`` maps some ``B`` out of itself,
    ``||P_i B - B B^* P_i B|| > tolerance``: the projections do not commute.
    Each common eigenspace ``Q_j`` receives unimodular coefficients summing
    (conjugated) to one across the blocks containing it, which makes

        W_i = v_i^{-2} V_i U_i,    U_i = sum_j eps_ij Q_j

    a dual, and ``U_i U_i^* = P_i`` makes it projective with weights
    ``1 / v_i``.
    """
    weights = _block_spectra(system, tolerance)[1]
    if weights is None:
        raise PreconditionError("the construction needs a projective system")

    parts = [((), np.eye(system.d, dtype=np.complex128))]
    for i, (b, v) in enumerate(zip(system.blocks, weights)):
        projection = (dagger(b) @ b) / (v * v)
        refined = []
        for pattern, basis in parts:
            image = projection @ basis
            compression = dagger(basis) @ image
            leak = frobenius(image - basis @ compression)
            if leak > tolerance:
                raise PreconditionError(
                    f"range projection {i} and earlier ones do not commute (leak {leak:.3e})")
            values, vectors = np.linalg.eigh(hermitian_part(compression))
            for inside in (True, False):
                columns = (values > 0.5) == inside
                if columns.any():
                    refined.append((pattern + (inside,), basis @ vectors[:, columns]))
        parts = refined

    if any(not any(pattern) for pattern, _ in parts):
        raise NotReconstructionSystemError(
            "some directions lie outside every block range")

    factors = [np.zeros((system.d, system.d), dtype=np.complex128)
               for _ in range(system.m)]
    for pattern, basis in parts:
        eigenspace = basis @ dagger(basis)
        members = [i for i, inside in enumerate(pattern) if inside]
        for coefficient, i in zip(unit_sum_coefficients(len(members)), members):
            factors[i] += coefficient * eigenspace

    return ReconstructionSystem(tuple((b @ u) / (v * v)
                                      for b, u, v in zip(system.blocks, factors, weights)))


@dataclass(frozen=True)
class RieszIndexCheck:
    """Restriction of one block to the other blocks' common kernel."""

    index: int
    singular_values: tuple[float, ...]
    is_scaled_isometry: bool


@dataclass(frozen=True)
class RieszDualCheck:
    """Projective-dual existence verdict for a minimal-redundancy system.

    ``has_projective_dual`` is the restriction criterion (every block a
    multiple of an isometry on its complementary kernel);
    ``canonical_dual_projective`` is the direct check on the unique dual.
    Both judge ``sigma^2`` by ``flat``; ``W_i`` has the reciprocal singular values
    of ``V_i`` on that kernel and ``flat`` reads only the extreme ratio, so the two
    agree by construction, to rounding.
    """

    has_projective_dual: bool
    per_index: tuple[RieszIndexCheck, ...]
    canonical_dual_projective: bool


def riesz_projective_dual_check(system: ReconstructionSystem,
                                tolerance: float = DEFAULT_TOLERANCE) -> RieszDualCheck:
    """Decide projective-dual existence when block dimensions sum to ``d``."""
    if system.tr_k != system.d:
        raise PreconditionError(
            "the criterion applies when total block dimension equals d")
    dual = _canonical(system, tolerance)
    checks = []
    for i, rows in enumerate(system.signature._slices):
        kernel = null_space(np.delete(system.analysis, rows, axis=0), tolerance)  # I if m = 1
        sigma = singular_values(system.blocks[i] @ kernel)
        scaled = sigma.size > 0 and bool(flat(sigma[-1] ** 2, sigma[0] ** 2, tolerance))
        checks.append(RieszIndexCheck(index=i,
                                      singular_values=tuple(float(s) for s in sigma),
                                      is_scaled_isometry=scaled))

    return RieszDualCheck(
        has_projective_dual=all(c.is_scaled_isometry for c in checks),
        per_index=tuple(checks),
        canonical_dual_projective=_block_spectra(dual, tolerance)[1] is not None,
    )


def fixtures() -> dict[str, ReconstructionSystem]:
    """Named worked examples exercising every corner of the theory.

    - ``overlapping_planes``: two coordinate-plane coisometries on C^3
      sharing the last axis; uniform projective, not a protocol.
    - ``overlapping_planes_dual``: a projective dual of the above built from
      conjugate sixth roots of unity on the shared axis (the canonical dual
      is not projective).
    - ``riesz_without_projective_dual``: minimal-redundancy pair on C^4
      whose unique dual is not projective.
    - ``riesz_with_projective_dual``: companion pair satisfying the
      restriction criterion.
    - ``redundant_without_projective_dual``: the first pair extended by a
      third coisometry with the same kernel as the second block.
    """
    root_half = 1.0 / math.sqrt(2.0)
    plane_yz = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    plane_xz = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    overlapping = ReconstructionSystem((plane_yz, plane_xz))

    omega = _HEXAGONAL
    dual_one = [[0.0, 1.0, 0.0], [0.0, 0.0, omega.conjugate()]]
    dual_two = [[1.0, 0.0, 0.0], [0.0, 0.0, omega]]
    overlapping_dual = ReconstructionSystem((dual_one, dual_two))

    coordinates = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
    mixing = [[0.0, 0.0, 1.0, 0.0], [0.0, root_half, 0.0, -root_half]]
    riesz_without = ReconstructionSystem((coordinates, mixing))

    differences = [[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]]
    riesz_with = ReconstructionSystem((coordinates, differences))

    # third coisometry with the same kernel as the mixing block: rotate an
    # orthonormal basis of its row space by 45 degrees
    shared_kernel = [[0.0, 0.5, root_half, -0.5], [0.0, -0.5, root_half, 0.5]]
    redundant = ReconstructionSystem((coordinates, mixing, shared_kernel))

    return {
        "overlapping_planes": overlapping,
        "overlapping_planes_dual": overlapping_dual,
        "riesz_without_projective_dual": riesz_without,
        "riesz_with_projective_dual": riesz_with,
        "redundant_without_projective_dual": redundant,
    }
