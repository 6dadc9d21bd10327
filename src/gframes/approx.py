"""Polar factorization of blocks and nearest projective approximation.

A full-row-rank block ``B`` (``k x d``, rank ``k``) factors as ``B = U P``
with ``U`` a coisometry (``U U^* = I``) and ``P = (B^* B)^{1/2}`` positive
semidefinite on the domain; equivalently ``B^* = U^* |B^*|``.  Among all
coisometries, ``U`` is the Frobenius-closest to ``B``, and the closest
positive multiple of a coisometry is ``alpha U`` with ``alpha`` the mean
singular value, the trace of the positive factor divided by ``k``.  Applying
this blockwise gives the projective system nearest to an injective one in
the stacked-analysis Frobenius distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import dagger, frobenius, hermitian_part, is_flat, singular_values, threshold
from .core import DEFAULT_TOLERANCE, ReconstructionSystem, _block_spectra
from .errors import PreconditionError

__all__ = [
    "PolarFactorization",
    "is_weighted_coisometry",
    "nearest_projective",
    "polar_coisometry",
]


@dataclass(frozen=True, eq=False)
class PolarFactorization:
    """Coisometry factor ``U`` (``k x d``) and positive factor ``P`` (``d x d``)."""

    coisometry: np.ndarray
    positive: np.ndarray


def polar_coisometry(block: np.ndarray,
                     tolerance: float = DEFAULT_TOLERANCE) -> PolarFactorization:
    """Polar factorization ``block = U P`` of a full-row-rank block."""
    b = np.asarray(block, dtype=np.complex128)
    if b.ndim != 2:
        raise PreconditionError("block must be a 2-d matrix")
    rows, cols = b.shape
    if rows > cols:
        raise PreconditionError(
            f"a {rows} x {cols} block cannot have full row rank")
    left, sigma, right = np.linalg.svd(b, full_matrices=False)
    if float(sigma[-1]) <= threshold(tolerance, float(sigma[0])):
        raise PreconditionError(
            f"block is rank deficient (sigma_min={float(sigma[-1]):.3e})")
    coisometry = left @ right
    positive = hermitian_part(dagger(right) @ (sigma[:, None] * right))
    return PolarFactorization(coisometry=coisometry, positive=positive)


def is_weighted_coisometry(block: np.ndarray,
                           tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """Whether the block is a positive multiple of a coisometry."""
    b = np.asarray(block, dtype=np.complex128)
    if b.ndim != 2 or b.shape[0] > b.shape[1]:
        return False
    return is_flat(singular_values(b), tolerance)


def nearest_projective(system: ReconstructionSystem,
                       tolerance: float = DEFAULT_TOLERANCE
                       ) -> tuple[ReconstructionSystem, float]:
    """Closest projective system to an injective one, with the distance.

    Per block the optimum is ``alpha_i U_i`` where ``U_i`` is the polar
    coisometry and ``alpha_i`` the mean singular value; the distance is the
    Frobenius norm of the stacked difference.  The minimizer is unique
    because each block problem is a strictly convex projection onto the ray
    through its coisometry.
    """
    spectra, injective, _ = _block_spectra(system, tolerance)
    if not injective:
        raise PreconditionError("projective approximation needs an injective system")
    blocks = []
    gap = 0.0
    for b, sigma in zip(system.blocks, spectra):
        alpha = float(np.sum(sigma)) / b.shape[0]
        nearest = alpha * polar_coisometry(b, tolerance).coisometry
        blocks.append(nearest)
        gap += frobenius(b - nearest) ** 2
    return ReconstructionSystem(tuple(blocks)), float(np.sqrt(gap))
