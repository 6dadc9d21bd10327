"""Polar factorization of blocks and nearest projective approximation.

A full-row-rank block ``B`` (``k x d``, rank ``k``) factors as ``B = U P``
with ``U`` a coisometry (``U U^* = I``) and ``P = (B^* B)^{1/2}`` positive
semidefinite on the domain; equivalently ``B^* = U^* |B^*|``.  Among all
coisometries, ``U`` is the Frobenius-closest to ``B``, and the closest
positive multiple of a coisometry is ``alpha U`` with ``alpha`` the mean
singular value, the trace of the positive factor divided by ``k``.  Applying
this blockwise gives the projective system nearest to an injective one in
the stacked-analysis Frobenius distance.

``nearest_projective`` takes one thin SVD ``B_i = L_i diag(sigma_i) R_i`` of
the zero-padded block stack (a view of the analysis matrix when all heights
agree), keeps the ``k_i`` singular triplets of each block's own rows, and
forms each ``U_i = L_i R_i`` without its positive factor.  Since ``B_i`` and
``alpha_i U_i`` share their singular vectors, the distance is

    ||T - T_hat|| = sqrt(sum_i sum_j (sigma_ij - alpha_i)^2),

read from the same singular values without forming the difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import dagger, flat, hermitian_part, nonsingular, singular_values
from .core import (
    DEFAULT_TOLERANCE,
    ReconstructionSystem,
    _block_stack,
    _from_analysis,
    _layout,
)
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
    """Polar factorization ``block = U P`` of a block whose ``sigma^2`` is ``nonsingular``."""
    b = np.asarray(block, dtype=np.complex128)
    if b.ndim != 2:
        raise PreconditionError("block must be a 2-d matrix")
    rows, cols = b.shape
    if rows > cols:
        raise PreconditionError(
            f"a {rows} x {cols} block cannot have full row rank")
    left, sigma, right = np.linalg.svd(b, full_matrices=False)
    if not nonsingular(sigma[-1] ** 2, sigma[0] ** 2, tolerance):
        raise PreconditionError(
            f"block is rank deficient (sigma_min={float(sigma[-1]):.3e})")
    coisometry = left @ right
    positive = hermitian_part(dagger(right) @ (sigma[:, None] * right))
    return PolarFactorization(coisometry=coisometry, positive=positive)


def is_weighted_coisometry(block: np.ndarray,
                           tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """Whether the block is a positive multiple of a coisometry: its ``sigma^2`` is ``flat``,
    the rule by which ``classify`` judges each block projective."""
    b = np.asarray(block, dtype=np.complex128)
    if b.ndim != 2 or b.shape[0] > b.shape[1]:
        return False
    sigma = singular_values(b)
    return bool(flat(sigma[-1] ** 2, sigma[0] ** 2, tolerance))


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
    rows = _layout(system.k, system.d).rows
    sizes = np.asarray(system.k)
    left, sigma, right = np.linalg.svd(_block_stack(system), full_matrices=False)
    bottom = sigma[np.arange(system.m), np.minimum(sizes, system.d) - 1]
    injective = nonsingular(bottom ** 2, sigma[:, 0] ** 2, tolerance) & (sizes <= system.d)
    if not injective.all():
        raise PreconditionError("projective approximation needs an injective system")
    # keep each block's k_i singular triplets; the rest belong to its zero padding
    sigma = np.where(rows, sigma, 0.0)
    alpha = np.where(rows, sigma.sum(axis=1, keepdims=True) / sizes[:, None], 0.0)
    gap = float(np.sum((sigma - alpha) ** 2))
    nearest = (alpha[:, None, :] * left) @ right  # the alpha_i U_i
    nearest = nearest.reshape(-1, system.d) if rows.all() else nearest[rows]  # no copy unpadded
    return _from_analysis(nearest, system.k), float(np.sqrt(gap))
