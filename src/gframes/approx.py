"""Polar factorization of blocks and nearest projective approximation.

A full-row-rank block ``B`` (``k x d``, rank ``k``) factors as ``B = U P``
with ``U`` a coisometry (``U U^* = I``) and ``P = (B^* B)^{1/2}`` positive
semidefinite on the domain; equivalently ``B^* = U^* |B^*|``.  Among all
coisometries, ``U`` is the Frobenius-closest to ``B``, and the closest
positive multiple of a coisometry is ``alpha U`` with ``alpha`` the mean
singular value, the trace of the positive factor divided by ``k``.  Applying
this blockwise gives the projective system nearest to an injective one in
the stacked-analysis Frobenius distance.

The polar coisometry of an injective block is ``U_i = (V_i V_i^*)^{-1/2} V_i``,
so it depends on the block only through the ``k_i x k_i`` Gram
``V_i V_i^* = R_i^* R_i`` of the block factor ``V_i^* = Q_i R_i`` that every
system caches.  ``nearest_projective`` takes one SVD
``R_i = P_i diag(sigma_i) B_i^*`` of that factor (``m x width x width``, no SVD
of the blocks themselves), judges injectivity on its ``sigma`` by the rule
``classify`` applies (``core._block_spectra``), and forms every ``U_i`` as the
stacked product ``(B_i diag(1 / sigma_i) B_i^*) V_i``.  That product leaves
``U_i U_i^*`` about ``kappa(V_i) eps`` from I, so one Newton-Schulz step
``U <- (3 I - U U^*) U / 2`` follows, which squares that miss and brings it
to a few ``eps`` whatever ``kappa(V_i)`` is.  Since ``V_i`` and
``alpha_i U_i`` share their singular vectors, the distance is

    ||T - T_hat|| = sqrt(sum_i sum_j (sigma_ij - alpha_i)^2),

read from the same singular values without forming the difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _exports
from ._linalg import dagger, flat, hermitian_part, nonsingular, singular_values
from .core import (
    DEFAULT_TOLERANCE,
    ReconstructionSystem,
    _block_spectra,
    _block_stack,
    _from_analysis,
)
from .errors import PreconditionError, StructuralError

__all__ = _exports(__name__)


@dataclass(frozen=True, eq=False)
class PolarFactorization:
    """Coisometry factor ``U`` (``k x d``) and positive factor ``P`` (``d x d``)."""

    coisometry: np.ndarray
    positive: np.ndarray


def polar_coisometry(block: np.ndarray,
                     tolerance: float = DEFAULT_TOLERANCE) -> PolarFactorization:
    """Polar factorization ``block = U P`` of a finite block whose ``sigma^2`` is
    ``nonsingular``."""
    b = np.asarray(block, dtype=np.complex128)
    if b.ndim != 2:
        raise PreconditionError("block must be a 2-d matrix")
    rows, cols = b.shape
    if rows == 0:
        raise PreconditionError("block must have at least one row")
    if rows > cols:
        raise PreconditionError(
            f"a {rows} x {cols} block cannot have full row rank")
    if not np.isfinite(b).all():
        raise StructuralError("block contains non-finite entries")
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
    the rule by which ``classify`` judges each block projective.  An empty, tall or non-finite
    block is not."""
    b = np.asarray(block, dtype=np.complex128)
    if b.ndim != 2 or not 0 < b.shape[0] <= b.shape[1] or not np.isfinite(b).all():
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
    through its coisometry.  Raises ``PreconditionError`` when a block fails
    ``classify``'s injectivity rule.  See the module docstring for the route.
    """
    # every k_i <= d once injective, so the factor is each R_i zero-padded; right = B_i^*
    _, sigma, right = np.linalg.svd(system._block_factor)
    if not _block_spectra(system, tolerance, sigma)[0]:
        raise PreconditionError("projective approximation needs an injective system")
    rows = system.signature._rows
    sizes = np.asarray(system.k)
    # keep each block's k_i singular values; the rest belong to its zero padding
    sigma = np.where(rows, sigma, 0.0)
    alpha = np.where(rows, sigma.sum(axis=1, keepdims=True) / sizes[:, None], 0.0)
    gap = float(np.sum((sigma - alpha) ** 2))
    inverse = np.where(rows, 1.0 / np.where(rows, sigma, 1.0), 0.0)  # zero on the padding
    polar = ((dagger(right) * inverse[:, None, :]) @ right) @ _block_stack(system)
    # one Newton-Schulz step U <- (3 I - U U^*) U / 2, with alpha_i in the same product
    step = 1.5 * np.eye(rows.shape[1]) - 0.5 * (polar @ dagger(polar))
    nearest = (alpha[:, :, None] * step) @ polar
    nearest = nearest.reshape(-1, system.d) if rows.all() else nearest[rows]  # no copy unpadded
    return _from_analysis(nearest, system.k), float(np.sqrt(gap))
