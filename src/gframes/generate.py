"""Seeded random generators for systems used by tests and experiments.

All generators are deterministic in their ``seed`` argument (an int or an
existing ``numpy.random.Generator``) and guard conditioning, so comparisons
at the 1e-10 level stay meaningful downstream: a draw is kept when its
analysis matrix ``T`` passes the relative rule ``_linalg.nonsingular`` at ``conditioning``
(``random_riesz`` on ``sigma(T)``, the others on ``sigma(T)^2``), so the same
draw is kept at any scale.  The arguments (the block shape, ``scale``,
``conditioning``, ``weights``) are checked before the first draw, so a refused
call leaves a caller's generator as it was.

``random_projective`` is called thousands of times per shape by the sampling
checks, so what its attempts share is cached per ``(d, sizes)`` by
``_draw_plan``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from ._linalg import (
    check_tolerance,
    complex_gaussian,
    dagger,
    nonsingular,
    qr_basis,
    random_unitary,
    singular_values,
)
from .core import (ReconstructionSystem, _analysis_is_rs, _from_analysis, _integer, _layout,
                   _read_only)
from .errors import SamplingError, StructuralError

__all__ = [
    "commuting_projective",
    "partition_protocol",
    "random_coisometry",
    "random_projective",
    "random_riesz",
    "random_system",
]

_ATTEMPTS = 100
# numpy divides a complex ``a + bi`` by a real ``r`` as ``(a + 0 b) (1 / r)`` and
# ``(b - 0 a) (1 / r)``, so scaling real draws by this factor gives complex_gaussian's bits
_ROOT_HALF = 1.0 / np.sqrt(2.0)


def random_coisometry(rng: np.random.Generator, k: int, d: int) -> np.ndarray:
    """Random ``k x d`` block with orthonormal rows (adjoint of a QR factor); the shape is
    checked by ``_shape`` before the first draw."""
    _shape((k,), d, coisometry=True)
    q, _ = np.linalg.qr(complex_gaussian(rng, (d, k)))
    return dagger(q)


def _shape(k: Sequence[int], d: int | None = None, coisometry: bool = False) -> tuple[int, ...]:
    """The block sizes ``k`` as ints; ``StructuralError`` unless the sizes and ``d`` are
    integers, there is at least one block, every block is non-empty over ``d >= 1`` (``d``
    defaults to the sum of the sizes) and, for a ``coisometry``, no block is taller than
    ``d``, which is checked before ``_layout`` runs."""
    sizes = tuple(_integer(ki, "block sizes k must be integers") for ki in k)
    if not sizes:
        raise StructuralError("a system needs at least one block")
    d = sum(sizes) if d is None else _integer(d, "d must be an integer")
    if coisometry and max(sizes) > d:
        raise StructuralError("a coisometry needs k <= d")
    _layout(sizes, d)
    return sizes


def _weights(weights: Sequence[float] | None, m: int) -> np.ndarray | None:
    """``weights`` as floats (None stays None); ``StructuralError`` unless positive and finite,
    one per block."""
    if weights is None:
        return None
    scales = np.asarray(weights, dtype=float)
    if scales.shape != (m,) or not np.all((scales > 0) & (scales < np.inf)):
        raise StructuralError("weights must be positive and finite, one per block")
    return scales


def random_system(d: int, k: Sequence[int], seed, scale: float = 1.0,
                  conditioning: float = 1e-3) -> ReconstructionSystem:
    """Gaussian blocks of entry scale ``scale``, redrawn until ``nonsingular`` at ``conditioning``;
    which attempt is kept does not depend on ``scale``."""
    sizes = _shape(k, d)
    check_tolerance(scale, "scale")
    check_tolerance(conditioning, "conditioning")
    rng = np.random.default_rng(seed)
    for _ in range(_ATTEMPTS):
        system = ReconstructionSystem(tuple(complex_gaussian(rng, (ki, d), scale)
                                            for ki in sizes))
        if _analysis_is_rs(system.analysis, conditioning):
            return system
    raise SamplingError(f"no well-conditioned system for d={d}, k={sizes}")


@lru_cache(maxsize=16)
def _draw_plan(d: int, sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How one ``random_projective`` attempt of shape ``(d, sizes)`` moves its numbers.

    The attempt factors the zero-padded ``m x d x width`` stack of the Gaussian
    ``d x k_i`` blocks, held as a float64 buffer (real, imaginary, real, ...).
    Returns three read-only index arrays:

    - the buffer position of each draw, in draw order: block by block, the
      ``d x k_i`` real parts, then the imaginary parts, as ``random_coisometry``
      draws them;
    - the ``K x d`` flat positions in the stacked ``Q`` factor of the analysis
      rows, to be conjugated: row ``c`` of block ``i`` is column ``c`` of ``Q_i``;
    - the ``K x 1`` column of each analysis row's block, to pick its weight.
    """
    signature = _layout(sizes, d)
    width = signature._rows.shape[1]
    blocks, columns = np.nonzero(signature._rows)  # analysis-row order
    entries = (blocks[:, None] * d + np.arange(d)) * width + columns[:, None]
    # each block's entries in the row-major order of its d x k_i draw
    stack = [entries[rows].T.ravel() for rows in signature._slices]
    positions = np.concatenate([part for flat in stack for part in (2 * flat, 2 * flat + 1)])
    return _read_only(positions), _read_only(entries), _read_only(blocks[:, None])


def random_projective(d: int, k: Sequence[int], seed,
                      weights: Sequence[float] | None = None,
                      conditioning: float = 1e-3) -> ReconstructionSystem:
    """Weighted random coisometries; weights default to uniform draws in [0.5, 2].

    Each attempt makes, in one call, the draws ``random_coisometry`` would
    make block by block, and factors all blocks as one zero-padded stack
    (``_draw_plan``, ``qr_basis``); zero columns leave the leading columns of
    each Q factor unchanged, so the blocks are those of the blockwise loop.
    The ``nonsingular`` acceptance at ``conditioning`` is relative: weights
    ``c w`` give ``c`` times the draw of ``w``.
    """
    sizes = _shape(k, d, coisometry=True)
    scales = _weights(weights, len(sizes))
    check_tolerance(conditioning, "conditioning")
    positions, entries, blocks = _draw_plan(d, sizes)
    shape = (len(sizes), d, max(sizes))
    size = 2 * len(sizes) * d * max(sizes)
    rng = np.random.default_rng(seed)
    for _ in range(_ATTEMPTS):
        if weights is None:
            scales = 0.5 + 1.5 * rng.random(len(sizes))
        draws = rng.standard_normal(positions.size)
        draws *= _ROOT_HALF
        buffer = np.zeros(size)
        buffer[positions] = draws
        q = qr_basis(buffer.view(np.complex128).reshape(shape))
        analysis = q.take(entries)
        np.conjugate(analysis, out=analysis)
        analysis *= scales[blocks]
        if _analysis_is_rs(analysis, conditioning):
            return _from_analysis(analysis, sizes)
    raise SamplingError(f"no well-conditioned projective system for d={d}, k={sizes}")


def partition_protocol(d: int, block_dim: int, copies: int, seed) -> ReconstructionSystem:
    """Equal-block-size uniform projective system whose Gram sum is the identity.

    Each copy partitions ``C^d`` into ``d / block_dim`` random orthogonal
    slices; scaling every slice by ``1/sqrt(copies)`` makes the union a
    protocol with all weights equal.
    """
    d = _integer(d, "d must be an integer")
    block_dim = _integer(block_dim, "block_dim must be an integer")
    copies = _integer(copies, "copies must be an integer")
    if d < 1 or block_dim < 1 or d % block_dim != 0:
        raise StructuralError("block_dim must be a positive divisor of d >= 1")
    if copies < 1:
        raise StructuralError("copies must be at least 1")
    rng = np.random.default_rng(seed)
    rows = np.concatenate([dagger(random_unitary(rng, d)) for _ in range(copies)])
    return _from_analysis(rows / np.sqrt(copies), (block_dim,) * (copies * d // block_dim))


def random_riesz(k: Sequence[int], seed, conditioning: float = 1e-2) -> ReconstructionSystem:
    """Row-slices of a random invertible matrix; block dimensions sum to ``d``."""
    sizes = _shape(k)
    d = sum(sizes)
    check_tolerance(conditioning, "conditioning")
    rng = np.random.default_rng(seed)
    for _ in range(_ATTEMPTS):
        square = complex_gaussian(rng, (d, d))
        sigma = singular_values(square)
        if nonsingular(float(sigma[-1]), float(sigma[0]), conditioning):
            return _from_analysis(square, sizes)
    raise SamplingError(f"no well-conditioned square matrix for d={d}")


def commuting_projective(d: int, masks: Iterable[Iterable[int]], seed,
                         weights: Sequence[float] | None = None) -> ReconstructionSystem:
    """Projective system whose range projections commute by construction.

    Every block selects the coordinate subset ``masks[i]`` of one shared
    random orthonormal basis, so all range projections diagonalize together;
    coordinate ``j``'s multiplicity is the number of masks containing it.
    Mask entries must be integers (not bools) and must not repeat within a mask.
    """
    d = _integer(d, "d must be an integer")
    mask_list = [tuple(sorted(_integer(j, "mask entries must be integers") for j in mask))
                 for mask in masks]
    if any(len(set(mask)) != len(mask) for mask in mask_list):
        raise StructuralError("mask entries must not repeat")
    if not mask_list or any(not mask for mask in mask_list):
        raise StructuralError("need at least one non-empty mask per block")
    if any(j < 0 or j >= d for mask in mask_list for j in mask):
        raise StructuralError(f"mask entries must lie in [0, {d})")
    covered = set().union(*mask_list)
    if covered != set(range(d)):
        raise StructuralError("masks must cover every coordinate")
    scales = _weights(weights, len(mask_list))
    rng = np.random.default_rng(seed)
    if scales is None:
        scales = 0.5 + 1.5 * rng.random(len(mask_list))
    unitary = random_unitary(rng, d)
    blocks = tuple(v * dagger(unitary[:, list(mask)])
                   for v, mask in zip(scales, mask_list))
    return ReconstructionSystem(blocks)
