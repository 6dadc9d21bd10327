"""Shared random draws for the test suite (all deterministic in the rng)."""

from __future__ import annotations

import numpy as np

from gframes import ReconstructionSystem, classify
from gframes._linalg import hermitian_part, random_unitary
from gframes.generate import (
    commuting_projective,
    partition_protocol,
    random_projective,
    random_riesz,
    random_system,
)


def spectral_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def eigen_bounds(h: np.ndarray) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of a Hermitian matrix."""
    spectrum = np.linalg.eigvalsh(hermitian_part(h))
    return float(spectrum[0]), float(spectrum[-1])


def draw_shape(rng, d_max: int = 12, m_max: int = 6, k_max: int = 4,
               injective: bool = False) -> tuple[int, tuple[int, ...]]:
    """Random (d, block sizes) with enough redundancy to form a system."""
    m = int(rng.integers(2, m_max + 1))
    k = tuple(int(rng.integers(1, k_max + 1)) for _ in range(m))
    low = max(k) if injective else 2
    high = min(d_max, sum(k))
    if high < low:
        return draw_shape(rng, d_max, m_max, k_max, injective)
    d = int(rng.integers(low, high + 1))
    return d, k


def spread_weights(rng, m: int) -> list[float]:
    """Positive weights guaranteed to be meaningfully non-uniform."""
    weights = list(0.6 + 1.3 * rng.random(m))
    while max(weights) / min(weights) < 1.15:
        weights[int(rng.integers(0, m))] *= 1.5
    return weights


def draw_nonuniform_projective(rng) -> ReconstructionSystem:
    d, k = draw_shape(rng, injective=True)
    return random_projective(d, k, rng, weights=spread_weights(rng, len(k)))


def draw_uniform_projective(rng) -> ReconstructionSystem:
    d, k = draw_shape(rng, injective=True)
    weight = float(0.5 + 1.5 * rng.random())
    return random_projective(d, k, rng, weights=[weight] * len(k))


def draw_protocol(rng) -> ReconstructionSystem:
    """Equal-block-size uniform projective system with identity Gram sum."""
    block_dim = int(rng.integers(1, 5))
    slices = int(rng.integers(2, 4))
    copies = int(rng.integers(1, 3))
    return partition_protocol(block_dim * slices, block_dim, copies, rng)


def draw_general(rng) -> ReconstructionSystem:
    d, k = draw_shape(rng)
    return random_system(d, k, rng)


def draw_injective(rng) -> ReconstructionSystem:
    for _ in range(50):
        d, k = draw_shape(rng, injective=True)
        system = random_system(d, k, rng)
        if classify(system).is_injective:
            return system
    raise AssertionError("could not draw an injective system")


def draw_riesz(rng, singleton_blocks: bool = False) -> ReconstructionSystem:
    if singleton_blocks:
        m = int(rng.integers(2, 6))
        k = (1,) * m
    else:
        m = int(rng.integers(2, 5))
        k = tuple(int(rng.integers(1, 4)) for _ in range(m))
    return random_riesz(k, rng)


def draw_commuting(rng, multiplicity: int | None = None
                   ) -> tuple[ReconstructionSystem, list[int]]:
    """Commuting-projection projective system plus its coordinate multiplicities.

    When ``multiplicity`` is given, coordinate 0 is made to belong to exactly
    that many blocks.
    """
    d = int(rng.integers(4, 10))
    m = int(rng.integers(2, 9))
    if multiplicity is not None:
        m = max(m, multiplicity)
    masks = []
    for _ in range(m):
        mask = {int(j) for j in range(d) if rng.random() < 0.5}
        if not mask:
            mask = {int(rng.integers(0, d))}
        masks.append(mask)
    for j in range(d):
        if not any(j in mask for mask in masks):
            masks[int(rng.integers(0, m))].add(j)
    if multiplicity is not None:
        order = list(rng.permutation(m))
        for position, i in enumerate(order):
            if position < multiplicity:
                masks[i].add(0)
            else:
                masks[i].discard(0)
        for mask in masks:
            if not mask:
                mask.add(int(rng.integers(1, d)))
        for j in range(1, d):
            if not any(j in mask for mask in masks):
                masks[int(rng.integers(0, m))].add(j)
    counts = [sum(1 for mask in masks if j in mask) for j in range(d)]
    weights = list(0.5 + 1.5 * rng.random(m))
    system = commuting_projective(d, [tuple(sorted(mask)) for mask in masks],
                                  rng, weights=weights)
    return system, counts


# The flatness ladder: tolerances t and spread factors f, with the dual block spread
# by f t; sigma^2 then spreads by about 2 f t, so the block is flat exactly when f < 1/2.
LADDER_TOLERANCES = (1e-9, 1e-6, 1e-4)
LADDER_FACTORS = (0.1, 0.25, 0.4, 0.45, 0.55, 0.6, 0.75, 0.9, 1.1, 1.5, 2.0)


def riesz_pair(k: int, spread: float, seed: int) -> tuple[np.ndarray, ReconstructionSystem]:
    """``(W_0, V)``: a Riesz system ``V = W^{-*}`` on C^{2k} built from its unique dual ``W``.

    ``W_0 = diag(1 + spread, [1 + spread / 2,] 1) U`` (the middle entry for ``k = 3``)
    and ``W_1 = 1.3 U'``, where ``U`` and ``U'`` are ``k`` rows of two Haar unitaries.
    """
    rng = np.random.default_rng(seed)
    d = 2 * k
    diagonal = np.linspace(1.0 + spread, 1.0, k)
    first = diagonal[:, None] * random_unitary(rng, d)[:k]
    second = 1.3 * random_unitary(rng, d)[:k]
    analysis = np.linalg.inv(np.vstack((first, second))).conj().T
    return first, ReconstructionSystem((analysis[:k], analysis[k:]))
