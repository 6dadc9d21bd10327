"""Seeded system draws for the benchmark's inputs.

These follow the distributions of the test suite's shared draws
(``tests/helpers.py``), rebuilt on ``gframes.generate`` so that the
benchmark depends only on the library's public API.  Each draw takes two
``numpy.random.Generator`` streams: ``shapes`` decides the structure (d,
block sizes, masks, drop sets), which sets the cost of the work, and ``rng``
draws every matrix entry and weight.  The workloads give ``shapes`` a stream
that does not depend on the run seed, so runs with different seeds do the
same amount of work on different numbers.
"""

from __future__ import annotations

from gframes import ReconstructionSystem, classify
from gframes.generate import (
    commuting_projective,
    partition_protocol,
    random_projective,
    random_riesz,
    random_system,
)


def draw_shape(shapes, d_max: int = 12, m_max: int = 6, k_max: int = 4,
               injective: bool = False) -> tuple[int, tuple[int, ...]]:
    """Random (d, block sizes) with enough redundancy to form a system."""
    while True:
        m = int(shapes.integers(2, m_max + 1))
        k = tuple(int(shapes.integers(1, k_max + 1)) for _ in range(m))
        low = max(k) if injective else 2
        high = min(d_max, sum(k))
        if high >= low:
            return int(shapes.integers(low, high + 1)), k


def spread_weights(rng, m: int) -> list[float]:
    """Positive weights that are meaningfully non-uniform."""
    weights = list(0.6 + 1.3 * rng.random(m))
    while max(weights) / min(weights) < 1.15:
        weights[int(rng.integers(0, m))] *= 1.5
    return weights


def draw_nonuniform_projective(shapes, rng) -> ReconstructionSystem:
    d, k = draw_shape(shapes, injective=True)
    return random_projective(d, k, rng, weights=spread_weights(rng, len(k)))


def draw_protocol(shapes, rng) -> ReconstructionSystem:
    """Equal-block-size uniform projective system whose Gram sum is the identity."""
    block_dim = int(shapes.integers(1, 5))
    slices = int(shapes.integers(2, 4))
    copies = int(shapes.integers(1, 3))
    return partition_protocol(block_dim * slices, block_dim, copies, rng)


def draw_general(shapes, rng) -> ReconstructionSystem:
    d, k = draw_shape(shapes)
    return random_system(d, k, rng)


def draw_injective(shapes, rng) -> ReconstructionSystem:
    for _ in range(50):
        d, k = draw_shape(shapes, injective=True)
        system = random_system(d, k, rng)
        if classify(system).is_injective:
            return system
    raise RuntimeError("could not draw an injective system")


def draw_riesz(shapes, rng, singleton_blocks: bool = False) -> ReconstructionSystem:
    if singleton_blocks:
        k = (1,) * int(shapes.integers(2, 6))
    else:
        k = tuple(int(shapes.integers(1, 4)) for _ in range(int(shapes.integers(2, 5))))
    return random_riesz(k, rng)


def draw_commuting(shapes, rng, multiplicity: int | None = None) -> ReconstructionSystem:
    """Commuting-projection projective system on C^d, 4 <= d <= 9, m <= 8 blocks.

    With ``multiplicity``, coordinate 0 belongs to exactly that many blocks.
    """
    d = int(shapes.integers(4, 10))
    m = int(shapes.integers(2, 9))
    if multiplicity is not None:
        m = max(m, multiplicity)
    masks = []
    for _ in range(m):
        mask = {int(j) for j in range(d) if shapes.random() < 0.5}
        masks.append(mask or {int(shapes.integers(0, d))})
    for j in range(d):
        if not any(j in mask for mask in masks):
            masks[int(shapes.integers(0, m))].add(j)
    if multiplicity is not None:
        for position, i in enumerate(shapes.permutation(m)):
            if position < multiplicity:
                masks[i].add(0)
            else:
                masks[i].discard(0)
        for mask in masks:
            if not mask:
                mask.add(int(shapes.integers(1, d)))
        for j in range(1, d):
            if not any(j in mask for mask in masks):
                masks[int(shapes.integers(0, m))].add(j)
    weights = list(0.5 + 1.5 * rng.random(m))
    return commuting_projective(d, [tuple(sorted(mask)) for mask in masks],
                                rng, weights=weights)


def drop_set(shapes, m: int, most: int) -> tuple[int, ...]:
    """Sorted random subset of ``range(m)`` with at most ``most`` entries."""
    size = int(shapes.integers(0, most + 1))
    return tuple(sorted(int(i) for i in shapes.choice(m, size=size, replace=False)))
