"""Shared random draws (all deterministic in the rng) and invariant checks for the test suite."""

from __future__ import annotations

import numpy as np

import gframes.core as core
from gframes import ReconstructionSystem, RSSignature, UnitaryRepresentation, classify
from gframes._linalg import dagger, hermitian_part, random_unitary
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


# the attributes a system sets at construction, then the caches that ops may add
SYSTEM_SLOTS = frozenset({"blocks", "analysis", "k", "tr_k", "signature", "_scored"})
SYSTEM_CACHES = frozenset({"_spectrum", "_block_factor", "_r_inverse", "_kept"})


def _close(cached: np.ndarray, fresh: np.ndarray) -> bool:
    return bool(np.abs(cached - fresh).max() <= 1e-10 * max(np.abs(fresh).max(), 1e-300))


def assert_system_invariants(system: ReconstructionSystem, just_built: bool = True) -> None:
    """The invariants of every system, however it was made or copied.

    ``analysis`` is read-only, C-contiguous, ``complex128`` and finite; each block is a
    read-only view of ``analysis`` at its signature's row slice; the signature equals
    ``RSSignature(m, k, d)`` and, when ``just_built``, is the one ``core._layout`` shares
    (a shape evicted from that bounded cache leaves older systems with an equal one); and
    each cached ``_spectrum``, ``_block_factor`` and ``_r_inverse`` is read-only and equals a
    freshly computed one, as a sampled dual's ``_scored`` row equals fresh scores.
    """
    analysis = system.analysis
    assert analysis.dtype == np.complex128 and analysis.flags.c_contiguous
    assert not analysis.flags.writeable and np.isfinite(analysis).all()
    signature = system.signature
    assert signature == RSSignature(system.m, system.k, system.d)
    assert system.k == signature.k and system.tr_k == signature.tr_k == analysis.shape[0]
    if just_built:
        assert signature is core._layout(system.k, system.d)
    assert len(system.blocks) == signature.m
    for block, rows in zip(system.blocks, signature._slices):
        assert not block.flags.writeable
        # same memory, shape and strides as the slice: a view of ``analysis`` at its rows
        assert block.__array_interface__ == analysis[rows].__array_interface__
    cache = vars(system)
    assert SYSTEM_SLOTS <= set(cache) <= SYSTEM_SLOTS | SYSTEM_CACHES
    r = np.linalg.qr(analysis, mode="r")
    fresh = {
        "_spectrum": lambda: core._squared_spectrum(r, system.d),
        "_block_factor": lambda: np.linalg.qr(dagger(core._block_stack(system)), mode="r"),
        "_r_inverse": lambda: np.linalg.inv(r),
    }
    for name, compute in fresh.items():
        if name in cache:
            assert not cache[name].flags.writeable, name
            assert _close(cache[name], compute()), name
    if system._scored is not None:
        reference, scores, row = system._scored
        assert _close(scores[row], core._scores(reference, core._block_stack(system)))


def assert_representation_invariants(rep: UnitaryRepresentation) -> None:
    """A representation's elements are read-only views of its read-only ``n x d x d`` stack,
    and its table is a read-only ``n x n`` integer array."""
    stack = rep._stack
    assert stack.dtype == np.complex128 and stack.flags.c_contiguous
    assert not stack.flags.writeable and stack.shape == (rep.order, rep.dimension, rep.dimension)
    for element, view in zip(rep.unitaries, stack, strict=True):
        assert element.__array_interface__ == view.__array_interface__
    assert rep.table.dtype.kind == "i" and rep.table.shape == (rep.order, rep.order)
    assert not rep.table.flags.writeable
