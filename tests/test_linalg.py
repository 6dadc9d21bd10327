"""The LAPACK helpers that skip ``numpy.linalg``'s wrapper return its bits and raise its errors.

``qr_basis`` and ``hermitian_eigenvalues`` call numpy's private gufuncs, so
these tests pin them to ``np.linalg.qr`` and ``np.linalg.eigvalsh`` on the
shapes the sampling paths pass them; a numpy release that changes either
gufunc fails here.
"""

import numpy as np
import pytest

from gframes._linalg import complex_gaussian, dagger, hermitian_eigenvalues, qr_basis


def padded_stack(rng, d, sizes):
    """The zero-padded ``m x d x width`` stack of Gaussian ``d x k_i`` blocks."""
    stack = np.zeros((len(sizes), d, max(sizes)), dtype=np.complex128)
    for block, ki in zip(stack, sizes):
        block[:, :ki] = complex_gaussian(rng, (d, ki))
    return stack


@pytest.mark.parametrize("make", [
    lambda rng: complex_gaussian(rng, (8, 12, 4)),
    lambda rng: padded_stack(rng, 7, (1, 4, 1, 4, 2)),
    lambda rng: complex_gaussian(rng, (6, 3)),
], ids=["uniform", "mixed", "single"])
def test_qr_basis_is_numpy_qr_bit_for_bit(make):
    a = make(np.random.default_rng(20))
    expected = np.linalg.qr(a)[0]
    q = qr_basis(a.copy())
    assert q.shape == expected.shape
    assert np.array_equal(q, expected)


@pytest.mark.parametrize("shape", [(12, 9), (40, 7, 5)], ids=["single", "batch"])
def test_hermitian_eigenvalues_is_numpy_eigvalsh_bit_for_bit(shape):
    t = complex_gaussian(np.random.default_rng(21), shape)
    h = dagger(t) @ t
    spectra = hermitian_eigenvalues(h)
    assert spectra.dtype == np.float64
    assert np.array_equal(spectra, np.linalg.eigvalsh(h))


def test_hermitian_eigenvalues_raises_where_numpy_does():
    h = np.eye(4, dtype=np.complex128)
    h[1, 1] = np.nan
    # alone, and as one matrix of a batch
    for bad in (h, np.stack([np.eye(4, dtype=np.complex128), h])):
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            np.linalg.eigvalsh(bad)
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            hermitian_eigenvalues(bad)
