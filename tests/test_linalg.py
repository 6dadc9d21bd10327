"""The LAPACK helpers that skip ``numpy.linalg``'s wrapper return its bits and raise its errors.

``qr_basis``, the two Householder halves, ``hermitian_eigenvalues`` and the
leaves of ``triangular_inverse`` call numpy's private gufuncs, so these tests
pin them to ``np.linalg.qr``, ``np.linalg.eigvalsh`` and ``np.linalg.inv`` on
the shapes the library passes them; a numpy release that changes a gufunc
fails here.  Above order 32 ``triangular_inverse`` is a block recursion, pinned
to be upper triangular and as accurate as the LU inverse.
"""

import numpy as np
import pytest

from gframes._linalg import (
    complex_gaussian,
    dagger,
    hermitian_eigenvalues,
    householder,
    householder_basis,
    qr_basis,
    random_unitary,
    triangular_inverse,
)

EPS = np.finfo(float).eps


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


@pytest.mark.parametrize("shape", [(60, 48), (384, 256), (13, 6), (4, 9), (1, 5)],
                         ids=["survivors", "dense_survivors", "tall", "wide", "one_row"])
def test_householder_halves_are_numpy_qr_bit_for_bit(shape):
    a = complex_gaussian(np.random.default_rng(22), shape)
    reflectors = a.copy()
    r, tau = householder(reflectors)
    assert np.array_equal(r, np.linalg.qr(a, "r"))
    assert np.array_equal(householder_basis(reflectors, tau), np.linalg.qr(a)[0])


def upper_triangular(n, kappa, seed):
    """``R`` of the QR of a ``2n x n`` matrix with singular values from 1 down to ``1 / kappa``."""
    rng = np.random.default_rng(seed)
    left = random_unitary(rng, 2 * n)[:, :n]
    sigma = np.logspace(0, -np.log10(kappa), n)
    return np.linalg.qr((left * sigma) @ random_unitary(rng, n), "r")


@pytest.mark.parametrize("n", [1, 2, 7, 31, 32])
def test_triangular_inverse_is_the_lu_inverse_up_to_order_32(n):
    r = upper_triangular(n, 1e3, n)
    assert np.array_equal(triangular_inverse(r), np.linalg.inv(r))


@pytest.mark.parametrize("n", [33, 48, 64, 65, 256])
@pytest.mark.parametrize("kappa", [1.0, 1e2, 1e4])
def test_triangular_inverse_is_upper_triangular_and_as_accurate_as_lu(n, kappa):
    r = upper_triangular(n, kappa, n)
    condition = np.linalg.cond(r)
    inverse = triangular_inverse(r)
    assert not np.tril(inverse, -1).any()
    identity = np.eye(n)
    for x in (np.linalg.inv(r), inverse):  # the LU inverse meets the bound on these inputs
        for residual in (r @ x - identity, x @ r - identity):
            assert np.linalg.norm(residual, 2) <= condition * n * EPS


@pytest.mark.parametrize("n", [5, 40])
def test_triangular_inverse_raises_where_numpy_does(n):
    r = upper_triangular(n, 10.0, 1)
    r[n - 1, n - 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        np.linalg.inv(r)
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        triangular_inverse(r)
