from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from conftest import random_hermitian
from proxygap.linalg import (Bipartition, HermitianOperator, LinalgError,
                             SpectralDecomposition, kron,
                             partial_transpose_matrix, psd_project_matrix)


def test_hermitian_operator_rejects_non_hermitian():
    with pytest.raises(LinalgError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(LinalgError):
        HermitianOperator(sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])))
    # the same relative rule on sparse data: 1e-13 of asymmetry passes
    m = sp.csr_matrix(np.array([[2.0, 1j], [-1j + 1e-13, 0.0]]))
    np.testing.assert_array_equal(HermitianOperator(m).entries, m.toarray())
    with pytest.raises(LinalgError):
        HermitianOperator(m + sp.csr_matrix(([1e-11], ([1], [0])),
                                            shape=(2, 2)))


def test_hermitian_operator_sparse_and_dense_views(rng):
    a = random_hermitian(rng, (2, 2))
    csr = a.sparse
    np.testing.assert_array_equal(csr.toarray(), a.entries)
    b = HermitianOperator(csr, a.local_dims)
    assert b.sparse is csr  # kept as given, not converted
    assert b.dim == 4 and b.n_sites == 2
    np.testing.assert_array_equal(b.entries, a.entries)


def test_hermitian_operator_rejects_bad_dims():
    with pytest.raises(LinalgError):
        HermitianOperator(np.eye(4), (3, 2))
    with pytest.raises(LinalgError):
        HermitianOperator(np.eye(4), (0, 4))


def test_bipartition_validation():
    with pytest.raises(LinalgError):
        Bipartition(set(), 3)
    with pytest.raises(LinalgError):
        Bipartition({0, 1, 2}, 3)
    with pytest.raises(LinalgError):
        Bipartition({3}, 3)
    cut = Bipartition({0, 2}, 4)
    assert cut.complement == frozenset({1, 3})


def test_kron_structure(rng):
    a = random_hermitian(rng, (2,))
    b = random_hermitian(rng, (3,))
    ab = kron(a, b)
    assert ab.local_dims == (2, 3)
    np.testing.assert_allclose(ab.entries, np.kron(a.entries, b.entries))


def test_partial_transpose_involution_and_trace(rng):
    for _ in range(20):
        m = random_hermitian(rng, (2, 2, 2)).entries
        subset = {0, 2}
        pt = partial_transpose_matrix(m, (2, 2, 2), subset)
        np.testing.assert_allclose(
            partial_transpose_matrix(pt, (2, 2, 2), subset), m, atol=1e-14)
        assert abs(np.trace(pt) - np.trace(m)) < 1e-12


def test_partial_transpose_full_set_is_transpose(rng):
    m = random_hermitian(rng, (2, 3))
    out = partial_transpose_matrix(m.entries, (2, 3), {0, 1})
    np.testing.assert_allclose(out, m.entries.T, atol=1e-14)


def test_partial_transpose_single_site_explicit():
    # |01><10| on two qubits -> |11><00| under transposition of site 0
    m = np.zeros((4, 4))
    m[1, 2] = 1.0
    out = partial_transpose_matrix(m, (2, 2), {0})
    expected = np.zeros((4, 4))
    expected[3, 0] = 1.0
    np.testing.assert_allclose(out, expected)


def test_eig_reconstruct(rng):
    m = random_hermitian(rng, (2, 2))
    dec = SpectralDecomposition(*np.linalg.eigh(m.entries))
    np.testing.assert_allclose(dec.reconstruct(), m.entries, atol=1e-12)
    assert dec.local_dims == (4,)


def test_psd_project_properties(rng):
    for _ in range(10):
        m = random_hermitian(rng, (2, 2)).entries
        p = psd_project_matrix(m)
        w = np.linalg.eigvalsh(p)
        assert w.min() >= -1e-12
        # projection is idempotent and dominates m in the PSD order
        np.testing.assert_allclose(psd_project_matrix(p), p, atol=1e-12)
        assert np.linalg.eigvalsh(p - m).min() >= -1e-12


def test_psd_project_fixed_point(rng):
    m = random_hermitian(rng, (4,)).entries
    np.testing.assert_allclose(psd_project_matrix(m @ m.conj().T),
                               m @ m.conj().T, atol=1e-10)


def test_psd_project_where_eigh_does_not_converge():
    # a 32x32 Hermitian matrix from an SPG run on the n=5 AFM ring, on
    # which numpy's eigh (zheevd) raises "Eigenvalues did not converge"
    m = np.load(Path(__file__).parent / "data" / "psd_eigh_nonconvergent.npy")
    p = psd_project_matrix(m)
    np.testing.assert_array_equal(p, p.conj().T)
    assert scipy.linalg.eigvalsh(p, driver="evr").min() >= -1e-12
    np.testing.assert_allclose(psd_project_matrix(p), p, atol=1e-12)
