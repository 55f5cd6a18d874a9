from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from conftest import random_hermitian
from proxygap.linalg import (Bipartition, BlockLayout, CooMatrix,
                             HermitianOperator, LinalgError,
                             SpectralDecomposition,
                             partial_transpose_matrix, pt_permutation,
                             real_dtype_of, stacked_eigh)

NONCONVERGENT = Path(__file__).parent / "data" / "psd_eigh_nonconvergent.npy"


def psd_project(m):
    """A dense matrix's PSD projection by the one-block layout."""
    layout = BlockLayout([m.shape[0]])
    return layout.dense(layout.psd_project(m.astype(complex).ravel()))


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
    m = a.entries
    b = HermitianOperator(sp.csr_matrix(m), a.local_dims)
    # a dense and a csr input are both held as one CooMatrix
    assert type(a.sparse) is type(b.sparse) is CooMatrix
    assert b.dim == 4 and b.n_sites == 2
    np.testing.assert_array_equal(a.sparse.toarray(), m)
    np.testing.assert_array_equal(b.entries, m)
    # entries is built on each read in the triplets' dtype, not kept
    assert b.entries is not b.entries
    real = HermitianOperator(m.real + m.real.T)
    assert real.sparse.data.dtype == real.entries.dtype == np.float64


def test_hermitian_operator_rejects_bad_dims():
    for m in (np.ones(4), np.ones((2, 3)), sp.csr_matrix(np.ones((2, 3)))):
        with pytest.raises(LinalgError):
            HermitianOperator(m)
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
        p = psd_project(m)
        w = np.linalg.eigvalsh(p)
        assert w.min() >= -1e-12
        # projection is idempotent and dominates m in the PSD order
        np.testing.assert_allclose(psd_project(p), p, atol=1e-12)
        assert np.linalg.eigvalsh(p - m).min() >= -1e-12


def test_psd_project_fixed_point(rng):
    m = random_hermitian(rng, (4,)).entries
    np.testing.assert_allclose(psd_project(m @ m.conj().T),
                               m @ m.conj().T, atol=1e-10)


def test_psd_project_where_eigh_does_not_converge():
    # a 32x32 Hermitian matrix from an SPG run on the n=5 AFM ring, on
    # which numpy's eigh (zheevd) raises "Eigenvalues did not converge"
    m = np.load(NONCONVERGENT)
    p = psd_project(m)
    np.testing.assert_array_equal(p, p.conj().T)
    assert scipy.linalg.eigvalsh(p, driver="evr").min() >= -1e-12
    np.testing.assert_allclose(psd_project(p), p, atol=1e-12)


def test_stacked_eigh_where_one_block_does_not_converge(rng):
    # the matrix above, stacked with a benign one of the same size: numpy's
    # eigh raises on the stack, which is then redone block by block
    bad = np.load(NONCONVERGENT)
    stack = np.stack([random_hermitian(rng, (32,)).entries,
                      (bad + bad.conj().T) / 2])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigh(stack)
    w, v = stacked_eigh(stack)
    for m, wi, vi in zip(stack, w, v):
        assert np.all(np.diff(wi) >= 0.0)
        np.testing.assert_allclose((vi * wi) @ vi.conj().T, m,
                                   atol=1e-12 * np.abs(m).max() * 32)
    layout = BlockLayout([32, 32])
    p = layout.psd_project(stack.ravel())
    for block, m in zip(layout.stacks(p)[0], stack):
        np.testing.assert_allclose(block, psd_project(m), atol=1e-12)


def _excitations(n, sites):
    idx = np.arange(2 ** n)
    return sum((idx >> (n - 1 - i)) & 1 for i in sites)


def test_pt_permutation_is_the_partial_transpose(rng):
    # the partial transpose on A maps the magnetization sectors onto the
    # blocks of m_B - m_A, and index permutations carry it both ways
    n, a = 4, (0, 2)
    mag = BlockLayout.of_charge(_excitations(n, range(n)))
    twisted = BlockLayout.of_charge(_excitations(n, (1, 3))
                                    - _excitations(n, a))
    assert [len(ix) for ix in mag.index] == [1, 4, 6, 4, 1]
    assert sorted(len(ix) for ix in twisted.index) == [1, 1, 4, 4, 6]
    to_x = pt_permutation(mag, twisted, (2,) * n, a)
    to_m = pt_permutation(twisted, mag, (2,) * n, a)
    x = rng.standard_normal(mag.size) + 1j * rng.standard_normal(mag.size)
    m = mag.hermitian(x)
    np.testing.assert_array_equal(
        twisted.dense(m[to_x]),
        partial_transpose_matrix(mag.dense(m), (2,) * n, a))
    np.testing.assert_array_equal(m[to_x][to_m], m)
    one = BlockLayout([2 ** n])
    with pytest.raises(LinalgError):
        pt_permutation(mag, mag, (2,) * n, a)
    with pytest.raises(LinalgError):
        pt_permutation(mag, one, (2,) * n, a)


def test_real_layouts_pack_real_entries_only(rng):
    # a real layout takes real entries of any dtype, packs, composes and
    # densifies in float64, and refuses an imaginary entry
    blocks = [np.array([[2.0]]), np.array([[1.0, 0.5], [0.5, -1.0]])]
    assert real_dtype_of(blocks) == np.float64
    assert real_dtype_of(blocks + [np.eye(2) * 1j]) == np.complex128
    index = [np.array([0]), np.array([1, 2])]
    real = BlockLayout([1, 2], index, real_dtype_of(blocks))
    p = real.pack([b.astype(complex) for b in blocks])
    assert p.dtype == np.float64 and real.width == real.size == 5
    assert real.dense(p).dtype == np.float64
    w, vecs = real.eigh(p)
    assert real.compose(vecs, w).dtype == np.float64
    np.testing.assert_allclose(real.compose(vecs, w), p, atol=1e-15)
    with pytest.raises(LinalgError):
        real.pack([blocks[0], blocks[1] + 1e-3j])
    cplx = BlockLayout([1, 2])
    assert cplx.pack(blocks).dtype == np.complex128
    assert cplx.width == 2 * cplx.size == 10


def test_joined_layout_stacks_equal_sizes_of_every_layout(rng):
    # the joint layout holds the blocks of both, one stack per size, and
    # perm carries the layouts' packed vectors, joined, into it
    n, a = 4, (0, 2)
    mag = BlockLayout.of_charge(_excitations(n, range(n)))
    twisted = BlockLayout.of_charge(_excitations(n, (1, 3))
                                    - _excitations(n, a))
    joint, perm = BlockLayout.joined([mag, twisted])
    assert joint.sizes == mag.sizes + twisted.sizes
    assert [b for b, _ in joint.groups] == [1, 4, 6]
    assert sorted(perm) == list(range(mag.size + twisted.size))
    blocks = [random_hermitian(rng, (b,)).entries for b in joint.sizes]
    k = len(mag.sizes)
    packed = np.concatenate([mag.pack(blocks[:k]), twisted.pack(blocks[k:])])
    np.testing.assert_array_equal(packed[perm], joint.pack(blocks))
    w = np.sort(joint.eigvalsh(packed[perm]))
    np.testing.assert_allclose(
        w, np.sort(np.r_[mag.eigvalsh(packed[:mag.size]),
                         twisted.eigvalsh(packed[mag.size:])]),
        rtol=0, atol=1e-12)
    real, _ = BlockLayout.joined([BlockLayout([2], dtype=float)] * 2)
    assert real.dtype == np.float64
    assert BlockLayout.joined([mag, real])[0].dtype == np.complex128
