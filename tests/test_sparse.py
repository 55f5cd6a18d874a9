"""The numpy-only sparse operators and their symmetry blocks against
scipy.sparse builds of the same operators: every entry and every block is
compared with ==, so the dense blocks the duals diagonalize are the ones a
scipy build gives."""
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import chiral_current, csr_of
from proxygap.dual import prepare_dual
from proxygap.linalg import CooMatrix, HermitianOperator, as_coo
from proxygap.models import (HeisenbergParams, heisenberg_chain,
                             heisenberg_sparse, momentum_sector_split,
                             popcounts, sector_split_sparse,
                             translation_table)
from proxygap.witness import (ConstraintSet, Witness, dicke_witness,
                              even_odd_bipartition)

# the 2-ring counts its bond twice; b != 0 adds the field to the diagonal
HEISENBERG = [HeisenbergParams(2, -1, -1, -1),
              HeisenbergParams(2, 0.7, -0.3, 1.1, 0.4),
              HeisenbergParams(4, -1, -1, -1, 0.3),
              HeisenbergParams(4, 1.0, 0.3, 1.0, -0.7, periodic=False),
              HeisenbergParams(5, 5, 5, 1, -1),
              HeisenbergParams(7, 0.9, 0.4, -1.3, 0.77)]


def _scipy_heisenberg(p):
    """H by the same bit arithmetic, assembled as scipy CSR."""
    n, d = p.n, 2 ** p.n
    idx = np.arange(d, dtype=np.int64)
    diag = np.zeros(d)
    rows, cols, vals = [], [], []
    bonds = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if p.periodic
                                                  else [])
    for i, j in bonds:
        bi = (idx >> (n - 1 - i)) & 1
        bj = (idx >> (n - 1 - j)) & 1
        diag -= p.jz * ((1 - 2 * bi) * (1 - 2 * bj)).astype(float)
        flipped = idx ^ ((1 << (n - 1 - i)) | (1 << (n - 1 - j)))
        amp = np.where(bi != bj, -(p.jx + p.jy), -(p.jx - p.jy))
        nz = amp != 0.0
        rows.append(flipped[nz])
        cols.append(idx[nz])
        vals.append(amp[nz].astype(float))
    if p.b != 0.0:
        diag += p.b * (n - 2 * popcounts(n)).astype(float)
    rows.append(idx)
    cols.append(idx)
    vals.append(diag)
    h = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(d, d))
    h.sum_duplicates()
    return h


def _scipy_dicke(n, m):
    """W^n_m term by term, assembled as scipy CSR."""
    rows, cols, vals = [], [], []
    for alpha in itertools.combinations(range(n), m):
        a = set(alpha)
        for out, into in itertools.product(alpha, range(n)):
            if into in a:
                continue
            b = (a - {out}) | {into}
            ia, ib, icap, icup = (sum(1 << (n - 1 - i) for i in s)
                                  for s in (a, b, a & b, a | b))
            if ib < ia:
                continue
            rows += [ia, ib, icap, icup]
            cols += [ib, ia, icap, icup]
            vals += [-0.5, -0.5, 0.5, 0.5]
    w = sp.csr_matrix((vals, (rows, cols)), shape=(2 ** n, 2 ** n))
    w.sum_duplicates()
    return w


def _scipy_sectors(h, n):
    """The excitation-sector blocks sliced out of scipy CSR."""
    counts = popcounts(n)
    blocks = []
    for mm in range(n + 1):
        idx = np.nonzero(counts == mm)[0]
        blocks.append(h.tocsr()[np.ix_(idx, idx)].toarray())
    return blocks


def _scipy_momentum(ops, n):
    """Momentum blocks accumulated from scipy's column slices of each
    op, column by column (full orbits only)."""
    d = 2 ** n
    perm = translation_table(n)
    orbit = np.empty((n, d), dtype=np.int64)
    orbit[0] = np.arange(d)
    for t in range(1, n):
        orbit[t] = perm[orbit[t - 1]]
    rep, shift = orbit.min(axis=0), (n - orbit.argmin(axis=0)) % n
    counts = popcounts(n)
    omega = np.exp(2j * np.pi / n)
    real = not any(np.iscomplexobj(o) and o.data.imag.any() for o in ops)
    blocks = []
    for m in range(n + 1):
        reps = np.unique(rep[counts == m])
        if m in (0, n):
            blocks.append(tuple(o.tocsr()[np.ix_(reps, reps)].toarray()
                                .astype(complex) for o in ops))
            continue
        pos = {r: i for i, r in enumerate(reps)}
        for k in range(n):
            if real and 2 * k > n:
                continue
            kblocks = []
            for o in ops:
                c = o.tocsc()[:, reps].tocoo()
                b = np.zeros((reps.size, reps.size), dtype=complex)
                np.add.at(b, ([pos[r] for r in rep[c.row]], c.col),
                          np.asarray(c.data, dtype=complex)
                          * omega ** (shift[c.row] * k))
                kblocks.append((b + b.conj().T) / 2)
            blocks.append(tuple(kblocks))
    return blocks


def test_coo_sums_duplicates_in_row_major_order():
    c = CooMatrix([1, 0, 1, 0, 1], [0, 1, 0, 1, 1], [1.0, 2.0, 3.0, 0.5, 0],
                  (2, 2))
    np.testing.assert_array_equal(c.row, [0, 1, 1])
    np.testing.assert_array_equal(c.col, [1, 0, 1])
    np.testing.assert_array_equal(c.data, [2.5, 4.0, 0.0])  # zero kept
    np.testing.assert_array_equal(c.toarray(), [[0.0, 2.5], [4.0, 0.0]])
    assert c.tocoo() is c and as_coo(c) is c
    m = np.array([[0.0, 1j], [-1j, 3.0]])
    d = CooMatrix.from_dense(m)
    np.testing.assert_array_equal(d.toarray(), m)
    assert d.data.size == 3
    np.testing.assert_array_equal(as_coo(sp.csr_matrix(m)).toarray(), m)


@pytest.mark.parametrize("p", HEISENBERG)
def test_heisenberg_matches_the_scipy_build(p):
    h = heisenberg_sparse(p)
    ref = _scipy_heisenberg(p)
    assert h.data.dtype == ref.dtype
    assert (h.toarray() == ref.toarray()).all()
    assert (heisenberg_chain(p).entries == ref.toarray()).all()


@pytest.mark.parametrize("n,m", [(4, 2), (5, 2), (6, 3), (7, 3)])
def test_dicke_witness_matches_the_scipy_build(n, m):
    w = dicke_witness(n, m).matrix
    assert (w.toarray() == _scipy_dicke(n, m).toarray()).all()


@pytest.mark.parametrize("p", [p for p in HEISENBERG if p.jx == p.jy])
def test_sector_blocks_match_the_scipy_slices(p):
    h = heisenberg_sparse(p)
    for op in (h, dicke_witness(p.n, p.n // 2).matrix):
        blocks = [s.block for s in sector_split_sparse(op, p.n).sectors]
        ref = _scipy_sectors(csr_of(op), p.n)
        assert all(b.dtype == r.dtype and (b == r).all()
                   for b, r in zip(blocks, ref, strict=True))


@pytest.mark.parametrize("n", [5, 7])
def test_momentum_blocks_match_the_scipy_build(n):
    h = heisenberg_sparse(HeisenbergParams(n, n, n, 1, -1))
    w = dicke_witness(n, 3).matrix
    for ops in ([h, w], [h, w, chiral_current(n)]):  # real, then complex
        blocks, mult = momentum_sector_split(ops, n)
        ref = _scipy_momentum([csr_of(o) if isinstance(o, CooMatrix) else o
                               for o in ops], n)
        assert len(blocks) == len(ref) == len(mult)
        for bl, rl in zip(blocks, ref):
            assert all((b == r).all() for b, r in zip(bl, rl, strict=True))
        assert (max(mult) == 2) == (len(ops) == 2)


@pytest.mark.parametrize("cuts", [(), "even-odd"])
def test_csr_inputs_take_the_same_path(cuts):
    n = 7
    p = HeisenbergParams(n, n, n, 1, -1)
    wit = dicke_witness(n, 3)
    slots = (even_odd_bipartition(n),) if cuts else ()
    coo = prepare_dual(heisenberg_chain(p), ConstraintSet((wit,), slots))
    csr = prepare_dual(HermitianOperator(csr_of(heisenberg_sparse(p)),
                                         (2,) * n),
                       ConstraintSet((Witness(csr_of(wit.matrix)),), slots))
    assert (csr.path, csr.fallback) == (coo.path, coo.fallback)
    assert csr.path == ("sector" if cuts else "momentum")
    assert csr.block_sizes == coo.block_sizes
    assert (csr.h_packed == coo.h_packed).all()
    assert (csr.w_packed[0] == coo.w_packed[0]).all()
    assert (csr.spectrum == coo.spectrum).all()
