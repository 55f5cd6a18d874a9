"""The numpy-only sparse operators and their symmetry blocks against
scipy.sparse builds of the same operators: every entry and every block is
compared with ==, so the dense blocks the duals diagonalize are the ones a
scipy build gives.  The one exception is the real momentum blocks, which
live in a basis of their own; they are compared with the scipy blocks
carried into that basis, to a stated tolerance."""
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import chiral_current, csr_of, z_hop
from proxygap.dual import prepare_dual
from proxygap.linalg import CooMatrix, HermitianOperator, as_coo
from proxygap.models import (HeisenbergParams, commutes_with,
                             heisenberg_chain, heisenberg_sparse,
                             momentum_sector_split, popcounts,
                             reflection_table, sector_split_sparse,
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


def _orbits(n):
    """Each basis state's orbit representative (the least state of its
    translation orbit) and its shift j: state = T^j |rep>."""
    d = 2 ** n
    perm = translation_table(n)
    orbit = np.empty((n, d), dtype=np.int64)
    orbit[0] = np.arange(d)
    for t in range(1, n):
        orbit[t] = perm[orbit[t - 1]]
    return orbit.min(axis=0), (n - orbit.argmin(axis=0)) % n


def _scipy_momentum(ops, n):
    """Momentum blocks accumulated from scipy's column slices of each
    op, column by column (full orbits only)."""
    rep, shift = _orbits(n)
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


def _dense_reflection(n):
    """The site reflection i -> n-1-i as a dense permutation matrix, read
    off the reversed bit strings of the basis states."""
    d = 2 ** n
    r = np.zeros((d, d))
    for x in range(d):
        r[int(format(x, f"0{n}b")[::-1], 2), x] = 1.0
    return r


def _rk_unitaries(n):
    """Per block of `_scipy_momentum` (real ops), the unitary whose columns
    are the RK-fixed basis vectors, in the momentum states |k,r> =
    n^(-1/2) sum_j w^(-kj) T^j |r> of that block, and the dense 2^n x b
    matrix of those states.  R|r> = T^l |rbar> is read off the columns of
    the dense reflection; the basis is w^(kl/2) |k,r> where r = rbar, and
    (|k,r> + phi |k,rbar>)/sqrt2, i(|k,r> - phi |k,rbar>)/sqrt2 at the
    places of r < rbar, phi = w^(kl)."""
    rep, shift = _orbits(n)
    counts = popcounts(n)
    refl = _dense_reflection(n)
    perm = translation_table(n)
    out = []
    for m in range(n + 1):
        reps = np.unique(rep[counts == m])
        if m in (0, n):
            out.append((np.eye(1), None))
            continue
        pos = {r: i for i, r in enumerate(reps)}
        mirrored = refl[:, reps].argmax(axis=0)  # R|r> as a basis state
        for k in range(n // 2 + 1):
            v = np.zeros((2 ** n, reps.size), dtype=complex)
            states = reps.copy()
            for t in range(n):
                v[states, np.arange(reps.size)] = \
                    np.exp(-2j * np.pi * k * t / n) / np.sqrt(n)
                states = perm[states]
            u = np.zeros((reps.size, reps.size), dtype=complex)
            for j, s in enumerate(mirrored):
                q, l = pos[rep[s]], shift[s]
                phi = np.exp(2j * np.pi * k * l / n)
                if q == j:
                    u[j, j] = np.exp(1j * np.pi * k * l / n)
                elif j < q:
                    u[[j, q], j] = np.array([1, phi]) / np.sqrt(2)
                    u[[j, q], q] = np.array([1j, -1j * phi]) / np.sqrt(2)
            out.append((u, v))
    return out


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


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 10)
                                 for m in range(1, n)] + [(11, 5)])
def test_dicke_witness_matches_the_scipy_build(n, m):
    w = dicke_witness(n, m).matrix
    ref = _scipy_dicke(n, m).tocoo()  # row-major, duplicates summed
    assert w.row.dtype == w.col.dtype == np.int64
    assert w.data.dtype == ref.data.dtype == np.float64
    assert (w.row == ref.row).all() and (w.col == ref.col).all()
    assert (w.data == ref.data).all()


@pytest.mark.parametrize("p", [p for p in HEISENBERG if p.jx == p.jy])
def test_sector_blocks_match_the_scipy_slices(p):
    h = heisenberg_sparse(p)
    for op in (h, dicke_witness(p.n, p.n // 2).matrix):
        blocks = sector_split_sparse(op, p.n)
        ref = _scipy_sectors(csr_of(op), p.n)
        assert all(b.dtype == r.dtype and (b == r).all()
                   for b, r in zip(blocks, ref, strict=True))


@pytest.mark.parametrize("n", [5, 7])
def test_momentum_blocks_match_the_scipy_build(n):
    h = heisenberg_sparse(HeisenbergParams(n, n, n, 1, -1))
    w = dicke_witness(n, 3).matrix
    csr = [csr_of(h), csr_of(w)]
    # an imaginary op, or a real one that the reflection does not keep,
    # keeps the blocks complex in the basis |k,r>: equal to scipy's
    for extra, mult2 in ((chiral_current(n), False), (z_hop(n), True)):
        blocks, mult = momentum_sector_split([h, w, extra], n)
        ref = _scipy_momentum(csr + [extra], n)
        assert len(blocks) == len(ref) == len(mult)
        for bl, rl in zip(blocks, ref):
            assert all(b.dtype == complex and (b == r).all()
                       for b, r in zip(bl, rl, strict=True))
        assert (max(mult) == 2) == mult2
    # real H and W commute with the reflection: real symmetric blocks in
    # the RK-fixed basis, scipy's carried there to 1e-12 (entries <= 2n)
    blocks, mult = momentum_sector_split([h, w], n)
    ref = _scipy_momentum(csr, n)
    refl = _dense_reflection(n)
    assert len(blocks) == len(ref) == len(mult)
    assert max(mult) == 2
    for bl, rl, (u, v) in zip(blocks, ref, _rk_unitaries(n), strict=True):
        if v is not None:  # each basis vector is RK-fixed
            vu = v @ u
            np.testing.assert_allclose(refl @ vu.conj(), vu, atol=1e-14)
        for b, r in zip(bl, rl, strict=True):
            assert b.dtype == np.float64 and (b == b.T).all()
            np.testing.assert_allclose(b, u.conj().T @ r @ u, rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(np.linalg.eigvalsh(b),
                                       np.linalg.eigvalsh(r), rtol=0,
                                       atol=1e-12)


def test_reflection_check_and_table():
    # on the 3-ring Z_i sits next to both ends of its hop: z_hop is
    # symmetric there
    for n in (4, 5):
        refl = reflection_table(n)
        assert (refl[refl] == np.arange(2 ** n)).all()
        np.testing.assert_array_equal(
            _dense_reflection(n), np.eye(2 ** n)[:, refl])
        zh = z_hop(n)
        assert commutes_with(zh, translation_table(n))
        assert not commutes_with(zh, refl)
        for op in (heisenberg_sparse(HeisenbergParams(n, 1, 1, -1, 0.3)),
                   dicke_witness(n, 1).matrix):
            assert commutes_with(op, refl)


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
