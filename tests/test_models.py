import numpy as np
import pytest

from conftest import csr_of
from proxygap.dual import (GridOptions, gap_energy_scan, ppt_energy_min,
                           prepare_dual)
from proxygap.linalg import LinalgError
from proxygap.models import (HeisenbergParams, XYParams, bell_staircase,
                             dicke_state, energy_extremes,
                             excitation_sector_indices, heisenberg_chain,
                             heisenberg_sparse, is_translation_invariant,
                             momentum_sector_split, popcounts,
                             sector_split_sparse, translation_table, xy_chain)
from proxygap.witness import (ConstraintSet, dicke_witness,
                              even_odd_bipartition)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _kron_reference(p: HeisenbergParams) -> np.ndarray:
    """Direct tensor-product assembly, used as the oracle for the sparse
    bit-arithmetic builder."""
    n = p.n
    d = 2 ** n

    def site_op(op, i):
        out = np.ones((1, 1), dtype=complex)
        for j in range(n):
            out = np.kron(out, op if j == i else np.eye(2))
        return out

    h = np.zeros((d, d), dtype=complex)
    bonds = [(i, i + 1) for i in range(n - 1)]
    if p.periodic:
        bonds.append((n - 1, 0))
    for (i, j) in bonds:
        h -= p.jx * site_op(SX, i) @ site_op(SX, j)
        h -= p.jy * site_op(SY, i) @ site_op(SY, j)
        h -= p.jz * site_op(SZ, i) @ site_op(SZ, j)
    for i in range(n):
        h += p.b * site_op(SZ, i)
    return h


@pytest.mark.parametrize("params", [
    HeisenbergParams(3, 1, 1, 1, 0),
    HeisenbergParams(3, -1, -1, -1, 0),
    HeisenbergParams(4, 0.3, -0.7, 1.2, 0.5),
    HeisenbergParams(4, 1, 1, 0, -2, periodic=False),
    HeisenbergParams(2, 1, 0.5, 0.25, 0.1, periodic=False),
    HeisenbergParams(5, 11, 11, 1, -1),
])
def test_heisenberg_matches_kron_reference(params):
    built = heisenberg_sparse(params).toarray()
    np.testing.assert_allclose(built, _kron_reference(params), atol=1e-12)
    # the sparse operator densifies to exactly the same matrix
    np.testing.assert_array_equal(heisenberg_chain(params).entries, built)


def test_ground_energies_per_site():
    # antiferromagnetic ring ground energies at N = 3, 4, 5
    for n, e0 in [(3, -1.000), (4, -2.000), (5, -1.4944)]:
        h = heisenberg_chain(HeisenbergParams(n, -1, -1, -1))
        w = np.linalg.eigvalsh(h.entries)
        assert abs(w.min() / n - e0) < 1e-3


def test_xy_chain_is_special_case():
    p = XYParams(n=4, r=0.6, h=0.9)
    xy = xy_chain(p).entries
    ref = heisenberg_sparse(HeisenbergParams(4, 0.8, 0.2, 0.0, -0.9)).toarray()
    np.testing.assert_allclose(xy, ref, atol=1e-12)
    with pytest.raises(ValueError):
        XYParams(n=4, r=1.5, h=0.0)


def test_popcounts_and_sectors():
    n = 4
    counts = popcounts(n)
    assert counts[0] == 0 and counts[-1] == n
    sizes = [excitation_sector_indices(n, m).size for m in range(n + 1)]
    assert sizes == [1, 4, 6, 4, 1]


def test_dicke_state_support():
    psi = dicke_state(4, 2)
    assert abs(np.linalg.norm(psi) - 1) < 1e-12
    idx = excitation_sector_indices(4, 2)
    assert np.all(psi[idx] != 0)
    mask = np.ones(16, dtype=bool)
    mask[idx] = False
    assert np.all(psi[mask] == 0)


def test_sector_split_blocks():
    h = heisenberg_chain(HeisenbergParams(4, -1, -1, -1, 0.3))
    sb = sector_split_sparse(h.sparse, h.n_sites)
    full = np.sort(np.linalg.eigvalsh(h.entries))
    blocks = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in sb]))
    np.testing.assert_allclose(blocks, full, atol=1e-10)
    assert [b.shape[0] for b in sb] == [1, 4, 6, 4, 1]


def test_sector_split_stays_sparse(monkeypatch):
    # a guard below n makes any densification raise
    p = HeisenbergParams(4, -1, -1, -1, 0.3)
    monkeypatch.setenv("PROXYGAP_MAX_QUBITS", "3")
    sb = sector_split_sparse(heisenberg_chain(p).sparse, p.n)
    full = np.linalg.eigvalsh(heisenberg_sparse(p).toarray())
    blocks = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in sb]))
    np.testing.assert_allclose(blocks, full, atol=1e-10)


def test_sector_split_rejects_non_conserving():
    # jx != jy breaks magnetization conservation
    h = heisenberg_sparse(HeisenbergParams(3, 1.0, 0.3, 1.0))
    with pytest.raises(LinalgError):
        sector_split_sparse(h, 3)


def test_translation_table_is_cyclic_permutation():
    n = 4
    perm = translation_table(n)
    assert sorted(perm) == list(range(16))
    out = np.arange(16)
    for _ in range(n):
        out = perm[out]
    np.testing.assert_array_equal(out, np.arange(16))


def test_translation_invariance_detection():
    ring = heisenberg_sparse(HeisenbergParams(4, -1, -1, -1))
    chain = heisenberg_sparse(HeisenbergParams(4, -1, -1, -1, periodic=False))
    assert is_translation_invariant(ring, 4)
    assert not is_translation_invariant(chain, 4)


def test_momentum_split_matches_dense_spectra():
    n = 5
    hs = csr_of(heisenberg_sparse(HeisenbergParams(n, 3, 3, 1, -0.7)))
    w = csr_of(dicke_witness(n, 2).matrix)
    fine, mult = momentum_sector_split([hs, w], n)
    for x in (0.0, 0.37, 2.1):
        dense = np.sort(np.linalg.eigvalsh((hs + x * w).toarray()))
        mom = np.sort(np.concatenate(
            [np.tile(np.linalg.eigvalsh(b[0] + x * b[1]), m)
             for b, m in zip(fine, mult)]))
        np.testing.assert_allclose(mom, dense, atol=1e-10)


def test_momentum_split_partial_period_raises():
    # N=4 has states like 0101 with translation period 2
    hs = heisenberg_sparse(HeisenbergParams(4, -1, -1, -1))
    with pytest.raises(LinalgError):
        momentum_sector_split([hs], 4)


def test_bell_staircase_structure():
    dec = bell_staircase(4)
    v = dec.eigenvectors
    np.testing.assert_allclose(v.conj().T @ v, np.eye(16), atol=1e-12)
    np.testing.assert_allclose(dec.eigenvalues, np.arange(16.0))
    h = dec.reconstruct()
    np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
    # the first d eigenvectors are maximally entangled across the half cut
    for j in range(4):
        mat = v[:, j].reshape(4, 4)
        s = np.linalg.svd(mat, compute_uv=False)
        np.testing.assert_allclose(s, np.full(4, 0.5), atol=1e-12)


def test_bell_staircase_rejects_odd():
    with pytest.raises(ValueError):
        bell_staircase(3)


def test_energy_extremes_degeneracy():
    # ferromagnetic XXX ring: (n+1)-fold degenerate ground multiplet
    h = heisenberg_chain(HeisenbergParams(4, 1, 1, 1))
    e0, vecs, e_max = energy_extremes(h)
    assert vecs.shape[1] == 5
    assert e_max > e0


def test_memory_guard(monkeypatch):
    monkeypatch.setenv("PROXYGAP_MAX_QUBITS", "3")
    h = heisenberg_chain(HeisenbergParams(4, 1, 1, 1))
    with pytest.raises(MemoryError):
        h.entries


def test_memory_guard_spares_the_block_path(monkeypatch):
    # the guard applies where a dense 2^n x 2^n matrix is formed: a
    # witness-only scan of an n=7 ring runs on momentum blocks beyond it
    monkeypatch.setenv("PROXYGAP_MAX_QUBITS", "5")
    n = 7
    h = heisenberg_chain(HeisenbergParams(n, n, n, 1, -1))
    cs = ConstraintSet((dicke_witness(n, 3),))
    assert prepare_dual(h, cs).path == "momentum"
    res = gap_energy_scan(h, cs, GridOptions(n_points=4, bisect_iters=3))
    assert res.e_max_gap is not None
    with pytest.raises(MemoryError):
        h.entries


def test_memory_guard_spares_the_ppt_sector_path(monkeypatch):
    # a PPT scan and the PPT minimum energy of an n=6 AFM ring, even-odd
    # cut, read H only through its magnetization sectors
    monkeypatch.setenv("PROXYGAP_MAX_QUBITS", "5")
    n = 6
    h = heisenberg_chain(HeisenbergParams(n, -1, -1, -1))
    cuts = (even_odd_bipartition(n),)
    cs = ConstraintSet(map_slots=cuts)
    assert prepare_dual(h, cs).path == "sector"
    gap_energy_scan(h, cs, GridOptions(n_points=3, bisect_iters=2))
    assert ppt_energy_min(h, cuts).converged
    with pytest.raises(MemoryError):
        h.entries
