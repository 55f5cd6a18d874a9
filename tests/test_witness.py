import numpy as np
import pytest

from conftest import (random_cut_product_states, random_product_states,
                      random_state)
from proxygap.linalg import Bipartition, LinalgError
from proxygap.models import (dicke_state, excitation_sector_indices,
                             popcounts, sector_split_sparse)
from proxygap.witness import (ALL, Witness, all_bipartitions,
                              dicke_field_range, dicke_witness,
                              even_odd_bipartition, projector_witness)


def test_all_bipartitions_count():
    for n in (2, 3, 4, 5):
        cuts = all_bipartitions(n)
        assert len(cuts) == 2 ** (n - 1) - 1
        assert all(0 in c.subset_mask for c in cuts)


def test_even_odd_bipartition():
    cut = even_odd_bipartition(5)
    assert cut.subset_mask == frozenset({0, 2, 4})


def test_max_schmidt_overlap_known_values():
    # for one state, alpha is its largest squared Schmidt coefficient
    cut = [Bipartition({0}, 2)]
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert abs(projector_witness(bell, cut).alpha - 0.5) < 1e-12
    prod = np.kron([1, 0], [0.6, 0.8])
    assert abs(projector_witness(prod, cut).alpha - 1.0) < 1e-12


def test_dicke_witness_sector_structure():
    n, m = 5, 2
    w = dicke_witness(n, m).to_dense()
    counts = popcounts(n)
    nz = np.argwhere(np.abs(w) > 1e-12)
    for i, j in nz:
        assert counts[i] in (m - 1, m, m + 1)
        assert counts[j] in (m - 1, m, m + 1)
        assert abs(counts[i] - counts[j]) <= 1  # hops move one excitation


def test_dicke_witness_detects_target():
    for n, m in [(4, 2), (5, 2), (6, 3)]:
        psi = dicke_state(n, m)
        w = dicke_witness(n, m).to_dense()
        assert np.real(psi.conj() @ (w @ psi)) < -1e-6


def test_dicke_witness_nonnegative_on_product_states(rng):
    # declared separable class: fully product states
    for n, m in [(4, 2), (5, 2)]:
        wd = dicke_witness(n, m).to_dense()
        vecs = random_product_states(rng, n, 10000)
        vals = np.real(np.einsum("ki,ij,kj->k", vecs.conj(), wd, vecs))
        assert vals.min() > -1e-9


def test_projector_witness_singlet_alpha():
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    w = projector_witness(singlet, ALL, n_sites=2)
    assert abs(w.alpha - 0.5) < 1e-12


def test_projector_witness_alpha_local_unitary_invariant(rng):
    psi = random_state(rng, 8)
    w0 = projector_witness(psi, ALL, n_sites=3)
    for _ in range(5):
        us = []
        for _ in range(3):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, _ = np.linalg.qr(a)
            us.append(q)
        u = np.kron(np.kron(us[0], us[1]), us[2])
        w1 = projector_witness(u @ psi, ALL, n_sites=3)
        assert abs(w1.alpha - w0.alpha) < 1e-8


def test_projector_witness_nonnegative_on_biseparable(rng):
    psi = dicke_state(4, 2)
    w = projector_witness(psi, ALL)
    wd = w.to_dense()
    for cut in all_bipartitions(4):
        vecs = random_cut_product_states(rng, cut, 2500)
        vals = np.real(np.einsum("ki,ij,kj->k", vecs.conj(), wd, vecs))
        assert vals.min() > -1e-9


def test_projector_witness_multi_state_disjoint_support():
    # |00> and |11> span: disjoint supports, exact Schmidt shortcut
    states = np.array([[1, 0, 0, 0], [0, 0, 0, 1.0]])
    w = projector_witness(states, ALL, n_sites=2)
    assert abs(w.alpha - 1.0) < 1e-12


def test_projector_witness_bounds_overlapping_product_states(rng):
    # Phi+ and Psi+ have disjoint supports, yet their span holds the
    # product state |++> = (Phi+ + Psi+)/sqrt(2): alpha must be 1
    states = np.array([[1, 0, 0, 1], [0, 1, 1, 0.0]]) / np.sqrt(2)
    w = projector_witness(states, ALL, n_sites=2)
    wd = w.to_dense()
    plus = np.full(4, 0.5)
    assert np.real(plus @ wd @ plus) > -1e-12
    vecs = random_product_states(rng, 2, 10000)
    vals = np.real(np.einsum("ki,ij,kj->k", vecs.conj(), wd, vecs))
    assert vals.min() > -1e-12


def test_projector_witness_rejects_non_orthonormal():
    states = np.array([[1, 0, 0, 0], [1, 0, 0, 1.0]])
    with pytest.raises(LinalgError):
        projector_witness(states, ALL, n_sites=2)


def test_dicke_field_range_values():
    lo, hi = dicke_field_range(11, 5, 10.0)
    assert abs(lo - (-2.0)) < 1e-12 and abs(hi - 0.0) < 1e-12
    lo, hi = dicke_field_range(13, 6, 12.0)
    assert abs(lo - (-2.0)) < 1e-12 and abs(hi - 0.0) < 1e-12
    with pytest.raises(ValueError):
        dicke_field_range(4, 2, -1.0)


def test_witness_block_consistency():
    # the magnetization blocks the dual reads are the dense sub-blocks
    w = dicke_witness(4, 2)
    blocks = sector_split_sparse(w.matrix, 4)
    assert len(blocks) == 5
    for m, block in enumerate(blocks):
        idx = excitation_sector_indices(4, m)
        np.testing.assert_allclose(block, w.to_dense()[np.ix_(idx, idx)],
                                   atol=1e-14)
