import numpy as np
import pytest
import scipy.sparse as sp

from proxygap.linalg import HermitianOperator


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_hermitian(rng, dims):
    d = int(np.prod(dims))
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator((m + m.conj().T) / 2, dims)


def csr_of(c):
    """A scipy CSR matrix built from the triplets of a `CooMatrix`."""
    return sp.csr_matrix((c.data, (c.row, c.col)), shape=c.shape)


def chiral_current(n):
    """sum_i i(s+_i s-_{i+1} - s-_i s+_{i+1}) on the ring, as scipy CSR:
    Hermitian, translation invariant, conserves magnetization, and has
    imaginary entries, so a momentum split that holds it builds every
    momentum."""
    plus = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    out = sp.csr_matrix((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        ops = [sp.identity(2, format="csr")] * n
        ops[i], ops[(i + 1) % n] = plus, plus.T
        term = ops[0]
        for o in ops[1:]:
            term = sp.kron(term, o, format="csr")
        out = out + 1j * (term - term.T)
    return out


def z_hop(n):
    """sum_i Z_i (s+_{i+1} s-_{i+2} + h.c.) on the ring, as scipy CSR:
    real, Hermitian, translation invariant and conserving magnetization,
    but not symmetric under the site reflection, which moves Z to the
    other end of the hop."""
    z = sp.csr_matrix(np.diag([1.0, -1.0]))
    plus = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    out = sp.csr_matrix((2 ** n, 2 ** n))
    for i in range(n):
        ops = [sp.identity(2, format="csr")] * n
        ops[i], ops[(i + 1) % n], ops[(i + 2) % n] = z, plus, plus.T
        term = ops[0]
        for o in ops[1:]:
            term = sp.kron(term, o, format="csr")
        out = out + term + term.T
    return out


def random_state(rng, d, k=None):
    shape = (d,) if k is None else (k, d)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if k is None:
        return v / np.linalg.norm(v)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_product_states(rng, n, k):
    """k fully product n-qubit state vectors, shape (k, 2^n)."""
    sites = rng.standard_normal((k, n, 2)) + 1j * rng.standard_normal((k, n, 2))
    sites /= np.linalg.norm(sites, axis=2, keepdims=True)
    vecs = sites[:, 0, :]
    for i in range(1, n):
        vecs = np.einsum("ka,kb->kab", vecs, sites[:, i, :]).reshape(k, -1)
    return vecs


def random_cut_product_states(rng, cut, k):
    """k states that are product across the given bipartition."""
    n = cut.n_sites
    a = sorted(cut.subset_mask)
    b = sorted(cut.complement)
    va = random_state(rng, 2 ** len(a), k)
    vb = random_state(rng, 2 ** len(b), k)
    t = np.einsum("ka,kb->kab", va, vb).reshape((k,) + (2,) * n)
    perm = np.argsort(a + b)
    return t.transpose([0] + [1 + p for p in perm]).reshape(k, 2 ** n)
