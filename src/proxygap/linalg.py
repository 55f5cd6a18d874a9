"""Hermitian linear algebra on multipartite operators.

Operators carry their tensor-factor structure (``local_dims``) so that
partial transposition and bipartite cuts can be applied by index
bookkeeping alone.  An operator holds a dense complex128 matrix or a
sparse CSR one; a sparse operator is densified only where a dense path
asks for its `entries`, behind the `PROXYGAP_MAX_QUBITS` memory guard.
Entropies elsewhere are in nats.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

HERMITICITY_RTOL = 1e-12
DEFAULT_MAX_QUBITS = 14


class LinalgError(ValueError):
    pass


def max_qubits() -> int:
    return int(os.environ.get("PROXYGAP_MAX_QUBITS", DEFAULT_MAX_QUBITS))


def check_dense_size(dim: int):
    """Raise MemoryError before a dense dim x dim matrix beyond
    2^PROXYGAP_MAX_QUBITS is formed."""
    cap = max_qubits()
    if dim > 2 ** cap:
        raise MemoryError(
            f"a dense {dim}x{dim} matrix exceeds the memory guard "
            f"(2^{cap}); set PROXYGAP_MAX_QUBITS to override")


def _as_matrix(entries):
    m = entries.tocsr() if sp.issparse(entries) else \
        np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {m.shape}")
    return m


class HermitianOperator:
    """A Hermitian matrix, dense or sparse, together with its subsystem
    structure.

    `entries` is the dense matrix: a sparse operator is densified on first
    access, behind the memory guard, and keeps the dense copy.  `sparse` is
    the CSR matrix, converted from the dense one for a dense operator."""

    __slots__ = ("local_dims", "_matrix", "_dense")

    def __init__(self, entries, local_dims=None):
        m = _as_matrix(entries)
        if local_dims is None:
            local_dims = (m.shape[0],)
        local_dims = tuple(int(d) for d in local_dims)
        if any(d <= 0 for d in local_dims):
            raise LinalgError("local dimensions must be positive")
        if int(np.prod(local_dims)) != m.shape[0]:
            raise LinalgError(
                f"product of local_dims {local_dims} != dim {m.shape[0]}")
        if sp.issparse(m):
            scale = max(np.abs(m.data).max(initial=0.0), 1.0)
            asym = np.abs((m - m.conj().T).data).max(initial=0.0)
        else:
            scale = max(np.abs(m).max(), 1.0)
            asym = np.abs(m - m.conj().T).max()
        if asym > HERMITICITY_RTOL * scale:
            raise LinalgError("matrix is not Hermitian")
        self.local_dims = local_dims
        self._matrix = m
        self._dense = None if sp.issparse(m) else m

    @property
    def entries(self) -> np.ndarray:
        if self._dense is None:
            check_dense_size(self.dim)
            self._dense = np.asarray(self._matrix.toarray(), dtype=complex)
        return self._dense

    @property
    def sparse(self) -> sp.csr_matrix:
        m = self._matrix
        return m if sp.issparse(m) else sp.csr_matrix(m)

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def n_sites(self) -> int:
        return len(self.local_dims)


@dataclass(frozen=True)
class Bipartition:
    """A proper nonempty subset of subsystem indices (the "A" side)."""

    subset_mask: frozenset[int]
    n_sites: int

    def __init__(self, subset, n_sites):
        subset = frozenset(int(i) for i in subset)
        n_sites = int(n_sites)
        if not subset:
            raise LinalgError("bipartition subset must be nonempty")
        if any(i < 0 or i >= n_sites for i in subset):
            raise LinalgError("subsystem index out of range")
        if len(subset) == n_sites:
            raise LinalgError("bipartition subset must be proper")
        object.__setattr__(self, "subset_mask", subset)
        object.__setattr__(self, "n_sites", n_sites)

    @property
    def complement(self) -> frozenset[int]:
        return frozenset(range(self.n_sites)) - self.subset_mask


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and the unitary of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    local_dims: tuple[int, ...] = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))
        object.__setattr__(self, "eigenvectors", np.asarray(self.eigenvectors, dtype=complex))
        if self.local_dims is None:
            object.__setattr__(self, "local_dims", (self.eigenvectors.shape[0],))

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def kron(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    return HermitianOperator(np.kron(a.entries, b.entries),
                             a.local_dims + b.local_dims)


def partial_transpose_matrix(m: np.ndarray, local_dims, subset) -> np.ndarray:
    """Transpose the tensor factors in `subset`, acting on a raw matrix."""
    dims = tuple(local_dims)
    n = len(dims)
    t = np.asarray(m).reshape(dims + dims)
    axes = list(range(2 * n))
    for i in subset:
        axes[i], axes[n + i] = axes[n + i], axes[i]
    d = int(np.prod(dims))
    return t.transpose(axes).reshape(d, d)


def psd_project_matrix(m: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius distance (eigenvalue clipping)."""
    m = (m + m.conj().T) / 2
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError:
        # numpy's divide-and-conquer driver (zheevd) can fail to converge
        # on a finite Hermitian matrix; the MRRR driver (zheevr) solves
        # the one kept in tests/data
        w, v = scipy.linalg.eigh(m, driver="evr")
    w = np.maximum(w, 0.0)
    out = (v * w) @ v.conj().T
    return (out + out.conj().T) / 2
