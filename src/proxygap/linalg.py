"""Hermitian linear algebra on multipartite operators.

Operators carry their tensor-factor structure (``local_dims``) so that
partial transposition and bipartite cuts can be applied by index
bookkeeping alone.  An operator holds one `CooMatrix` of (row, col,
value) triplets, read from a dense array or from any matrix with a
`tocoo()` (scipy's sparse matrices among them), in the given dtype:
float64 for a real matrix.  It is densified only where a dense path asks
for its `entries`, behind the `PROXYGAP_MAX_QUBITS` memory guard, and the
dense copy is not kept.  The module needs numpy alone: scipy's
MRRR eigensolver is imported only where numpy's `eigh` fails to converge.
A `BlockLayout` stores block-diagonal matrices packed, in float64 where
every matrix it holds is real and in complex128 otherwise, and
diagonalizes equal-size blocks in one batched call, also across the
layouts that `BlockLayout.joined` puts in one; `pt_permutation` turns a
partial transpose between two layouts into one index permutation.
Entropies elsewhere are in nats.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_RTOL = 1e-12
DEFAULT_MAX_QUBITS = 14


class LinalgError(ValueError):
    pass


def check_dense_size(dim: int):
    """Raise MemoryError before a dense dim x dim matrix beyond
    2^PROXYGAP_MAX_QUBITS is formed."""
    cap = int(os.environ.get("PROXYGAP_MAX_QUBITS", DEFAULT_MAX_QUBITS))
    if dim > 2 ** cap:
        raise MemoryError(
            f"a dense {dim}x{dim} matrix exceeds the memory guard "
            f"(2^{cap}); set PROXYGAP_MAX_QUBITS to override")


class CooMatrix:
    """A sparse matrix as (row, col, value) triplets in row-major order,
    duplicate entries summed; explicit zeros are kept."""

    __slots__ = ("row", "col", "data", "shape")

    def __init__(self, row, col, data, shape):
        self.shape = (int(shape[0]), int(shape[1]))
        row = np.asarray(row, dtype=np.int64).ravel()
        col = np.asarray(col, dtype=np.int64).ravel()
        data = np.asarray(data)
        data = data.astype(np.result_type(data, float), copy=False).ravel()
        key = row * self.shape[1] + col
        if key.size and not (key[1:] > key[:-1]).all():
            order = np.argsort(key, kind="stable")
            key = key[order]
            first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            data = np.add.reduceat(data[order], first)
            row, col = np.divmod(key[first], self.shape[1])
        self.row, self.col, self.data = row, col, data

    @classmethod
    def from_dense(cls, m) -> "CooMatrix":
        """The nonzero entries of a dense matrix."""
        m = np.asarray(m)
        if m.ndim != 2:
            raise LinalgError(f"expected a matrix, got shape {m.shape}")
        row, col = np.nonzero(m)
        return cls(row, col, m[row, col], m.shape)

    def tocoo(self) -> "CooMatrix":
        return self

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self.row, self.col] = self.data
        return out


def as_coo(m) -> CooMatrix:
    """A sparse matrix, read through its `tocoo()`, as a `CooMatrix`."""
    c = m.tocoo()
    return c if isinstance(c, CooMatrix) else \
        CooMatrix(c.row, c.col, c.data, c.shape)


class HermitianOperator:
    """A Hermitian matrix, held as one `CooMatrix` (`sparse`), together
    with its subsystem structure.

    The constructor reads a dense array or any matrix with a `tocoo()` and
    keeps its triplets in their own dtype (float64 for real input).
    `entries` is the dense matrix in that dtype, built on each read behind
    the memory guard and not kept."""

    __slots__ = ("local_dims", "sparse")

    def __init__(self, entries, local_dims=None):
        c = as_coo(entries) if hasattr(entries, "tocoo") else \
            CooMatrix.from_dense(entries)
        if c.shape[0] != c.shape[1]:
            raise LinalgError(f"expected a square matrix, got shape {c.shape}")
        if local_dims is None:
            local_dims = (c.shape[0],)
        local_dims = tuple(int(d) for d in local_dims)
        if any(d <= 0 for d in local_dims):
            raise LinalgError("local dimensions must be positive")
        if int(np.prod(local_dims)) != c.shape[0]:
            raise LinalgError(
                f"product of local_dims {local_dims} != dim {c.shape[0]}")
        # each entry (i, j) against its partner (j, i), found by binary
        # search in the sorted keys; an entry without one meets a zero.
        # The keys are row-major, so a stable sort by column puts the
        # mirror keys in order, and the search runs on sorted queries
        # (numpy's stable sort of 16-bit integers is a radix sort)
        key = c.row * c.shape[1] + c.col
        order = np.argsort(c.col.astype(np.min_scalar_type(c.shape[1])),
                           kind="stable")
        mirror = c.col[order] * c.shape[1] + c.row[order]
        at = np.minimum(np.searchsorted(key, mirror), max(key.size - 1, 0))
        partner = np.where(key[at] == mirror, c.data[at].conj(), 0.0)
        scale = max(np.abs(c.data).max(initial=0.0), 1.0)
        if np.abs(c.data[order] - partner).max(initial=0.0) > \
                HERMITICITY_RTOL * scale:
            raise LinalgError("matrix is not Hermitian")
        self.local_dims = local_dims
        self.sparse = c

    @property
    def entries(self) -> np.ndarray:
        check_dense_size(self.dim)
        return self.sparse.toarray()

    @property
    def dim(self) -> int:
        return self.sparse.shape[0]

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


def stacked_eigh(stack: np.ndarray):
    """np.linalg.eigh of a (k, b, b) stack of Hermitian matrices in one
    call.  numpy's divide-and-conquer driver (zheevd, dsyevd for a real
    symmetric stack) can fail to converge on a finite Hermitian matrix; the
    stack is then redone matrix by matrix with scipy's MRRR routine (zheevr,
    or dsyevr), which solves the one kept in tests/data; only this fallback
    imports scipy.  A stack of 1 x 1 blocks needs no call: each block is
    its eigenvalue, with eigenvector 1."""
    if stack.shape[-1] == 1:
        return stack.real[..., 0].copy(), np.ones_like(stack)
    try:
        return np.linalg.eigh(stack)
    except np.linalg.LinAlgError:
        import scipy.linalg
        pairs = [scipy.linalg.eigh(m, driver="evr") for m in stack]
        return (np.array([w for w, _ in pairs]),
                np.array([v for _, v in pairs]))


def _joined(arrays, dtype=float) -> np.ndarray:
    """The arrays raveled and concatenated; empty if there are none."""
    return np.concatenate([np.zeros(0, dtype)] + [a.ravel() for a in arrays])


def real_dtype_of(matrices) -> np.dtype:
    """float64 where no matrix has a nonzero imaginary entry, else
    complex128: the dtype of a layout that holds them all."""
    real = all(not np.iscomplexobj(m) or not np.asarray(m).imag.any()
               for m in matrices)
    return np.dtype(float if real else complex)


class BlockLayout:
    """Block-diagonal d x d matrices, stored packed: the blocks of equal
    size are stacked into one (k, b, b) array, and the stacks, one per size
    in the order the sizes first occur, are concatenated into one vector of
    `dtype`, float64 for real symmetric blocks and complex128 for Hermitian
    ones.  Each `eigh` then runs once per size, on the whole stack.

    `sizes` are the block dimensions, in block order, and `index[i]` the
    basis indices of block i, where the blocks are sets of basis states
    (one block holds them all); `index` is None where they are not
    (momentum blocks).  `groups` lists (size, block ids) per stack, the
    one grouping of blocks by size.  `size` counts the packed entries and
    `width` the real numbers that hold them, twice as many where they are
    complex."""

    def __init__(self, sizes, index=None, dtype=complex):
        self.sizes = sizes = [int(b) for b in sizes]
        self.dim = sum(sizes)
        if index is None and len(sizes) == 1:
            index = [np.arange(self.dim)]
        self.index = index
        self.dtype = np.dtype(dtype)
        groups = {}
        for i, b in enumerate(sizes):
            groups.setdefault(b, []).append(i)
        self.groups = list(groups.items())  # (size, block ids)
        self.size = sum(b * b * len(ids) for b, ids in self.groups)
        self.width = self.size * (2 if self.dtype.kind == "c" else 1)
        # each packed entry's diagonal positions and its (j, i) partner
        at = np.arange(self.size)
        self.diagonal = _joined((s.diagonal(axis1=1, axis2=2)
                                 for s in self.stacks(at)), int)
        self.adjoint = _joined((s.transpose(0, 2, 1)
                                for s in self.stacks(at)), int)

    @classmethod
    def of_charge(cls, q: np.ndarray, dtype=complex) -> "BlockLayout":
        """The blocks of the basis states with equal charge q, by
        ascending q: the layout of every matrix that conserves q."""
        order = np.argsort(q, kind="stable")
        index = np.split(order, np.flatnonzero(np.diff(q[order])) + 1)
        return cls([ix.size for ix in index], index, dtype)

    @classmethod
    def joined(cls, layouts) -> tuple:
        """(joint, perm): the layout of the blocks of every layout in
        `layouts`, in turn, and the index perm with joint_packed =
        np.concatenate(packed)[perm], the layouts' packed vectors joined
        in turn.  Equal-size blocks of all of them share one stack, so one
        `eigh` per size serves them all."""
        joint = cls([b for lay in layouts for b in lay.sizes],
                    dtype=np.result_type(*(lay.dtype for lay in layouts)))
        blocks, off = [], 0  # each block's positions in the joined vector
        for lay in layouts:
            at = [None] * len(lay.sizes)
            for (_, ids), s in zip(lay.groups,
                                   lay.stacks(np.arange(off, off + lay.size))):
                for i, positions in zip(ids, s):
                    at[i] = positions
            blocks.extend(at)
            off += lay.size
        return joint, _joined((np.asarray([blocks[i] for i in ids])
                               for _, ids in joint.groups), int)

    def stacks(self, packed: np.ndarray) -> list:
        """(k, b, b) views of a packed vector, one per block size."""
        out, off = [], 0
        for b, ids in self.groups:
            n = len(ids) * b * b
            out.append(packed[off:off + n].reshape(len(ids), b, b))
            off += n
        return out

    def block_order(self, mult) -> np.ndarray:
        """The positions in `eigh`'s eigenvalues of each block's, block by
        block in block order, block i repeated mult[i] times."""
        at, off = {}, 0
        for b, ids in self.groups:
            for i in ids:
                at[i] = np.arange(off, off + b)
                off += b
        return _joined((at[i] for i, m in enumerate(mult) for _ in range(m)),
                       int)

    def pack(self, blocks) -> np.ndarray:
        """The packed vector of the block matrices, given in block order;
        raises LinalgError where a real layout is given a complex entry."""
        out = _joined((np.asarray([blocks[i] for i in ids])
                       for _, ids in self.groups), self.dtype)
        if out.dtype != self.dtype:
            if out.imag.any():
                raise LinalgError("a real layout cannot hold complex entries")
            out = out.real.copy()
        return out

    def positions(self) -> np.ndarray:
        """The flat position i * d + j of each packed entry in the dense
        matrix."""
        ix = [np.asarray([self.index[i] for i in ids])
              for _, ids in self.groups]
        return _joined((r[:, :, None] * self.dim + r[:, None, :] for r in ix),
                       int)

    def dense(self, packed: np.ndarray) -> np.ndarray:
        """The d x d matrix of a packed vector, zero off the blocks."""
        out = np.zeros(self.dim * self.dim, dtype=self.dtype)
        out[self.positions()] = packed
        return out.reshape(self.dim, self.dim)

    def hermitian(self, packed: np.ndarray) -> np.ndarray:
        """(M + M^+) / 2 of a packed M."""
        return (packed + packed[self.adjoint].conj()) / 2

    def eigh(self, packed: np.ndarray):
        """(eigenvalues, eigenvector stacks) of a packed Hermitian matrix,
        the eigenvalues concatenated stack by stack."""
        pairs = [stacked_eigh(s) for s in self.stacks(packed)]
        return _joined(w for w, _ in pairs), [v for _, v in pairs]

    def eigvalsh(self, packed: np.ndarray) -> np.ndarray:
        """The eigenvalues of a packed Hermitian matrix, as in `eigh`."""
        return _joined(np.linalg.eigvalsh(s) for s in self.stacks(packed))

    def compose(self, vecs: list, weights: np.ndarray) -> np.ndarray:
        """The packed matrix sum_i weights_i v_i v_i^+ over the eigenvector
        stacks `vecs`, weights in the order of `eigh`'s eigenvalues."""
        out = np.empty(self.size, dtype=self.dtype)
        off = 0
        for v, stack in zip(vecs, self.stacks(out)):
            k, b = v.shape[0], v.shape[1]
            wt = weights[off:off + k * b].reshape(k, 1, b)
            off += k * b
            if b == 1:  # |v| = 1
                stack[...] = wt
            else:
                np.matmul(v * wt, v.conj().transpose(0, 2, 1), out=stack)
        return out

    def psd_project(self, packed: np.ndarray) -> np.ndarray:
        """The nearest PSD matrix in Frobenius distance (eigenvalue
        clipping), block by block."""
        w, vecs = self.eigh(self.hermitian(packed))
        return self.hermitian(self.compose(vecs, np.maximum(w, 0.0)))


def pt_permutation(src: BlockLayout, dst: BlockLayout, local_dims,
                   subset) -> np.ndarray:
    """The index p with dst_packed = src_packed[p] the partial transpose of
    the factors in `subset`, built by transposing a matrix of flat
    positions.  Raises LinalgError unless the partial transpose maps the
    blocks of `src` exactly onto those of `dst`."""
    d = src.dim
    flat = np.arange(d * d).reshape(d, d)
    moved = partial_transpose_matrix(flat, local_dims, subset).ravel()
    where = np.full(d * d, -1)
    where[src.positions()] = np.arange(src.size)
    p = where[moved[dst.positions()]]
    if src.size != dst.size or (p < 0).any():
        raise LinalgError("the partial transpose does not map the layouts "
                          "onto each other")
    return p
