"""Sparse matrix representations of polynomial operators on truncated Fock spaces.

Each mode is truncated to its lowest ``D_i`` number states; operators are
built by substituting the truncated ladder matrices into canonical monomials
(truncate-then-multiply), so products and commutators agree with the symbolic
algebra exactly on the interior block and pick up quantifiable artifacts only
within ``degree`` levels of the cutoff.  A representation is a plain CSR
matrix, assembled without a dense ``dim x dim`` buffer.  States are plain
complex ndarrays of length ``prod(D_i)``; helpers below construct and
normalize them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse import _sparsetools

from .weyl import HERMITIAN, PolyOp

MAX_DIM = 4096
# Largest mode count of a truncation: more modes exceed MAX_DIM even at the
# smallest truncation, two levels per mode.
MAX_MODES = MAX_DIM.bit_length() - 1


@dataclass(frozen=True)
class TruncationSpec:
    """Per-mode Fock dimensions plus the number of untrusted boundary levels."""

    dims: tuple
    buffer: int = 0

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("dims must be nonempty")
        if any(d < 2 for d in dims):
            raise ValueError("every mode dimension must be >= 2")
        if not 0 <= self.buffer < min(dims):
            raise ValueError("buffer must satisfy 0 <= buffer < min(dims)")

    @property
    def mode_count(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))


@functools.lru_cache(maxsize=256)
def _mode_power(d: int, q_exp: int, p_exp: int):
    """Nonzeros (rows, cols - rows, vals) of the truncated q^a p^b on d levels,
    built once per (d, a, b) in a process and shared, so read-only."""
    a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1).astype(complex)
    qm = (a + a.conj().T) / math.sqrt(2.0)
    pm = 1j * (a.conj().T - a) / math.sqrt(2.0)
    m = np.eye(d, dtype=complex)
    m = m @ np.linalg.matrix_power(qm, q_exp) if q_exp else m
    m = m @ np.linalg.matrix_power(pm, p_exp) if p_exp else m
    rows, cols = np.nonzero(m)
    nonzeros = (rows, cols - rows, m[rows, cols])
    for array in nonzeros:
        array.flags.writeable = False
    return nonzeros


@functools.lru_cache(maxsize=128)
def _monomial_nonzeros(dims: tuple, monomial: tuple):
    """A monomial's Kronecker product of ``_mode_power``'s nonzeros on ``dims``,
    in np.kron's multiplication order, as canonical CSR ``(indptr, indices,
    vals)`` with int32 indices, shared likewise."""
    r, o, v = _mode_power(dims[0], *monomial[0])
    for d, powers in zip(dims[1:], monomial[1:]):
        rm, om, vm = _mode_power(d, *powers)
        r = np.add.outer(r * d, rm).ravel()
        o = np.add.outer(o * d, om).ravel()  # col - row is linear in the mode indices
        v = np.multiply.outer(v, vm).ravel()
    # the entries of one flat row come in ascending column order, and the
    # kernel behind ``tocsr`` is a stable counting sort by row
    dim = math.prod(dims)
    csr = np.empty(dim + 1, np.int32), np.empty(v.size, np.int32), np.empty_like(v)
    _sparsetools.coo_tocsr(dim, dim, v.size, r.astype(np.int32), (r + o).astype(np.int32), v, *csr)
    for array in csr:
        array.flags.writeable = False
    return csr


def _plus(a, b, dim: int):
    """a + b for canonical CSR arrays by the kernel behind scipy's ``+``."""
    size = a[1].size + b[1].size
    out = np.empty(dim + 1, np.int32), np.empty(size, np.int32), np.empty(size, complex)
    _sparsetools.csr_plus_csr(dim, dim, *a, *b, *out)
    return out[0], out[1][:out[0][-1]], out[2][:out[0][-1]]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite entry is refused instead
def represent(A: PolyOp, spec: TruncationSpec) -> scipy.sparse.csr_array:
    """Truncate-then-multiply representation of a canonical polynomial, as a
    canonical CSR matrix with int32 indices (``dim^2 <= MAX_DIM^2 < 2^31``).

    Hermitian-role sources are hermitized after assembly.  A matrix with an
    entry that is not finite (an overflowing power) raises ValueError.
    """
    if A.mode_count != spec.mode_count:
        raise ValueError(f"operator has {A.mode_count} modes but spec has {spec.mode_count}")
    if spec.dim > MAX_DIM:
        raise ValueError(f"total dimension {spec.dim} exceeds limit {MAX_DIM}")

    # The dense formula M = 0; M += coeff * kron(...) per term, in term order,
    # then (M + M^dag) / 2.0 for a hermitian source, run on CSR arrays from an
    # empty M: the kernel behind scipy's ``+`` computes a + b where both have
    # an entry and 0 + b or a + 0 where one has, the float operations of the
    # dense sum, whose zeros are +0, and it stores no exact zero.  M^T in CSR
    # form is M's CSC form (notes/decisions.md, "Fock assembly into CSR").
    dim = spec.dim
    M = np.zeros(dim + 1, np.int32), np.zeros(0, np.int32), np.zeros(0, complex)
    for mono, coeff in A.terms.items():
        indptr, indices, vals = _monomial_nonzeros(spec.dims, mono)
        M = _plus(M, (indptr, indices, coeff * vals), dim)
    if A.role == HERMITIAN:
        T = [np.empty_like(a) for a in M]
        _sparsetools.csr_tocsc(dim, dim, *M, *T)
        indptr, indices, data = _plus(M, (T[0], T[1], T[2].conj()), dim)
        M = indptr, indices, data / 2.0
    if not np.all(np.isfinite(M[2])):
        raise ValueError(f"the matrix at dims {list(spec.dims)} has an entry that is not finite")
    rep = scipy.sparse.csr_array((M[2], M[1], M[0]), shape=(dim, dim))
    rep.eliminate_zeros()  # a halved subnormal can round to zero
    return rep


# -- states -----------------------------------------------------------------


def normalize(psi: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(psi)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return psi / n


def fock_state(spec: TruncationSpec, occupations) -> np.ndarray:
    """Product number state |n_1, ..., n_m>."""
    occupations = tuple(int(n) for n in occupations)
    if len(occupations) != spec.mode_count:
        raise ValueError("one occupation number per mode required")
    for n, d in zip(occupations, spec.dims):
        if not 0 <= n < d:
            raise ValueError(f"occupation {n} outside [0, {d})")
    idx = np.ravel_multi_index(occupations, spec.dims)
    psi = np.zeros(spec.dim, dtype=complex)
    psi[idx] = 1.0
    return psi


def ground_state(spec: TruncationSpec) -> np.ndarray:
    return fock_state(spec, (0,) * spec.mode_count)


def interior_mask(spec: TruncationSpec) -> np.ndarray:
    """Boolean mask of basis states with every mode level below D_i - buffer."""
    levels = np.indices(spec.dims).reshape(spec.mode_count, -1)
    return np.all(levels < np.array(spec.dims)[:, None] - spec.buffer, axis=0)


def random_interior_state(spec: TruncationSpec, rng: np.random.Generator) -> np.ndarray:
    """Normalized state supported on levels below the buffer region."""
    mask = interior_mask(spec)
    psi = np.zeros(spec.dim, dtype=complex)
    k = int(mask.sum())
    psi[mask] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return normalize(psi)
