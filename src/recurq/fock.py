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
    """``_mode_power``'s nonzeros for a monomial's Kronecker product on ``dims``,
    in np.kron's index layout and multiplication order, shared likewise."""
    r, o, v = _mode_power(dims[0], *monomial[0])
    for d, powers in zip(dims[1:], monomial[1:]):
        rm, om, vm = _mode_power(d, *powers)
        r = np.add.outer(r * d, rm).ravel()
        o = np.add.outer(o * d, om).ravel()  # col - row is linear in the mode indices
        v = np.multiply.outer(v, vm).ravel()
    for array in (r, o, v):
        array.flags.writeable = False
    return r, o, v


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

    # Each monomial's Kronecker nonzeros come from ``_monomial_nonzeros``, and
    # each entry is keyed by its row and its flat diagonal col - row (``offs``,
    # shifted by dim into [1, 2 dim)).  The diagonals that occur (with their
    # negatives for a hermitian source) get one slot each, in ascending order,
    # and np.add.at accumulates every entry, in term order, into a zeroed
    # table of rows, one per slot: each stored entry receives the same
    # floating-point operations as in a dense kron-and-add, and the table
    # read row by row, slot by slot, is CSR order.
    # A slot's row r sits at table[kmax + slot * width + r]; the kmax zeros
    # before and after each slot's dim entries absorb every shifted read of
    # the transpose below (notes/decisions.md, "Fock assembly into CSR").
    dim = spec.dim
    terms = [(_monomial_nonzeros(spec.dims, mono), coeff) for mono, coeff in A.terms.items()]
    rows = np.concatenate([np.zeros(0, np.intp)] + [r for (r, _, _), _ in terms])
    offs = np.concatenate([np.zeros(0, np.intp)] + [o for (_, o, _), _ in terms]) + dim
    vals = np.concatenate([np.zeros(0, complex)] + [c * v for (_, _, v), c in terms])
    occurs = np.zeros(2 * dim, dtype=bool)
    occurs[offs] = True
    hermitian = A.role == HERMITIAN
    if hermitian:
        occurs[1:] |= occurs[:0:-1]  # -off for every off: the transpose reads mirror slots
    slot = np.cumsum(occurs) - 1
    diag = np.flatnonzero(occurs) - dim
    n = diag.size
    kmax = int(np.max(np.abs(diag))) if n else 0
    width = dim + kmax
    table = np.zeros(n * width + kmax, dtype=complex)
    np.add.at(table, kmax + slot[offs] * width + rows, vals)  # in array, i.e. term, order
    acc = table[:n * width].reshape(n, width)[:, kmax:]  # acc[slot, row]
    if hermitian:
        # M^dag at (r, r + k) is conj(M[r + k, r]): row r + k of slot(-k), the
        # mirror slot n - 1 - slot(k); rows outside [0, dim) read zeros, which
        # the conj turns into 0 - 0j as in a zero-filled dense transpose
        start = kmax + np.arange(n - 1, -1, -1) * width + diag
        lower = table[np.add.outer(start, np.arange(dim))].conj()
        acc = (acc + lower) / 2.0
    keep = acc.T != 0
    data = acc.T[keep]
    if not np.all(np.isfinite(data)):
        raise ValueError(f"the matrix at dims {list(spec.dims)} has an entry that is not finite")
    at_row, at_slot = np.nonzero(keep)
    indptr = np.searchsorted(at_row, np.arange(dim + 1))
    return scipy.sparse.csr_array((data, (at_row + diag[at_slot]).astype(np.int32),
                                   indptr.astype(np.int32)), shape=(dim, dim))


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
