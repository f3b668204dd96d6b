"""Unitary time evolution under switched generators and the splitting formula.

A control sequence is the only object the physics can execute: an ordered
list of (generator index, duration >= 0) pairs, applied in time order.  The
product formulas are

    (e^{H_k t/n} e^{H_l t/n})^n           -> e^{(H_k + H_l) t},
    (e^{-H_k s} e^{-H_l s} e^{H_k s} e^{H_l s})^{n^2} -> e^{[H_k, H_l] t^2},

with s = t/n.  The splitting word of ``trotter_errors`` is built here; the
commutator word, like every word of a generator expression, is built by
``synth.build_word``.  Its reversed segments are either evaluated exactly
(oracle-only signed evolution, negative durations never leave evaluation) or
replaced by forward recurrence surrogates supplied by an inverter strategy
(``realize_word``).

Words are trees (``Concat`` and ``Repeat`` over (k, t) leaves), so an order-n
commutator is one 4-leaf block repeated n^2 times rather than 4n^2 segments.
A repeated block whose generators are all evaluated spectrally is applied as
one dense unitary raised to its count by repeated squaring.
"""

from __future__ import annotations

import math
import numbers
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse
from scipy.sparse import _sparsetools

from . import recurrence

SKEW_TOL = 1e-8
UNITARY_TOL = 1e-8
NORM_TOL = 1e-10

# A generator is evaluated spectrally (one dense eigh, then V e^{-iwt} V^dag
# per segment) when a word applies it at least dim // SPECTRAL_DIVISOR times,
# and otherwise by the Chebyshev action e^{Gt}v on its sparse matrix
# (``_Action``); below dim 128 every generator takes the spectral path.  The
# measured break-even is in notes/decisions.md, "Spectral or action evaluation".
SPECTRAL_DIVISOR = 64

# A Repeat whose generators all take the spectral path is applied as its
# block unitary raised to its count by repeated squaring once it stands for at
# least dim // SQUARING_DIVISOR segments; below that it applies its block
# count times.  Squaring trades two mat-vecs per segment for a few dense
# products per tree node.  Measured break-even, in segments of one
# Repeat(block, count) applied to one state, for 2- and 4-leaf blocks
# (2-vCPU Xeon, OpenBLAS): dim 24 -> 10-13, 64 -> 17-23, 128 -> 45-62,
# 216 -> 100-125, 512 -> 180-220, 729 -> 300-400.  ``uses_spectrum``'s
# dim // 64 would square 10-30x too early.
SQUARING_DIVISOR = 2
# A squared block unitary whose departure from unitarity, max |U^dag U - I|,
# exceeds the norm check's own tolerance is projected back (``_unitarize``).
# Below it the squared result tracks the segment-by-segment product, rounding
# included; above it that rounding, amplified by the count, would trip
# NORM_TOL (a depth-2 bracket at n = 16 reaches 8.5e-10, at n = 32 1.4e-8).
REUNITARIZE_TOL = NORM_TOL

# The Chebyshev series of an action is cut at the smallest degree whose
# coefficient tail, a bound on the truncation error per unit of state norm,
# is at most this (``chebyshev_coefficients``).
CHEBYSHEV_TOL = 1e-15

# Most segments a sequence is written out with (``ControlSequence.to_dict``).
# Flattening and encoding a word peak at about 0.3 kB per segment, so this
# is a file of about 250 MB at about 1.3 GB of peak memory.
MAX_SEGMENTS = 1 << 22


class SequenceSizeError(ValueError):
    """A control sequence too long to write out: above MAX_SEGMENTS."""


class NormDriftError(RuntimeError):
    """An evaluation whose states drifted in norm by more than NORM_TOL."""


def check_writable(segments: int) -> None:
    """Raise SequenceSizeError for a sequence of more than MAX_SEGMENTS segments."""
    if segments > MAX_SEGMENTS:
        raise SequenceSizeError(f"a sequence of {segments} segments is above the "
                                f"{MAX_SEGMENTS} that are written out")


# -- control words -----------------------------------------------------------
#
# A leaf (k, t) applies e^{H_k t}, and a word is a tree of leaves: a
# Concat applies its parts in time order and a Repeat applies its block
# ``count`` times.  A plain sequence of leaves is accepted wherever a word is,
# and read as one Concat.


def _is_leaf(node) -> bool:
    return isinstance(node, tuple) and len(node) == 2 and isinstance(node[0], numbers.Integral)


def _length(node) -> int:
    if isinstance(node, (Concat, Repeat)):
        return node.length
    if _is_leaf(node):
        return 1
    raise TypeError(f"not a word: {node!r}")


@dataclass(frozen=True)
class Concat:
    """Words applied one after another, first part first; parts that are
    themselves Concats are spliced in."""

    parts: tuple
    length: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = []
        for part in self.parts:
            parts.extend(part.parts if isinstance(part, Concat) else (part,))
        object.__setattr__(self, "parts", tuple(parts))
        object.__setattr__(self, "length", sum(_length(p) for p in parts))

    def __len__(self):
        return self.length


@dataclass(frozen=True)
class Repeat:
    """A block word applied ``count`` times in a row."""

    block: object
    count: int
    length: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"repeat count must be >= 1, got {self.count}")
        object.__setattr__(self, "length", self.count * _length(self.block))

    def __len__(self):
        return self.length


def as_word(word):
    """Tree form of a word: trees pass through, and a single leaf (the block
    of a ``Repeat(leaf, n)``) or a plain sequence of (k, t) pairs becomes one
    Concat."""
    if isinstance(word, (Concat, Repeat)):
        return word
    if _is_leaf(word):
        return Concat((word,))
    return Concat(tuple((int(k), float(t)) for k, t in word))


def flatten(word) -> tuple:
    """The word as a flat tuple of (k, t) segments in time order."""
    def walk(node):
        if _is_leaf(node):
            return (node,)
        if isinstance(node, Repeat):
            return walk(node.block) * node.count
        out = []
        for part in node.parts:
            if _is_leaf(part):
                out.append(part)
            else:
                out.extend(walk(part))
        return tuple(out)

    return walk(as_word(word))


def map_leaves(word, fn):
    """The word with every leaf replaced by ``fn(leaf)``.

    ``fn`` runs once per distinct leaf, in time order of first occurrence, so
    the tree keeps its shape and its size.
    """
    memo = {}

    def walk(node):
        if _is_leaf(node):
            key = (node[0], node[1], math.copysign(1.0, node[1]))  # keeps -0.0
            if key not in memo:
                memo[key] = fn(node)
            return memo[key]
        if isinstance(node, Repeat):
            return Repeat(walk(node.block), node.count)
        return Concat(tuple(walk(p) for p in node.parts))

    return walk(as_word(word))


def leaves(word) -> tuple:
    """The distinct leaves of a word, in time order of first occurrence."""
    seen = []
    map_leaves(word, lambda leaf: seen.append(leaf) or leaf)
    return tuple(seen)


def applications(word) -> Counter:
    """How many times the word applies each generator."""
    node = as_word(word)
    if isinstance(node, Repeat):
        return Counter({k: n * node.count for k, n in applications(node.block).items()})
    out = Counter(p[0] for p in node.parts if _is_leaf(p))
    for part in node.parts:
        if not _is_leaf(part):
            out.update(applications(part))
    return out


def _physical_leaf(leaf):
    k, t = int(leaf[0]), float(leaf[1])
    if k < 0:
        raise ValueError(f"generator index {k} is negative")
    if t < 0:
        raise ValueError(f"negative duration {t} in control sequence")
    return (k, t)


@dataclass(frozen=True)
class ControlSequence:
    """Physical switching schedule; every duration is non-negative.

    ``word`` is a word tree or a plain sequence of (k, t) segments; the flat
    ``segments`` are built only on demand.
    """

    word: object
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "word", map_leaves(self.word, _physical_leaf))

    def __len__(self):
        return len(self.word)

    @property
    def segments(self) -> tuple:
        return flatten(self.word)

    @property
    def total_time(self) -> float:
        return sum(t for _, t in self.segments)

    def to_dict(self) -> dict:
        """The flat segment list, with one ``{"k", "t"}`` dict per distinct
        leaf object: ``flatten`` shares a repeated block's leaf tuples, so
        every copy of a segment is the same dict and is encoded once.  A
        sequence above MAX_SEGMENTS raises SequenceSizeError unflattened."""
        check_writable(len(self))
        segments = self.segments
        by_id = {id(s): s for s in segments}
        dicts = {i: {"k": k, "t": t} for i, (k, t) in by_id.items()}
        return {"segments": [dicts[id(s)] for s in segments], "provenance": self.provenance}

    @classmethod
    def from_dict(cls, data: dict) -> "ControlSequence":
        segs = tuple((s["k"], s["t"]) for s in data["segments"])
        return cls(segs, data.get("provenance", ""))


def _as_csr(H) -> scipy.sparse.csr_array:
    """A generator as a canonical complex CSR matrix: the input itself when
    it is one, or a conversion of any dense or sparse matrix."""
    if not (isinstance(H, scipy.sparse.csr_array) and H.dtype == complex):
        H = scipy.sparse.csr_array(H, dtype=complex)
    if H.ndim == 2 and not H.has_canonical_format:
        H = H.copy()
        H.sum_duplicates()
    return H


def _skew_defect(M) -> float:
    """max |M + M^dag|, the dense value, over the nonzeros of M + M^dag.

    M^T in CSR form is M's CSC form, built in one counting pass by the kernel
    behind ``tocsc``; the kernel behind scipy's ``+`` merges M and conj(M^T)
    row by row and keeps every entry that is not exactly zero.
    """
    M = _as_csr(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"generator must be a square matrix, got shape {M.shape}")
    n, arrays, twice = M.shape[0], (M.indptr, M.indices, M.data), 2 * M.nnz
    T = [np.empty_like(a) for a in arrays]
    _sparsetools.csr_tocsc(n, n, *arrays, *T)
    S = np.empty_like(M.indptr), np.empty(twice, M.indices.dtype), np.empty(twice, complex)
    _sparsetools.csr_plus_csr(n, n, *arrays, T[0], T[1], T[2].conj(), *S)
    return float(np.max(np.abs(S[2][:S[0][-1]]), initial=0.0))


def uses_spectrum(applications: int, dim: int) -> bool:
    """The spectral/action rule for a generator applied this often in a word."""
    return applications >= dim // SPECTRAL_DIVISOR


def squares(repeat: "Repeat", dim: int) -> bool:
    """The repeated-squaring rule for a Repeat of spectral generators."""
    return repeat.count > 1 and len(repeat) >= dim // SQUARING_DIVISOR


def chebyshev_coefficients(z: float) -> np.ndarray:
    """Coefficients a_k of e^{-izx} = sum_k a_k T_k(x) on [-1, 1], up to the
    smallest degree K with sum_{k>K} |a_k| <= CHEBYSHEV_TOL.

    a_0 = J_0(z) and a_k = 2 (-i)^k J_k(z), and J_k(-a) = (-1)^k J_k(a).
    J_0(a), ..., J_n(a) for a = |z| and n = 1.5 a + 64 follow Miller's
    backward recurrence J_{k-1} = (2k/a) J_k - J_{k+1} from J_{n+1} = 0,
    normalized by J_0 + 2 sum_k J_{2k} = 1.  Backward, J_k is the growing
    solution, so the error of the start decays towards low orders; values
    are exact to rounding wherever J_k(a) is not negligible against J_n(a),
    and a rescale keeps the growth finite.  Past n the bound |J_k(a)| <=
    (a/2)^k / k! shrinks by at least half per order, so the orders beyond n
    add at most 4 (a/2)^(n+1) / (n+1)! to every tail, and that is counted.
    """
    a = abs(float(z))
    if a < 1e-30:  # J_0(a) rounds to 1 and the tail is about a: the series is 1
        return np.ones(1, dtype=complex)
    n = int(1.5 * a) + 64
    J = np.zeros(n + 1)
    J[n] = 1.0
    hi, lo = 0.0, 1.0
    for k in range(n, 0, -1):
        hi, lo = lo, 2.0 * k / a * lo - hi
        if abs(lo) > 1e250:
            J[k:] *= 1e-250
            hi, lo = hi * 1e-250, lo * 1e-250
        J[k - 1] = lo
    J /= J[0] + 2.0 * J[2::2].sum()
    beyond = 4.0 * math.exp((n + 1) * math.log(a / 2.0) - math.lgamma(n + 2))
    tails = np.append(np.cumsum(2.0 * np.abs(J[:0:-1]))[::-1], 0.0) + beyond  # sum_{k>K}
    K = int(np.argmax(tails <= CHEBYSHEV_TOL))
    powers = np.array([1.0, -1j, -1.0, 1j])  # (-i)^k, exactly
    if z < 0:
        powers = powers.conj()
    coeffs = 2.0 * J[:K + 1] * powers[np.arange(K + 1) % 4]
    coeffs[0] = J[0]
    return coeffs


class _Action:
    """e^{G t} psi by a Chebyshev expansion in the hermitian H = iG
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984).

    Centre c and radius r are those of H's Gershgorin interval, which holds the
    real parts of its spectrum, so the spectrum of X = (H - c) / r lies in [-1, 1]
    and e^{-iHt} = e^{-ict} sum_k a_k(rt) T_k(X) (``chebyshev_coefficients``).
    T_k(X) psi follows the three-term recurrence: one product with the stored 2X
    per degree, on one state or a dim x m block of column states, for either sign
    of t.  No step draws random numbers, so results never depend on RNG state.
    """

    def __init__(self, G):
        G = _as_csr(G)
        dim, indptr, indices, data = G.shape[0], G.indptr, G.indices, G.data * 1j  # H = iG
        rows = np.repeat(np.arange(dim), np.diff(indptr))
        diag = np.bincount(rows, np.where(indices == rows, data.real, 0.0), dim)
        rho = np.bincount(rows, np.abs(data), dim) - np.abs(diag)
        lo, hi = np.min(diag - rho), np.max(diag + rho)
        self.centre, self.radius = float((lo + hi) / 2), float((hi - lo) / 2)
        # 2X = (H - c I) / r * 2 in the float operations of scipy's operators:
        # the kernel behind ``-`` merges H and c I row by row and drops exact
        # zeros, and the data is multiplied by 1 / r, then by 2
        eye, size = np.arange(dim + 1, dtype=indptr.dtype), G.nnz + dim
        X = np.empty_like(indptr), np.empty(size, indices.dtype), np.empty(size, complex)
        _sparsetools.csr_minus_csr(dim, dim, indptr, indices, data, eye, eye[:-1],
                                   np.full(dim, self.centre, dtype=complex), *X)
        self.X2 = scipy.sparse.csr_array(
            (X[2][:X[0][-1]] * (1 / (self.radius or 1.0)) * 2.0, X[1][:X[0][-1]], X[0]),
            shape=G.shape)

    def times(self, v: np.ndarray, y: np.ndarray) -> np.ndarray:
        """y + (2X) v into the C-ordered ``y`` by the kernel behind ``X2 @ v``, which
        checks no bounds: ``v`` and ``y`` must share a shape ``__call__`` accepts."""
        X2 = self.X2
        arrays = (X2.indptr, X2.indices, X2.data, v.ravel(), y.ravel())
        if v.ndim == 1 or v.shape[1] == 1:
            _sparsetools.csr_matvec(*X2.shape, *arrays)
        else:
            _sparsetools.csr_matvecs(*X2.shape, v.shape[1], *arrays)
        return y

    def __call__(self, t: float, psi: np.ndarray) -> np.ndarray:
        if psi.ndim not in (1, 2) or psi.shape[0] != self.X2.shape[1]:
            raise ValueError(f"states of shape {psi.shape} do not fit dim {self.X2.shape[1]}")
        coeffs = chebyshev_coefficients(self.radius * t)
        out = coeffs[0] * psi
        if coeffs.size > 1:
            # the call's three buffers: T_{k-1} psi, T_k psi, and a zeroed one for
            # (2X) T_k psi - T_{k-1} psi; the spent T_{k-1} psi takes a_{k+1} T_{k+1} psi
            prev = np.array(psi, dtype=complex, order="C")
            cur, nxt = np.zeros(psi.shape, dtype=complex), np.empty(psi.shape, dtype=complex)
            np.multiply(0.5, self.times(psi, cur), out=cur)
            out += np.multiply(coeffs[1], cur, out=nxt)
            for a in coeffs[2:]:
                nxt.fill(0)
                np.subtract(self.times(cur, nxt), prev, out=nxt)
                out += np.multiply(a, nxt, out=prev)
                prev, cur, nxt = cur, nxt, prev
        out *= np.exp(-1j * self.centre * t)
        drift = np.max(np.abs(np.linalg.norm(out, axis=0) - np.linalg.norm(psi, axis=0)),
                       initial=0.0)
        if not drift <= NORM_TOL:  # a NaN drift fails too
            raise NormDriftError(f"action norm drift {drift:.3e}")
        return out


class _Store:
    """What ``build`` makes of the table's generator k, ``store[k]``: built on
    first access, under the table's lock."""

    def __init__(self, table: "EvolutionTable", build):
        self._table, self._build, self._data = table, build, {}

    def __getitem__(self, k: int):
        value = self._data.get(k)
        if value is None:
            if k not in self._table._mats:
                raise KeyError(f"unresolved generator index {k}")
            with self._table._lock:
                value = self._data.get(k)
                if value is None:
                    value = self._data[k] = self._build(self._table._mats[k])
        return value


class EvolutionTable:
    """A generator family kept as CSR matrices, with the spectral
    factorizations and Chebyshev actions built from them on first use.

    Each generator H is skew-hermitian.  On the spectral path a dense copy
    of iH is diagonalized once (``spectra``, which a recurrence inverter
    reads too) and e^{H t} = V e^{-i w t} V^dag is assembled per duration;
    on the action path e^{H t} psi is computed by sparse products with H
    alone.  ``uses_spectrum`` picks the path per word.  Both caches are
    filled under one lock, so threads sharing a table never diagonalize a
    generator or set up its action twice.
    """

    def __init__(self, reps: Mapping[int, object]):
        if not reps:
            raise ValueError("an evolution table needs at least one generator")
        self._mats, self._lock = {}, threading.Lock()
        for k, H in reps.items():
            M = _as_csr(H)
            if not (defect := _skew_defect(M)) <= SKEW_TOL:  # a NaN entry fails too
                raise ValueError(f"matrix is not skew-hermitian: defect {defect:.3e}")
            if M.shape[0] != next(iter(self._mats.values()), M).shape[0]:
                raise ValueError("all generators must share one dimension")
            self._mats[int(k)] = M
        self.dim = M.shape[0]
        self.spectra = _Store(self, lambda M: recurrence.spectral(1j * M.toarray()))
        self._actions = _Store(self, lambda M: _Action(M))  # _Action read per build

    def indices(self):
        return sorted(self._mats)

    def matrix(self, k: int) -> scipy.sparse.csr_array:
        """The CSR matrix of generator k."""
        return self._mats[k]

    def apply(self, k: int, t: float, psi: np.ndarray) -> np.ndarray:
        """Spectral path: e^{H_k t} psi from the cached eigendecomposition;
        ``psi`` is one state or a dim x m block of column states."""
        sd = self.spectra[k]
        phase = np.exp(-1j * sd.eigenvalues * t)
        V = sd.vectors
        return V @ ((phase[:, None] if psi.ndim == 2 else phase) * (V.conj().T @ psi))

    def act(self, k: int, t: float, psi: np.ndarray) -> np.ndarray:
        """Action path: e^{H_k t} psi by the Chebyshev action, norm-checked
        per state; ``psi`` is one state or a dim x m block of column states."""
        return self._actions[k](t, psi)

    def unitary(self, k: int, t: float) -> np.ndarray:
        sd = self.spectra[k]
        return (sd.vectors * np.exp(-1j * sd.eigenvalues * t)) @ sd.vectors.conj().T


def expm_skew(H, t: float) -> np.ndarray:
    """Unitary e^{H t} for skew-hermitian H, from its one-generator table's
    spectral store."""
    if t < 0:
        raise ValueError("expm_skew is restricted to forward durations")
    U = EvolutionTable({0: H}).unitary(0, t)
    defect = np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0])))
    if not defect <= UNITARY_TOL:
        raise AssertionError(f"propagator lost unitarity: {defect:.3e}")
    return U


def expm_apply(H, t: float, states: Sequence) -> list:
    """[e^{H t} v for v in states] for a one-off skew-hermitian generator H
    and either sign of t: the one-leaf word ((0, t),) on the block of all
    states, so ``uses_spectrum(1, dim)`` picks its path."""
    block = np.column_stack([np.asarray(v, dtype=complex) for v in states])
    return list(np.ascontiguousarray(_evaluate(((0, t),), block, EvolutionTable({0: H})).T))


def _unitarize(X: np.ndarray) -> np.ndarray:
    """X, or one Newton-Schulz step towards its unitary polar factor once
    its departure max |X^dag X - I| exceeds REUNITARIZE_TOL.

    Raising a block unitary to the power c multiplies its rounding-level
    departure by about c, as applying it c times does; the step squares
    that departure away, so nested Repeats do not compound it.
    """
    D = X.conj().T @ X
    D[np.diag_indices_from(D)] -= 1.0
    if np.max(np.abs(D)) <= REUNITARIZE_TOL:
        return X
    return X - 0.5 * (X @ D)


class _Evaluation:
    """One word applied to one state or a block of column states.

    Leaves take the spectral or the action path by ``uses_spectrum`` on the
    word's per-generator application counts.  A Repeat whose generators are
    all spectral, with ``squares(repeat, dim)``, is applied as its block
    unitary raised to ``count`` by repeated squaring; any other Repeat
    applies its block ``count`` times.  Unitaries are built once per node.
    """

    def __init__(self, word, table: EvolutionTable):
        self.table = table
        self.spectral = {k for k, n in applications(word).items()
                         if uses_spectrum(n, table.dim)}
        self._squared = {}
        self._unitaries = {}

    def run(self, node, psi: np.ndarray) -> np.ndarray:
        if _is_leaf(node):
            k, t = node
            step = self.table.apply if k in self.spectral else self.table.act
            return step(k, float(t), psi)
        if isinstance(node, Concat):
            for part in node.parts:
                psi = self.run(part, psi)
            return psi
        if id(node) not in self._squared:
            self._squared[id(node)] = (squares(node, self.table.dim)
                                       and set(applications(node.block)) <= self.spectral)
        if self._squared[id(node)]:
            return self._unitary(node) @ psi
        for _ in range(node.count):
            psi = self.run(node.block, psi)
        return psi

    def _unitary(self, node) -> np.ndarray:
        U = self._unitaries.get(id(node))
        if U is not None:
            return U
        if _is_leaf(node):
            U = self.table.unitary(node[0], float(node[1]))
        elif isinstance(node, Repeat):
            U = _unitarize(np.linalg.matrix_power(self._unitary(node.block), node.count))
        else:
            U = np.eye(self.table.dim, dtype=complex)
            for part in node.parts:
                U = self._unitary(part) @ U
        self._unitaries[id(node)] = U
        return U


def _evaluate(word, psi0, table: EvolutionTable) -> np.ndarray:
    """e^{word} psi0, checked for norm drift state by state."""
    word = as_word(word)
    psi0 = np.asarray(psi0, dtype=complex)
    psi = _Evaluation(word, table).run(word, psi0)
    drift = np.max(np.abs(np.linalg.norm(psi, axis=0) - np.linalg.norm(psi0, axis=0)),
                   initial=0.0)
    if not drift <= NORM_TOL:  # a NaN drift fails too
        raise NormDriftError(f"evolution norm drift {drift:.3e}")
    return psi


def evolve(seq: ControlSequence, psi0: np.ndarray, table: EvolutionTable) -> np.ndarray:
    """Apply the sequence in time order (first segment acts first).

    ``psi0`` is one state or a dim x m block of column states.
    """
    return _evaluate(seq.word, psi0, table)


def evolve_signed(segments, psi0: np.ndarray, table: EvolutionTable) -> np.ndarray:
    """Oracle evolution of a signed word; negative durations apply the exact
    (matrix) inverse of the forward propagator.  Unphysical, test/verification
    use only."""
    return _evaluate(segments, psi0, table)


def realize_word(word, inverter) -> tuple:
    """Replace reversed segments of a signed word by forward surrogates.

    ``inverter.duration(k, s)`` must return ``(t_star, plan)`` with
    e^{H_k t_star} ~ e^{-H_k s}; the inverter is asked once per distinct
    reversed leaf, in time order of first occurrence.  Returns ``(word,
    plans)``: the word keeps its tree shape with all durations >= 0, and
    ``plans`` lists each distinct plan returned once, in order of first use.
    """
    plans = {}

    def realize(leaf):
        k, t = leaf
        if t >= 0:
            return leaf
        t_star, plan = inverter.duration(k, -t)
        if t_star < 0:
            raise ValueError("inverter returned a negative duration")
        plans.setdefault(id(plan), plan)
        return (k, t_star)

    return map_leaves(word, realize), list(plans.values())


def state_error(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(np.asarray(a), np.asarray(b))))


def trotter_errors(k: int, l: int, t: float, ns: Sequence[int], psi0: np.ndarray,
                   table: EvolutionTable) -> list:
    """(n, error) table against the dense e^{(H_k+H_l)t} oracle."""
    target = expm_apply(table.matrix(k) + table.matrix(l), t, [psi0])[0]
    rows = []
    for n in ns:
        step = t / n
        out = evolve(ControlSequence(Repeat(Concat(((k, step), (l, step))), n)), psi0, table)
        rows.append((int(n), state_error(out, target)))
    return rows
