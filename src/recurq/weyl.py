"""Symbolic algebra of polynomial operators in canonical pairs (q_i, p_i).

Operators are complex polynomials in per-mode position and momentum symbols
subject to [q_i, p_j] = i*delta_ij (hbar = 1).  The normal form orders every
product as q_i^a p_i^b within each mode, modes ascending; reordering uses

    p^b q^c = sum_k k! C(b,k) C(c,k) (-i)^k q^(c-k) p^(b-k),

which keeps coefficients exact small complex numbers for the Hamiltonians
treated here.  On top of the polynomial arithmetic the module computes
real-linear Lie closures under explicit degree/dimension caps and the
coupling-propagation criterion used by the oscillator-chain tools.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

HERMITIAN = "hermitian"
SKEW = "skew-hermitian"
GENERAL = "general"

# Relative tolerance for the rank-revealing independence test.  Coefficients
# here are exact small integers/rationals times powers of i, so numerical
# rank is robust at this level.
INDEPENDENCE_TOL = 1e-10
# Relative coefficient-level tolerance of the hermiticity and skewness tests,
# and the residual below which an operator counts as a member of a closure.
ADJOINT_TOL = 1e-9
MEMBERSHIP_TOL = 1e-8

DEFAULT_DEGREE_CAP = 6
DEFAULT_DIM_CAP = 64

# Bracket-table limits: structure constants are exact through cap 16, and
# TABLE_MONOMIALS and TABLE_PAIR_EXPONENTS (a wide support at a low cap peaks
# near 25-31 bytes per pair exponent) keep the build's peak memory below
# TABLE_BUDGET_MB.  A built table stays in _structure_constants' cache of 8
# entries: at most about 8 x 17 MiB of tables held for the life of the process.
MAX_DEGREE_CAP = 16
TABLE_MONOMIALS = 500
TABLE_BUDGET_MB = 160
TABLE_PAIR_EXPONENTS = 4_000_000

# Largest mode count of a symbolic operator: every monomial is a tuple of one
# exponent pair per mode, so each product and role check grows with it.
MAX_MODES = 10_000

# Monomial: one ((a_i, b_i)) exponent pair per mode, meaning
# q_1^a1 p_1^b1 ... q_m^am p_m^bm in that (canonical) order.
Monomial = tuple


def mono_degree(mono: Monomial) -> int:
    return sum(a + b for a, b in mono)


def _mono_product(m1: Monomial, m2: Monomial):
    """Product of two canonical monomials as a {Monomial: coeff} dict.  Per mode
    (q^a p^b)(q^c p^d) = sum_k k! C(b,k) C(c,k) (-i)^k q^(a+c-k) p^(b+d-k),
    expanded only where b and c are nonzero, the last such mode's k slowest."""
    merged = list(m1)
    contractions = []
    for i, (c, d) in enumerate(m2):
        if c or d:
            a, b = merged[i]
            merged[i] = (a + c, b + d)
            if b and c:
                contractions.append([(i, (a + c - k, b + d - k), math.comb(b, k)
                                      * math.comb(c, k) * math.factorial(k) * (-1j) ** k)
                                     for k in range(min(b, c) + 1)])
    out = {}
    for choice in itertools.product(*reversed(contractions)):
        coeff = 1.0 + 0.0j
        for i, ab, factor in reversed(choice):
            merged[i] = ab
            coeff = 0j + coeff * factor  # zero parts +0, as a sum from 0j leaves them
        out[tuple(merged)] = coeff
    return out


@dataclass(frozen=True)
class PolyOp:
    """Canonically ordered complex polynomial in the q_i, p_i symbols.

    ``terms`` maps monomials to nonzero complex coefficients.  ``role``
    records whether the operator is known hermitian / skew-hermitian; it is
    metadata set by constructors that can vouch for it (arithmetic results
    default to ``general``).  ``PolyOp(...)`` validates and normalizes its
    terms; results of this module's own arithmetic, canonical by
    construction, go through ``_trusted`` instead.
    """

    mode_count: int
    terms: dict = field(default_factory=dict)
    role: str = GENERAL

    def __post_init__(self):
        if self.mode_count < 1:
            raise ValueError("mode_count must be positive")
        cleaned = {}
        for mono, coeff in self.terms.items():
            mono = tuple((int(a), int(b)) for a, b in mono)
            if len(mono) != self.mode_count:
                raise ValueError(f"monomial {mono} does not match mode_count {self.mode_count}")
            if any(a < 0 or b < 0 for a, b in mono):
                raise ValueError(f"negative exponent in monomial {mono}")
            c = complex(coeff)
            if c != 0:
                cleaned[mono] = cleaned.get(mono, 0.0j) + c
        cleaned = {m: c for m, c in cleaned.items() if c != 0}
        object.__setattr__(self, "terms", cleaned)
        if self.role not in (HERMITIAN, SKEW, GENERAL):
            raise ValueError(f"unknown role {self.role!r}")

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)

    @property
    def support(self):
        return frozenset(s for m in self.terms for s, (a, b) in enumerate(m) if a or b)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient_norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.terms.values()))

    # -- arithmetic -------------------------------------------------------

    def _require_same_modes(self, other: "PolyOp"):
        if self.mode_count != other.mode_count:
            raise ValueError(f"mode_count mismatch: {self.mode_count} vs {other.mode_count}")

    def __add__(self, other):
        if isinstance(other, PolyOp):
            self._require_same_modes(other)
            terms = dict(self.terms)
            for m, c in other.terms.items():
                terms[m] = terms.get(m, 0.0j) + c
            return _trusted(self.mode_count, terms)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, PolyOp):
            return self + (-other)
        return NotImplemented

    def __neg__(self):
        return _trusted(self.mode_count, {m: -c for m, c in self.terms.items()}, self.role)

    def __mul__(self, other):
        if isinstance(other, PolyOp):
            self._require_same_modes(other)
            out: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    for mono, coeff in _mono_product(m1, m2).items():
                        out[mono] = out.get(mono, 0.0j) + c1 * c2 * coeff
            return _trusted(self.mode_count, out)
        if isinstance(other, (int, float, complex)):
            return _trusted(self.mode_count, {m: c * other for m, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__  # scalars commute; a PolyOp on the left takes __mul__

    def adjoint(self) -> "PolyOp":
        out: dict = {}
        for mono, coeff in self.terms.items():
            # (q^a p^b)^dag = p^b q^a per mode, recanonicalized as a product
            ps = tuple((0, b) for a, b in mono)
            qs = tuple((a, 0) for a, b in mono)
            for m2, c2 in _mono_product(ps, qs).items():
                out[m2] = out.get(m2, 0.0j) + coeff.conjugate() * c2
        return _trusted(self.mode_count, out)

    # -- textual form -----------------------------------------------------

    def to_text(self) -> str:
        """Serialize as a sum of 'coeff * q1^a p1^b ...' terms, coeff as (re,im)."""
        if not self.terms:
            return "(0,0)"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (mono_degree(m), m)):
            c = self.terms[mono]
            factors = []
            for i, (a, b) in enumerate(mono):
                if a:
                    factors.append(f"q{i + 1}" + (f"^{a}" if a > 1 else ""))
                if b:
                    factors.append(f"p{i + 1}" + (f"^{b}" if b > 1 else ""))
            coeff = f"({c.real:.17g},{c.imag:.17g})"
            parts.append(coeff if not factors else coeff + " * " + " ".join(factors))
        return " + ".join(parts)

    @classmethod
    def from_text(cls, text: str, mode_count: int) -> "PolyOp":
        terms: dict = {}
        for chunk in text.replace("\n", " ").split(" + "):
            chunk = chunk.strip()
            if not chunk:
                continue
            coeff_s, _, factors_s = chunk.partition("*")
            coeff_s = coeff_s.strip()
            if not (coeff_s.startswith("(") and coeff_s.endswith(")")):
                raise ValueError(f"bad coefficient {coeff_s!r}; expected (re,im)")
            re_s, im_s = coeff_s[1:-1].split(",")
            coeff = complex(float(re_s), float(im_s))
            expo = [[0, 0] for _ in range(mode_count)]
            for tok in factors_s.split():
                if tok[0] not in "qp":
                    raise ValueError(f"bad factor {tok!r}")
                idx_s, caret, pow_s = tok[1:].partition("^")
                mode = int(idx_s) - 1
                if not 0 <= mode < mode_count:
                    raise ValueError(f"mode index out of range in {tok!r}")
                expo[mode]["qp".index(tok[0])] += int(pow_s) if caret else 1
            mono = tuple(map(tuple, expo))
            terms[mono] = terms.get(mono, 0.0j) + coeff
        return cls(mode_count, terms)


def _trusted(mode_count: int, terms: dict, role: str = GENERAL) -> PolyOp:
    """PolyOp over canonical terms with a known role, as this module's
    arithmetic makes them.  Like ``PolyOp(...)`` it drops exact zeros and
    stores 0j + c (a complex, no negative zero part); it checks nothing
    else, so outside input must go through ``PolyOp(...)``."""
    op = object.__new__(PolyOp)
    object.__setattr__(op, "mode_count", mode_count)
    object.__setattr__(op, "terms", {m: 0j + c for m, c in terms.items() if c != 0})
    object.__setattr__(op, "role", role)
    return op


# -- constructors ----------------------------------------------------------


def _unit_mono(mode_count: int, mode: int, q_exp: int, p_exp: int) -> Monomial:
    if not 0 <= mode < mode_count:
        raise ValueError(f"mode index {mode} out of range for mode_count {mode_count}")
    return tuple((q_exp, p_exp) if i == mode else (0, 0) for i in range(mode_count))


def q(mode: int, mode_count: int = 1) -> PolyOp:
    return PolyOp(mode_count, {_unit_mono(mode_count, mode, 1, 0): 1.0}, HERMITIAN)


def p(mode: int, mode_count: int = 1) -> PolyOp:
    return PolyOp(mode_count, {_unit_mono(mode_count, mode, 0, 1): 1.0}, HERMITIAN)


def const(value: complex, mode_count: int = 1) -> PolyOp:
    mono = tuple((0, 0) for _ in range(mode_count))
    role = HERMITIAN if complex(value).imag == 0 else GENERAL
    return PolyOp(mode_count, {mono: value}, role)


def is_hermitian(A: PolyOp) -> bool:
    return (A - A.adjoint()).coefficient_norm() <= ADJOINT_TOL * max(A.coefficient_norm(), 1.0)


def is_skew_hermitian(A: PolyOp) -> bool:
    return (A + A.adjoint()).coefficient_norm() <= ADJOINT_TOL * max(A.coefficient_norm(), 1.0)


def as_hermitian(A: PolyOp) -> PolyOp:
    if not is_hermitian(A):
        raise ValueError("operator is not hermitian at coefficient level")
    return _trusted(A.mode_count, A.terms, HERMITIAN)


def skew_generator(H: PolyOp) -> PolyOp:
    """Map a hermitian generator H to the skew-hermitian -i*H."""
    if not is_hermitian(H):
        raise ValueError("skew_generator expects a hermitian operator")
    return _trusted(H.mode_count, {m: -1j * c for m, c in H.terms.items()}, SKEW)


def bracket(A: PolyOp, B: PolyOp) -> PolyOp:
    """Commutator AB - BA in canonical form.

    When both inputs are tagged skew-hermitian the result is verified and
    tagged skew-hermitian as well.
    """
    A._require_same_modes(B)
    out = A * B - B * A
    if A.role == SKEW and B.role == SKEW:
        if not is_skew_hermitian(out):
            raise AssertionError("bracket of skew-hermitian operators must be skew-hermitian")
        return _trusted(out.mode_count, out.terms, SKEW)
    return out


# -- monomial enumeration and vector coordinates ---------------------------


def enumerate_monomials(mode_count: int, support: Sequence[int], max_degree: int):
    """All monomials on the given support modes with total degree <= cap."""
    return _monomial_table(mode_count, support, max_degree)[0]


def _exponent_rows(slot_count: int, max_degree: int):
    """The (q, p) exponents on each of ``slot_count`` slots in turn of every
    monomial of degree <= cap, in (row sum, row) order."""
    rows = [()]
    for _ in range(2 * slot_count):
        rows = [r + (e,) for r in rows for e in range(max_degree - sum(r) + 1)]
    rows.sort(key=lambda r: (sum(r), r))
    return rows


def _monomial_table(mode_count: int, support: Sequence[int], max_degree: int):
    """(monomials, slots): ``enumerate_monomials``'s list and the sorted
    support modes.  Monomial i has row i of ``_exponent_rows`` on the slots,
    so the order and cost come from the slot count alone, not the mode count:
    modes off the support are (0, 0) in every monomial, which makes
    (degree, monomial) order the (row sum, row) order."""
    slots = sorted(set(support))
    return [_embed(r, slots, mode_count) for r in _exponent_rows(len(slots), max_degree)], slots


class _RealSpan:
    """Incremental orthonormal basis of the real span of complex vectors.

    Row r of ``x`` holds added vector r, normalized, in its ``_drop_tiny``
    form, and row r of ``mag`` and ``norm_row`` its |x| and ||x||: the one
    copy of each direction, which the bracket table and ``LieBasis.basis``
    read.  ``_q`` is an orthonormal basis of the span of the unpruned
    vectors in real coordinates (real parts, then imaginary parts).  The
    buffers have a row per direction of the skew space, up to ``dim_cap``:
    a further independent vector sets ``capped``, and none is taken once
    that is set or the n_coords directions of a full span are held.
    """

    def __init__(self, n_coords: int, dim_cap: int):
        rows = min(dim_cap, n_coords)
        self.capped = False
        self.dim = 0
        self._q = np.zeros((rows, 2 * n_coords))
        self.x = np.zeros((rows, n_coords), dtype=complex)
        self.mag = np.zeros((rows, n_coords))
        self.norm_row = np.zeros(rows)

    def _residual(self, U: np.ndarray):
        q = self._q[:self.dim]
        for _ in range(2):  # two-pass reorthogonalization
            U = U - (U @ q.T) @ q
        return U

    def residuals(self, V: np.ndarray) -> np.ndarray:
        """Norm of each row of V, normalized, off the span; 0 for zero rows."""
        norms = np.linalg.norm(V, axis=1, keepdims=True)
        U = _to_real(V / np.where(norms == 0, 1.0, norms))
        return np.linalg.norm(self._residual(U), axis=1)

    def try_add(self, v: np.ndarray) -> bool:
        nv = np.linalg.norm(v)
        if nv == 0 or self.capped or self.dim == self.x.shape[1]:
            return False
        u = v / nv
        r = self._residual(_to_real(u))
        rn = np.linalg.norm(r)
        if rn <= INDEPENDENCE_TOL:
            return False
        if self.dim == len(self.x):  # dim_cap directions held, short of a full span
            self.capped = True
            return False
        self._q[self.dim] = r / rn
        x = self.x[self.dim] = _drop_tiny(u)
        self.mag[self.dim] = np.abs(x)
        self.norm_row[self.dim] = np.linalg.norm(x[None], axis=1)[0]
        self.dim += 1
        return True


def _coefficients(ops, index: dict):
    """Coefficient rows of ``ops`` over an index that holds their monomials."""
    V = np.zeros((len(ops), len(index)), dtype=complex)
    for r, op in enumerate(ops):
        for mono, coeff in op.terms.items():
            V[r, index[mono]] = coeff
    return V


def _adjoint_matrix(E):
    """Sparse A with column j the coefficient vector of m_j^dag, so that
    vec(X^dag) = A @ conj(vec(X)), for the monomials with exponent rows E.
    Per mode (q^a p^b)^dag = p^b q^a: the x.y terms of the rows p^b, q^a of PQ."""
    n = len(E)
    PQ = np.zeros((2 * n, E.shape[1]), dtype=np.int64)
    PQ[:n, 1::2], PQ[n:, 0::2] = E[:, 1::2], E[:, 0::2]
    col, ksum, alpha, _, out = _expand(PQ, np.arange(n), n + np.arange(n))
    row, _ = _columns(E, out)
    vals = alpha * np.array([1, -1j, -1, 1j])[ksum % 4]
    # the expansion keeps the columns in order
    return sp.csc_matrix((vals, row, np.searchsorted(col, np.arange(n + 1))), shape=(n, n))


def _to_real(v: np.ndarray):
    return np.concatenate([v.real, v.imag], axis=-1)


def _target_ops(T: sp.csc_matrix, monomials, mode_count: int) -> list:
    """The columns of T, over ``monomials``, as skew PolyOps with their terms in T's order."""
    rows, vals, ptr = T.indices.tolist(), T.data.tolist(), T.indptr.tolist()
    return [_trusted(mode_count, {monomials[i]: c for i, c in zip(rows[a:b], vals[a:b])}, SKEW)
            for a, b in zip(ptr, ptr[1:])]


# -- Lie closure ------------------------------------------------------------


@dataclass
class LieBasis:
    """Real-linear basis of a (possibly cap-truncated) dynamical Lie algebra:
    the rows of ``_span`` over the ``_index`` monomials of ``_constants`` on
    ``support``, the generators' modes; ``basis`` turns them into PolyOps."""

    mode_count: int
    saturated: bool
    degree_capped: bool
    dim_capped: bool
    support: tuple
    _index: dict
    _span: _RealSpan
    _constants: _Constants

    @property
    def dim(self) -> int:
        return self._span.dim

    @functools.cached_property
    def basis(self) -> list:
        return _target_ops(sp.csc_matrix(self._span.x[:self.dim].T), list(self._index),
                           self.mode_count)

    @functools.cached_property
    def all_degrees(self) -> bool:
        """Whether the span holds every skew polynomial of degree <= 3 on
        ``support``, so that the generators' Lie algebra is every polynomial
        on it (notes/decisions.md, "Chain verdicts from the cap-3 closure")."""
        m, n = math.comb(2 * len(self.support) + 3, 3), len(self._index)
        return self.dim >= m and (self.dim == n or bool(self._holds_targets(m).all()))

    def _holds_targets(self, m: int) -> np.ndarray:
        """Membership of the targets of the first m index monomials, in one projection."""
        return self._span.residuals(self._constants.targets[:, :m].T.toarray()) <= MEMBERSHIP_TOL


class CapError(ValueError):
    """A closure that its degree cap or the bracket table cannot represent."""


class GeneratorError(ValueError):
    """A ``lie_closure`` generator it refuses; ``index`` is its position."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class GeneratorCapError(GeneratorError, CapError):
    """A ``lie_closure`` generator of degree above the cap."""


def _exact_cap(degree_cap: int):
    """Refuse a cap above MAX_DEGREE_CAP, past which structure constants are inexact."""
    if degree_cap > MAX_DEGREE_CAP:
        raise CapError(f"degree_cap {degree_cap} exceeds {MAX_DEGREE_CAP}, the largest cap "
                       f"with exact structure constants")


def table_monomials(degree_cap: int, modes: int) -> int:
    """Monomials of the bracket table at ``degree_cap`` on ``modes`` modes.

    Raises CapError when the table cannot represent that cap: above
    MAX_DEGREE_CAP, or with more than TABLE_MONOMIALS monomials or
    TABLE_PAIR_EXPONENTS exponents over all monomial pairs.
    """
    _exact_cap(degree_cap)
    n = math.comb(2 * modes + degree_cap, degree_cap)
    size = n * (n - 1) * modes  # the exponents of every pair, 2 * modes each
    if n > TABLE_MONOMIALS or size > TABLE_PAIR_EXPONENTS:
        raise CapError(f"degree_cap {degree_cap} on {modes} modes gives {n} monomials and "
                       f"{size} pair exponents; the bracket table takes at most "
                       f"{TABLE_MONOMIALS} and {TABLE_PAIR_EXPONENTS} ({TABLE_BUDGET_MB} MB budget)")
    return n


class _Constants(NamedTuple):
    """The read-only arrays of one ``_structure_constants`` key.

    ``adjoint`` is the adjoint map A of the n monomials of ``_exponent_rows``,
    and ``targets`` is i(I + A): column j is i(m_j + m_j^dag), monomial j's
    skew target.  ``S`` holds every bracket [m_i, m_j] in one sparse table
    over n_ext columns: the n in-cap monomials followed by the overflow
    monomials (degree above the cap, exponent rows ``overflow``) that some
    bracket produces.  T[i, j, col] is stored column-major, at row ``i *
    n_ext + col``, column ``j`` of the CSC matrix ``S``, so that M_y = sum_j
    y_j T[:, j, :] is the one product ``S @ y``.  ``N[i, j]`` is the norm of
    the in-cap part of [m_i, m_j].  ``S``, ``N`` and ``overflow``
    are None for a key ``table_monomials`` refuses, whose table is never
    built.
    """

    adjoint: sp.csc_matrix
    targets: sp.csc_matrix
    S: sp.csc_matrix | None
    N: np.ndarray | None
    overflow: np.ndarray | None

    @property
    def n(self) -> int:
        return self.N.shape[0]

    @property
    def n_ext(self) -> int:
        return self.n + len(self.overflow)

    def product(self, y: np.ndarray):
        """``(M_y[:, cols], cols)`` for the columns ``cols`` of M_y with a nonzero."""
        My = (self.S @ y).reshape(self.n, self.n_ext)
        cols = np.flatnonzero(My.any(axis=0))
        return My[:, cols], cols

    def bracket_rows(self, rows: _RealSpan, i: int):
        """Brackets [x_r, y] of the span's stored rows x_r, r < i, with y = x_i.

        Returns ``(R, overflow)`` where R[r] is the in-cap coefficient vector
        and overflow[r] is True when the bracket has a term of degree beyond
        the cap above roundoff.
        """
        n = self.n
        My, cols = self.product(rows.x[i])
        P = rows.x[:i] @ My
        incap = cols < n
        R = np.zeros((i, n), dtype=complex)
        R[:, cols[incap]] = P[:, incap]
        # rows at the cancellation floor of their gross sum are roundoff zeros
        gross = rows.mag[:i] @ (self.N @ rows.mag[i])
        R[np.linalg.norm(R, axis=1) < 1e-11 * gross] = 0.0
        lim = 1e-10 * np.maximum(rows.norm_row[:i] * rows.norm_row[i], 1e-300)
        overflow = (np.abs(P[:, ~incap]) > lim[:, None]).any(axis=1)
        return R, overflow


# 8 entries hold the 7 (slot count, cap) keys of the closure-chains benchmark
# pass; the largest admitted table is 16.8 MiB (notes/decisions.md,
# "Structure constants once per process")
@functools.lru_cache(maxsize=8)
def _structure_constants(slot_count: int, degree_cap: int) -> _Constants:
    """The bracket table and adjoint map of the monomials of degree at most
    ``degree_cap`` on ``slot_count`` slots, built once per process.

    They depend on the two integers alone: a closure on any ``slot_count``
    modes of any mode count reads the same arrays, over its own slots.  The
    arrays are read-only, so threads may share them.
    """
    rows = _exponent_rows(slot_count, degree_cap)
    E = np.array(rows, dtype=np.int64).reshape(len(rows), 2 * slot_count)
    try:
        table_monomials(degree_cap, slot_count)
    except CapError:  # only skew_monomial_generators asks for such a key
        table = [None] * 3
    else:
        table = _bracket_table(E)
    adjoint = _adjoint_matrix(E)
    arrays = [adjoint, 1j * (sp.identity(len(rows), format="csc") + adjoint), *table]
    for a in arrays:
        for part in (a.data, a.indices, a.indptr) if sp.issparse(a) else (a,):
            if part is not None:
                part.flags.writeable = False
    return _Constants(*arrays)


def _bracket_table(E):
    """``(S, N, overflow)`` of ``_Constants`` for the monomials with exponent
    rows E: the x.y - y.x terms of every pair i < j, the pairs j < i being
    the same entries negated."""
    n = len(E)
    I, J = np.triu_indices(n, 1)
    pair, ksum, alpha, beta, out = _expand(E, I, J)
    keep = alpha != beta
    pair, out = pair[keep], out[keep]
    coeff = (alpha[keep] - beta[keep]) * np.array([1, -1j, -1, 1j])[ksum[keep] % 4]
    col, overflow = _columns(E, out)
    n_ext = n + len(overflow)

    i = np.concatenate([I[pair], J[pair]])
    j = np.concatenate([J[pair], I[pair]])
    col = np.concatenate([col, col])
    coeff = np.concatenate([coeff, -coeff])
    S = sp.csc_matrix((coeff, (i * n_ext + col, j)), shape=(n * n_ext, n))
    incap = col < n
    N = np.sqrt(np.bincount(i[incap] * n + j[incap], np.abs(coeff[incap]) ** 2,
                            minlength=n * n)).reshape(n, n)
    return [S, N, overflow]


def _expand(E, I, J):
    """Every term of the products x.y and y.x of the exponent rows x = E[I[t]]
    and y = E[J[t]] of each pair t, as ``(pair, ksum, alpha, beta, out)``.

    Per mode, (q^a p^b)(q^c p^d) and (q^c p^d)(q^a p^b) share the term
    q^(a+c-k) p^(b+d-k) with weights F[b, c, k] (-i)^k and F[d, a, k] (-i)^k.
    Every pair is expanded over its k, mode by mode: term u is the monomial
    with exponent row out[u] of pair pair[u], whose k sum to ksum[u], with
    weight alpha[u] (-i)^ksum[u] in x.y and beta[u] (-i)^ksum[u] in y.x.
    Distinct k-vectors give distinct monomials, so each weight is one exact
    integer.  Each mode gathers its own exponents: the pairs' rows of E would
    hold 2 x pairs x 2 slots integers at once.  Each mode keeps its terms'
    sources ``rep`` and exponents, these in the smallest dtype that holds
    2 E.max(), and ``out`` is filled once, from the last mode back.
    """
    exps = range(int(E.max(initial=0)) + 1)
    # F[b, c, k] = C(b, k) C(c, k) k!, the weight of k contractions in p^b q^c
    F = np.array([[[math.comb(b, k) * math.comb(c, k) * math.factorial(k) for k in exps]
                   for c in exps] for b in exps], dtype=float)
    pair = np.arange(I.size)
    alpha, beta = np.ones(I.size), np.ones(I.size)
    ksum = np.zeros(I.size, dtype=np.int64)
    steps, small = [], np.min_scalar_type(2 * exps[-1])
    for s in range(E.shape[1] // 2):
        i, j = I[pair], J[pair]
        a, b, c, d = E[i, 2 * s], E[i, 2 * s + 1], E[j, 2 * s], E[j, 2 * s + 1]
        counts = np.maximum(np.minimum(b, c), np.minimum(d, a)) + 1
        rep = np.repeat(np.arange(pair.size), counts)
        k = np.arange(rep.size) - np.repeat(np.cumsum(counts) - counts, counts)
        a, b, c, d = a[rep], b[rep], c[rep], d[rep]
        pair, ksum = pair[rep], ksum[rep] + k
        alpha = alpha[rep] * F[b, c, k]
        beta = beta[rep] * F[d, a, k]
        steps.append((rep, (a + c - k).astype(small), (b + d - k).astype(small)))
    out = np.empty((pair.size, E.shape[1]), dtype=np.int64)
    at = np.arange(pair.size)  # each term's index among mode s's terms
    for s, (rep, q_exp, p_exp) in reversed(list(enumerate(steps))):
        out[:, 2 * s], out[:, 2 * s + 1] = q_exp[at], p_exp[at]
        at = rep[at]
    return pair, ksum, alpha, beta, out


def _columns(E, out):
    """``(col, overflow)``: the column of each exponent row of ``out``, its
    index in E or else n plus its index in ``overflow``, the rows not in E
    in lexicographic order: the byte order of the rows as uint8, which holds
    every exponent, at most 2 * MAX_DEGREE_CAP."""
    n = len(E)
    rows = np.concatenate([E, out])
    keys = rows.astype(np.uint8).view(np.dtype((np.void, rows.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    col_of = np.full(first.size, -1)
    col_of[inverse[:n]] = np.arange(n)
    over = np.flatnonzero(col_of < 0)
    col_of[over] = n + np.arange(over.size)
    return col_of[inverse[n:]], rows[first[over]]


def _embed(row, slots, mode_count) -> Monomial:
    """Monomial with the exponent pairs ``row`` on the modes ``slots``."""
    mono = [(0, 0)] * mode_count
    for t, s in enumerate(slots):
        mono[s] = (row[2 * t], row[2 * t + 1])
    return tuple(mono)


def _drop_tiny(V: np.ndarray) -> np.ndarray:
    """Zero the entries at most 1e-13 of their row's largest magnitude; a
    row with no columns passes."""
    mag = np.abs(V)
    return np.where(mag > 1e-13 * mag.max(axis=-1, keepdims=True, initial=0.0), V, 0.0)


def lie_closure(generators: Sequence[PolyOp], degree_cap: int, dim_cap: int) -> LieBasis:
    """Breadth-first bracket saturation of the real span of ``generators``.

    Brackets whose result carries terms of degree above ``degree_cap`` are
    discarded and flag the basis unsaturated; hitting ``dim_cap`` with a new
    direction pending stops early with the same flag.  A generator above the
    cap (``GeneratorCapError``, a ``CapError``) or not skew-hermitian by
    ``is_skew_hermitian``'s rule (``GeneratorError``) is refused by index.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("empty generator list")
    if degree_cap < 1 or dim_cap < 1:
        raise ValueError("caps must be >= 1")
    support = sorted(set().union(*(g.support for g in generators))) or [0]
    G, index, constants = _generator_rows(generators, degree_cap, support, degree_cap)
    defect = G + (constants.adjoint @ G.conj().T).T
    norms = np.linalg.norm(G, axis=1)
    bad = np.flatnonzero(np.linalg.norm(defect, axis=1) > ADJOINT_TOL * np.maximum(norms, 1.0))
    if bad.size:
        raise GeneratorError(int(bad[0]), "generator must be skew-hermitian")
    n = constants.n
    span = _RealSpan(n, dim_cap)
    for g in G:
        span.try_add(g)

    degree_capped = False
    # brackets are antisymmetric and [x, x] = 0: pair element i with earlier
    # ones only.  The in-cap skew-hermitian space has real dimension n, so
    # once the span fills it with the overflow flag set, no bracket can add a
    # direction or a flag (notes/decisions.md, "The closure sweep stops at
    # the full space")
    i = 1
    while i < span.dim and not span.capped and not (degree_capped and span.dim == n):
        R, over = constants.bracket_rows(span, i)
        degree_capped |= bool(over.any())
        rows = np.flatnonzero(~over & R.any(axis=1))
        # the span only grows, so rows dependent on it now stay dependent
        for r in rows[span.residuals(R[rows]) > INDEPENDENCE_TOL]:
            span.try_add(R[r])
        i += 1

    return LieBasis(generators[0].mode_count, not (degree_capped or span.capped),
                    degree_capped, span.capped, tuple(support), index, span, constants)


def _generator_rows(generators, degree_cap: int, modes, table_cap: int):
    """``(G, index, constants)``: the coefficient rows of ``generators`` over
    the ``index`` of the monomials of degree at most ``table_cap`` on
    ``modes``, and their cached table.  Generators must share a mode count,
    and one of degree above ``degree_cap`` is refused by index."""
    mode_count = generators[0].mode_count
    for i, g in enumerate(generators):
        if g.mode_count != mode_count:
            raise ValueError("generators must share mode_count")
        if g.degree > degree_cap:
            raise GeneratorCapError(i, f"generator degree {g.degree} exceeds degree_cap "
                                       f"{degree_cap}")
    table_monomials(table_cap, len(modes))
    monomials, slots = _monomial_table(mode_count, modes, table_cap)
    index = {m: i for i, m in enumerate(monomials)}
    return _coefficients(generators, index), index, _structure_constants(len(slots), table_cap)


# -- generating sets and algebraic propagation ------------------------------


def skew_monomial_generators(modes: Sequence[int], mode_count: int, degree_cap: int):
    """Basis of the skew-hermitian polynomials on ``modes`` up to the cap.

    One element i(M + M^dag) per monomial M, in enumeration order: a basis,
    as each has the new leading term 2iM and the space has one real
    dimension per monomial (notes/decisions.md, "Propagation targets as
    vectors").
    """
    _exact_cap(degree_cap)
    monomials, slots = _monomial_table(mode_count, modes, degree_cap)
    return _target_ops(_structure_constants(len(slots), degree_cap).targets, monomials, mode_count)


def local_skew_generators(mode: int, mode_count: int, degree_cap: int):
    """Degree-capped generating set for the single-mode skew algebra on ``mode``."""
    return skew_monomial_generators([mode], mode_count, degree_cap)


PROPAGATES = "propagates"
FAILS = "fails"
UNKNOWN = "unknown"


@dataclass
class PropagationResult:
    verdict: str
    closure: LieBasis
    target_modes: tuple
    missing: list


def algebraic_propagation_check(local, coupling: PolyOp, degree_cap: int,
                                dim_cap: int = 256) -> PropagationResult:
    """Test whether local controls plus one coupling bracket span the pair algebra.

    ``local`` is a degree-capped generating list for the single-mode skew
    algebra on one mode; ``coupling`` is the hermitian two-mode interaction,
    whose support names the pair.  The closure of local ∪ {[X, -i*coupling]}
    is ``lie_closure``'s under the caps, the brackets being rows of one table
    product (notes/decisions.md, "Coupling brackets from the table").  It
    propagates when it fills the pair's in-cap skew space, whose real
    dimension is the pair's monomial count (notes/decisions.md, "One pair
    check per chain"); the pair-algebra targets a shorter closure misses are
    listed.  A positive verdict is sound regardless of cap hits; a negative
    one is only issued when it is provable (saturated closure, or no
    generator, local or bracket, has support on the new mode).  A
    ``degree_cap`` that the pair's bracket table cannot represent raises
    CapError before any bracket.
    """
    local_ops = list(local)
    if not local_ops:
        raise ValueError("empty local generating set")
    coupling_skew = skew_generator(coupling)  # refuses a coupling that is not hermitian
    local_modes = set().union(*(X.support for X in local_ops))
    pair_modes = local_modes | coupling.support
    target_modes = tuple(sorted(pair_modes - local_modes))
    n = table_monomials(degree_cap, len(pair_modes))
    local_ops[0]._require_same_modes(coupling)

    # [X, -i*coupling] is the row X @ M_c of one table product, on the table
    # at the coupling's degree when that is above the cap (its first n
    # monomials are the in-cap ones), less its _drop_tiny entries; a zero
    # bracket is no generator, and lie_closure refuses one above the cap
    slots = sorted(pair_modes) or [0]
    L, pair_index, table = _generator_rows(local_ops, degree_cap, slots,
                                           max(degree_cap, coupling.degree))
    Mc, cols = table.product(_coefficients([coupling_skew], pair_index)[0])
    B = _drop_tiny(L @ Mc)
    mode_count, pair_monomials = local_ops[0].mode_count, list(pair_index)
    monomials = [pair_monomials[j] if j < table.n else
                 _embed(table.overflow[j - table.n].tolist(), slots, mode_count) for j in cols]
    gens = local_ops + _target_ops(sp.csc_matrix(B[B.any(axis=1)].T), monomials, mode_count)
    closure = lie_closure(gens, degree_cap, dim_cap)

    if not target_modes:  # the coupling touches no mode beyond the local ones
        return PropagationResult(FAILS, closure, (), [])

    missing = []
    if closure.dim < n:
        # the targets span the pair space: build those the closure misses
        inside = np.append(closure._holds_targets(len(closure._index)), False)
        outside = np.flatnonzero(~inside[[closure._index.get(m, -1) for m in pair_monomials[:n]]])
        missing = _target_ops(table.targets[:n, outside], pair_monomials[:n], mode_count)
    if not missing:
        verdict = PROPAGATES
    elif closure.saturated or not set(target_modes) & set().union(*(g.support for g in gens)):
        # brackets preserve mode support, so when no generator touches the
        # target mode, no element of the full closure can; a closure that
        # dim_cap stopped early may not have reached one that does
        verdict = FAILS
    else:
        verdict = UNKNOWN
    return PropagationResult(verdict, closure, target_modes, missing)
