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
from typing import Iterable, Sequence

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
# TABLE_MONOMIALS keeps the build's peak memory below TABLE_BUDGET_MB.
MAX_DEGREE_CAP = 16
TABLE_MONOMIALS = 500
TABLE_BUDGET_MB = 160

# Largest mode count of a symbolic operator: every monomial is a tuple of one
# exponent pair per mode, so each product and role check grows with it.
MAX_MODES = 10_000

# Monomial: one ((a_i, b_i)) exponent pair per mode, meaning
# q_1^a1 p_1^b1 ... q_m^am p_m^bm in that (canonical) order.
Monomial = tuple

_PRUNE = 1e-14


def mono_degree(mono: Monomial) -> int:
    return sum(a + b for a, b in mono)


def _mono_support(mono: Monomial):
    return tuple(i for i, (a, b) in enumerate(mono) if a or b)


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
        return frozenset(s for m in self.terms for s in _mono_support(m))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient_norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.terms.values()))

    # -- arithmetic -------------------------------------------------------

    def _require_same_modes(self, other: "PolyOp"):
        if self.mode_count != other.mode_count:
            raise ValueError(
                f"mode_count mismatch: {self.mode_count} vs {other.mode_count}"
            )

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

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def adjoint(self) -> "PolyOp":
        out: dict = {}
        for mono, coeff in self.terms.items():
            # (q^a p^b)^dag = p^b q^a per mode, recanonicalized as a product
            ps = tuple((0, b) for a, b in mono)
            qs = tuple((a, 0) for a, b in mono)
            for m2, c2 in _mono_product(ps, qs).items():
                out[m2] = out.get(m2, 0.0j) + coeff.conjugate() * c2
        return _trusted(self.mode_count, out)

    def cleaned(self, rel_tol: float = _PRUNE) -> "PolyOp":
        """Drop coefficients below rel_tol times the largest magnitude."""
        if not self.terms:
            return self
        scale = max(abs(c) for c in self.terms.values())
        terms = {m: c for m, c in self.terms.items() if abs(c) > rel_tol * scale}
        return _trusted(self.mode_count, terms, self.role)

    def isclose(self, other: "PolyOp", tol: float) -> bool:
        self._require_same_modes(other)
        diff = self - other
        scale = max(self.coefficient_norm(), other.coefficient_norm(), 1.0)
        return diff.coefficient_norm() <= tol * scale

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
                kind = tok[0]
                if kind not in ("q", "p"):
                    raise ValueError(f"bad factor {tok!r}")
                body = tok[1:]
                if "^" in body:
                    idx_s, pow_s = body.split("^")
                else:
                    idx_s, pow_s = body, "1"
                mode = int(idx_s) - 1
                if not 0 <= mode < mode_count:
                    raise ValueError(f"mode index out of range in {tok!r}")
                expo[mode][0 if kind == "q" else 1] += int(pow_s)
            mono = tuple((a, b) for a, b in expo)
            terms[mono] = terms.get(mono, 0.0j) + coeff
        return cls(mode_count, terms)

    def __str__(self):
        return self.to_text()


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


def canonicalize(raw: Iterable, mode_count: int) -> PolyOp:
    """Normal-order a sum of factor words.

    ``raw`` is an iterable of ``(factors, coeff)`` where ``factors`` is a
    sequence of ``("q"|"p", mode)`` pairs in operator order (leftmost factor
    acts last).  The result equals the input as an operator identity under
    [q, p] = i.
    """
    total = const(0.0, mode_count)
    for factors, coeff in raw:
        word = const(coeff, mode_count)
        for kind, mode in factors:
            if kind not in ("q", "p"):
                raise ValueError(f"unknown factor kind {kind!r}")
            word = word * (q if kind == "q" else p)(mode, mode_count)
        total = total + word
    return total


def is_hermitian(A: PolyOp) -> bool:
    return (A - A.adjoint()).coefficient_norm() <= ADJOINT_TOL * max(A.coefficient_norm(), 1.0)


def is_skew_hermitian(A: PolyOp) -> bool:
    return (A + A.adjoint()).coefficient_norm() <= ADJOINT_TOL * max(A.coefficient_norm(), 1.0)


def as_hermitian(A: PolyOp) -> PolyOp:
    if not is_hermitian(A):
        raise ValueError("operator is not hermitian at coefficient level")
    return _trusted(A.mode_count, A.terms, HERMITIAN)


def as_skew(A: PolyOp) -> PolyOp:
    if not is_skew_hermitian(A):
        raise ValueError("operator is not skew-hermitian at coefficient level")
    return _trusted(A.mode_count, A.terms, SKEW)


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


def _monomial_table(mode_count: int, support: Sequence[int], max_degree: int):
    """(monomials, slots, E): ``enumerate_monomials``'s list, the sorted
    support modes, and E[i] = the (q, p) exponents of monomial i on each slot
    in turn.  The order and arrays come from the slots' exponent rows alone,
    so their cost does not grow with the mode count: modes off the support
    are (0, 0) in every monomial, which makes (degree, monomial) order the
    (row sum, row) order."""
    slots = sorted(set(support))
    rows = [()]
    for _ in range(2 * len(slots)):
        rows = [r + (e,) for r in rows for e in range(max_degree - sum(r) + 1)]
    rows.sort(key=lambda r: (sum(r), r))
    E = np.array(rows, dtype=np.int64).reshape(len(rows), 2 * len(slots))
    return [_embed(r, slots, mode_count) for r in rows], slots, E


class _RealSpan:
    """Incremental orthonormal basis of the real span of complex vectors.

    ``vecs`` holds the added vectors, normalized, and ``q`` an orthonormal
    basis of their span in real coordinates (real parts, then imaginary
    parts).  Both are views of buffers of ``min(dim_cap, 2 n_coords)`` rows,
    filled in place.  With ``dim_cap`` vectors held, a further independent
    vector is refused and sets ``capped``.  Row r of ``x``, ``mag``,
    ``norm_row`` and ``norm_vec`` holds vector r as the bracket table reads
    it: its ``_drop_tiny`` form x, |x|, and ||x|| as a row of a stack and as
    a 1-D vector, two reductions that may differ in the last bit.
    """

    def __init__(self, n_coords: int, dim_cap: int | None = None):
        rows = 2 * n_coords if dim_cap is None else min(dim_cap, 2 * n_coords)
        self.dim_cap = dim_cap
        self.capped = False
        self.dim = 0
        self._q = np.zeros((rows, 2 * n_coords))
        self._vecs = np.zeros((rows, n_coords), dtype=complex)
        self.x = np.zeros((rows, n_coords), dtype=complex)
        self.mag = np.zeros((rows, n_coords))
        self.norm_row = np.zeros(rows)
        self.norm_vec = np.zeros(rows)

    @property
    def q(self):
        return self._q[:self.dim]

    @property
    def vecs(self):
        return self._vecs[:self.dim]

    def _residual(self, U: np.ndarray):
        for _ in range(2):  # two-pass reorthogonalization
            if self.dim:
                U = U - (U @ self.q.T) @ self.q
        return U

    def residuals(self, V: np.ndarray) -> np.ndarray:
        """Norm of each row of V, normalized, off the span; 0 for zero rows."""
        norms = np.linalg.norm(V, axis=1, keepdims=True)
        U = _to_real(V / np.where(norms == 0, 1.0, norms))
        return np.linalg.norm(self._residual(U), axis=1)

    def try_add(self, v: np.ndarray) -> bool:
        nv = np.linalg.norm(v)
        if nv == 0:
            return False
        u = v / nv
        r = self._residual(_to_real(u))
        rn = np.linalg.norm(r)
        if rn <= INDEPENDENCE_TOL:
            return False
        if self.dim_cap is not None and self.dim >= self.dim_cap:
            self.capped = True
            return False
        self._q[self.dim] = r / rn
        self._vecs[self.dim] = u
        x = self.x[self.dim] = _drop_tiny(u)
        self.mag[self.dim] = np.abs(x)
        self.norm_row[self.dim] = np.linalg.norm(x[None], axis=1)[0]
        self.norm_vec[self.dim] = np.linalg.norm(x)
        self.dim += 1
        return True


def _coefficients(ops, index: dict):
    """Coefficient rows of ``ops`` over the monomial index, and the mask of
    the ops whose monomials all lie in the indexed set."""
    n = len(index)
    V = np.zeros((len(ops), n + 1), dtype=complex)  # column n: any outside term
    for r, op in enumerate(ops):
        for mono, coeff in op.terms.items():
            V[r, index.get(mono, n)] = coeff
    return V[:, :n], V[:, n] == 0


def _adjoint_matrix(E):
    """Sparse A with column j the coefficient vector of m_j^dag, so that
    vec(X^dag) = A @ conj(vec(X)), for the monomials of ``_monomial_table``'s
    exponent rows E.  Per mode (q^a p^b)^dag = p^b q^a =
    sum_k F[b, a, k] (-i)^k q^(a-k) p^(b-k): an enumerated list holds it."""
    n = len(E)
    F = _contraction_counts(int(E.max(initial=0)))
    col, ksum, out, weight = np.arange(n), np.zeros(n, dtype=np.int64), E, np.ones(n)
    for s in range(E.shape[1] // 2):
        a, b = out[:, 2 * s], out[:, 2 * s + 1]
        counts = np.minimum(a, b) + 1
        rep = np.repeat(np.arange(col.size), counts)
        k = np.arange(rep.size) - np.repeat(np.cumsum(counts) - counts, counts)
        weight = weight[rep] * F[b[rep], a[rep], k]
        col, ksum, out = col[rep], ksum[rep] + k, out[rep]
        out[:, 2 * s:2 * s + 2] -= k[:, None]
    keys = _lex_rank(np.concatenate([E, out]))
    order = np.argsort(keys[:n])
    row = order[np.searchsorted(keys[:n], keys[n:], sorter=order)]
    vals = weight * np.array([1, -1j, -1, 1j])[ksum % 4]
    # the expansion keeps the columns in order
    return sp.csc_matrix((vals, row, np.searchsorted(col, np.arange(n + 1))), shape=(n, n))


def _to_real(v: np.ndarray):
    return np.concatenate([v.real, v.imag], axis=-1)


def _from_vector(v: np.ndarray, monomials, mode_count: int) -> PolyOp:
    mag = np.abs(v)
    keep = np.flatnonzero(mag > _PRUNE * max(mag.max(initial=0.0), 1.0))
    return _trusted(mode_count, {monomials[i]: complex(v[i]) for i in keep}, SKEW)


# -- Lie closure ------------------------------------------------------------


@dataclass
class LieBasis:
    """Real-linear basis of a (possibly cap-truncated) dynamical Lie algebra:
    the rows of ``_span`` over the ``_index`` monomials, which ``basis``
    turns into PolyOps when first read."""

    generators: list
    degree_cap: int
    dim_cap: int
    saturated: bool
    degree_capped: bool
    dim_capped: bool
    _index: dict
    _span: _RealSpan

    @property
    def dim(self) -> int:
        return self._span.dim

    @functools.cached_property
    def basis(self) -> list:
        monomials = list(self._index)
        return [_from_vector(v, monomials, self.mode_count) for v in self._span.vecs]

    @property
    def mode_count(self) -> int:
        return self.generators[0].mode_count

    def contains(self, X: PolyOp) -> bool:
        return bool(self.contains_all([X])[0])

    def contains_all(self, ops) -> np.ndarray:
        """Membership of each op, in one projection; a term off the index is not."""
        if any(X.mode_count != self.mode_count for X in ops):
            raise ValueError("mode_count mismatch")
        V, inside = _coefficients(ops, self._index)
        return inside & (self._span.residuals(V) <= MEMBERSHIP_TOL)


def contains(basis: LieBasis, X: PolyOp) -> bool:
    if not is_skew_hermitian(X):
        raise ValueError("membership test expects a skew-hermitian operator")
    return basis.contains(X)


class CapError(ValueError):
    """A closure that its degree cap or the bracket table cannot represent."""


class GeneratorError(ValueError):
    """A ``lie_closure`` generator it refuses; ``index`` is its position."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class GeneratorCapError(GeneratorError, CapError):
    """A ``lie_closure`` generator of degree above the cap."""


def table_monomials(degree_cap: int, modes: int) -> int:
    """Monomials of the bracket table at ``degree_cap`` on ``modes`` modes.

    Raises CapError when the table cannot represent that cap: above
    MAX_DEGREE_CAP, or with more than TABLE_MONOMIALS monomials.
    """
    if degree_cap > MAX_DEGREE_CAP:
        raise CapError(f"degree_cap {degree_cap} exceeds {MAX_DEGREE_CAP}, the largest cap "
                       f"with exact structure constants")
    n = math.comb(2 * modes + degree_cap, degree_cap)
    if n > TABLE_MONOMIALS:
        raise CapError(f"degree_cap {degree_cap} on {modes} modes gives {n} "
                       f"monomials; the bracket table takes at most {TABLE_MONOMIALS} "
                       f"({TABLE_BUDGET_MB} MB budget)")
    return n


class _StructureTensor:
    """Every bracket [m_i, m_j] of the basis monomials in one sparse table.

    ``columns`` lists the n in-cap monomials followed by the overflow
    monomials (degree above the cap) that some bracket produces.  The table
    T[i, j, col] is stored column-major, as the CSC matrix ``S`` with
    T[i, j, col] at row ``i * n_ext + col``, column ``j``, so that
    M_y = sum_j y_j T[:, j, :] reads only the columns j with y_j != 0.
    ``N[i, j]`` is the norm of the in-cap part of [m_i, m_j].  It takes
    ``_monomial_table``'s monomials, slots and exponent rows.
    """

    def __init__(self, monomials, slots, E):
        n = len(monomials)
        A, B = E[:, 0::2], E[:, 1::2]
        I, J = np.triu_indices(n, 1)
        F = _contraction_counts(int(E.max()))
        # Per mode, (q^a p^b)(q^c p^d) and (q^c p^d)(q^a p^b) share the term
        # q^(a+c-k) p^(b+d-k) with weights F[b, c, k] (-i)^k and F[d, a, k] (-i)^k.
        # Expand every pair over its k, mode by mode: distinct k-vectors give
        # distinct monomials, so each coefficient is one exact Gaussian integer.
        pair = np.arange(I.size)
        alpha, beta = np.ones(I.size), np.ones(I.size)
        ksum = np.zeros(I.size, dtype=np.int64)
        out = np.zeros((I.size, 0), dtype=np.int64)
        for s in range(len(slots)):
            ai, bi, aj, bj = A[I[pair], s], B[I[pair], s], A[J[pair], s], B[J[pair], s]
            counts = np.maximum(np.minimum(bi, aj), np.minimum(bj, ai)) + 1
            rep = np.repeat(np.arange(pair.size), counts)
            k = np.arange(rep.size) - np.repeat(np.cumsum(counts) - counts, counts)
            ai, bi, aj, bj = ai[rep], bi[rep], aj[rep], bj[rep]
            pair, ksum = pair[rep], ksum[rep] + k
            alpha = alpha[rep] * F[bi, aj, k]
            beta = beta[rep] * F[bj, ai, k]
            out = np.column_stack([out[rep], ai + aj - k, bi + bj - k])
        keep = alpha != beta
        pair, out = pair[keep], out[keep]
        coeff = (alpha[keep] - beta[keep]) * np.array([1, -1j, -1, 1j])[ksum[keep] % 4]

        rows = np.concatenate([E, out])
        _, first, inverse = np.unique(_lex_rank(rows), return_index=True,
                                      return_inverse=True)
        col_of = np.full(first.size, -1)
        col_of[inverse[:n]] = np.arange(n)
        over = np.flatnonzero(col_of < 0)
        col_of[over] = n + np.arange(over.size)
        col = col_of[inverse[n:]]
        self.n, self.n_ext = n, n + over.size
        self.columns = tuple(monomials) + tuple(
            _embed(row, slots, len(monomials[0])) for row in rows[first[over]].tolist())

        i = np.concatenate([I[pair], J[pair]])
        j = np.concatenate([J[pair], I[pair]])
        col = np.concatenate([col, col])
        coeff = np.concatenate([coeff, -coeff])
        self.S = sp.csc_matrix((coeff, (i * self.n_ext + col, j)),
                               shape=(n * self.n_ext, n))
        incap = col < n
        self.N = np.sqrt(np.bincount(i[incap] * n + j[incap], np.abs(coeff[incap]) ** 2,
                                     minlength=n * n)).reshape(n, n)

    def product(self, y: np.ndarray):
        """``(M_y[:, cols], cols)`` for the columns ``cols`` of M_y with a nonzero.

        The columns j of S with y_j != 0 are accumulated in ascending j, the
        order in which CSR's ``S @ y`` sums each row; the terms it skips are
        exact zeros, which leave a sum that starts at +0.0 unchanged, so
        every entry equals ``S @ y`` bit for bit.
        """
        S, ptr = self.S, self.S.indptr
        acc = np.zeros(self.n * self.n_ext, dtype=complex)
        for j in np.flatnonzero(y):
            a, b = ptr[j], ptr[j + 1]
            acc[S.indices[a:b]] += S.data[a:b] * y[j]
        My = acc.reshape(self.n, self.n_ext)
        cols = np.flatnonzero(My.any(axis=0))
        return My[:, cols], cols

    def bracket_rows(self, rows: _RealSpan, i: int):
        """Brackets [x_r, y] of the span's stored rows x_r, r < i, with y = x_i.

        Returns ``(R, overflow)`` where R[r] is the in-cap coefficient vector
        and overflow[r] is True when the bracket has a term of degree beyond
        the cap above roundoff.
        """
        My, cols = self.product(rows.x[i])
        P = rows.x[:i] @ My
        incap = cols < self.n
        R = np.zeros((i, self.n), dtype=complex)
        R[:, cols[incap]] = P[:, incap]
        # rows at the cancellation floor of their gross sum are roundoff zeros
        gross = rows.mag[:i] @ (self.N @ rows.mag[i])
        R[np.linalg.norm(R, axis=1) < 1e-11 * gross] = 0.0
        lim = 1e-10 * np.maximum(rows.norm_row[:i] * rows.norm_vec[i], 1e-300)
        overflow = (np.abs(P[:, ~incap]) > lim[:, None]).any(axis=1)
        return R, overflow


def _contraction_counts(top: int) -> np.ndarray:
    """F[b, c, k] = C(b, k) C(c, k) k!, the weight of k contractions in p^b q^c."""
    F = np.zeros((top + 1,) * 3)
    for b in range(top + 1):
        for c in range(top + 1):
            for k in range(min(b, c) + 1):
                F[b, c, k] = math.comb(b, k) * math.comb(c, k) * math.factorial(k)
    return F


def _lex_rank(rows: np.ndarray) -> np.ndarray:
    """Index of each exponent row in the lexicographic list of all rows of
    its width whose sum is at most the largest row sum: an exact int64 key."""
    width, top = rows.shape[1], int(rows.sum(axis=1).max())
    if math.comb(width + top, top) >= 2 ** 62:
        raise ValueError("monomial space too large for the bracket table")
    # C[a, b] = C(a, b); r-tuples with sum <= d number C(r + d, r)
    C = np.array([[math.comb(a, b) for b in range(width + 1)]
                  for a in range(width + top + 2)], dtype=np.int64)
    key = np.zeros(len(rows), dtype=np.int64)
    room = np.full(len(rows), top)
    for t in range(width):
        r, e = width - t - 1, rows[:, t]
        # rows with a smaller exponent here: sum_{v < e} C(r + room - v, r)
        key += C[r + room + 1, r + 1] - C[r + room - e + 1, r + 1]
        room -= e
    return key


def _embed(row, slots, mode_count) -> Monomial:
    """Monomial with the exponent pairs ``row`` on the modes ``slots``."""
    mono = [(0, 0)] * mode_count
    for t, s in enumerate(slots):
        mono[s] = (row[2 * t], row[2 * t + 1])
    return tuple(mono)


def _drop_tiny(V: np.ndarray) -> np.ndarray:
    """Zero the entries below 1e-13 of their row's largest magnitude."""
    mag = np.abs(V)
    return np.where(mag > 1e-13 * mag.max(axis=-1, keepdims=True), V, 0.0)


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
    mode_count = generators[0].mode_count
    for i, g in enumerate(generators):
        if g.mode_count != mode_count:
            raise ValueError("generators must share mode_count")
        if g.degree > degree_cap:
            raise GeneratorCapError(i, f"generator degree {g.degree} exceeds degree_cap "
                                       f"{degree_cap}")

    support = sorted(set().union(*(g.support for g in generators))) or [0]
    n = table_monomials(degree_cap, len(support))
    monomials, slots, E = _monomial_table(mode_count, support, degree_cap)
    index = {m: i for i, m in enumerate(monomials)}

    G, _ = _coefficients(generators, index)
    defect = G + (_adjoint_matrix(E) @ G.conj().T).T
    norms = np.linalg.norm(G, axis=1)
    bad = np.flatnonzero(np.linalg.norm(defect, axis=1) > ADJOINT_TOL * np.maximum(norms, 1.0))
    if bad.size:
        raise GeneratorError(int(bad[0]), "generator must be skew-hermitian")
    span = _RealSpan(n, dim_cap)
    for g in G:
        span.try_add(g)
        if span.capped:
            break

    tensor = _StructureTensor(monomials, slots, E)
    degree_capped = False
    # brackets are antisymmetric and [x, x] = 0: pair element i with earlier
    # ones only.  The in-cap skew-hermitian space has real dimension n, so
    # once the span fills it with the overflow flag set, no bracket can add a
    # direction or a flag (notes/decisions.md, "The closure sweep stops at
    # the full space")
    i = 1
    while i < span.dim and not span.capped and not (degree_capped and span.dim == n):
        R, over = tensor.bracket_rows(span, i)
        degree_capped |= bool(over.any())
        rows = np.flatnonzero(~over & R.any(axis=1))
        # the span only grows, so rows dependent on it now stay dependent
        for r in rows[span.residuals(R[rows]) > INDEPENDENCE_TOL]:
            span.try_add(R[r])
            if span.capped:
                break
        i += 1

    return LieBasis(
        generators=generators,
        degree_cap=degree_cap,
        dim_cap=dim_cap,
        saturated=not (degree_capped or span.capped),
        degree_capped=degree_capped,
        dim_capped=span.capped,
        _index=index,
        _span=span,
    )


# -- generating sets and algebraic propagation ------------------------------


def skew_monomial_generators(modes: Sequence[int], mode_count: int, degree_cap: int):
    """Basis of the skew-hermitian polynomials on ``modes`` up to the cap.

    One element i(M + M^dag) per monomial M, in enumeration order: a basis,
    as each has the new leading term 2iM and the space has one real
    dimension per monomial (notes/decisions.md, "Propagation targets as
    vectors").
    """
    monomials, _, E = _monomial_table(mode_count, modes, degree_cap)
    T = 1j * (sp.identity(len(monomials), format="csc") + _adjoint_matrix(E))
    rows, vals, ptr = T.indices.tolist(), T.data.tolist(), T.indptr.tolist()
    return [_trusted(mode_count, {monomials[i]: c for i, c in zip(rows[a:b], vals[a:b])}, SKEW)
            for a, b in zip(ptr, ptr[1:])]


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

    @property
    def propagates(self) -> bool:
        return self.verdict == PROPAGATES


def algebraic_propagation_check(local, coupling: PolyOp, degree_cap: int,
                                dim_cap: int = 256) -> PropagationResult:
    """Test whether local controls plus one coupling bracket span the pair algebra.

    ``local`` is a degree-capped generating list for the single-mode skew
    algebra on one mode; ``coupling`` is the hermitian two-mode interaction,
    whose support names the pair.  The closure of local ∪ {[X, -i*coupling]}
    is computed under the caps.  It propagates when it fills the pair's
    in-cap skew space, whose real dimension is the pair's monomial count
    (notes/decisions.md, "One pair check per chain"); the pair-algebra
    targets a shorter closure misses are listed.  A positive verdict is
    sound regardless of cap hits; a negative one is only issued when it is
    provable (saturated closure, or no generator, local or bracket, has
    support on the new mode).  A ``degree_cap`` that the pair's bracket
    table cannot represent raises CapError before any bracket.
    """
    local_ops = list(local)
    if not local_ops:
        raise ValueError("empty local generating set")
    mode_count = local_ops[0].mode_count
    coupling_skew = skew_generator(coupling)  # refuses a coupling that is not hermitian
    local_modes = set().union(*(X.support for X in local_ops))
    pair_modes = local_modes | coupling.support
    target_modes = tuple(sorted(pair_modes - local_modes))
    n = table_monomials(degree_cap, len(pair_modes))

    # a zero coupling brackets to nothing
    brackets = (bracket(X, coupling_skew).cleaned() for X in local_ops)
    gens = local_ops + [b for b in brackets if not b.is_zero]

    closure = lie_closure(gens, degree_cap=degree_cap, dim_cap=dim_cap)

    if not target_modes:
        # the coupling touches no mode beyond the local ones, hence nothing
        # can propagate
        return PropagationResult(FAILS, closure, (), [])

    missing = []
    if closure.dim < n:
        # the targets span the pair space: name those the short closure misses
        targets = skew_monomial_generators(pair_modes, mode_count, degree_cap)
        missing = [t for t, inside in zip(targets, closure.contains_all(targets))
                   if not inside]
    if not missing:
        verdict = PROPAGATES
    elif closure.saturated or not set(target_modes) & set().union(
            *(g.support for g in gens)):
        # brackets preserve mode support, so when no generator touches the
        # target mode, no element of the full closure can; a closure that
        # dim_cap stopped early may not have reached one that does
        verdict = FAILS
    else:
        verdict = UNKNOWN
    return PropagationResult(verdict, closure, target_modes, missing)
