"""Independent oracles used by the tests: the coefficient-level PolyOp
references (pruning, closeness and the skew tag), brute-force symbolic
reordering, matrix-level Lie closure, the table-free capped closure, dense
Fock assembly and the dense truncated q, p, hermitization and interior-block
references, the recurrence distance from overlaps, the point-by-point
recurrence grid scan, the two-product grid kernel, the
recurrence search with materialized grid times and seam copies,
segment-by-segment word evaluation, the matrix exponential from a plain
``eigh`` of the unhermitized matrix, the Taylor action of the matrix
exponential, the sequential reduction and per-target membership test of the
propagation check, and the chain verdicts from one propagation check per
edge.  These deliberately avoid the package's closed-form reordering
identity, structure-tensor machinery, sparse assembly, angle addition, word
trees, spectral store, Chebyshev action and adjoint matrix.  There are
three exceptions.
The table-free closure brackets with ``PolyOp`` arithmetic, which the
reordering oracle checks, and avoids the bracket table, its stored rows and
the sweep's stop rule.  The two-product grid kernel is the package's angle addition as it
was before its single matrix product, kept to compare searches with either.
The mode-by-mode monomial product and the level-by-level tail cut are the
package's own as they were before their single passes, kept to compare
results bit for bit."""

from __future__ import annotations

import math
from collections import Counter
from functools import reduce

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

from recurq import chains, fock, propagate, recurrence, weyl
from recurq.weyl import PolyOp


def cleaned(A: PolyOp, rel_tol: float = 1e-14) -> PolyOp:
    """A without the coefficients at most rel_tol times its largest magnitude."""
    if not A.terms:
        return A
    scale = max(abs(c) for c in A.terms.values())
    return PolyOp(A.mode_count, {m: c for m, c in A.terms.items() if abs(c) > rel_tol * scale},
                  A.role)


def isclose(A: PolyOp, B: PolyOp, tol: float) -> bool:
    """Coefficient distance of A and B within tol of the larger norm (or 1)."""
    scale = max(A.coefficient_norm(), B.coefficient_norm(), 1.0)
    return (A - B).coefficient_norm() <= tol * scale


def as_skew(A: PolyOp) -> PolyOp:
    """A tagged skew-hermitian, after the coefficient-level check."""
    if not weyl.is_skew_hermitian(A):
        raise ValueError("operator is not skew-hermitian at coefficient level")
    return PolyOp(A.mode_count, A.terms, weyl.SKEW)


def reorder_word(factors, coeff, mode_count):
    """Canonicalize one factor word by recursive adjacent rewrites.

    Uses only the local rules: factors on different modes commute, and
    p_i q_i -> q_i p_i - i.  Returns a {Monomial: coeff} dict.
    """
    factors = list(factors)
    for idx in range(len(factors) - 1):
        (k1, m1), (k2, m2) = factors[idx], factors[idx + 1]
        if m1 > m2:
            swapped = factors[:idx] + [factors[idx + 1], factors[idx]] + factors[idx + 2:]
            return reorder_word(swapped, coeff, mode_count)
        if m1 == m2 and k1 == "p" and k2 == "q":
            swapped = factors[:idx] + [factors[idx + 1], factors[idx]] + factors[idx + 2:]
            dropped = factors[:idx] + factors[idx + 2:]
            out = reorder_word(swapped, coeff, mode_count)
            for mono, c in reorder_word(dropped, coeff * (-1j), mode_count).items():
                out[mono] = out.get(mono, 0.0j) + c
            return {m: c for m, c in out.items() if c != 0}
    expo = [[0, 0] for _ in range(mode_count)]
    for kind, mode in factors:
        expo[mode][0 if kind == "q" else 1] += 1
    mono = tuple((a, b) for a, b in expo)
    return {mono: coeff}


def prefix_mono_product(m1, m2):
    """The canonical product of two monomials, built mode by mode by
    extending every prefix with each contraction of the next mode."""
    acc = {(): 1.0 + 0.0j}
    for (a, b), (c, d) in zip(m1, m2):
        nxt = {}
        for k in range(min(b, c) + 1):
            coeff = math.comb(b, k) * math.comb(c, k) * math.factorial(k) * (-1j) ** k
            ab = (a + c - k, b + d - k)
            for prefix, pc in acc.items():
                key = prefix + (ab,)
                nxt[key] = nxt.get(key, 0.0j) + pc * coeff
        acc = nxt
    return acc


def reorder_poly(raw, mode_count) -> PolyOp:
    terms: dict = {}
    for factors, coeff in raw:
        for mono, c in reorder_word(factors, coeff, mode_count).items():
            terms[mono] = terms.get(mono, 0.0j) + c
    return PolyOp(mode_count, terms)


def monomial_bracket(m1, m2, mode_count) -> PolyOp:
    """[m1, m2] of two canonical monomials, by reordering the factor words
    m1 m2 and m2 m1."""
    def word(mono):
        return [(kind, mode) for mode, (a, b) in enumerate(mono)
                for kind in "q" * a + "p" * b]

    w1, w2 = word(m1), word(m2)
    return reorder_poly([(w1 + w2, 1.0), (w2 + w1, -1.0)], mode_count)


def word_matrix(factors, coeff, mats):
    """Direct matrix product of a factor word, in operator order."""
    q_m, p_m = mats
    dim = q_m[0].shape[0]
    out = np.eye(dim, dtype=complex) * coeff
    for kind, mode in factors:
        out = out @ (q_m[mode] if kind == "q" else p_m[mode])
    return out


def matrix_lie_closure(generators, dim_cap=600, tol=1e-9):
    """Real-linear Lie closure of skew-hermitian d x d matrices by direct brackets.

    The brackets of each basis element with those before it are projected in
    one batch against the orthonormal rows found so far, then kept one by one
    when independent.  The search stops at ``dim_cap`` elements, or at d^2,
    where the rows span all of u(d).
    """
    mats = np.asarray(generators, dtype=complex)
    d = mats.shape[1]
    full = min(dim_cap, d * d)
    rows = np.zeros((full, 2 * d * d))  # orthonormal rows of the span
    basis = []

    def vec(Ms):
        flat = Ms.reshape(len(Ms), -1)
        return np.concatenate([flat.real, flat.imag], axis=1)

    def residual(U, Q):
        for _ in range(2):
            U = U - (U @ Q.T) @ Q
        return U

    def add(Ms):
        V = vec(Ms)
        norms = np.linalg.norm(V, axis=1)
        keep = norms >= 1e-12
        Ms, norms = Ms[keep], norms[keep]
        U = residual(V[keep] / norms[:, None], rows[:len(basis)])
        first = len(basis)
        for r in np.flatnonzero(np.linalg.norm(U, axis=1) > tol):
            if len(basis) >= full:
                break
            u = residual(U[r], rows[first:len(basis)])
            rn = np.linalg.norm(u)
            if rn > tol:
                rows[len(basis)] = u / rn
                basis.append(Ms[r] / norms[r])

    add(mats)
    i = 1
    while i < len(basis) < full:
        stack = np.asarray(basis[:i])
        B = basis[i]
        add(stack @ B - B @ stack)
        i += 1

    def member(M, membership_tol=1e-6):
        v = vec(np.asarray(M, dtype=complex)[None])[0]
        nv = np.linalg.norm(v)
        if nv == 0:
            return True
        return np.linalg.norm(residual(v / nv, rows[:len(basis)])) <= membership_tol

    return basis, member


def contains_all(closure, ops) -> np.ndarray:
    """Membership of each op in a ``weyl.lie_closure`` basis, in one
    projection; an op with a term off the closure's monomial index is not a
    member.  The package tests only skew monomial targets, as rows."""
    if any(X.mode_count != closure.mode_count for X in ops):
        raise ValueError("mode_count mismatch")
    index, n = closure._index, len(closure._index)
    V = np.zeros((len(ops), n + 1), dtype=complex)  # column n: any outside term
    for r, op in enumerate(ops):
        for mono, coeff in op.terms.items():
            V[r, index.get(mono, n)] = coeff
    return (V[:, n] == 0) & (closure._span.residuals(V[:, :n]) <= weyl.MEMBERSHIP_TOL)


def polyop_lie_closure(generators, degree_cap, dim_cap=256, floor=1e-9):
    """Capped Lie closure by PolyOp brackets, with no bracket table and no
    early stop: every element is bracketed with each earlier one.

    A bracket with a term above the cap beyond 1e-10 of the product of its
    operands' coefficient norms is dropped and sets the overflow flag; one
    below ``floor`` of that product is a roundoff zero.  Returns the
    ``_RealSpan`` of the in-cap coefficient vectors and the overflow flag.
    """
    mode_count = generators[0].mode_count
    support = sorted(set().union(*(g.support for g in generators)))
    monomials = weyl.enumerate_monomials(mode_count, support, degree_cap)
    index = {m: k for k, m in enumerate(monomials)}
    span = weyl._RealSpan(len(monomials), dim_cap)
    elements = []

    def add(op):
        v = np.zeros(len(monomials), dtype=complex)
        for m, c in op.terms.items():
            v[index[m]] = c
        if span.try_add(v):
            elements.append(as_skew(op * (1.0 / np.linalg.norm(v))))

    for g in generators:
        add(g)
    degree_capped = False
    i = 1
    while i < len(elements) and not span.capped:
        y = elements[i]
        for x in elements[:i]:
            out = weyl.bracket(x, y)
            scale = x.coefficient_norm() * y.coefficient_norm()
            incap = PolyOp(mode_count, {m: c for m, c in out.terms.items()
                                        if weyl.mono_degree(m) <= degree_cap})
            if any(weyl.mono_degree(m) > degree_cap and abs(c) > 1e-10 * scale
                   for m, c in out.terms.items()):
                degree_capped = True
            elif incap.coefficient_norm() > floor * scale:
                add(incap)
                if span.capped:
                    break
        i += 1
    return span, degree_capped


def dense_represent(A: PolyOp, dims) -> np.ndarray:
    """Truncate-then-multiply matrix of A by a dense np.kron per monomial,
    before hermitization."""
    ladders = []
    for d in dims:
        a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1).astype(complex)
        ladders.append(((a + a.conj().T) / np.sqrt(2.0), 1j * (a.conj().T - a) / np.sqrt(2.0)))
    dim = int(np.prod(dims))
    M = np.zeros((dim, dim), dtype=complex)
    for mono, coeff in A.terms.items():
        factors = []
        for (q_exp, p_exp), (qm, pm), d in zip(mono, ladders, dims):
            m = np.eye(d, dtype=complex)
            m = m @ np.linalg.matrix_power(qm, q_exp) if q_exp else m
            m = m @ np.linalg.matrix_power(pm, p_exp) if p_exp else m
            factors.append(m)
        M += coeff * reduce(np.kron, factors)
    return M


def _small_annihilator(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1).astype(complex)


def _embed(op: np.ndarray, spec, mode: int) -> np.ndarray:
    mats = [np.eye(d, dtype=complex) for d in spec.dims]
    mats[mode] = op
    return reduce(np.kron, mats)


def q_matrix(spec, mode: int = 0) -> np.ndarray:
    """Dense truncated position matrix of ``mode``, embedded in the full space."""
    a = _embed(_small_annihilator(spec.dims[mode]), spec, mode)
    return (a + a.conj().T) / math.sqrt(2.0)


def p_matrix(spec, mode: int = 0) -> np.ndarray:
    """Dense truncated momentum matrix of ``mode``, embedded in the full space."""
    a = _embed(_small_annihilator(spec.dims[mode]), spec, mode)
    return 1j * (a.conj().T - a) / math.sqrt(2.0)


def hermitize(M: np.ndarray) -> np.ndarray:
    return (M + M.conj().T) / 2.0


def hermiticity_defect(M: np.ndarray) -> float:
    return float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0


def interior_block(M: np.ndarray, spec, buffer: int | None = None) -> np.ndarray:
    """The block of M on the basis states below D_i - buffer on every mode;
    ``buffer`` defaults to ``spec.buffer``."""
    if buffer is not None:
        spec = fock.TruncationSpec(spec.dims, buffer)
    mask = fock.interior_mask(spec)
    return M[np.ix_(mask, mask)]


def recurrence_distance(c, energies, T: float) -> float:
    """||psi - e^{-iHT} psi|| = sqrt(2 sum |c_n|^2 (1 - cos(E_n T))) from the
    overlaps c_n of psi with the eigenvectors."""
    c = np.asarray(c)
    E = np.asarray(energies, dtype=float)
    if c.shape != E.shape:
        raise ValueError("overlap vector and eigenvalue list must match in length")
    val = 2.0 * float(np.sum(np.abs(c) ** 2 * (1.0 - np.cos(E * T))))
    return math.sqrt(max(val, 0.0))


def loop_tail_cut(c, delta: float) -> int:
    """Smallest N with sum_{n>N} |c_n|^2 < delta^2 / 8, level by level."""
    w = np.abs(np.asarray(c)) ** 2
    suffix = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])
    for N in range(len(w)):
        if suffix[N + 1] < delta * delta / 8.0:
            return N
    return len(w) - 1


def direct_grid_values(energies, ts) -> np.ndarray:
    """N - sum_n cos(E_n t) at every grid time: one cosine per point and level."""
    E = np.asarray(energies, dtype=float)
    return len(E) - np.cos(np.outer(ts, E)).sum(axis=1)


def direct_grid_scan(energies, tau_min, t_max, grid_step):
    """The recurrence search grid scanned point by point, without refinement.

    Grid times tau_min + i * grid_step up to the first at or past t_max,
    which moves to t_max, in chunks of 2^16 steps with shared boundary
    points, as in ``find_recurrence_time``; each chunk's last point belongs
    to the next chunk, except at t_max.  Returns one ``(times, T, objective)``
    per window of 4 096 owned points of a chunk (its grid times and its
    lowest point by the direct cosine sum) and the number of points scanned.
    """
    raw = tau_min + np.arange(int(math.ceil((t_max - tau_min) / grid_step)) + 2) * grid_step
    ts_all = np.minimum(raw[:int(np.searchsorted(raw, t_max)) + 1], t_max)
    windows, n_point = [], 0
    for lo in range(0, len(ts_all) - 1, 1 << 16):
        ts = ts_all[lo:lo + (1 << 16) + 1]
        last = lo + len(ts) == len(ts_all)
        vals = direct_grid_values(energies, ts)
        own = len(ts) if last else len(ts) - 1
        rows = window_minima(ts, vals, last)
        windows += [(ts[w:min(w + (1 << 12), own)], t, v)
                    for w, (t, v) in zip(range(0, own, 1 << 12), rows)]
        n_point += len(ts)
    return windows, n_point


def window_minima(ts, vals, last):
    """(T, objective) of the first lowest point of each window of 4 096 points
    of a chunk's grid times and values, one window at a time; the chunk's
    last point counts only in the ``last`` chunk."""
    own = len(vals) if last else len(vals) - 1
    rows = []
    for lo in range(0, own, 1 << 12):
        i = lo + int(np.argmin(vals[lo:min(lo + (1 << 12), own)]))
        rows.append((float(ts[i]), float(vals[i])))
    return rows


def two_product_grid_objective(E, start, h, m) -> np.ndarray:
    """``recurrence._grid_objective`` as two matrix products of inner size N,
    ``cos(A) @ cos(C) - sin(A) @ sin(C)``, on the same row and column phases:
    the angle-addition kernel before its single product of inner size 2N."""
    rows = np.arange(0, m, recurrence._BLOCK) * h + start
    A = np.outer(rows, E)
    C = np.outer(E, np.arange(min(m, recurrence._BLOCK)) * h)
    S = np.cos(A) @ np.cos(C) - np.sin(A) @ np.sin(C)
    return len(E) - S.ravel()[:m]


def fixed_step_scan(energies, delta, tau_min=0.0, t_max=None, grid_step=None, trace=None):
    """``recurrence.find_recurrence_time`` with each chunk's grid times
    materialized as tau_min + (k * 2^16 + j) * h, the first at or past t_max
    found by ``np.searchsorted`` and moved to t_max, and the previous chunk's
    last point (for the first chunk, a value of +inf) and, in the last chunk,
    a right neighbour of +inf concatenated onto fresh copies of the times and
    values before looking for local minima.  Shares ``_grid_objective`` and
    ``_refine`` with the package, and builds a fresh phase table for every
    chunk."""
    rc = recurrence
    E = np.asarray(energies, dtype=float)
    threshold = delta * delta / 4.0
    f = rc._objective(E)
    e_max = float(np.max(np.abs(E)))
    if e_max == 0.0:
        return rc.RecurrenceTime(tau_min, 0.0, tau_min, 0.0)
    if grid_step is None:
        grid_step = 2.0 * math.pi / (100.0 * e_max)
    if t_max is None:
        gaps = np.diff(np.unique(E))
        gap = float(np.min(gaps[gaps > 1e-12])) if np.any(gaps > 1e-12) else e_max
        t_max = 1e6 / gap
    rounding = 8.0 * len(E) * np.finfo(float).eps * (e_max * (t_max + grid_step) + 1.0)
    refine_cut = threshold + 1.5 * float(np.sum(E * E)) * (grid_step / 2.0) ** 2 + rounding
    if f(tau_min) < threshold:
        return rc.RecurrenceTime(tau_min, f(tau_min), tau_min, grid_step)

    h = grid_step
    best_t, best_f = tau_min, f(tau_min)
    prev_tail_t, prev_tail_f, n_point, k = math.nan, math.inf, 0, 0
    while tau_min + (k * (1 << 16)) * h < t_max:
        ts = tau_min + (k * (1 << 16) + np.arange((1 << 16) + 1)) * h
        m = min(int(np.searchsorted(ts, t_max)) + 1, len(ts))
        last = bool(ts[-1] >= t_max)
        table = rc._PhaseTable(E, h, (1 << 16) + 1)
        vals = rc._grid_objective(table, float(ts[0]), m)
        moved = ts[m - 1] > t_max
        ts = np.minimum(ts[:m], t_max)
        if moved:
            vals[-1] = f(t_max)
        if trace is not None:
            trace.extend(window_minima(ts, vals, last))
        i_best = int(np.argmin(vals))
        if vals[i_best] < best_f:
            best_t, best_f = float(ts[i_best]), float(vals[i_best])
        ts = np.concatenate([[prev_tail_t], ts] + [[math.nan]] * last)
        vals = np.concatenate([[prev_tail_f], vals] + [[math.inf]] * last)
        interior = np.nonzero(
            (vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]) & (vals[1:-1] < refine_cut)
        )[0] + 1
        for i in interior:
            t_j = float(ts[i])
            t_ref, f_ref = rc._refine(E, t_j, max(t_j - h, tau_min), min(t_j + h, t_max))
            if f_ref < best_f:
                best_t, best_f = t_ref, f_ref
            if f_ref < threshold:
                return rc.RecurrenceTime(t_ref, f_ref, t_j, grid_step)
        prev_tail_t, prev_tail_f = float(ts[-1 - last]), float(vals[-1 - last])
        n_point += m
        k += 1
    raise rc.RecurrenceSearchError(
        t_max, best_t, f(best_t), threshold, grid_step=grid_step, grid_points=n_point,
        refine_cut=refine_cut, frequencies=rc._distinct_frequencies(E))


def flat_evolve(word, psi0, table):
    """The word applied one flat segment at a time, each generator on the
    spectral or action path by ``uses_spectrum`` on its application count."""
    segments = propagate.flatten(word)
    counts = Counter(k for k, _ in segments)
    small = table.dim // propagate.SPECTRAL_DIVISOR <= 1
    psi = np.asarray(psi0, dtype=complex)
    for k, t in segments:
        spectral = small or propagate.uses_spectrum(counts[k], table.dim)
        psi = (table.apply if spectral else table.act)(k, float(t), psi)
    return psi


def flat_realize(word, inverter):
    """Reversed segments replaced one flat segment at a time; returns the flat
    segments and each distinct plan once, in order of first use."""
    segments, plans = [], {}
    for k, t in propagate.flatten(word):
        if t >= 0:
            segments.append((k, t))
            continue
        t_star, plan = inverter.duration(k, -t)
        segments.append((k, t_star))
        plans.setdefault(id(plan), plan)
    return tuple(segments), list(plans.values())


def expm_eigh(H, t: float) -> np.ndarray:
    """Dense e^{H t} for skew-hermitian H from ``np.linalg.eigh(1j H)`` as
    given, without ``recurrence.spectral``'s check, hermitization or store."""
    M = H.toarray() if scipy.sparse.issparse(H) else np.asarray(H)
    w, V = np.linalg.eigh(1j * M)
    return (V * np.exp(-1j * w * t)) @ V.conj().T


def expm_multiply_action(G, t, psi):
    """e^{G t} psi by scipy's expm_multiply (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 2011), one column at a time.

    expm_multiply switches to the randomized onenormest, which draws from
    the global np.random state, once the trace-shifted 1-norm of its argument
    exceeds ~63; the action is split into substeps of 1-norm at most 32 so
    it always takes the exact-norm branch.
    """
    G = scipy.sparse.csr_array(G, dtype=complex)
    dim = G.shape[0]
    shifted = G - (G.trace() / dim) * scipy.sparse.eye_array(dim, format="csr")
    norm = float(abs(shifted).sum(axis=0).max())
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim == 2:
        return np.column_stack([expm_multiply_action(G, t, col) for col in psi.T])
    steps = max(1, math.ceil(abs(t) * norm / 32.0))
    for _ in range(steps):
        psi = expm_multiply(G * (t / steps), psi)
    return psi


def sequential_targets(modes, mode_count, degree_cap):
    """The pair-algebra targets by sequential reduction: for each monomial M
    in enumeration order the candidates i(M + M^dag) and M - M^dag, built by
    PolyOp arithmetic, each kept when it is independent of those kept so far."""
    monomials = weyl.enumerate_monomials(mode_count, modes, degree_cap)
    index = {m: i for i, m in enumerate(monomials)}
    span = weyl._RealSpan(len(monomials), 2 * len(monomials))
    out = []
    for mono in monomials:
        m_op = PolyOp(mode_count, {mono: 1.0})
        m_adj = m_op.adjoint()
        for candidate in (1j * (m_op + m_adj), m_op - m_adj):
            candidate = cleaned(candidate)
            if candidate.is_zero:
                continue
            v = np.zeros(len(monomials), dtype=complex)
            for m, c in candidate.terms.items():
                v[index[m]] = c
            if span.try_add(v):
                out.append(as_skew(candidate))
    return out


def drift(spec) -> PolyOp:
    """The chain's always-on sum a_ij H_ij by PolyOp arithmetic, zero
    couplings skipped: the reference for ``chains.control_system``'s drift."""
    total = weyl.const(0.0, spec.n_modes)
    for i, j, a in spec.couplings:
        if a == 0.0:
            continue
        total = total + a * chains.coupling_hamiltonian(i, j, spec.omega, spec.n_modes)
    return weyl.as_hermitian(total)


def local_controls(spec):
    """Per-site control polynomials by PolyOp arithmetic: p plus q-powers up
    to the degree cap, as (label, hermitian PolyOp)."""
    out = []
    for site in spec.control_sites:
        qs = weyl.q(site, spec.n_modes)
        out.append((f"p{site + 1}", weyl.p(site, spec.n_modes)))
        power = weyl.const(1.0, spec.n_modes)
        for k in chains.DEFAULT_CONTROL_POWERS:
            if k > spec.control_degree_cap:
                break
            power = qs if k == 1 else power * qs
            label = f"q{site + 1}" + (f"^{k}" if k > 1 else "")
            out.append((label, weyl.as_hermitian(power)))
    return out


def control_system(spec):
    """``chains.control_system(spec)`` by PolyOp arithmetic: the drift, then
    each drift + control sum checked hermitian."""
    H0 = drift(spec)
    labels, hams = ["drift"], [H0]
    for label, ctrl in local_controls(spec):
        labels.append(f"drift+{label}")
        hams.append(weyl.as_hermitian(H0 + ctrl))
    return labels, hams


def per_edge_controllability(spec, degree_cap, dim_cap):
    """``chains.chain_controllability(...).to_dict()`` with one propagation
    check per edge it reaches: the local set at u and the coupling H_uv, both
    in the chain's n-mode frame, for edges with u < v and u > v alike.  Every
    closure is swept at ``degree_cap``; an edge's ``all_degrees`` is read from
    a second check at min(degree_cap, 3)."""
    adjacency = {m: [] for m in range(spec.n_modes)}
    for i, j in spec.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    site_dims = {}
    H0 = drift(spec)
    for site in spec.control_sites:
        one_site = chains.ChainSpec(spec.n_modes, spec.omega, spec.couplings, (site,),
                                    spec.control_degree_cap)
        gens = [weyl.skew_generator(ctrl) for _, ctrl in local_controls(one_site)]
        local_drift = PolyOp(spec.n_modes, {m: c for m, c in H0.terms.items()
                                            if all(a == b == 0 or s == site
                                                   for s, (a, b) in enumerate(m))})
        if not local_drift.is_zero:
            gens.append(weyl.skew_generator(weyl.as_hermitian(local_drift)))
        site_dims[site] = weyl.lie_closure(gens, degree_cap, dim_cap).dim
    visited, frontier, verdicts = set(spec.control_sites), list(spec.control_sites), []
    while frontier:
        u = frontier.pop(0)
        for v in sorted(adjacency[u]):
            if v in visited:
                continue
            result, low = (weyl.algebraic_propagation_check(
                weyl.local_skew_generators(u, spec.n_modes, cap),
                chains.coupling_hamiltonian(u, v, spec.omega, spec.n_modes), cap, dim_cap)
                for cap in (degree_cap, min(degree_cap, 3)))
            verdicts.append(chains.EdgeVerdict((u, v), result.verdict, result.closure.dim,
                                               len(result.missing), low.closure.all_degrees))
            if result.verdict == weyl.PROPAGATES:
                visited.add(v)
                frontier.append(v)
    unreachable = tuple(sorted(set(range(spec.n_modes)) - visited))
    return chains.ChainControllabilityReport(spec, degree_cap, verdicts, unreachable,
                                             site_dims).to_dict()


def polyop_propagation_check(local, coupling, degree_cap, dim_cap=256):
    """``weyl.algebraic_propagation_check`` through PolyOp arithmetic: each
    coupling bracket [X, -i*coupling] by ``weyl.bracket`` and cleaned, the
    closure by ``weyl.lie_closure``, and the pair's targets as PolyOps tested
    by ``contains_all``."""
    local_ops = list(local)
    coupling_skew = weyl.skew_generator(coupling)
    local_modes = set().union(*(X.support for X in local_ops))
    pair_modes = local_modes | coupling.support
    target_modes = tuple(sorted(pair_modes - local_modes))
    n = weyl.table_monomials(degree_cap, len(pair_modes))
    brackets = (cleaned(weyl.bracket(X, coupling_skew)) for X in local_ops)
    gens = local_ops + [b for b in brackets if not b.is_zero]
    closure = weyl.lie_closure(gens, degree_cap=degree_cap, dim_cap=dim_cap)
    if not target_modes:
        return weyl.PropagationResult(weyl.FAILS, closure, (), [])
    missing = []
    if closure.dim < n:
        targets = weyl.skew_monomial_generators(pair_modes, closure.mode_count, degree_cap)
        missing = [t for t, inside in zip(targets, contains_all(closure, targets)) if not inside]
    if not missing:
        verdict = weyl.PROPAGATES
    elif closure.saturated or not set(target_modes) & set().union(*(g.support for g in gens)):
        verdict = weyl.FAILS
    else:
        verdict = weyl.UNKNOWN
    return weyl.PropagationResult(verdict, closure, target_modes, missing)


def missing_one_by_one(closure, targets, tol=1e-8):
    """The targets outside a closure, each tested by its own projection: a
    term off the closure's monomials, or a normalized residual above tol."""
    index, Q = closure._index, closure._span._q[:closure.dim]
    out = []
    for t in targets:
        if any(m not in index for m in t.terms):
            out.append(t)
            continue
        v = np.zeros(len(index), dtype=complex)
        for m, c in t.terms.items():
            v[index[m]] = c
        u = np.concatenate([v.real, v.imag]) / np.linalg.norm(v)
        for _ in range(2):
            u = u - (u @ Q.T) @ Q
        if np.linalg.norm(u) > tol:
            out.append(t)
    return out
