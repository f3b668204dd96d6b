import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from recurq import fock, weyl
from recurq.weyl import PolyOp, as_hermitian, as_skew, bracket, canonicalize, q, p, const, skew_generator

from conftest import random_polyop, random_skew
from oracles import (interior_block, missing_one_by_one, monomial_bracket, p_matrix,
                     polyop_lie_closure, prefix_mono_product, q_matrix, reorder_poly,
                     sequential_targets, word_matrix)


def iq(m=1):
    return skew_generator(q(0, m))


def ip(m=1):
    return skew_generator(p(0, m))


def iq2(m=1):
    return skew_generator(as_hermitian(q(0, m) * q(0, m)))


def ip2(m=1):
    return skew_generator(as_hermitian(p(0, m) * p(0, m)))


# -- canonicalization ---------------------------------------------------------

def test_canonicalize_identity_case():
    out = canonicalize([([("q", 0), ("p", 0)], 1.0)], 1)
    assert out.terms == {((1, 1),): 1.0 + 0.0j}


def test_canonicalize_pq():
    out = canonicalize([([("p", 0), ("q", 0)], 1.0)], 1)
    assert out.isclose(q(0) * p(0) - const(1j), 1e-14)


def test_canonicalize_pq_squared():
    out = canonicalize([([("p", 0), ("q", 0), ("q", 0)], 1.0)], 1)
    expected = PolyOp(1, {((2, 1),): 1.0, ((1, 0),): -2j})
    assert out.isclose(expected, 1e-14)


def test_canonicalize_rejects_bad_mode():
    with pytest.raises(ValueError):
        canonicalize([([("q", 3)], 1.0)], 2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonicalize_matches_bruteforce_reordering(data):
    n_factors = data.draw(st.integers(1, 6))
    factors = [
        (data.draw(st.sampled_from(["q", "p"])), data.draw(st.integers(0, 1)))
        for _ in range(n_factors)
    ]
    coeff = complex(data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3)))
    ours = canonicalize([(factors, coeff)], 2)
    oracle = reorder_poly([(factors, coeff)], 2)
    assert ours.isclose(oracle, 1e-12)


def test_canonicalization_is_operator_identity(rng):
    # raw words and their canonical forms agree as matrices away from the cutoff
    spec = fock.TruncationSpec((24, 24), buffer=8)
    qs = [q_matrix(spec, 0), q_matrix(spec, 1)]
    ps = [p_matrix(spec, 0), p_matrix(spec, 1)]
    for _ in range(5):
        n_fac = int(rng.integers(1, 5))
        factors = [("q" if rng.random() < 0.5 else "p", int(rng.integers(0, 2)))
                   for _ in range(n_fac)]
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        raw_mat = word_matrix(factors, coeff, (qs, ps))
        canon = canonicalize([(factors, coeff)], 2)
        canon_mat = fock.represent(canon, spec).matrix
        diff = interior_block(raw_mat - canon_mat, spec)
        assert np.max(np.abs(diff)) < 1e-9


# -- adjoint -------------------------------------------------------------------

def test_adjoint_examples():
    qp = q(0) * p(0)
    assert qp.adjoint().isclose(qp - const(1j), 1e-14)
    q2 = as_hermitian(q(0) * q(0))
    assert q2.adjoint().isclose(q2, 1e-14)
    skew = PolyOp(1, {((1, 0),): 1j})
    assert skew.adjoint().isclose(-skew, 1e-14)


# one mode's exponents, unoccupied half the time
_EXPONENTS = st.one_of(st.just((0, 0)), st.tuples(st.integers(0, 4), st.integers(0, 4)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.tuples(*[_EXPONENTS] * n),
                                                     st.tuples(*[_EXPONENTS] * n))))
def test_mono_product_matches_the_prefix_product(pair):
    # same monomials in the same order, coefficients bit for bit (zero signs too)
    out, ref = weyl._mono_product(*pair), prefix_mono_product(*pair)
    assert list(out) == list(ref) and repr(out) == repr(ref)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_arithmetic_is_bit_identical_to_the_prefix_product(seed):
    gen = np.random.default_rng(seed)
    A, B = random_polyop(gen, 3, 4, 5), random_polyop(gen, 3, 4, 5)
    S, T = random_skew(gen, 2, 3), random_skew(gen, 2, 3)

    def results():
        return [A * B, B * A, A.adjoint(), B.adjoint(), bracket(A, B), bracket(S, T)]

    new = results()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weyl, "_mono_product", prefix_mono_product)
        old = results()
    assert [repr(X) for X in new] == [repr(X) for X in old]


def test_mono_product_is_linear_in_the_mode_count():
    # one contraction on 10 000 modes; the prefix product took seconds
    n = weyl.MAX_MODES
    m1, m2 = ((1, 1),) + ((0, 0),) * (n - 1), ((1, 0), (1, 0)) + ((0, 0),) * (n - 2)
    start = time.perf_counter()
    out = weyl._mono_product(m1, m2)
    assert time.perf_counter() - start < 0.2
    assert out == {((2, 1), (1, 0)) + ((0, 0),) * (n - 2): 1.0 + 0j,
                   ((1, 0), (1, 0)) + ((0, 0),) * (n - 2): -1j}


def test_closure_cost_does_not_grow_with_the_mode_count():
    # the cap-4 closure of two modes on 10 000 builds its 70 monomials' arrays
    # from their two support slots; full-width monomials took about 0.35 s
    texts = ["(0,1) * q1^2", "(0,1) * p1^2", "(0,1) * q1 q2"]
    small = weyl.lie_closure([PolyOp.from_text(t, 2) for t in texts], 4, 64)
    gens = [PolyOp.from_text(t, weyl.MAX_MODES) for t in texts]
    start = time.perf_counter()
    wide = weyl.lie_closure(gens, 4, 64)
    assert time.perf_counter() - start < 0.15
    assert [b.to_text() for b in wide.basis] == [b.to_text() for b in small.basis]


@pytest.mark.parametrize("mode_count, support, cap", [
    (1, [0], 6), (3, [2, 0], 3), (6, [4, 1], 4), (5, [3], 0)])
def test_monomial_order_is_the_full_width_order(mode_count, support, cap):
    monomials, slots, E = weyl._monomial_table(mode_count, support, cap)
    assert monomials == sorted(monomials, key=lambda m: (weyl.mono_degree(m), m))
    assert slots == sorted(support)
    full = np.array(monomials, dtype=np.int64).reshape(len(monomials), mode_count, 2)
    assert np.array_equal(E, full[:, slots].reshape(len(monomials), -1))
    assert len(monomials) == math.comb(2 * len(slots) + cap, cap)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_adjoint_involution(seed):
    A = random_polyop(np.random.default_rng(seed))
    assert A.adjoint().adjoint().isclose(A, 1e-12)


# -- bracket -------------------------------------------------------------------

def test_bracket_ccr():
    assert bracket(q(0), p(0)).terms == {((0, 0),): 1j}


def test_bracket_leibniz_example():
    assert bracket(q(0) * q(0), p(0)).isclose(2j * q(0), 1e-14)


def test_bracket_q2_p2():
    got = bracket(q(0) * q(0), p(0) * p(0))
    expected = 2j * (q(0) * p(0) + p(0) * q(0))
    assert got.isclose(expected, 1e-14)


def test_bracket_mode_mismatch():
    with pytest.raises(ValueError):
        bracket(q(0, 1), q(0, 2))


def test_bracket_antisymmetry_exact(rng):
    for _ in range(50):
        A, B = random_polyop(rng), random_polyop(rng)
        ab, ba = bracket(A, B), bracket(B, A)
        assert ab.terms.keys() == ba.terms.keys()
        for mono, c in ab.terms.items():
            assert ba.terms[mono] == -c  # float-exact by construction


def test_jacobi_identity(rng):
    for _ in range(25):
        A, B, C = (random_polyop(rng, max_degree=3) for _ in range(3))
        total = (bracket(A, bracket(B, C)) + bracket(B, bracket(C, A))
                 + bracket(C, bracket(A, B)))
        scale = max(A.coefficient_norm() * B.coefficient_norm() * C.coefficient_norm(), 1.0)
        assert total.coefficient_norm() <= 1e-10 * scale


def test_bracket_grading(rng):
    for _ in range(30):
        A, B = random_polyop(rng), random_polyop(rng)
        out = bracket(A, B).cleaned(1e-12)
        if not out.is_zero:
            assert out.degree <= A.degree + B.degree - 2


def test_bracket_skew_role_propagates(rng):
    A, B = random_skew(rng), random_skew(rng)
    out = bracket(A, B)
    assert out.role == weyl.SKEW


# -- closures ------------------------------------------------------------------

def test_closure_heisenberg():
    basis = weyl.lie_closure([iq(), ip()], 6, 64)
    assert basis.dim == 3 and basis.saturated
    assert basis.contains(skew_generator(const(1.0)))


def test_closure_quadratic():
    basis = weyl.lie_closure([iq2(), ip2()], 6, 64)
    assert basis.dim == 3 and basis.saturated
    sym = as_hermitian(q(0) * p(0) + p(0) * q(0))
    assert basis.contains(skew_generator(sym))


def test_closure_quadratic_plus_linear():
    basis = weyl.lie_closure([iq2(), ip2(), iq()], 6, 64)
    assert basis.dim == 6 and basis.saturated
    for H in (q(0), p(0), const(1.0), as_hermitian(q(0) * p(0) + p(0) * q(0))):
        assert basis.contains(skew_generator(as_hermitian(H)))


def test_closure_cubic_hits_degree_cap():
    iq3 = skew_generator(as_hermitian(q(0) * q(0) * q(0)))
    basis = weyl.lie_closure([iq3, ip2()], 6, 64)
    assert not basis.saturated and basis.degree_capped
    assert not basis.dim_capped and basis.dim == 28


def test_closure_dim_cap_flag():
    iq3 = skew_generator(as_hermitian(q(0) * q(0) * q(0)))
    basis = weyl.lie_closure([iq3, ip2()], 8, 10)
    assert basis.dim_capped and not basis.saturated
    assert not basis.degree_capped and basis.dim == 10


def test_closure_rejects_bad_input():
    with pytest.raises(ValueError):
        weyl.lie_closure([], 6, 64)
    with pytest.raises(ValueError):
        weyl.lie_closure([q(0)], 6, 64)  # hermitian, not skew


def test_closure_idempotence():
    basis = weyl.lie_closure([iq2(), ip2(), iq()], 6, 64)
    again = weyl.lie_closure(basis.basis, 6, 64)
    assert again.dim == basis.dim
    assert all(basis.contains(x) for x in again.basis)
    assert all(again.contains(x) for x in basis.basis)


def test_closure_brackets_close_in_span(rng):
    # saturation means every pairwise bracket of basis elements stays in span
    basis = weyl.lie_closure([iq2(), ip2(), iq()], 6, 64)
    assert basis.saturated
    for A in basis.basis:
        for B in basis.basis:
            out = bracket(A, B).cleaned()
            if not out.is_zero:
                assert basis.contains(as_skew(out))


def _table_entries(table):
    """{(i, j): {monomial: coeff}} of every nonzero table entry."""
    coo = table.S.tocoo()
    rows, cols = np.divmod(coo.row, table.n_ext)
    out: dict = {}
    for i, col, j, c in zip(rows, cols, coo.col, coo.data):
        out.setdefault((int(i), int(j)), {})[table.columns[col]] = c
    return out


@pytest.mark.parametrize("mode_count, cap, n_pairs", [
    (1, 6, None), (2, 3, None), (2, 5, 200), (3, 3, 200)])
def test_structure_table_matches_reordering_oracle(mode_count, cap, n_pairs):
    monomials, slots, E = weyl._monomial_table(mode_count, range(mode_count), cap)
    n = len(monomials)
    table = weyl._StructureTensor(monomials, slots, E)
    assert table.columns[:n] == tuple(monomials)
    assert all(weyl.mono_degree(m) > cap for m in table.columns[n:])
    assert len(set(table.columns)) == table.n_ext
    entries = _table_entries(table)
    if n_pairs is None:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    else:
        rng = np.random.default_rng(1000 * mode_count + cap)
        pairs = [tuple(int(k) for k in rng.integers(0, n, 2)) for _ in range(n_pairs)]
    for i, j in pairs:
        expected = monomial_bracket(monomials[i], monomials[j], mode_count).terms
        assert entries.get((i, j), {}) == expected, (monomials[i], monomials[j])


@pytest.mark.parametrize("mode_count, cap", [(1, 10), (2, 4), (2, 6)])
def test_restricted_product_is_csr_product_bit_for_bit(mode_count, cap):
    table = weyl._StructureTensor(*weyl._monomial_table(mode_count, range(mode_count), cap))
    n, n_ext = table.n, table.n_ext
    # the row-major table CSR S @ y reads, built from the same entries
    coo = table.S.tocoo()
    csr = sp.csr_matrix((coo.data, (coo.row, coo.col)), shape=coo.shape)
    rng = np.random.default_rng(100 * mode_count + cap)
    for trial in range(60):
        y = np.zeros(n, dtype=complex)
        picks = rng.choice(n, size=int(rng.integers(1, 12)), replace=False)
        y[picks] = rng.standard_normal(picks.size) + 1j * rng.standard_normal(picks.size)
        y[picks[:2]] *= 10.0 ** rng.uniform(-3, 3, size=min(2, picks.size))
        top = np.abs(y).max()
        # entries about the _drop_tiny floor, on both sides, and signed zero parts
        near = picks[2:6]
        phase = np.exp(2j * rng.uniform(0, np.pi, near.size))
        y[near] = top * 1e-13 * rng.uniform(0.5, 1.5, near.size) * phase
        if trial % 3 == 0:
            y[picks[-1]] = complex(-0.0, y[picks[-1]].imag)
        for v in (y, weyl._drop_tiny(y)):
            dense = (csr @ v).reshape(n, n_ext)
            cols = np.flatnonzero(dense.any(axis=0))
            My, got = table.product(v)
            assert np.array_equal(got, cols)
            assert np.array_equal(np.ascontiguousarray(My).view(np.int64),
                                  np.ascontiguousarray(dense[:, cols]).view(np.int64))


def test_stored_rows_match_their_stack_forms(rng):
    # each added vector is stored once, in the forms bracket_rows took from
    # the stack of the span's vectors
    V = rng.standard_normal((30, 70)) + 1j * rng.standard_normal((30, 70))
    V[:, ::3] *= 1e-13 * rng.uniform(0.5, 1.5, (30, 24))
    stored = weyl._RealSpan(70, 40)
    assert all(stored.try_add(v) for v in V)
    assert stored.dim == 30
    V = stored.vecs
    X = weyl._drop_tiny(V)
    assert 0 < np.count_nonzero(X == 0) < 30 * 24
    assert stored.x[:30].tobytes() == X.tobytes()
    assert stored.mag[:30].tobytes() == np.abs(X).tobytes()
    assert stored.norm_row[:30].tobytes() == np.linalg.norm(X, axis=1).tobytes()
    assert stored.norm_vec[:30].tolist() == [np.linalg.norm(weyl._drop_tiny(v)) for v in V]


def _record_brackets(monkeypatch):
    """Per bracket_rows call, the closure span's dim and whether an earlier
    call of the closure flagged an overflow."""
    spans, calls, seen = [], [], [False]
    span_init = weyl._RealSpan.__init__

    def init(self, *args):
        span_init(self, *args)
        spans.append(self)

    bracket_rows = weyl._StructureTensor.bracket_rows

    def counted(self, rows, i):
        calls.append((spans[-1].dim, seen[0]))
        R, over = bracket_rows(self, rows, i)
        seen[0] |= bool(over.any())
        return R, over

    monkeypatch.setattr(weyl._RealSpan, "__init__", init)
    monkeypatch.setattr(weyl._StructureTensor, "bracket_rows", counted)
    return calls


def _edge_generators(cap):
    from recurq.chains import coupling_hamiltonian
    local = weyl.local_skew_generators(0, 2, cap)
    coupling = skew_generator(coupling_hamiltonian(0, 1, 1.3, 2))
    return local + [b for b in (bracket(X, coupling).cleaned() for X in local) if not b.is_zero]


@pytest.mark.parametrize("case", ["1-mode cap 8", "edge cap 3", "edge cap 4"])
def test_sweep_stops_once_the_space_is_full_and_capped(case, monkeypatch):
    iq3 = skew_generator(as_hermitian(q(0) * q(0) * q(0)))
    gens, modes, cap = {"1-mode cap 8": ([iq(), ip2(), iq3], 1, 8),
                        "edge cap 3": (_edge_generators(3), 2, 3),
                        "edge cap 4": (_edge_generators(4), 2, 4)}[case]
    n = len(weyl.enumerate_monomials(modes, range(modes), cap))
    calls = _record_brackets(monkeypatch)
    basis = weyl.lie_closure(gens, cap, 256)
    assert basis.dim == n and basis.degree_capped
    assert not basis.dim_capped and not basis.saturated
    # no bracket once the span is full with the flag set, and that ends the
    # sweep before element dim - 1 has been bracketed
    assert calls and not any(dim == n and over for dim, over in calls)
    assert len(calls) < basis.dim - 1
    if cap <= 3 or modes == 1:
        # the table-free sweep without a stop rule: same dim, flags and span
        span, over = polyop_lie_closure(gens, cap, 256)
        assert (span.dim, over, span.capped) == (basis.dim, True, False)
        assert basis._span.residuals(span.vecs).max() < 1e-8
        assert span.residuals(basis._span.vecs).max() < 1e-8


def test_quadratic_algebra_fills_its_space_and_stays_saturated(monkeypatch):
    gens = [iq(), ip(), iq2(), ip2()]
    calls = _record_brackets(monkeypatch)
    basis = weyl.lie_closure(gens, 2, 64)
    assert basis.dim == 6 == len(weyl.enumerate_monomials(1, [0], 2))
    assert basis.saturated and not basis.degree_capped and not basis.dim_capped
    # a full space with no overflow does not stop the sweep
    assert len(calls) == basis.dim - 1
    span, over = polyop_lie_closure(gens, 2, 64)
    assert (span.dim, over, span.capped) == (6, False, False)


# -- contains ------------------------------------------------------------------

def test_contains_rejects_higher_degree():
    basis = weyl.lie_closure([iq2(), ip2()], 6, 64)
    iq3 = skew_generator(as_hermitian(q(0) * q(0) * q(0)))
    assert not basis.contains(iq3)


def test_contains_generators_always():
    gens = [iq2(), ip2(), iq()]
    basis = weyl.lie_closure(gens, 6, 64)
    for g in gens:
        assert weyl.contains(basis, g)


def test_contains_requires_skew():
    basis = weyl.lie_closure([iq(), ip()], 6, 64)
    with pytest.raises(ValueError):
        weyl.contains(basis, q(0))


# -- propagation criterion ------------------------------------------------------

def _coupling(omega):
    from recurq.chains import coupling_hamiltonian
    return coupling_hamiltonian(0, 1, omega, 2)


def test_propagation_two_mode_chain():
    local = weyl.local_skew_generators(0, 2, 3)
    res = weyl.algebraic_propagation_check(local, _coupling(1.0), degree_cap=3,
                                           dim_cap=128)
    assert res.propagates
    assert res.closure.contains(skew_generator(q(1, 2)))
    assert res.closure.contains(skew_generator(as_hermitian(q(1, 2) * q(1, 2))))


def test_propagation_zero_coupling():
    local = weyl.local_skew_generators(0, 2, 3)
    zero = as_hermitian(const(0.0, 2))
    res = weyl.algebraic_propagation_check(local, zero, 3, 128)
    assert res.verdict == weyl.FAILS
    assert res.closure.dim == len(local)


def test_propagation_quadratic_free_local_fails():
    heis = [skew_generator(q(0, 2)), skew_generator(p(0, 2)),
            skew_generator(const(1.0, 2))]
    res = weyl.algebraic_propagation_check(heis, _coupling(1.0), 3, 128)
    # linear generators bracket to linear: the pair algebra is provably missed
    assert res.verdict == weyl.FAILS
    assert res.closure.saturated


# -- textual round trip -----------------------------------------------------------

def test_text_roundtrip(rng):
    for _ in range(20):
        A = random_polyop(rng)
        back = PolyOp.from_text(A.to_text(), A.mode_count)
        assert back.isclose(A, 1e-12)


def test_local_generator_count():
    gens = weyl.local_skew_generators(0, 1, 4)
    assert len(gens) == len(weyl.enumerate_monomials(1, [0], 4))


# -- propagation targets as vectors -------------------------------------------------

@pytest.mark.parametrize("mode_count", [1, 2, 3])
@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5, 6])
def test_targets_match_sequential_reduction(mode_count, cap):
    modes = range(mode_count)
    old = sequential_targets(modes, mode_count, cap)
    new = weyl.skew_monomial_generators(modes, mode_count, cap)
    assert len(new) == len(weyl.enumerate_monomials(mode_count, modes, cap))
    # term for term, down to the sign of zero parts
    assert [repr(sorted(t.terms.items())) for t in new] == \
        [repr(sorted(t.terms.items())) for t in old]
    assert all(t.role == weyl.SKEW for t in new)


def _outside(closure, targets):
    """The targets that batched membership puts outside the closure."""
    return [t for t, inside in zip(targets, closure.contains_all(targets)) if not inside]


def _edge_check(n_modes, omega, edge, cap):
    from recurq.chains import coupling_hamiltonian
    u, v = edge
    local = weyl.local_skew_generators(u, n_modes, cap)
    coupling = coupling_hamiltonian(u, v, omega, n_modes)
    return weyl.algebraic_propagation_check(local, coupling, cap, 256), (u, v)


# every edge kind of the closure-chains benchmark: 2-mode chains at caps 3 and 4,
# the 3-mode chain at cap 3, the criterion-9 chain and the omega-0 chains
@pytest.mark.parametrize("n_modes, omega, edge, cap", [
    (2, 0.8, (0, 1), 3), (2, 1.3, (0, 1), 4), (3, 0.7, (0, 1), 3), (3, 0.7, (1, 2), 3),
    (3, 1.0, (0, 1), 4), (3, 1.0, (1, 2), 4), (2, 0.0, (0, 1), 4), (3, 0.0, (0, 1), 4)])
def test_batched_membership_matches_per_target(n_modes, omega, edge, cap):
    res, pair = _edge_check(n_modes, omega, edge, cap)
    targets = weyl.skew_monomial_generators(pair, n_modes, cap)
    assert res.missing == missing_one_by_one(res.closure, targets)
    assert _outside(res.closure, targets) == res.missing
    assert res.verdict == (weyl.FAILS if omega == 0.0 else weyl.PROPAGATES)


def test_batched_membership_matches_per_target_zero_and_heisenberg():
    zero = as_hermitian(const(0.0, 2))
    heis = [skew_generator(q(0, 2)), skew_generator(p(0, 2)), skew_generator(const(1.0, 2))]
    targets = weyl.skew_monomial_generators((0, 1), 2, 3)
    # with no coupling the pair is mode 0 alone and the check names no target;
    # the mode-1 targets lie off the closure's monomial index
    res = weyl.algebraic_propagation_check(weyl.local_skew_generators(0, 2, 3), zero, 3, 128)
    assert res.verdict == weyl.FAILS and not res.missing
    outside = _outside(res.closure, targets)
    assert outside and outside == missing_one_by_one(res.closure, targets)
    res = weyl.algebraic_propagation_check(heis, _coupling(1.0), 3, 128)
    assert res.missing and res.missing == missing_one_by_one(res.closure, targets)


# omega 0.28238592672119756 at cap 6: a genuine direction accepted with
# residual 3.2e-8 leaves ~1e-8 of rounding in its q row, so with the controls
# on mode 1 the full closure's projection misses the target q1^6 by 1.3e-8
@pytest.mark.parametrize("omega, cap, dim_cap", [
    (omega, cap, dim_cap) for omega in (0.0, 0.5, 1.3) for cap in range(1, 6)
    for dim_cap in (8, 64, 256)] + [
    (omega, 6, dim_cap) for omega in (0.5, 0.28238592672119756) for dim_cap in (8, 64)] + [
    (0.28238592672119756, 6, 256)])
def test_propagation_check_is_the_same_from_either_mode(omega, cap, dim_cap):
    coupling = _coupling(omega)
    left, right = (weyl.algebraic_propagation_check(weyl.local_skew_generators(mode, 2, cap),
                                                    coupling, cap, dim_cap) for mode in (0, 1))
    assert left.target_modes == (1,) and right.target_modes == (0,)
    summary = [(res.verdict, res.closure.dim, len(res.missing), res.closure.saturated,
                res.closure.degree_capped, res.closure.dim_capped) for res in (left, right)]
    assert summary[0] == summary[1]


def test_propagation_check_tests_the_coupling_once(monkeypatch):
    local, coupling = weyl.local_skew_generators(0, 2, 3), _coupling(1.0)
    calls, check = [], weyl.is_hermitian
    monkeypatch.setattr(weyl, "is_hermitian", lambda A: calls.append(A) or check(A))
    assert weyl.algebraic_propagation_check(local, coupling, 3, 128).propagates
    assert calls == [coupling]
    skew = skew_generator(_coupling(1.0))
    with pytest.raises(ValueError, match="hermitian"):
        weyl.algebraic_propagation_check(local, skew, 3, 128)
    zero = weyl.const(0.0, 2)
    assert weyl.algebraic_propagation_check(local, zero, 3, 128).verdict == weyl.FAILS


def test_propagation_check_refuses_a_cap_before_any_bracket(monkeypatch):
    brackets = []
    monkeypatch.setattr(weyl, "bracket", lambda A, B: brackets.append((A, B)))
    local = weyl.local_skew_generators(0, 2, weyl.MAX_DEGREE_CAP)
    with pytest.raises(weyl.CapError, match="4845 monomials"):
        weyl.algebraic_propagation_check(local, _coupling(1.0), weyl.MAX_DEGREE_CAP)
    assert brackets == []


def test_internal_arithmetic_is_canonical(rng):
    # every result of the module's own arithmetic is a fixed point of PolyOp(...):
    # same terms, bit for bit and in order, and the same role
    ops = []
    for _ in range(30):
        A, B = random_polyop(rng), random_polyop(rng)
        S, T = random_skew(rng, 2, 3), random_skew(rng, 2, 3)
        ops += [A + B, A - B, A * B, (2.5 - 1j) * A, A * 3, -A, A.adjoint(), A.cleaned(0.5),
                bracket(A, B), bracket(S, T), as_skew(S), as_hermitian(A + A.adjoint()),
                skew_generator(as_hermitian(B * B.adjoint()))]
    basis = weyl.lie_closure([iq2(2), ip2(2), skew_generator(q(1, 2) * q(0, 2))], 4, 64)
    ops += basis.basis + weyl.skew_monomial_generators((0, 1), 2, 4)
    for X in ops:
        ref = PolyOp(X.mode_count, X.terms, X.role)
        assert repr(X.terms) == repr(ref.terms) and X.role == ref.role


def test_skew_check_rejects_non_skew_generator():
    almost = PolyOp(1, {((2, 0),): 1j, ((1, 1),): 1e-6})
    with pytest.raises(ValueError, match="must be skew-hermitian"):
        weyl.lie_closure([iq(), almost], 4, 64)


def test_closure_names_the_generator_it_refuses():
    # the first generator refused, by index: degree before skewness
    almost = PolyOp(1, {((2, 0),): 1j, ((1, 1),): 1e-6})
    with pytest.raises(weyl.GeneratorError, match="must be skew-hermitian") as info:
        weyl.lie_closure([iq(), ip(), almost, almost], 4, 64)
    assert info.value.index == 2 and not isinstance(info.value, weyl.CapError)
    cubic = skew_generator(as_hermitian(q(0) * q(0) * q(0)))
    with pytest.raises(weyl.GeneratorCapError, match="generator degree 3") as info:
        weyl.lie_closure([almost, iq(), cubic], 2, 64)
    assert info.value.index == 2 and isinstance(info.value, weyl.CapError)


def test_closure_rejects_caps_the_table_cannot_represent():
    with pytest.raises(weyl.CapError, match="generator degree 3 exceeds degree_cap 2"):
        weyl.lie_closure([skew_generator(as_hermitian(q(0) * q(0) * q(0)))], 2, 64)
    with pytest.raises(weyl.CapError, match="exact structure constants"):
        weyl.lie_closure([iq()], weyl.MAX_DEGREE_CAP + 1, 64)
    # 2 modes at cap 9: 715 monomials
    with pytest.raises(weyl.CapError, match="715 monomials"):
        weyl.lie_closure([iq(2), skew_generator(q(1, 2))], 9, 64)
    assert weyl.lie_closure([iq(2), skew_generator(q(1, 2))], 8, 4).dim == 2


def test_largest_accepted_tables_fit_the_budget():
    # the largest cap each support size accepts; 2 modes at cap 8 (495
    # monomials) is the most expensive table the limits admit
    for mode_count in (1, 2, 3, 4):
        cap = max(c for c in range(1, weyl.MAX_DEGREE_CAP + 1)
                  if math.comb(2 * mode_count + c, c) <= weyl.TABLE_MONOMIALS)
        table = weyl._monomial_table(mode_count, range(mode_count), cap)
        tracemalloc.start()
        try:
            weyl._StructureTensor(*table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < weyl.TABLE_BUDGET_MB * 1e6, (mode_count, cap, peak)
