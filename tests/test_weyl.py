import functools
import math
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from recurq import chains, fock, weyl
from recurq.weyl import PolyOp, as_hermitian, bracket, q, p, const, skew_generator

from conftest import random_polyop, random_skew
from oracles import (as_skew, cleaned, contains_all, interior_block, isclose,
                     missing_one_by_one, monomial_bracket, p_matrix, polyop_lie_closure,
                     polyop_propagation_check, prefix_mono_product, q_matrix, reorder_poly,
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

def word(factors, coeff, mode_count):
    """coeff times the factor word in operator order, as a PolyOp product."""
    out = const(coeff, mode_count)
    for kind, mode in factors:
        out = out * (q if kind == "q" else p)(mode, mode_count)
    return out


def test_canonicalize_identity_case():
    assert (q(0) * p(0)).terms == {((1, 1),): 1.0 + 0.0j}


def test_canonicalize_pq():
    assert isclose(p(0) * q(0), q(0) * p(0) - const(1j), 1e-14)


def test_canonicalize_pq_squared():
    expected = PolyOp(1, {((2, 1),): 1.0, ((1, 0),): -2j})
    assert isclose(p(0) * q(0) * q(0), expected, 1e-14)


def test_canonicalize_rejects_bad_mode():
    with pytest.raises(ValueError):
        q(3, 2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonicalize_matches_bruteforce_reordering(data):
    n_factors = data.draw(st.integers(1, 6))
    factors = [
        (data.draw(st.sampled_from(["q", "p"])), data.draw(st.integers(0, 1)))
        for _ in range(n_factors)
    ]
    coeff = complex(data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3)))
    ours = word(factors, coeff, 2)
    oracle = reorder_poly([(factors, coeff)], 2)
    assert isclose(ours, oracle, 1e-12)


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
        canon = word(factors, coeff, 2)
        canon_mat = fock.represent(canon, spec).toarray()
        diff = interior_block(raw_mat - canon_mat, spec)
        assert np.max(np.abs(diff)) < 1e-9


# -- adjoint -------------------------------------------------------------------

def test_adjoint_examples():
    qp = q(0) * p(0)
    assert isclose(qp.adjoint(), qp - const(1j), 1e-14)
    q2 = as_hermitian(q(0) * q(0))
    assert isclose(q2.adjoint(), q2, 1e-14)
    skew = PolyOp(1, {((1, 0),): 1j})
    assert isclose(skew.adjoint(), -skew, 1e-14)


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
    monomials, slots = weyl._monomial_table(mode_count, support, cap)
    assert monomials == sorted(monomials, key=lambda m: (weyl.mono_degree(m), m))
    assert slots == sorted(support)
    full = np.array(monomials, dtype=np.int64).reshape(len(monomials), mode_count, 2)
    E = np.array(weyl._exponent_rows(len(slots), cap), dtype=np.int64)
    assert np.array_equal(E, full[:, slots].reshape(len(monomials), -1))
    assert len(monomials) == math.comb(2 * len(slots) + cap, cap)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_adjoint_involution(seed):
    A = random_polyop(np.random.default_rng(seed))
    assert isclose(A.adjoint().adjoint(), A, 1e-12)


# -- bracket -------------------------------------------------------------------

def test_bracket_ccr():
    assert bracket(q(0), p(0)).terms == {((0, 0),): 1j}


def test_bracket_leibniz_example():
    assert isclose(bracket(q(0) * q(0), p(0)), 2j * q(0), 1e-14)


def test_bracket_q2_p2():
    got = bracket(q(0) * q(0), p(0) * p(0))
    expected = 2j * (q(0) * p(0) + p(0) * q(0))
    assert isclose(got, expected, 1e-14)


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
        out = cleaned(bracket(A, B), 1e-12)
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
    assert contains_all(basis, [skew_generator(const(1.0))])


def test_closure_quadratic():
    basis = weyl.lie_closure([iq2(), ip2()], 6, 64)
    assert basis.dim == 3 and basis.saturated
    sym = as_hermitian(q(0) * p(0) + p(0) * q(0))
    assert contains_all(basis, [skew_generator(sym)])


def test_closure_quadratic_plus_linear():
    basis = weyl.lie_closure([iq2(), ip2(), iq()], 6, 64)
    assert basis.dim == 6 and basis.saturated
    Hs = (q(0), p(0), const(1.0), as_hermitian(q(0) * p(0) + p(0) * q(0)))
    assert contains_all(basis, [skew_generator(as_hermitian(H)) for H in Hs]).all()


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
    assert contains_all(basis, again.basis).all()
    assert contains_all(again, basis.basis).all()


def test_closure_brackets_close_in_span(rng):
    # saturation means every pairwise bracket of basis elements stays in span
    basis = weyl.lie_closure([iq2(), ip2(), iq()], 6, 64)
    assert basis.saturated
    for A in basis.basis:
        for B in basis.basis:
            out = cleaned(bracket(A, B))
            if not out.is_zero:
                assert contains_all(basis, [as_skew(out)])


def _table_entries(table, columns):
    """{(i, j): {monomial: coeff}} of every nonzero table entry, its columns
    named by ``columns``."""
    coo = table.S.tocoo()
    rows, cols = np.divmod(coo.row, table.n_ext)
    out: dict = {}
    for i, col, j, c in zip(rows, cols, coo.col, coo.data):
        out.setdefault((int(i), int(j)), {})[columns[col]] = c
    return out


def _check_table_against_oracle(mode_count, support, cap, n_pairs):
    monomials, slots = weyl._monomial_table(mode_count, support, cap)
    n = len(monomials)
    table = weyl._structure_constants(len(slots), cap)
    # the cached overflow rows, embedded on this support's own modes
    overflow = tuple(weyl._embed(row, slots, mode_count) for row in table.overflow.tolist())
    assert table.n == n and table.n_ext == n + len(overflow)
    assert all(weyl.mono_degree(m) > cap for m in overflow)
    columns = tuple(monomials) + overflow
    assert len(set(columns)) == table.n_ext
    entries = _table_entries(table, columns)
    if n_pairs is None:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    else:
        rng = np.random.default_rng(1000 * mode_count + cap)
        pairs = [tuple(int(k) for k in rng.integers(0, n, 2)) for _ in range(n_pairs)]
    for i, j in pairs:
        expected = monomial_bracket(monomials[i], monomials[j], mode_count).terms
        assert entries.get((i, j), {}) == expected, (monomials[i], monomials[j])


@pytest.mark.parametrize("mode_count, cap, n_pairs", [
    (1, 6, None), (2, 3, None), (2, 5, 200), (3, 3, 200)])
def test_structure_table_matches_reordering_oracle(mode_count, cap, n_pairs):
    _check_table_against_oracle(mode_count, range(mode_count), cap, n_pairs)


@pytest.mark.parametrize("mode_count, support, cap", [(4, [1, 3], 3), (5, [4, 0, 2], 2)])
def test_cached_table_on_spread_support_matches_reordering_oracle(mode_count, support, cap):
    # the table of as many leading modes is built first, so the spread support
    # reads its cached arrays and only embeds the overflow rows on its own modes
    weyl._structure_constants(len(support), cap)
    misses = weyl._structure_constants.cache_info().misses
    _check_table_against_oracle(mode_count, support, cap, None)
    assert weyl._structure_constants.cache_info().misses == misses


def _closure_summary(basis):
    return (basis.dim, basis.saturated, basis.degree_capped, basis.dim_capped,
            [b.to_text() for b in basis.basis], basis._span.x[:basis.dim].tobytes())


def test_closures_of_one_slot_count_and_cap_share_one_table():
    # modes {1, 3} of four and modes {0, 1} of two: the same (2, 4) entry, and
    # the same coordinates over it
    weyl._structure_constants.cache_clear()
    wide = weyl.lie_closure([PolyOp.from_text(t, 4) for t in
                             ("(0,1) * q2^2", "(0,1) * p4^2", "(0,1) * q2 q4")], 4, 64)
    narrow = weyl.lie_closure([PolyOp.from_text(t, 2) for t in
                               ("(0,1) * q1^2", "(0,1) * p2^2", "(0,1) * q1 q2")], 4, 64)
    info = weyl._structure_constants.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    assert _closure_summary(wide)[:4] == _closure_summary(narrow)[:4]
    assert wide._span.x[:wide.dim].tobytes() == narrow._span.x[:narrow.dim].tobytes()


def test_cold_and_cached_runs_agree_bit_for_bit():
    # a coupling that commutes with the local algebra: the verdict fails and
    # names its missing targets, read from the cached adjoint map
    runs = []
    for clear in (True, False):
        if clear:
            weyl._structure_constants.cache_clear()
        res = weyl.algebraic_propagation_check(weyl.local_skew_generators(0, 2, 3),
                                               q(1, 2), 3, 256)
        runs.append((res.verdict, [t.to_text() for t in res.missing],
                     _closure_summary(res.closure),
                     _closure_summary(weyl.lie_closure(_edge_generators(3), 3, 256))))
    assert weyl._structure_constants.cache_info().misses == 2  # keys (1, 3) and (2, 3)
    assert runs[0] == runs[1] and runs[0][0] == weyl.FAILS and runs[0][1]


def test_cached_arrays_are_read_only():
    entry = weyl._structure_constants(2, 4)
    assert weyl._structure_constants(2, 4) is entry
    arrays = [entry.N, entry.overflow] + [
        part for m in (entry.adjoint, entry.targets, entry.S)
        for part in (m.data, m.indices, m.indptr)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_a_refused_key_holds_no_table():
    # skew_monomial_generators takes any support; the 924 monomials of three
    # modes at cap 6 are past TABLE_MONOMIALS, so only the adjoint map is kept
    assert len(weyl.skew_monomial_generators(range(3), 3, 6)) == 924
    entry = weyl._structure_constants(3, 6)
    assert entry.adjoint.shape == entry.targets.shape == (924, 924)
    assert entry.S is None and entry.N is None and entry.overflow is None


def test_threads_closing_at_one_key_match_the_serial_results():
    # more workers than cores race on one cold (2, 4) entry
    sets = [_edge_generators(4),
            [iq2(2), ip2(2), skew_generator(q(1, 2) * q(0, 2))],
            [iq(2), skew_generator(p(1, 2)), skew_generator(as_hermitian(q(1, 2) * q(1, 2)))],
            [PolyOp.from_text(t, 4) for t in ("(0,1) * q2^2", "(0,1) * p4^2", "(0,1) * q2 q4")]]

    def close(gens):
        return _closure_summary(weyl.lie_closure(gens, 4, 256))

    serial = [close(g) for g in sets]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            weyl._structure_constants.cache_clear()
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(close, g) for g in sets]
                assert [f.result(timeout=120) for f in futures] == serial
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize("mode_count, cap", [(1, 10), (2, 4), (2, 6)])
def test_restricted_product_is_csr_product_bit_for_bit(mode_count, cap):
    table = weyl._structure_constants(mode_count, cap)
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
    # each added vector is stored once, normalized and pruned, with the |x|
    # and ||x|| that bracket_rows takes from the stack of the span's rows
    V = rng.standard_normal((30, 70)) + 1j * rng.standard_normal((30, 70))
    V[:, ::3] *= 1e-13 * rng.uniform(0.5, 1.5, (30, 24))
    stored = weyl._RealSpan(70, 40)
    assert all(stored.try_add(v) for v in V)
    assert stored.dim == 30
    X = weyl._drop_tiny(np.array([v / np.linalg.norm(v) for v in V]))
    assert 0 < np.count_nonzero(X == 0) < 30 * 24
    assert stored.x[:30].tobytes() == X.tobytes()
    assert stored.mag[:30].tobytes() == np.abs(X).tobytes()
    assert stored.norm_row[:30].tobytes() == np.linalg.norm(X, axis=1).tobytes()


def _record_brackets(monkeypatch):
    """Per bracket_rows call, the closure span's dim and whether an earlier
    call of the closure flagged an overflow."""
    spans, calls, seen = [], [], [False]
    span_init = weyl._RealSpan.__init__

    def init(self, *args):
        span_init(self, *args)
        spans.append(self)

    bracket_rows = weyl._Constants.bracket_rows

    def counted(self, rows, i):
        calls.append((spans[-1].dim, seen[0]))
        R, over = bracket_rows(self, rows, i)
        seen[0] |= bool(over.any())
        return R, over

    monkeypatch.setattr(weyl._RealSpan, "__init__", init)
    monkeypatch.setattr(weyl._Constants, "bracket_rows", counted)
    return calls


def _edge_generators(cap):
    from recurq.chains import coupling_hamiltonian
    local = weyl.local_skew_generators(0, 2, cap)
    coupling = skew_generator(coupling_hamiltonian(0, 1, 1.3, 2))
    return local + [b for b in (cleaned(bracket(X, coupling)) for X in local) if not b.is_zero]


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
        assert basis._span.residuals(span.x[:span.dim]).max() < 1e-8
        assert span.residuals(basis._span.x[:basis.dim]).max() < 1e-8


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
    # below cap 3 the span holds no cubic
    assert not basis.all_degrees


# a 1-mode set that passes is_skew_hermitian, whose sweep counted 46
# directions in the 45 of cap 8 and 67 in the 66 of cap 10: try_add's r/|r|
# amplifies the rounding of a direction accepted at a small residual, which
# tilts its q row out of the skew space
TILTED = ["(0,-2.0083856328397789) * p1 + (0,0.25463186464814702) * p1^2"
          " + (0,0.00022733186225899489) * q1^2",
          "(-1.9984918321987739,0) * q1 + (0,-1.9984918321987739) * q1^2 p1",
          "(1.0030244214369366,0) + (0,-0.34812177053873872) * q1 + (0,2.0060488428738732) * q1 p1",
          "(1.0613878902918765,0) + (0,2.122775780583753) * q1 p1"
          " + (0,-0.38529715986331142) * q1^2"]


@pytest.mark.parametrize("cap", range(3, 11))
def test_sweep_counts_no_more_directions_than_its_space_has(cap):
    gens = [PolyOp.from_text(text, 1) for text in TILTED]
    assert all(weyl.is_skew_hermitian(g) for g in gens)
    basis = weyl.lie_closure(gens, cap, 10**6)
    assert basis.dim == math.comb(2 + cap, cap)
    assert basis.all_degrees and not basis.dim_capped


# -- every degree from the cap-3 closure ------------------------------------------

@pytest.mark.parametrize("cap, dim, all_degrees", [
    (3, 5, False), (4, 11, False), (5, 19, False), (6, 28, True), (7, 36, True)])
def test_all_degrees_needs_every_cubic(cap, dim, all_degrees):
    # {i(q^2 + p^2), iq^3} generates every polynomial, but the sweep holds
    # every cubic only from cap 6: at caps 3-5 it misses p^3
    iq3 = skew_generator(as_hermitian(q(0) * q(0) * q(0)))
    basis = weyl.lie_closure([iq2() + ip2(), iq3], cap, 256)
    assert (basis.dim, basis.all_degrees, basis.support) == (dim, all_degrees, (0,))


def _control_set(rng, modes):
    """p, q and one or two cubics on mode 0, each a random multiple of a
    skew_monomial_generators target, and one random quadratic over all modes."""
    targets = weyl.skew_monomial_generators(range(modes), modes, 3)
    n1, n2, n3 = (math.comb(2 * modes + d, d) for d in (1, 2, 3))
    on0 = [j for j, t in enumerate(targets) if t.support == {0}]
    cubics = rng.choice([j for j in on0 if j >= n2], size=rng.integers(1, 3), replace=False)
    picks = [[j] for j in on0 if j < n1] + [cubics, range(n1, n2)]
    return [PolyOp(modes, sum((targets[j] * rng.standard_normal() for j in js[1:]),
                              targets[js[0]] * rng.standard_normal()).terms, weyl.SKEW)
            for js in picks]


@pytest.mark.parametrize("modes, caps, sets", [(1, (4, 5, 6, 7), 20), (2, (4, 5), 3),
                                               (3, (4,), 1)])
def test_cap_three_closure_with_every_cubic_fills_every_cap(modes, caps, sets, monkeypatch):
    # every cap-3 closure holds every cubic on its modes S, and the sweep at
    # each cap c then fills C(2|S| + c, c), never counts more, and falls
    # short only by directions that its 1e-10 rank test rejects
    rng = np.random.default_rng(41 + modes)
    for _ in range(sets):
        gens = _control_set(rng, modes)
        low = weyl.lie_closure(gens, 3, 10**6)
        assert low.all_degrees
        for cap in caps:
            count = math.comb(2 * len(low.support) + cap, cap)
            dim = weyl.lie_closure(gens, cap, 10**6).dim
            if dim < count:
                with monkeypatch.context() as m:
                    m.setattr(weyl, "INDEPENDENCE_TOL", 1e-11)
                    dim = weyl.lie_closure(gens, cap, 10**6).dim
            assert dim == count, (modes, cap)


# sets whose sweep falls one direction short of C(2 + c, c) although the
# cap-3 closure holds every cubic: the missing direction is accepted with the
# rank test at 1e-11, and the chain verdicts take the count from the lemma
@pytest.mark.parametrize("texts, cap", [
    (["(0,-0.21051955683006379) * p1",
      "(0,3.0202388262446918) * p1 + (0,2.3973417987801566) * p1^2"
      " + (0,0.14758671916653254) * q1^3",
      "(0,-2.5083733239472616) * p1 + (0,-0.15317682587439313) * p1^2"
      " + (0,-1.770133162901544) * q1^2",
      "(0,0.83277307006035561) * p1 + (0,-0.55310343664202311) * q1"], 6),
    (["(0,-1.0028800369341047) * p1", "(0,1.7583212365759706) * q1",
      "(0,1.8289344062575623) * q1^3",
      "(-1.2487488903344155,0) + (0,-0.040126909230960843) * p1^2"
      " + (0,-2.497497780668831) * q1 p1 + (0,-0.62779894393369551) * q1^2"], 7)])
def test_sweep_short_of_every_degree_only_by_its_rank_test(texts, cap, monkeypatch):
    gens = [PolyOp.from_text(text, 1) for text in texts]
    assert weyl.lie_closure(gens, 3, 256).all_degrees
    assert weyl.lie_closure(gens, cap, 256).dim == math.comb(2 + cap, cap) - 1
    # where the two differ, a chain reports the count, not the sweep
    assert chains._site_dim(gens, cap, 256) == math.comb(2 + cap, cap)
    monkeypatch.setattr(weyl, "INDEPENDENCE_TOL", 1e-11)
    assert weyl.lie_closure(gens, cap, 256).dim == math.comb(2 + cap, cap)


# -- contains ------------------------------------------------------------------

def test_contains_rejects_higher_degree():
    basis = weyl.lie_closure([iq2(), ip2()], 6, 64)
    iq3 = skew_generator(as_hermitian(q(0) * q(0) * q(0)))
    assert not contains_all(basis, [iq3])
    # a hermitian operator is no member of a skew closure; another frame is refused
    assert not contains_all(weyl.lie_closure([iq(), ip()], 6, 64), [q(0)])
    with pytest.raises(ValueError, match="mode_count mismatch"):
        contains_all(basis, [iq2(2)])


def test_contains_generators_always():
    gens = [iq2(), ip2(), iq()]
    basis = weyl.lie_closure(gens, 6, 64)
    assert contains_all(basis, gens).all()


# -- propagation criterion ------------------------------------------------------

def _coupling(omega):
    from recurq.chains import coupling_hamiltonian
    return coupling_hamiltonian(0, 1, omega, 2)


def test_propagation_two_mode_chain():
    local = weyl.local_skew_generators(0, 2, 3)
    res = weyl.algebraic_propagation_check(local, _coupling(1.0), degree_cap=3,
                                           dim_cap=128)
    assert res.verdict == weyl.PROPAGATES
    targets = [skew_generator(q(1, 2)), skew_generator(as_hermitian(q(1, 2) * q(1, 2)))]
    assert contains_all(res.closure, targets).all()


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
        assert isclose(back, A, 1e-12)


def test_local_generator_count():
    gens = weyl.local_skew_generators(0, 1, 4)
    assert len(gens) == len(weyl.enumerate_monomials(1, [0], 4))


@pytest.mark.parametrize("cap", [weyl.MAX_DEGREE_CAP + 1, 200])
def test_targets_refuse_an_inexact_cap_before_any_monomial(monkeypatch, cap):
    # past MAX_DEGREE_CAP the adjoint map's weights are no longer exact (cap
    # 200 overflows a float); the refusal comes before the enumeration
    def enumerated(*args):
        raise AssertionError("monomials enumerated before the cap check")

    monkeypatch.setattr(weyl, "_exponent_rows", enumerated)
    for build in (lambda: weyl.skew_monomial_generators([0], 1, cap),
                  lambda: weyl.local_skew_generators(0, 1, cap)):
        with pytest.raises(weyl.CapError, match="exact structure constants"):
            build()


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
    return [t for t, inside in zip(targets, contains_all(closure, targets)) if not inside]


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


def test_check_builds_only_the_missing_targets(monkeypatch):
    # omega 0 at cap 4: of the 70 pair targets, the 55 off mode 0 are
    # missing, and only those become PolyOps, after the 14 nonzero coupling
    # brackets of the 15 local generators
    local = weyl.local_skew_generators(0, 2, 4)
    built, target_ops = [], weyl._target_ops
    monkeypatch.setattr(weyl, "_target_ops",
                        lambda T, *args: built.append(T.shape[1]) or target_ops(T, *args))
    res = weyl.algebraic_propagation_check(local, _coupling(0.0), 4, 256)
    assert len(res.missing) == 55 and built == [14, 55]


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


@functools.lru_cache(maxsize=None)
def _pair_check(omega, cap, dim_cap, mode):
    """The check of the 2-mode pair with the controls on ``mode``, run once
    per process for the either-mode and oracle tests."""
    return weyl.algebraic_propagation_check(weyl.local_skew_generators(mode, 2, cap),
                                            _coupling(omega), cap, dim_cap)


# omega 0.28238592672119756 at cap 6: a genuine direction accepted with
# residual 3.2e-8 leaves ~1e-8 of rounding in its q row, so with the controls
# on mode 1 the full closure's projection misses the target q1^6 by 1.3e-8
@pytest.mark.parametrize("omega, cap, dim_cap", [
    (omega, cap, dim_cap) for omega in (0.0, 0.5, 1.3) for cap in range(1, 6)
    for dim_cap in (8, 64, 256)] + [
    (omega, 6, dim_cap) for omega in (0.5, 0.28238592672119756) for dim_cap in (8, 64)] + [
    (0.28238592672119756, 6, 256)])
def test_propagation_check_is_the_same_from_either_mode(omega, cap, dim_cap):
    left, right = (_pair_check(omega, cap, dim_cap, mode) for mode in (0, 1))
    assert left.target_modes == (1,) and right.target_modes == (0,)
    summary = [(res.verdict, res.closure.dim, len(res.missing), res.closure.saturated,
                res.closure.degree_capped, res.closure.dim_capped) for res in (left, right)]
    assert summary[0] == summary[1]


def _outcome(res):
    # the closure's monomials, and each missing target term for term, in
    # order, down to the sign of zero parts
    return (res.verdict, res.target_modes, res.closure.dim, res.closure.saturated,
            res.closure.degree_capped, res.closure.dim_capped, tuple(res.closure._index),
            [(t.mode_count, repr(t.terms), t.role) for t in res.missing])


# the brackets from the table differ from the PolyOp ones by roundoff (at
# most 2.8e-14 on this grid); every outcome is the same
@pytest.mark.parametrize("omega", [0.0, 0.5, 0.7712, 1.0, 1.3, 1.4999, 0.28238592672119756])
@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("dim_cap", [8, 64, 256])
def test_propagation_check_matches_the_polyop_oracle(omega, cap, dim_cap):
    for mode in (0, 1):
        expected = polyop_propagation_check(weyl.local_skew_generators(mode, 2, cap),
                                            _coupling(omega), cap, dim_cap)
        assert _outcome(_pair_check(omega, cap, dim_cap, mode)) == _outcome(expected)


def test_cap_one_check_brackets_on_the_quadratic_couplings_table(monkeypatch):
    # the quadratic coupling is above cap 1: its brackets with the linear
    # controls are taken on the 2-slot cap-2 table (15 monomials), whose
    # first 5 monomials are the cap-1 ones
    tables, product = [], weyl._Constants.product
    monkeypatch.setattr(weyl._Constants, "product",
                        lambda self, y: tables.append(self.n) or product(self, y))
    local, coupling = weyl.local_skew_generators(0, 2, 1), _coupling(1.0)
    res = weyl.algebraic_propagation_check(local, coupling, 1, 64)
    assert tables[0] == 15 and set(tables[1:]) == {5}
    assert res.verdict == weyl.PROPAGATES and res.closure.dim == 5 and res.closure.saturated
    assert _outcome(res) == _outcome(polyop_propagation_check(local, coupling, 1, 64))


def test_bracket_terms_below_the_prune_floor_are_dropped():
    # [X, -iH] has a term on mode 1 of 1e-16 of its largest: cleaned away, so
    # no generator touches mode 1 and the closure stays on mode 0
    coupling = as_hermitian(q(0, 2) * q(0, 2) + 1e-16 * (q(0, 2) * q(1, 2)))
    local = weyl.local_skew_generators(0, 2, 3)
    res = weyl.algebraic_propagation_check(local, coupling, 3, 64)
    assert res.verdict == weyl.FAILS and len(res.closure._index) == 10
    assert _outcome(res) == _outcome(polyop_propagation_check(local, coupling, 3, 64))


def test_propagation_check_refuses_generators_by_index():
    cubic = as_hermitian(q(0, 2) * q(0, 2) * q(1, 2))
    local = weyl.local_skew_generators(0, 2, 2)
    # the 6 controls, then the brackets that are not zero: [p, .] has degree
    # 2, and [p^2, .], the second, degree 3
    for check in (weyl.algebraic_propagation_check, polyop_propagation_check):
        with pytest.raises(weyl.GeneratorCapError, match="generator degree 3 exceeds "
                                                         "degree_cap 2") as info:
            check(local, cubic, 2, 64)
        assert info.value.index == 7
    local = weyl.local_skew_generators(0, 2, 3)
    local[2] = PolyOp(2, {((2, 0), (0, 0)): 1j, ((1, 1), (0, 0)): 1e-6})
    for check in (weyl.algebraic_propagation_check, polyop_propagation_check):
        with pytest.raises(weyl.GeneratorError, match="must be skew-hermitian") as info:
            check(local, _coupling(1.0), 3, 64)
        assert info.value.index == 2 and not isinstance(info.value, weyl.CapError)


def test_propagation_check_tests_the_coupling_once(monkeypatch):
    local, coupling = weyl.local_skew_generators(0, 2, 3), _coupling(1.0)
    calls, check = [], weyl.is_hermitian
    monkeypatch.setattr(weyl, "is_hermitian", lambda A: calls.append(A) or check(A))
    assert weyl.algebraic_propagation_check(local, coupling, 3, 128).verdict == weyl.PROPAGATES
    assert calls == [coupling]
    skew = skew_generator(_coupling(1.0))
    with pytest.raises(ValueError, match="hermitian"):
        weyl.algebraic_propagation_check(local, skew, 3, 128)
    zero = weyl.const(0.0, 2)
    assert weyl.algebraic_propagation_check(local, zero, 3, 128).verdict == weyl.FAILS


def test_propagation_check_refuses_a_cap_below_one():
    # the check's closure is lie_closure's, which refuses the cap rather than
    # return an "unknown" verdict at dimension 0; at degree cap 0 the control
    # i q (index 1, after the constant) is already above the cap
    local = weyl.local_skew_generators(0, 2, 3)
    for dim_cap in (0, -1):
        with pytest.raises(ValueError, match="caps must be >= 1"):
            weyl.algebraic_propagation_check(local, _coupling(1.0), 3, dim_cap)
    with pytest.raises(weyl.GeneratorCapError, match="degree 1 exceeds degree_cap 0") as info:
        weyl.algebraic_propagation_check(local, _coupling(1.0), 0, 64)
    assert info.value.index == 1


def test_propagation_check_refuses_a_cap_before_any_bracket(monkeypatch):
    # the coupling brackets are one table product
    products = []
    monkeypatch.setattr(weyl._Constants, "product", lambda self, y: products.append(y))
    local = weyl.local_skew_generators(0, 2, weyl.MAX_DEGREE_CAP)
    with pytest.raises(weyl.CapError, match="4845 monomials"):
        weyl.algebraic_propagation_check(local, _coupling(1.0), weyl.MAX_DEGREE_CAP)
    assert products == []


def test_internal_arithmetic_is_canonical(rng):
    # every result of the module's own arithmetic is a fixed point of PolyOp(...):
    # same terms, bit for bit and in order, and the same role
    ops = []
    for _ in range(30):
        A, B = random_polyop(rng), random_polyop(rng)
        S, T = random_skew(rng, 2, 3), random_skew(rng, 2, 3)
        ops += [A + B, A - B, A * B, (2.5 - 1j) * A, A * 3, -A, A.adjoint(),
                bracket(A, B), bracket(S, T), as_hermitian(A + A.adjoint()),
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


def test_bracket_exponents_fit_a_byte():
    # _columns keys each exponent row by its bytes as uint8, and a bracket's
    # exponents reach twice the largest exact cap
    assert 2 * weyl.MAX_DEGREE_CAP < 256


@pytest.mark.parametrize("slot_count,cap", [(1, 16), (2, 6), (99, 1)])
def test_columns_are_sorted_distinct_rows(slot_count, cap):
    # the deepest, a middle and the widest admitted table: each term's column
    # is its row's index among the in-cap rows E, else n plus its place among
    # the distinct rows not in E, sorted as tuples, held as their first
    # occurrence
    E = np.array(weyl._exponent_rows(slot_count, cap), dtype=np.int64)
    I, J = np.triu_indices(len(E), 1)
    out = weyl._expand(E, I, J)[4]
    col, overflow = weyl._columns(E, out)
    index = {row: i for i, row in enumerate(map(tuple, E.tolist()))}
    terms = list(map(tuple, out.tolist()))
    first = {}
    for t, row in enumerate(terms):
        first.setdefault(row, t)
    beyond = sorted(first.keys() - index.keys())
    index.update((row, len(E) + i) for i, row in enumerate(beyond))
    assert col.tolist() == [index[row] for row in terms]
    assert overflow.dtype == out.dtype
    assert np.array_equal(overflow, out[[first[row] for row in beyond]].reshape(-1, E.shape[1]))


def _admitted(cap, modes):
    try:
        weyl.table_monomials(cap, modes)
    except weyl.CapError:
        return False
    return True


def test_largest_accepted_tables_fit_the_budget():
    # the largest cap each support size accepts; 2 modes at cap 8 (495
    # monomials) is the most expensive table the monomial limit admits.  At
    # cap 1 the pair-exponent limit binds first: the widest support it admits
    # builds 2 m + 1 monomials of 2 m exponents each.  Each build is cold: a
    # cached table costs nothing to read
    keys = [(m, max(c for c in range(1, weyl.MAX_DEGREE_CAP + 1) if _admitted(c, m)))
            for m in (1, 2, 3, 4)]
    widest = max(m for m in range(1, weyl.TABLE_MONOMIALS) if _admitted(1, m))
    assert 32 < widest < 249 and not _admitted(1, widest + 1)
    for mode_count, cap in keys + [(widest, 1)]:
        weyl._structure_constants.cache_clear()
        tracemalloc.start()
        try:
            weyl._structure_constants(mode_count, cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < weyl.TABLE_BUDGET_MB * 1e6, (mode_count, cap, peak)
