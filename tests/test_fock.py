import math

import numpy as np
import pytest
import scipy.sparse

from recurq import chains, fock, weyl
from recurq.fock import TruncationSpec
from recurq.weyl import PolyOp, as_hermitian, const, p, q

from conftest import random_polyop
from oracles import (dense_represent, hermiticity_defect, hermitize, interior_block,
                     p_matrix, q_matrix)


def test_spec_validation():
    with pytest.raises(ValueError):
        TruncationSpec((1,))
    with pytest.raises(ValueError):
        TruncationSpec((4, 4), buffer=4)
    spec = TruncationSpec((4, 8), buffer=2)
    assert spec.dim == 32 and spec.mode_count == 2


def test_q_matrix_d2():
    spec = TruncationSpec((2,))
    expected = np.array([[0, 1], [1, 0]]) / math.sqrt(2)
    assert np.allclose(q_matrix(spec), expected)


def test_number_operator_diagonal():
    spec = TruncationSpec((8,))
    a = (q_matrix(spec) + 1j * p_matrix(spec)) / math.sqrt(2)
    assert np.allclose(a.conj().T @ a, np.diag(np.arange(8.0)))


def test_ccr_interior_and_boundary():
    spec = TruncationSpec((16,))
    qm, pm = q_matrix(spec), p_matrix(spec)
    comm = qm @ pm - pm @ qm
    interior = comm[:15, :15] - 1j * np.eye(16)[:15, :15]
    assert np.max(np.abs(interior)) < 1e-12
    assert abs(comm[15, 15] - 1j) > 1.0  # known truncation artifact at the top level


def test_represent_constant():
    spec = TruncationSpec((4, 4))
    rep = fock.represent(const(2.5 - 1j, 2), spec)
    assert np.allclose(rep.toarray(), (2.5 - 1j) * np.eye(16))


def test_represent_harmonic_interior_spectrum():
    spec = TruncationSpec((16,))
    H = as_hermitian((p(0) * p(0) + q(0) * q(0)) * 0.5)
    assert hermiticity_defect(dense_represent(H, spec.dims)) < 1e-9
    evals, vecs = np.linalg.eigh(fock.represent(H, spec).toarray())
    # keep eigenpairs supported away from the top level, then compare
    weight_top = np.abs(vecs[-1, :]) ** 2
    interior = evals[weight_top < 0.5]
    assert np.max(np.abs(np.sort(interior)[:13] - (np.arange(13) + 0.5))) < 1e-9


def test_represent_mode_count_mismatch():
    with pytest.raises(ValueError):
        fock.represent(q(0, 1), TruncationSpec((4, 4)))


def test_represent_dimension_guard():
    spec = TruncationSpec((70, 70))
    with pytest.raises(ValueError):
        fock.represent(q(0, 2), spec)


def test_represent_refuses_an_entry_that_is_not_finite():
    # q^99999 overflows on 8 levels, and 2e307 q^2 only when hermitized
    spec, terms = TruncationSpec((8,)), {((2, 0),): 2e307}
    assert np.all(np.isfinite(fock.represent(PolyOp(1, terms), spec).data))  # general role
    for A in (PolyOp(1, {((99999, 0),): 1.0}), PolyOp(1, terms, weyl.HERMITIAN)):
        with pytest.raises(ValueError, match="not finite"):
            fock.represent(A, spec)


def test_represent_is_real_linear(rng):
    spec = TruncationSpec((8, 8))
    A, B = random_polyop(rng), random_polyop(rng)
    alpha, beta = 1.7, -0.4
    lhs = fock.represent(alpha * A + beta * B, spec).toarray()
    rhs = alpha * fock.represent(A, spec).toarray() + beta * fock.represent(B, spec).toarray()
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_represent_bracket_matches_commutator(rng):
    spec = TruncationSpec((24,))
    for _ in range(5):
        A = random_polyop(rng, mode_count=1, max_degree=4)
        B = random_polyop(rng, mode_count=1, max_degree=4)
        buffer = max(A.degree, B.degree)
        MA = fock.represent(A, spec).toarray()
        MB = fock.represent(B, spec).toarray()
        Mbr = fock.represent(weyl.bracket(A, B), spec).toarray()
        diff = interior_block(Mbr - (MA @ MB - MB @ MA), spec, buffer)
        assert np.max(np.abs(diff)) < 1e-8


def test_scatter_represent_equals_dense_kron(rng):
    # the CSR assembly is bit for bit the dense kron-and-add, including the
    # hermitization, and stores no zero
    def check(rep, dense):
        assert isinstance(rep, scipy.sparse.csr_array) and rep.has_canonical_format
        assert np.all(rep.data != 0)
        assert rep.toarray().tobytes() == dense.tobytes()

    for _ in range(60):
        modes = int(rng.integers(1, 4))
        dims = tuple(int(d) for d in rng.integers(2, 7, size=modes))
        A = random_polyop(rng, mode_count=modes, max_degree=5, max_terms=6)
        spec = TruncationSpec(dims)
        check(fock.represent(A, spec), dense_represent(A, dims))
        H = as_hermitian(A + A.adjoint())
        check(fock.represent(H, spec), hermitize(dense_represent(H, dims)))


def check_dense_bytes(A, dims):
    """represent(A) is bit for bit the dense kron-and-add, hermitized for a
    hermitian source."""
    rep = fock.represent(A, TruncationSpec(dims))
    dense = dense_represent(A, dims)
    if A.role == weyl.HERMITIAN:
        dense = hermitize(dense)
    assert rep.has_canonical_format and np.all(rep.data != 0)
    assert rep.indices.dtype == rep.indptr.dtype == np.int32  # dim^2 < 2^31
    assert rep.toarray().tobytes() == dense.tobytes()


@pytest.mark.parametrize("dims,cap", [((8, 8, 8), 3), ((8, 8, 9), 1), ((9, 9, 9), 1)])
def test_chain_generators_represent_equals_dense_kron(dims, cap):
    # the chain-demo systems of the benchmark: drift and drift + each control
    spec = chains.ChainSpec(3, 0.83, ((0, 1, 1.21), (1, 2, 0.64)), (0,), cap)
    for H in chains.control_system(spec)[1]:
        check_dense_bytes(H, dims)


def test_represent_is_the_same_with_a_cold_or_warm_power_memo():
    # the per-mode powers are built once per (levels, q power, p power), and
    # each monomial's Kronecker nonzeros once per (dims, monomial) in a cache
    # of bounded size; both are shared read-only by every later call
    spec = chains.ChainSpec(3, 0.83, ((0, 1, 1.21), (1, 2, 0.64)), (0,), 3)
    memos = (fock._mode_power, fock._monomial_nonzeros)
    for H in chains.control_system(spec)[1]:
        for dims in ((8, 8, 9), (9, 8, 8)):
            for memo in memos:
                memo.cache_clear()
            cold = fock.represent(H, TruncationSpec(dims))
            warm = fock.represent(H, TruncationSpec(dims))
            assert all(memo.cache_info().hits > 0 for memo in memos)
            for name in ("data", "indices", "indptr"):
                assert getattr(cold, name).tobytes() == getattr(warm, name).tobytes()
    assert type(fock._monomial_nonzeros.cache_info().maxsize) is int
    for arrays in (fock._mode_power(8, 1, 2), fock._monomial_nonzeros((8, 9), ((1, 0), (0, 2)))):
        assert not any(array.flags.writeable for array in arrays)


def _vanishing():
    # 5e-324 q1 q2 underflows to zero on every entry at (2, 2), and alone
    # occupies the flat diagonals +-3 and +-1 (the latter shared with p2)
    A = PolyOp(2, {((1, 0), (1, 0)): 5e-324, ((2, 0), (0, 0)): 1.0, ((0, 0), (0, 1)): 0.5})
    assert fock.represent(PolyOp(2, {((1, 0), (1, 0)): 5e-324}), TruncationSpec((2, 2))).nnz == 0
    return A


EDGE_CASES = {
    # at dims (3, 5) the per-mode offsets (1, -4) of q1 q2^4 and (0, 1) of q2
    # fall on the same flat diagonal 1
    "shared-diagonal": (lambda: q(0, 2) * q(1, 2) * q(1, 2) * q(1, 2) * q(1, 2) + q(1, 2), (3, 5)),
    "vanishing-term": (_vanishing, (2, 2)),
    "constant": (lambda: const(2.5, 2), (3, 4)),
    "zero": (lambda: PolyOp(2, {}), (3, 4)),
    "general": (lambda: PolyOp(3, {((1, 0), (0, 2), (0, 0)): 1 + 2j,
                                   ((0, 3), (0, 0), (1, 1)): 0.5 - 1j}), (4, 3, 2)),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_represent_edge_cases_equal_dense_kron(case):
    build, dims = EDGE_CASES[case]
    A = build()
    check_dense_bytes(PolyOp(A.mode_count, A.terms), dims)  # general role
    check_dense_bytes(as_hermitian(0.5 * (A + A.adjoint())), dims)


def test_hermitize():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    H = hermitize(M)
    assert np.array_equal(H, H.conj().T)
    herm = H.copy()
    assert np.allclose(hermitize(herm), herm)
    skew = (M - M.conj().T) / 2
    assert np.allclose(hermitize(skew), 0)


def test_hermitian_role_defect_recorded():
    spec = TruncationSpec((12,))
    H = as_hermitian(q(0) * q(0) * q(0))
    assert hermiticity_defect(dense_represent(H, spec.dims)) < 1e-9  # before hermitizing
    assert hermiticity_defect(fock.represent(H, spec).toarray()) < 1e-12


def test_hermitian_role_interior_defect_before_hermitize():
    # mixed monomials pick up boundary defects only; the interior block of the
    # raw (unhermitized) representation is hermitian to working precision
    spec = TruncationSpec((16,))
    mixed = q(0) * q(0) * p(0)
    H = as_hermitian(mixed + mixed.adjoint())
    raw = fock.represent(weyl.PolyOp(1, H.terms), spec).toarray()  # general role
    defect = raw - raw.conj().T
    assert np.max(np.abs(interior_block(defect, spec, H.degree))) < 1e-9
    assert hermiticity_defect(raw) > 1e-6  # the boundary really is defective


def test_interior_mask_counts():
    spec = TruncationSpec((6, 4), buffer=2)
    mask = fock.interior_mask(spec)
    assert mask.sum() == 4 * 2


def test_random_interior_state(rng):
    spec = TruncationSpec((8, 8), buffer=3)
    psi = fock.random_interior_state(spec, rng)
    assert np.isclose(np.linalg.norm(psi), 1.0)
    assert np.all(psi[~fock.interior_mask(spec)] == 0)

