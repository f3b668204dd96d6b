import importlib.util
import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.sparse
from scipy.linalg import expm as scipy_expm

from conftest import chain_table
from oracles import expm_eigh, expm_multiply_action, flat_evolve, flat_realize
from recurq import chains, cli, fock, propagate as pr, recurrence as rc, synth
from recurq.fock import TruncationSpec
from recurq.propagate import ControlSequence
from recurq.weyl import as_hermitian, p, q


@pytest.fixture(scope="module")
def qp_system():
    spec = TruncationSpec((32,))
    Hq = fock.represent(q(0), spec).toarray()
    Hp = fock.represent(p(0), spec).toarray()
    table = pr.EvolutionTable({1: -1j * Hq, 2: -1j * Hp})
    return spec, table


@pytest.fixture(scope="module")
def harmonic_pair():
    # two commensurate-spectrum generators: H and its unit-displaced sibling;
    # the pair has the nontrivial bracket [H_k, H_l] = i p
    spec = TruncationSpec((32,), buffer=8)
    ho = as_hermitian((p(0) * p(0) + q(0) * q(0)) * 0.5)
    disp = as_hermitian(ho + q(0))
    Hk = fock.represent(ho, spec).toarray()
    Hl = fock.represent(disp, spec).toarray()
    table = pr.EvolutionTable({1: -1j * Hk, 2: -1j * Hl})
    return spec, table


# -- ControlSequence -----------------------------------------------------------

def test_sequence_rejects_negative_duration():
    with pytest.raises(ValueError):
        ControlSequence(((1, -0.1),))


def test_sequence_rejects_negative_index():
    with pytest.raises(ValueError):
        ControlSequence(((-1, 0.1),))


def test_sequence_json_roundtrip():
    seq = ControlSequence(((1, 0.25), (2, 0.5)), provenance="demo")
    back = ControlSequence.from_dict(seq.to_dict())
    assert back == seq
    assert back.total_time == 0.75


# -- expm ----------------------------------------------------------------------

def test_expm_t0_identity(qp_system):
    _, table = qp_system
    U = pr.expm_skew(table.matrix(1), 0.0)
    assert np.allclose(U, np.eye(32))


def test_expm_diagonal_case():
    E = np.array([0.3, 1.1, 2.7])
    H = -1j * np.diag(E)
    U = pr.expm_skew(H, 0.9)
    assert np.allclose(np.diag(U), np.exp(-1j * E * 0.9))


def test_expm_group_property(qp_system):
    _, table = qp_system
    H = table.matrix(1)
    U = pr.expm_skew(H, 0.4) @ pr.expm_skew(H, 0.8)
    assert np.max(np.abs(U - pr.expm_skew(H, 1.2))) < 1e-9


def test_expm_matches_scipy(qp_system):
    _, table = qp_system
    H = table.matrix(1) + 0.3 * table.matrix(2)
    assert np.max(np.abs(pr.expm_skew(H, 0.83) - scipy_expm(0.83 * H.toarray()))) < 1e-12


def test_expm_rejects_non_skew():
    with pytest.raises(ValueError):
        pr.expm_skew(np.eye(4), 1.0)


def test_expm_rejects_negative_duration(qp_system):
    _, table = qp_system
    with pytest.raises(ValueError, match="forward durations"):
        pr.expm_skew(table.matrix(1), -0.1)


def test_skew_defect_matches_dense_formula(rng):
    def sparse_random(d, density):
        M = np.zeros((d, d), dtype=complex)
        mask = rng.random((d, d)) < density
        M[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
        return M

    cases = [np.zeros((5, 5), dtype=complex), np.eye(4), np.diag([1j, 2j, 0.0])]
    for d, density in ((6, 0.3), (40, 0.02), (64, 0.5)):
        A = sparse_random(d, density)
        cases += [A, A - A.conj().T, A - A.conj().T + 1e-9 * sparse_random(d, 0.05)]
    for M in cases:
        dense = float(np.max(np.abs(M + M.conj().T)))
        assert pr._skew_defect(M) == dense
        assert pr._skew_defect(scipy.sparse.csr_array(M)) == dense
        if dense > pr.SKEW_TOL:
            with pytest.raises(ValueError, match=re.escape(f"defect {dense:.3e}")):
                pr.EvolutionTable({0: M})
        else:
            pr.EvolutionTable({0: M})
    with pytest.raises(ValueError, match="square"):
        pr.EvolutionTable({0: np.zeros((3, 4))})


def test_skew_defect_matches_dense_formula_on_chain_patterns():
    # the chain generators store a symmetric pattern, which one entry off the
    # diagonal breaks; each mirror is looked up through the CSC transpose
    _, table = _chain_table(4)
    for k in table.indices():
        M = table.matrix(k).toarray()
        for A in (M, M + 1e-9 * (np.arange(64) == 3)[:, None] * (np.arange(64) == 40)):
            dense = float(np.max(np.abs(A + A.conj().T)))
            assert pr._skew_defect(scipy.sparse.csr_array(A)) == dense


def test_evolution_table_rejects_a_nan_entry():
    # a NaN defect compares False with the tolerance; it fails the check
    M = np.zeros((3, 3), dtype=complex)
    M[0, 1], M[1, 0] = np.nan, 1.0
    for G in (M, scipy.sparse.csr_array(M)):
        with pytest.raises(ValueError, match="not skew-hermitian: defect nan"):
            pr.EvolutionTable({0: G})


# -- evolve ----------------------------------------------------------------------

def test_evolve_empty_sequence(qp_system):
    spec, table = qp_system
    psi0 = fock.ground_state(spec)
    assert np.array_equal(pr.evolve(ControlSequence(()), psi0, table), psi0)


def test_evolve_single_segment(qp_system):
    spec, table = qp_system
    psi0 = fock.ground_state(spec)
    out = pr.evolve(ControlSequence(((1, 0.7),)), psi0, table)
    assert np.allclose(out, expm_eigh(table.matrix(1), 0.7) @ psi0)


def test_evolve_merges_equal_generators(qp_system):
    spec, table = qp_system
    psi0 = fock.ground_state(spec)
    two = pr.evolve(ControlSequence(((1, 0.3), (1, 0.4))), psi0, table)
    one = pr.evolve(ControlSequence(((1, 0.7),)), psi0, table)
    assert np.linalg.norm(two - one) < 1e-10


def test_evolve_is_isometry(qp_system, rng):
    spec, table = qp_system
    psi0 = fock.random_interior_state(TruncationSpec(spec.dims, buffer=8), rng)
    seq = ControlSequence(((1, 0.3), (2, 1.1), (1, 0.2)))
    assert abs(np.linalg.norm(pr.evolve(seq, psi0, table)) - 1.0) < 1e-10


def test_evolve_unresolved_index(qp_system):
    spec, table = qp_system
    with pytest.raises(KeyError):
        pr.evolve(ControlSequence(((9, 0.1),)), fock.ground_state(spec), table)


def test_evolve_time_order(qp_system):
    # first segment acts first: compare against explicit operator product
    spec, table = qp_system
    psi0 = fock.ground_state(spec)
    seq = ControlSequence(((1, 0.3), (2, 0.5)))
    out = pr.evolve(seq, psi0, table)
    U1 = expm_eigh(table.matrix(1), 0.3)
    U2 = expm_eigh(table.matrix(2), 0.5)
    assert np.allclose(out, U2 @ (U1 @ psi0))


# -- Trotter ---------------------------------------------------------------------

def trotter_word(k, l, t, n):
    """The splitting word (e^{H_k t/n} e^{H_l t/n})^n, built as synth builds a sum."""
    return synth.build_word(synth.Sum(synth.Gen(k), synth.Gen(l)), t, n)


def test_trotter_sequence_shape(qp_system, monkeypatch):
    word = trotter_word(1, 2, 0.8, 3)
    seq = ControlSequence(word)
    assert len(seq) == 6
    assert seq.segments[0] == (1, 0.8 / 3)
    assert seq.segments[1] == (2, 0.8 / 3)
    # trotter_errors evaluates the same tree
    spec, table = qp_system
    seen, evolve = [], pr.evolve
    monkeypatch.setattr(pr, "evolve", lambda seq, psi, table: seen.append(seq.word)
                        or evolve(seq, psi, table))
    pr.trotter_errors(1, 2, 0.8, [3], fock.ground_state(spec), table)
    assert seen == [word]


def test_trotter_commuting_exact_at_n1():
    spec = TruncationSpec((24,))
    Hq = fock.represent(q(0), spec).toarray()
    Hq2 = fock.represent(as_hermitian(q(0) * q(0)), spec).toarray()
    table = pr.EvolutionTable({1: -1j * Hq, 2: -1j * Hq2})
    psi0 = fock.ground_state(spec)
    out = pr.evolve(ControlSequence(trotter_word(1, 2, 0.9, 1)), psi0, table)
    target = expm_eigh(table.matrix(1) + table.matrix(2), 0.9) @ psi0
    assert np.linalg.norm(out - target) < 1e-9


def test_trotter_t0_error_zero(qp_system):
    spec, table = qp_system
    psi0 = fock.ground_state(spec)
    rows = pr.trotter_errors(1, 2, 0.0, [1, 4], psi0, table)
    assert all(e < 1e-12 for _, e in rows)


def test_trotter_convergence_ladder(qp_system):
    spec, table = qp_system
    psi0 = fock.ground_state(spec)
    rows = dict(pr.trotter_errors(1, 2, 0.7, [4, 16, 64, 256], psi0, table))
    assert rows[16] <= rows[4] and rows[64] <= rows[16] and rows[256] <= rows[64]
    assert rows[64] <= rows[16] / 3
    assert rows[256] <= rows[64] / 3


# -- commutator word ---------------------------------------------------------------

BR12 = synth.Bracket(synth.Gen(1), synth.Gen(2))


def commutator_word(t, n):
    """The order-n group-commutator word of e^{[H_1, H_2] t^2}: step sqrt(t^2)/n."""
    return synth.build_word(BR12, t * t, n)


def test_commutator_word_shape():
    word = commutator_word(0.5, 3)
    assert len(word) == 4 * 9
    s = 0.5 / 3
    assert pr.flatten(word)[:4] == ((2, s), (1, s), (2, -s), (1, -s))


def test_commutator_scalar_bracket_fidelity(qp_system):
    # [H_k, H_l] = -i for the canonical pair: the word builds a global phase
    spec, table = qp_system
    psi0 = fock.ground_state(spec)
    t = 0.5
    for n in (2, 8):
        out = pr.evolve_signed(commutator_word(t, n), psi0, table)
        target = np.exp(-1j * t * t) * psi0
        assert pr.fidelity(out, target) > 0.999
        assert pr.state_error(out, target) < 1e-6


def test_commutator_squeezing_converges(harmonic_pair):
    # generic pair: error against the dense bracket oracle decreases with n
    spec, table = harmonic_pair
    psi0 = fock.ground_state(spec)
    t = 0.5
    A, B = table.matrix(1), table.matrix(2)
    target = expm_eigh(A @ B - B @ A, t * t) @ psi0
    errs = {}
    for n in (4, 8, 16):
        out = pr.evolve_signed(commutator_word(t, n), psi0, table)
        errs[n] = pr.state_error(out, target)
    assert errs[8] < errs[4]
    assert errs[16] < errs[8]


def test_commutator_sequence_physical_with_recurrence_inverter(harmonic_pair):
    spec, table = harmonic_pair
    psi0 = fock.ground_state(spec)
    delta = 1e-4
    inverter = rc.RecurrenceInverter(table.spectra, delta, "pointwise", psi0)
    n = 4
    seq = ControlSequence(pr.realize_word(commutator_word(0.5, n), inverter)[0])
    assert len(seq) == 4 * n * n
    assert all(t >= 0 for _, t in seq.segments)
    # certified per-segment inversions: every plan achieved its delta
    for plan in inverter.plans().values():
        assert plan.guaranteed_distance < delta


def test_recurrence_vs_exact_inverter_accounting(harmonic_pair):
    # triangle-inequality accounting: the physical word stays within 4 n^2 delta
    # of the exact-inverse oracle word
    spec, table = harmonic_pair
    psi0 = fock.ground_state(spec)
    delta, t, n = 1e-4, 0.5, 4
    inverter = rc.RecurrenceInverter(table.spectra, delta, "pointwise", psi0)
    word = commutator_word(t, n)
    exact = pr.evolve_signed(word, psi0, table)
    seq = ControlSequence(pr.realize_word(word, inverter)[0])
    physical = pr.evolve(seq, psi0, table)
    assert pr.state_error(physical, exact) <= 4 * n * n * delta


def _word_shape(name, harmonic_pair):
    if name == "flat":
        return ((1, 0.25), (2, 0.5), (1, 0.25))
    if name == "nested-repeat":
        block = pr.Concat(((1, 0.1), pr.Repeat((2, 0.2), 3)))
        return pr.Concat(((2, 0.3), pr.Repeat(pr.Concat((pr.Repeat(block, 2), (1, 0.7))), 5)))
    if name == "realized":
        spec, table = harmonic_pair
        inverter = rc.RecurrenceInverter(table.spectra, 1e-4, "pointwise",
                                         fock.ground_state(spec))
        return pr.realize_word(commutator_word(0.5, 4), inverter)[0]
    if name == "one-leaf":
        return (1, 0.125)
    return pr.Repeat(pr.Concat(((1, -0.0), (2, 0.0), (1, 0.0), (1, 0.1))), 3)


@pytest.mark.parametrize("name", ["flat", "nested-repeat", "realized", "one-leaf",
                                  "negative-zero"])
def test_sequence_json_is_json_dumps_of_the_flat_segments(name, harmonic_pair, tmp_path):
    # to_dict shares one dict per distinct leaf and the writer encodes each
    # once; the file stays byte for byte json.dumps of the flat segment list
    seq = ControlSequence(_word_shape(name, harmonic_pair), provenance=name)
    flat = {"segments": [{"k": k, "t": t} for k, t in pr.flatten(seq.word)],
            "provenance": name}
    data = seq.to_dict()
    assert len({id(s) for s in data["segments"]}) == len(pr.leaves(seq.word))
    path = tmp_path / "sequence.json"
    cli.write_json(str(path), data)
    assert path.read_bytes() == (json.dumps(flat, indent=2, sort_keys=True) + "\n").encode()


def test_realize_word_keeps_forward_segments():
    word = ((1, 0.5), (2, 0.25))

    class NoInverter:
        def duration(self, k, s):
            raise AssertionError("must not be called for forward segments")

    segments, plans = pr.realize_word(word, NoInverter())
    assert pr.flatten(segments) == word and plans == []


# -- word trees --------------------------------------------------------------------


def test_word_tree_sizes_and_flat_form():
    s = 0.5 / 3
    block = ((2, s), (1, s), (2, -s), (1, -s))
    word = commutator_word(0.5, 3)
    assert word == pr.Repeat(pr.Concat(block), 9) and len(word) == 36
    assert pr.flatten(word) == block * 9
    assert pr.flatten(trotter_word(1, 2, 0.8, 3)) == ((1, 0.8 / 3), (2, 0.8 / 3)) * 3
    nested = pr.Concat((pr.Repeat(word, 2), (1, 0.1), pr.Concat(((2, 0.2),))))
    assert len(nested) == 74 and len(nested.parts) == 3
    assert pr.flatten(nested) == block * 18 + ((1, 0.1), (2, 0.2))
    assert pr.applications(nested) == {1: 37, 2: 37}
    assert pr.leaves(nested) == block + ((1, 0.1), (2, 0.2))
    with pytest.raises(ValueError):
        pr.Repeat(word, 0)


def test_repeat_of_a_bare_leaf_evolves_like_its_flat_form():
    spec, table = _cubic_table()
    psi0 = fock.ground_state(spec)
    assert pr.applications(pr.Repeat((1, 0.1), 3)) == {1: 3}
    # 40 > dim // 2 applications: the leaf repeat is squared
    for word in (pr.Repeat((1, 0.1), 3), pr.Concat((pr.Repeat((2, -0.05), 40), (1, 0.2)))):
        out = pr.evolve_signed(word, psi0, table)
        assert pr.state_error(out, flat_evolve(word, psi0, table)) <= 1e-12
    seq = pr.ControlSequence(pr.Repeat((1, 0.1), 3))
    assert pr.state_error(pr.evolve(seq, psi0, table),
                          flat_evolve(seq.word, psi0, table)) <= 1e-12


def test_evolution_table_needs_a_generator():
    with pytest.raises(ValueError, match="at least one generator"):
        pr.EvolutionTable({})


def _cubic_table():
    spec = TruncationSpec((24,))
    ops = [as_hermitian((p(0) * p(0) + q(0) * q(0)) * 0.5), q(0),
           as_hermitian(p(0) * p(0) * 0.5), as_hermitian(q(0) * q(0) * q(0) * 0.2)]
    reps = {k: -1j * fock.represent(op, spec).toarray() for k, op in enumerate(ops)}
    return spec, pr.EvolutionTable(reps)


NESTED = synth.Bracket(synth.Bracket(synth.Gen(1), synth.Gen(2)), synth.Gen(3))


@pytest.mark.parametrize("case,segments,tol", [
    ("trotter", 8192, 1e-12),
    ("commutator", 4096, 1e-12),
    ("commutator", 16384, 1e-10),
    ("nested", 2080, 1e-12),
    ("nested", 32896, 1e-10),
])
def test_tree_evaluation_matches_flat_oracle(case, segments, tol):
    spec, table = _cubic_table()
    psi0 = fock.ground_state(spec)
    if case == "trotter":
        word = trotter_word(1, 2, 0.7, 4096)
    elif case == "commutator":
        word = commutator_word(0.4, round((segments / 4) ** 0.5))
    else:
        word = synth.build_word(NESTED, 0.29, round((segments / 8) ** 0.25))
    assert len(word) == segments
    out = pr.evolve_signed(word, psi0, table)
    assert pr.state_error(out, flat_evolve(word, psi0, table)) <= tol


def test_realized_tree_matches_flat_oracle(harmonic_pair):
    spec, table = harmonic_pair
    psi0 = fock.ground_state(spec)
    inverter = rc.RecurrenceInverter(table.spectra, 1e-4, "pointwise", psi0)
    seq = ControlSequence(pr.realize_word(commutator_word(0.5, 16), inverter)[0])
    assert seq.word == pr.Repeat(seq.word.block, 256) and len(seq.word.block) == 4
    assert pr.state_error(pr.evolve(seq, psi0, table),
                          flat_evolve(seq.word, psi0, table)) <= 1e-12


class _CountingInverter(rc.RecurrenceInverter):
    def duration(self, k, s):
        self.asked = getattr(self, "asked", 0) + 1
        return super().duration(k, s)


@pytest.mark.parametrize("kind", ["commutator", "nested"])
def test_realize_word_asks_once_per_distinct_reversed_leaf(harmonic_pair, kind):
    spec, table = harmonic_pair
    psi0 = fock.ground_state(spec)
    if kind == "commutator":
        word = commutator_word(0.5, 8)
    else:
        inner = synth.Bracket(synth.Gen(1), synth.Gen(2))
        word = synth.build_word(synth.Bracket(inner, synth.Gen(1)), 0.04, 2)
    reversed_leaves = [leaf for leaf in pr.leaves(word) if leaf[1] < 0]
    inverters = [_CountingInverter(table.spectra, 1e-4, "pointwise", psi0)
                 for _ in range(2)]
    tree, plans = pr.realize_word(word, inverters[0])
    flat, flat_plans = flat_realize(word, inverters[1])
    assert inverters[0].asked == len(reversed_leaves) < inverters[1].asked
    # neither generator is shifted beyond rounding: one plan each, in order of first use
    assert len(plans) == len(flat_plans) == len({k for k, _ in reversed_leaves})
    dump = lambda data: json.dumps(data, indent=2, sort_keys=True)
    assert dump([p.to_dict() for p in plans]) == dump([p.to_dict() for p in flat_plans])
    assert (dump([p.to_dict() for p in inverters[0].plans().values()])
            == dump([p.to_dict() for p in inverters[1].plans().values()]))
    assert dump(ControlSequence(tree).to_dict()) == dump(ControlSequence(flat).to_dict())


def test_evolve_and_evolve_signed_share_the_norm_check(qp_system, monkeypatch):
    spec, table = qp_system
    psi0 = fock.ground_state(spec)
    word = commutator_word(0.3, 1)  # short words apply leaf by leaf
    apply = table.apply
    monkeypatch.setattr(table, "apply", lambda k, t, psi: apply(k, t, psi) * (1 + 1e-9))
    with pytest.raises(pr.NormDriftError, match="norm drift"):
        pr.evolve_signed(word, psi0, table)
    with pytest.raises(pr.NormDriftError, match="norm drift"):
        pr.evolve(ControlSequence(trotter_word(1, 2, 0.3, 1)), psi0, table)


def test_squared_repeats_stay_unitary():
    # the departure of a squared block from unitarity grows with its count;
    # nested repeats must not compound it past the norm check
    spec, table = _cubic_table()
    psi0 = fock.ground_state(spec)
    word = synth.build_word(NESTED, 0.29, 16)
    assert len(word) == 524800
    out = pr.evolve_signed(word, psi0, table)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-13


# -- spectral / action paths -------------------------------------------------------


def _chain_table(d):
    spec = chains.ChainSpec(3, 1.0, ((0, 1, 1.0), (1, 2, 0.8)), (0,), 1)
    return chain_table(spec, (d, d, d), range(3))  # all 3 generators


def _interior_state(tspec, rng):
    """Random state below the top level of every mode."""
    return fock.random_interior_state(TruncationSpec(tspec.dims, buffer=1), rng)


def _count_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_rule_threshold():
    assert pr.uses_spectrum(1, 24) and pr.uses_spectrum(1, 127)
    assert not pr.uses_spectrum(1, 128)
    assert pr.uses_spectrum(8, 512) and not pr.uses_spectrum(7, 512)


@pytest.mark.parametrize("d", [4, 5, 6, 8])  # dims 64, 125, 216, 512
def test_action_matches_spectral(d, rng):
    tspec, table = _chain_table(d)
    psi0 = _interior_state(tspec, rng)
    for k, t in ((0, 0.3), (1, 0.15), (2, 1.7)):
        assert np.linalg.norm(table.act(k, t, psi0) - table.apply(k, t, psi0)) <= 1e-12
    word = ((1, 0.2), (0, 0.1), (2, 0.25), (1, 0.05))
    signed = word + ((2, -0.25), (0, -0.1))
    for segments, run in ((word, lambda w, v: pr.evolve(ControlSequence(w), v, table)),
                          (signed, lambda w, v: pr.evolve_signed(w, v, table))):
        spectral = psi0
        for k, t in segments:
            spectral = table.apply(k, t, spectral)
        assert np.linalg.norm(run(segments, psi0) - spectral) <= 1e-12
    G = table.matrix(1) + table.matrix(2)
    one_off, = pr.expm_apply(G, 0.4, [psi0])
    assert np.linalg.norm(one_off - expm_eigh(G, 0.4) @ psi0) <= 1e-12


def test_one_off_accepts_either_sign_of_t(rng):
    # e^{G (-t)} is e^{(-G) t}.  On the action path (dim >= 128) the Chebyshev
    # terms of the two differ only by exact sign flips, so the states are
    # equal bit for bit; below dim 128 two eigendecompositions agree to rounding
    tspec, table = _chain_table(6)  # dim 216
    G = table.matrix(1) + table.matrix(2)
    psi0 = _interior_state(tspec, rng)
    back, = pr.expm_apply(G, -0.4, [psi0])
    assert np.array_equal(back, pr.expm_apply(-G, 0.4, [psi0])[0])
    assert np.linalg.norm(back - expm_eigh(G, -0.4) @ psi0) <= 1e-12
    spec = TruncationSpec((24,))
    G = -1j * fock.represent(as_hermitian(q(0) * q(0) * q(0) + p(0) * p(0)), spec).toarray()
    psi0 = fock.ground_state(spec)
    back, = pr.expm_apply(G, -0.4, [psi0])
    assert np.linalg.norm(back - pr.expm_apply(-G, 0.4, [psi0])[0]) <= 1e-13
    assert np.linalg.norm(back - expm_eigh(G, -0.4) @ psi0) <= 1e-12


def test_rule_small_word_diagonalizes_each_generator(monkeypatch):
    spec = TruncationSpec((24,))
    table = pr.EvolutionTable({0: -1j * fock.represent(q(0), spec).toarray(),
                               1: -1j * fock.represent(p(0), spec).toarray()})
    calls = _count_eigh(monkeypatch)
    pr.evolve(ControlSequence(trotter_word(0, 1, 0.7, 16)), fock.ground_state(spec), table)
    assert calls == [24, 24]


def test_rule_large_chain_demo_never_diagonalizes(monkeypatch):
    spec = chains.ChainSpec(3, 1.0, ((0, 1, 1.0), (1, 2, 0.8)), (0,), 1)
    calls = _count_eigh(monkeypatch)
    target = synth.Sum(synth.Gen(0), synth.Gen(1))
    report, _, table = chains.chain_demo(spec, (8, 8, 8), [(target, 0.3)], 0.1, 64,
                                         synth.ExactInverter())
    assert report.all_ok and table.dim == 512
    assert calls == []


def test_action_repeat_builds_no_unitary(monkeypatch, rng):
    # dim 512: four applications per generator stay below dim // 64, so every
    # leaf takes the action path and no repeat may be squared
    tspec, table = _chain_table(8)
    psi0 = _interior_state(tspec, rng)
    word = pr.Repeat(pr.Concat((pr.Repeat(pr.Concat(((1, 0.05), (0, 0.1))), 2), (2, 0.02))), 2)
    assert pr.applications(word) == {0: 4, 1: 4, 2: 2}
    expected = flat_evolve(word, psi0, table)
    calls = _count_eigh(monkeypatch)

    def no_unitary(*args):
        raise AssertionError("dense unitary built on the action path")

    monkeypatch.setattr(table, "unitary", no_unitary)
    monkeypatch.setattr(np.linalg, "matrix_power", no_unitary)
    assert np.array_equal(pr.evolve_signed(word, psi0, table), expected)
    assert calls == []


def test_action_ignores_global_rng_state(rng):
    tspec, table = _chain_table(6)
    psi0 = _interior_state(tspec, rng)
    t = 5.0  # ||G t||_1 is hundreds: scipy would estimate norms randomly
    outs = []
    for seed in (0, 1):
        np.random.seed(seed)
        state = np.random.get_state()[1].copy()
        outs.append(table.act(2, t, psi0))
        assert np.array_equal(np.random.get_state()[1], state)
    assert np.array_equal(outs[0], outs[1])
    assert np.linalg.norm(outs[0] - table.apply(2, t, psi0)) <= 1e-12


@pytest.mark.parametrize("d", [4, 5, 6, 8, 9])  # dims 64, 125, 216, 512, 729
def test_chebyshev_action_matches_expm_skew_and_taylor_oracle(d, rng):
    tspec, table = _chain_table(d)
    G = table.matrix(2)
    norm = float(abs(G).sum(axis=0).max())
    action = pr._Action(G)
    psi0 = _interior_state(tspec, rng)
    for gt in (0.1, 3.0, 40.0, 500.0):  # ||G t||_1
        t = gt / norm
        U = expm_eigh(G, t)
        for sign, exact in ((1, U), (-1, U.conj().T)):
            out = action(sign * t, psi0)
            assert np.linalg.norm(out - exact @ psi0) <= 1e-12
            assert np.linalg.norm(out - expm_multiply_action(G, sign * t, psi0)) <= 1e-12
    assert np.max(np.abs(pr.expm_skew(G, t) - U)) <= 1e-12


@pytest.mark.parametrize("m", [1, 3, 8])
def test_chebyshev_block_equals_columns(m, rng):
    tspec, table = _chain_table(8)
    block = np.column_stack([_interior_state(tspec, rng) for _ in range(m)])
    for k, t in ((0, 0.3), (2, -0.7)):
        out = table.act(k, t, block)
        assert out.shape == block.shape
        for j in range(m):
            assert np.linalg.norm(out[:, j] - table.act(k, t, block[:, j])) <= 1e-14


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_action_kernel_is_scipys_product_bit_for_bit(index_dtype, rng):
    # the action calls the CSR kernels behind scipy's `@` directly, so a scipy
    # whose private kernels change name, signature or arithmetic fails here;
    # (2X) v is also 2 (X v) exactly, so storing 2X moves no bit
    tspec, table = _chain_table(8)  # dim 512
    G = table.matrix(2).copy()
    G.indptr, G.indices = G.indptr.astype(index_dtype), G.indices.astype(index_dtype)
    action = pr._Action(G)
    assert action.X2.indices.dtype == action.X2.indptr.dtype == index_dtype
    eye = scipy.sparse.eye_array(G.shape[0], format="csr")
    X = (1j * G - action.centre * eye) / action.radius
    assert np.array_equal(action.X2.indptr, X.indptr)
    assert np.array_equal(action.X2.indices, X.indices)
    assert (2.0 * X.data).tobytes() == action.X2.data.tobytes()
    block = np.column_stack([_interior_state(tspec, rng) for _ in range(8)])
    for v in (block[:, 0].copy(), block[:, :1], block):  # a state, a column, a block
        out = action.times(v, np.zeros(v.shape, dtype=complex))
        assert out.shape == v.shape
        assert out.tobytes() == (action.X2 @ v).tobytes() == (2.0 * (X @ v)).tobytes()


def _two_x_cases():
    """Skew generators whose 2X stresses the shift: rows that store no diagonal
    under a centre c != 0, diagonal entries equal to c, and q1 alone (c = 0)."""
    H = fock.represent(q(0), TruncationSpec((6,))).toarray()
    H[0, 0] = 5.0  # one stored diagonal entry: the other five rows gain 0 - c
    E = np.zeros((4, 4), dtype=complex)
    E[0, 0] = E[1, 1] = E[2, 2] = 0.5  # the interval [-0.5, 1.5]: c = 0.5 ...
    E[0, 1] = E[1, 0] = 1.0  # ... so each stored diagonal entry drops out, and row 3 gains 0 - c
    q1 = fock.represent(q(0, 3), TruncationSpec((8, 8, 8)))
    return {"missing-diagonal": -1j * scipy.sparse.csr_array(H),
            "diagonal-equal-to-c": -1j * scipy.sparse.csr_array(E), "q1-alone": -1j * q1}


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("case", ["missing-diagonal", "diagonal-equal-to-c", "q1-alone"])
def test_action_2x_is_scipys_operators_bit_for_bit(case, index_dtype):
    # _Action builds 2X from G's arrays; it must equal scipy's
    # (1j * G - c * eye) / r * 2.0 in every array, dtype and bit
    G = _two_x_cases()[case].copy()
    G.indptr, G.indices = G.indptr.astype(index_dtype), G.indices.astype(index_dtype)
    action = pr._Action(G)
    eye = scipy.sparse.eye_array(G.shape[0], format="csr")
    X2 = (1j * G - action.centre * eye) / (action.radius or 1.0) * 2.0
    assert (action.centre != 0.0) == (case != "q1-alone")
    for name in ("data", "indices", "indptr"):
        assert getattr(action.X2, name).dtype == getattr(X2, name).dtype
        assert getattr(action.X2, name).tobytes() == getattr(X2, name).tobytes()
    if case == "diagonal-equal-to-c":
        assert action.centre == 0.5 and action.X2.diagonal().tolist() == [0, 0, 0, -1.0]


def test_generator_setup_calls_no_scipy_sparse_arithmetic(monkeypatch):
    # a ratchet: a table checks its generators, and an action builds its 2X,
    # from the CSR arrays; no scipy operator runs (each allocates, merges and
    # re-validates a whole matrix)
    _, table = _chain_table(8)  # dim 512
    mats = {k: table.matrix(k) for k in table.indices()}

    def refuse(*args, **kwargs):
        raise AssertionError("scipy sparse arithmetic")

    monkeypatch.setattr(scipy.sparse._compressed._cs_matrix, "_binopt", refuse)
    monkeypatch.setattr(scipy.sparse._data._data_matrix, "_mul_scalar", refuse)
    with pytest.raises(AssertionError, match="arithmetic"):
        1j * mats[0] - mats[1]
    fresh = pr.EvolutionTable(mats)
    for k in mats:
        pr._Action(fresh.matrix(k))


@pytest.mark.parametrize("d", [256, 16])  # the action path, the spectral path
def test_a_nan_state_fails_the_norm_check(d):
    # a NaN drift compares False with NORM_TOL; it fails the check
    G = -1j * fock.represent(q(0), TruncationSpec((d,)))
    psi = np.full(d, d ** -0.5, dtype=complex)
    psi[1] = np.nan
    with pytest.raises(pr.NormDriftError, match="norm drift nan"):
        if d == 256:
            pr.expm_apply(G, 0.3, [psi])
        else:
            pr.evolve(ControlSequence(((0, 0.3),)), psi, pr.EvolutionTable({0: G}))


@pytest.mark.parametrize("rows", [511, 513])
def test_action_rejects_states_of_another_dim(rows, rng):
    # the kernel checks no bounds, so the action checks the shape `@` checked:
    # a short state would be read past its end, a long one half-evolved
    _, table = _chain_table(8)  # dim 512: one application takes the action path
    state = rng.standard_normal(rows) + 0j
    state /= np.linalg.norm(state)
    mismatch = "do not fit dim 512"
    for psi in (state, state[:, None], np.column_stack([state] * 3)):
        with pytest.raises(ValueError, match=mismatch):
            pr.evolve(ControlSequence(((1, 0.3),)), psi, table)
    for states in ([state], [state] * 3):
        with pytest.raises(ValueError, match=mismatch):
            pr.expm_apply(table.matrix(1), 0.3, states)
    with pytest.raises(ValueError, match=mismatch):  # a 3-D array of dim-512 rows
        table.act(1, 0.3, np.ones((512, 2, 2), dtype=complex) / 4)


def _assert_gershgorin_holds(G, eigenvalues=np.linalg.eigvalsh):
    action = pr._Action(G)
    w = eigenvalues(1j * G.toarray()).real
    slack = 1e-13 * action.radius  # the eigensolver's own rounding
    assert action.centre - action.radius - slack <= w.min()
    assert w.max() <= action.centre + action.radius + slack


@pytest.mark.parametrize("d", [4, 5, 6, 7, 8, 9])  # dims 64-729
def test_gershgorin_interval_contains_the_chain_spectra(d):
    _, table = _chain_table(d)
    for k in table.indices():
        _assert_gershgorin_holds(table.matrix(k))


def test_gershgorin_interval_contains_other_spectra(rng):
    _, table = _chain_table(6)  # dim 216: expr_matrix stays CSR
    _assert_gershgorin_holds(synth.expr_matrix(synth.Sum(synth.Gen(0), synth.Gen(2)), table))
    # q1 alone stores no diagonal, so the interval is centred at 0
    G = -1j * fock.represent(q(0, 3), TruncationSpec((8, 8, 8)))
    rows = np.repeat(np.arange(G.shape[0]), np.diff(G.indptr))
    assert not np.any(G.indices == rows)
    assert pr._Action(G).centre == 0.0
    _assert_gershgorin_holds(G)
    # skew-hermitian only to SKEW_TOL: the real parts of the spectrum stay inside
    _, table = _chain_table(4)
    P = rng.uniform(-1.0, 1.0, (64, 64))
    G = table.matrix(1) + scipy.sparse.csr_array(pr.SKEW_TOL / 4 * (P + P.T))
    assert 0 < pr._skew_defect(G) <= pr.SKEW_TOL
    _assert_gershgorin_holds(G, np.linalg.eigvals)


def _perfbench_workloads(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_dense_3mode_pass_degree_count(monkeypatch, tmp_path):
    # the 23 actions of a seed-1 dense-3mode benchmark pass took 1 663 terms
    # on the trace-centred 1-norm interval and take 1 364 on the Gershgorin one
    workloads = _perfbench_workloads(monkeypatch)
    sizes = []
    coefficients = pr.chebyshev_coefficients

    def counting(z):
        coeffs = coefficients(z)
        sizes.append(coeffs.size)
        return coeffs

    monkeypatch.setattr(pr, "chebyshev_coefficients", counting)
    for i, job in enumerate(workloads.job_list("dense-3mode", 1)):
        config = tmp_path / f"{i}.json"
        config.write_text(job.config_text())
        argv = [job.sub, "--config", str(config), "--out", str(tmp_path / f"out{i}"),
                "--seed", str(job.seed), "--jobs", "1"]
        assert cli.main(argv) == 0
    assert len(sizes) == 23
    assert sum(sizes) <= 1400


def test_shared_action_returns_serial_bytes(rng):
    # buffers belong to the call: threads sharing one cached action each get
    # what a serial call gets, byte for byte
    tspec, table = _chain_table(8)
    block = np.column_stack([_interior_state(tspec, rng) for _ in range(3)])
    work = [(k, t, psi) for k in table.indices() for t in (0.3, -0.7)
            for psi in (block[:, 0].copy(), block[:, :1], block)]
    serial = [table.act(*w).tobytes() for w in work]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(table.act, *w) for w in work * 8]
            outs = [f.result(timeout=60).tobytes() for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert outs == serial * 8


def test_chebyshev_degree_meets_tail_bound():
    def tail(a, K):  # sum_{k>K} 2 |J_k(a)|, in extended precision
        total, k = mpmath.mpf(0), K + 1
        while True:
            term = 2 * abs(mpmath.besselj(k, a))
            total += term
            if k > a + 10 and term < mpmath.mpf(10) ** -40:
                return total
            k += 1

    with mpmath.workdps(40):
        for z in (0.0, 1e-40, 1e-3, 0.4, -7.3, 50.0, -130.0, 500.0):
            coeffs = pr.chebyshev_coefficients(z)
            K = coeffs.size - 1
            a = mpmath.mpf(abs(z))
            assert tail(a, K) <= pr.CHEBYSHEV_TOL
            assert K == 0 or tail(a, K - 1) > pr.CHEBYSHEV_TOL
            for k in range(0, K + 1, max(1, K // 12)):
                power = (1, -1j, -1, 1j)[k % 4]  # (-i)^k
                exact = (1 if k == 0 else 2) * power * complex(mpmath.besselj(k, z))
                assert abs(coeffs[k] - exact) <= 1e-15


def test_table_spectrum_is_spectral_of_the_generator():
    # the table keeps recurrence.spectral(iM) bit for bit, and its phases use
    # the unshifted eigenvalues exactly as eigh(iM) returns them
    M = -1j * fock.represent(q(0), TruncationSpec((24,))).toarray()
    table = pr.EvolutionTable({0: M})
    sd, ref = table.spectra[0], rc.spectral(1j * M)
    assert table.spectra[0] is sd and sd.shift == ref.shift > 0
    for name in ("eigenvalues", "energies", "vectors"):
        assert getattr(sd, name).tobytes() == getattr(ref, name).tobytes()
    w, V = np.linalg.eigh(1j * M)
    U = (V * np.exp(-1j * w * 0.3)) @ V.conj().T
    assert table.unitary(0, 0.3).tobytes() == U.tobytes()


def test_shared_table_fills_each_cache_once(monkeypatch, rng):
    tspec, table = _chain_table(5)
    psi0 = _interior_state(tspec, rng)
    eigh_calls = _count_eigh(monkeypatch)
    built = []

    class CountingAction(pr._Action):
        def __init__(self, M):
            built.append(1)
            super().__init__(M)

    monkeypatch.setattr(pr, "_Action", CountingAction)
    work = [(path, k) for path in ("apply", "act") for k in table.indices()] * 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(getattr(table, path), k, 0.2, psi0) for path, k in work]
            outs = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(outs) == len(work)
    assert len(eigh_calls) == len(built) == len(table.indices())
