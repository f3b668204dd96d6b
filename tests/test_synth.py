import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.sparse

from recurq import chains, fock, propagate as pr, recurrence as rc, synth as sy
from recurq.fock import TruncationSpec
from recurq.synth import Bracket, Gen, Scale, Sum
from recurq.weyl import as_hermitian, p, q


@pytest.fixture(scope="module")
def system():
    # the standard q / p / q^2-flavored testbed plus a harmonic generator
    spec = TruncationSpec((32,), buffer=8)
    mats = {
        1: fock.represent(q(0), spec).matrix,
        2: fock.represent(p(0), spec).matrix,
        3: fock.represent(as_hermitian((p(0) * p(0) + q(0) * q(0)) * 0.5), spec).matrix,
        4: fock.represent(as_hermitian((p(0) * p(0) + q(0) * q(0)) * 0.5 + q(0)), spec).matrix,
    }
    table = pr.EvolutionTable({k: -1j * M for k, M in mats.items()})
    return spec, table


def test_leaf_compile(system):
    spec, table = system
    psi0 = fock.ground_state(spec)
    res = sy.compile_sequence(Gen(1), 1.3, 1e-9, 1, sy.ExactInverter(), psi0, table)
    assert isinstance(res.sequence, pr.ControlSequence)
    assert res.sequence.segments == ((1, 1.3),)


def test_sum_compile_meets_epsilon(system):
    spec, table = system
    psi0 = fock.ground_state(spec)
    res = sy.compile_sequence(Sum(Gen(1), Gen(2)), 0.7, 1e-3, 512,
                              sy.ExactInverter(), psi0, table)
    assert res.distance <= 1e-3
    d, f = sy.verify(res.sequence, psi0, Sum(Gen(1), Gen(2)), table, t=0.7)
    assert d <= 1e-3


def test_scale_negative_routes_through_inversion(system):
    spec, table = system
    psi0 = fock.ground_state(spec)
    inverter = rc.RecurrenceInverter(table.spectra, 1e-6, mode="pointwise", state=psi0)
    res = sy.compile_sequence(Scale(-1.0, Gen(3)), 1.0, 1e-5, 4, inverter, psi0, table)
    assert isinstance(res.sequence, pr.ControlSequence)
    (k, t_star), = res.sequence.segments
    assert k == 3 and abs(t_star - (4 * math.pi - 1.0)) < 1e-6
    assert res.distance < 1e-5
    assert res.plans


def test_bracket_compile_scalar(system):
    spec, table = system
    psi0 = fock.ground_state(spec)
    res = sy.compile_sequence(Bracket(Gen(1), Gen(2)), 0.25, 1e-3, 64,
                              sy.ExactInverter(), psi0, table)
    target = np.exp(-1j * 0.25) * psi0  # [H_1, H_2] = -i, duration 0.25
    assert pr.state_error(pr.evolve_signed(res.sequence.segments, psi0, table)
                          if isinstance(res.sequence, sy.SignedWord)
                          else pr.evolve(res.sequence, psi0, table), target) < 1e-3


def test_bracket_compile_physical_with_recurrence(system):
    spec, table = system
    psi0 = fock.ground_state(spec)
    inverter = rc.RecurrenceInverter(table.spectra, 1e-5, mode="pointwise", state=psi0)
    res = sy.compile_sequence(Bracket(Gen(3), Gen(4)), 0.04, 0.05, 8, inverter,
                              psi0, table)
    assert isinstance(res.sequence, pr.ControlSequence)
    assert all(t >= 0 for _, t in res.sequence.segments)
    assert res.distance <= 0.05


def test_finite_net_inverter_verifies_over_net(system):
    spec, table = system
    rng = np.random.default_rng(99)
    net = [fock.random_interior_state(spec, rng) for _ in range(3)]
    inverter = rc.RecurrenceInverter(table.spectra, 1e-5, mode="finite_net", net=net)
    psi0 = fock.ground_state(spec)
    res = sy.compile_sequence(Scale(-1.0, Gen(3)), 1.0, 1e-4, 4, inverter, psi0, table)
    # the achieved distance is the max over psi0 and every net state
    target_gen = sy.expr_matrix(Scale(-1.0, Gen(3)), table)
    worst = max(
        pr.state_error(pr.evolve(res.sequence, v, table),
                       pr.expm_skew(target_gen, 1.0) @ v)
        for v in [psi0] + net)
    assert worst <= res.distance + 1e-12
    assert res.plans and all(p.mode == rc.FINITE_NET for p in res.plans.values())


def test_exact_inverter_bracket_yields_signed_word(system):
    spec, table = system
    psi0 = fock.ground_state(spec)
    res = sy.compile_sequence(Bracket(Gen(3), Gen(4)), 0.04, 0.05, 8,
                              sy.ExactInverter(), psi0, table)
    assert isinstance(res.sequence, sy.SignedWord)
    assert not res.physical


def test_compile_budget_error(system):
    spec, table = system
    psi0 = fock.ground_state(spec)
    with pytest.raises(sy.CompileBudgetError) as err:
        sy.compile_sequence(Sum(Gen(1), Gen(2)), 0.7, 1e-6, 2,
                            sy.ExactInverter(), psi0, table)
    assert err.value.best_distance > 1e-6


def test_exact_inverse_error_converges(system):
    spec, table = system
    psi0 = fock.ground_state(spec)
    dists = []
    for budget in (1, 8, 64):
        try:
            res = sy.compile_sequence(Sum(Gen(1), Gen(3)), 0.6, 1e-12, budget,
                                      sy.ExactInverter(), psi0, table)
            dists.append(res.distance)
        except sy.CompileBudgetError as err:
            dists.append(err.best_distance)
    assert dists[1] < dists[0] and dists[2] < dists[1]


def test_verify_empty_sequence(system):
    spec, table = system
    psi0 = fock.ground_state(spec)
    d, f = sy.verify(pr.ControlSequence(()), psi0, psi0, table)
    assert d == 0.0 and f == 1.0


def test_verify_orthogonal_target(system):
    spec, table = system
    psi0 = fock.ground_state(spec)
    target = fock.fock_state(spec, (1,))
    d, f = sy.verify(pr.ControlSequence(()), psi0, target, table)
    assert abs(d - math.sqrt(2)) < 1e-12 and f == 0.0


def test_expr_helpers(system):
    spec, table = system
    expr = Scale(2.0, Sum(Gen(1), Bracket(Gen(1), Gen(2))))
    assert sy.expr_indices(expr) == {1, 2}
    G = sy.expr_matrix(expr, table)
    A, B = table.matrix(1).toarray(), table.matrix(2).toarray()
    assert np.allclose(G, 2.0 * (A + (A @ B - B @ A)))
    back = sy.expr_from_dict({"op": "scale", "factor": 2.0, "inner": {
        "op": "sum", "left": {"op": "gen", "k": 1},
        "right": {"op": "bracket", "left": {"op": "gen", "k": 1},
                  "right": {"op": "gen", "k": 2}}}})
    assert back == expr


def test_expr_matrix_is_sparse_on_the_action_path():
    # dim 216 >= 2 * SPECTRAL_DIVISOR: the oracle acts, so the expression
    # stays CSR; below it the expression is dense, as the oracle diagonalizes
    spec = chains.ChainSpec(3, 1.0, ((0, 1, 1.0), (1, 2, 0.8)), (0,), 1)
    expr = Scale(2.0, Sum(Gen(1), Bracket(Gen(1), Gen(2))))
    _, _, table = chains.chain_table(spec, (6, 6, 6), sy.expr_indices(expr))
    G = sy.expr_matrix(expr, table)
    assert isinstance(G, scipy.sparse.csr_array)
    A, B = table.matrix(1).toarray(), table.matrix(2).toarray()
    assert np.allclose(G.toarray(), 2.0 * (A + (A @ B - B @ A)), rtol=0, atol=1e-12)
    _, _, small = chains.chain_table(spec, (4, 4, 4), sy.expr_indices(expr))
    assert isinstance(sy.expr_matrix(expr, small), np.ndarray)


def test_build_word_bracket_negative_duration_swaps():
    w_pos = sy.build_word(Bracket(Gen(1), Gen(2)), 0.25, 2)
    w_neg = sy.build_word(Bracket(Gen(2), Gen(1)), -0.25, 2)
    assert w_pos == w_neg


def test_negative_duration_compiles_and_verifies(system):
    # e^{(H1 + H2)(-0.5)}: a word of reversed leaves against e^{-G |t|} psi0
    spec, table = system
    psi0 = fock.ground_state(spec)
    expr = Sum(Gen(1), Gen(2))
    res = sy.compile_sequence(expr, -0.5, 1e-3, 512, sy.ExactInverter(), psi0, table)
    assert isinstance(res.sequence, sy.SignedWord) and res.distance <= 1e-3
    d, _ = sy.verify(res.sequence, psi0, expr, table, t=-0.5)
    assert abs(d - res.distance) <= 1e-12


def test_depth_two_bracket_compiles_at_n32_without_flattening(monkeypatch):
    # [[q, p^2], q^3] at n = 32 is a flat word of 8n^4 + 2n^2 = 8 390 656
    # segments; as a tree it is a few dozen small matrix products
    spec = TruncationSpec((24,))
    ops = [q(0), as_hermitian(p(0) * p(0) * 0.5), as_hermitian(q(0) * q(0) * q(0) * 0.2)]
    table = pr.EvolutionTable({k + 1: -1j * fock.represent(op, spec).matrix
                               for k, op in enumerate(ops)})
    psi0 = fock.ground_state(spec)

    def no_flatten(word):
        raise AssertionError("the flat word was built")

    monkeypatch.setattr(pr, "flatten", no_flatten)
    monkeypatch.setattr(sy, "flatten", no_flatten)
    expr = Bracket(Bracket(Gen(1), Gen(2)), Gen(3))
    start = time.monotonic()
    res = sy.compile_sequence(expr, 0.29, 3e-3, 32, sy.ExactInverter(), psi0, table)
    assert time.monotonic() - start < 10.0
    assert res.n == 32 and len(res.sequence) == 8_390_656
    assert 2e-3 < res.distance <= 3e-3  # the first-order error halves with n


def test_report_generators_reach_themselves(system):
    spec, table = system
    psi0 = fock.ground_state(spec)
    targets = [(Gen(k), 0.4) for k in (1, 2, 3)]
    report = sy.reachability_report(table, psi0, targets, 1e-10, 1, sy.ExactInverter())
    assert report.all_ok
    assert all(r.distance < 1e-10 for r in report.records)
    assert all(not r.plans for r in report.records)  # no inversion used


def test_report_records_budget_failures(system):
    spec, table = system
    psi0 = fock.ground_state(spec)
    report = sy.reachability_report(table, psi0, [(Sum(Gen(1), Gen(2)), 0.7)],
                                    1e-9, 2, sy.ExactInverter())
    assert not report.all_ok
    rec = report.records[0]
    assert rec.status == "failed" and rec.distance is not None
    rows = report.summary_rows()
    assert rows[0][0] == "label" and len(rows) == 2


def test_report_parallel_matches_serial(system):
    spec, table = system
    psi0 = fock.ground_state(spec)
    targets = [(Gen(1), 0.3), (Gen(2), 0.2), (Sum(Gen(1), Gen(2)), 0.4)]
    serial = sy.reachability_report(table, psi0, targets, 1e-2, 64, sy.ExactInverter())
    parallel = sy.reachability_report(table, psi0, targets, 1e-2, 64,
                                      sy.ExactInverter(), jobs=3)
    assert [r.distance for r in serial.records] == [r.distance for r in parallel.records]


def test_target_record_dict_shares_its_plans_and_sequence():
    # a shallow dict: the sequence's shared segment dicts reach the JSON
    # writer as they are, so it encodes each distinct segment once
    sequence = pr.ControlSequence(pr.Repeat((1, 0.25), 8)).to_dict()
    record = sy.TargetRecord("G1 @ t=2.0", "ok", 8, 0.0, 1.0, 8, None, [{"N": 3}], sequence)
    data = record.to_dict()
    assert data == dataclasses.asdict(record)
    assert data["sequence"] is sequence and data["plans"] is record.plans
