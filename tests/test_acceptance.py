"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line and enforcing its runtime budget.  Run with ``pytest -s`` to
see the lines for passing criteria too.

Criterion 3 is split into its two clauses.  The exact-inverse clause passes;
the recurrence-inverter clause at delta = 1e-5 is implemented faithfully and
fails honestly: the truncated position/momentum spectra are incommensurate
Gauss-Hermite nodes, and aligning ~30 independent phases to ~1e-6 each needs
recurrence times around 1e70 natural units (the search reports its best
objective instead).  See the repository notes for the full analysis.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from recurq import chains as ch, fock, propagate as pr, recurrence as rc, synth as sy, weyl
from recurq.fock import TruncationSpec
from recurq.weyl import as_hermitian, bracket, p, q, skew_generator

from conftest import random_polyop
from oracles import interior_block, matrix_lie_closure

PLANS = []  # every certified plan produced by the suite; criterion 7 audits them


@contextmanager
def criterion(number, description, limit_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"[FAIL] criterion {number}: {description} ({elapsed:.1f}s)")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= limit_s:
        print(f"[FAIL] criterion {number}: {description} "
              f"(runtime {elapsed:.1f}s over the {limit_s}s budget)")
        raise AssertionError(f"criterion {number} exceeded {limit_s}s ({elapsed:.1f}s)")
    print(f"[PASS] criterion {number}: {description} ({elapsed:.1f}s)")


def _harmonic(spec):
    return fock.represent(as_hermitian((p(0) * p(0) + q(0) * q(0)) * 0.5), spec).matrix


def test_c01_ccr_and_symbolic_soundness():
    with criterion(1, "CCR + symbolic soundness vs matrix oracle", 30):
        rng = np.random.default_rng(101)
        assert bracket(q(0), p(0)).terms == {((0, 0),): 1j}

        polys = [random_polyop(rng, mode_count=2, max_degree=4) for _ in range(200)]
        for A, B in zip(polys[::2], polys[1::2]):
            ab, ba = bracket(A, B), bracket(B, A)
            assert ab.terms.keys() == ba.terms.keys()
            assert all(ba.terms[m] == -c for m, c in ab.terms.items())
        for A, B, C in zip(polys[::3], polys[1::3], polys[2::3]):
            total = (bracket(A, bracket(B, C)) + bracket(B, bracket(C, A))
                     + bracket(C, bracket(A, B)))
            scale = max(A.coefficient_norm() * B.coefficient_norm()
                        * C.coefficient_norm(), 1.0)
            assert total.coefficient_norm() <= 1e-9 * scale

        spec1 = TruncationSpec((24,))
        for _ in range(20):
            A = random_polyop(rng, mode_count=1, max_degree=4)
            B = random_polyop(rng, mode_count=1, max_degree=4)
            buf = max(A.degree, B.degree, 1)
            MA, MB = (fock.represent(X, spec1).matrix for X in (A, B))
            diff = fock.represent(bracket(A, B), spec1).matrix - (MA @ MB - MB @ MA)
            assert np.max(np.abs(interior_block(diff, spec1, buf))) < 1e-8
        spec2 = TruncationSpec((24, 24))
        for _ in range(6):
            A = random_polyop(rng, mode_count=2, max_degree=4)
            B = random_polyop(rng, mode_count=2, max_degree=4)
            buf = max(A.degree, B.degree, 1)
            MA, MB = (fock.represent(X, spec2).matrix for X in (A, B))
            diff = fock.represent(bracket(A, B), spec2).matrix - (MA @ MB - MB @ MA)
            assert np.max(np.abs(interior_block(diff, spec2, buf))) < 1e-8


def test_c02_trotter_convergence():
    with criterion(2, "splitting formula convergence on the q/p pair", 10):
        spec = TruncationSpec((32,))
        table = pr.EvolutionTable({
            1: -1j * fock.represent(q(0), spec).matrix,
            2: -1j * fock.represent(p(0), spec).matrix,
        })
        psi0 = fock.ground_state(spec)
        errors = dict(pr.trotter_errors(1, 2, 0.7, [16, 64, 256], psi0, table))
        assert errors[64] <= errors[16] / 3
        assert errors[256] <= errors[64] / 3
        assert errors[256] < 1e-3


QP_BRACKET = sy.Bracket(sy.Gen(1), sy.Gen(2))  # [q, p]: e^{[H_1, H_2] t^2}


def _scalar_bracket_system():
    spec = TruncationSpec((32,))
    table = pr.EvolutionTable({
        1: -1j * fock.represent(q(0), spec).matrix,
        2: -1j * fock.represent(p(0), spec).matrix,
    })
    return spec, table


def test_c03a_group_commutator_exact_inverse():
    with criterion("3a", "group-commutator scalar bracket, exact-inverse", 60):
        spec, table = _scalar_bracket_system()
        psi0 = fock.ground_state(spec)
        t, n = 0.5, 32
        out = pr.evolve_signed(sy.build_word(QP_BRACKET, t * t, n), psi0, table)
        target = np.exp(-1j * t * t) * psi0
        assert pr.fidelity(out, target) > 0.999


def test_c03b_group_commutator_recurrence_inverter():
    with criterion("3b", "group-commutator with recurrence inverter, delta=1e-5", 60):
        spec, table = _scalar_bracket_system()
        psi0 = fock.ground_state(spec)
        t, n, delta = 0.5, 32, 1e-5
        inverter = rc.RecurrenceInverter(table.spectra, delta, mode="pointwise",
                                         state=psi0, t_max=2e4)
        try:
            word, _ = pr.realize_word(sy.build_word(QP_BRACKET, t * t, n), inverter)
            seq = pr.ControlSequence(word)
        except rc.RecurrenceSearchError as exc:
            pytest.fail(
                "recurrence inverter found no certified time for the truncated "
                f"position flow: {exc}. The spectrum (Gauss-Hermite nodes) is "
                "incommensurate, and per-segment accuracy 1e-5 needs recurrence "
                "times far beyond any numerical horizon; see notes/decisions.md."
            )
        exact = pr.evolve_signed(sy.build_word(QP_BRACKET, t * t, n), psi0, table)
        physical = pr.evolve(seq, psi0, table)
        assert pr.state_error(physical, exact) <= 4 * n * n * delta


def test_c04_recurrence_certificate_harmonic():
    with criterion(4, "pointwise recurrence certificate on the oscillator", 5):
        spec = TruncationSpec((32,), buffer=8)
        H = _harmonic(spec)
        sd = rc.spectral(H)
        rng = np.random.default_rng(404)
        psi = fock.random_interior_state(spec, rng)
        c = sd.overlaps(psi)
        assert rc.recurrence_distance(c, sd.energies, 4 * math.pi) < 1e-6

        res = rc.invert(sd, 1.0, 1e-6, state=psi)
        PLANS.append(res.plan)
        assert abs(res.t_star - (4 * math.pi - 1.0)) < 1e-6
        table = pr.EvolutionTable({0: -1j * H})
        lhs = pr.evolve_signed([(0, -1.0)], psi, table)
        rhs = table.apply(0, res.t_star, psi)
        assert np.linalg.norm(lhs - rhs) < 1e-6


def test_c05_energy_bound_certificate():
    with criterion(5, "state-independent energy-bound certificate", 60):
        M, delta = 3.0, 0.2
        levels = rc.polynomial_levels(128, (0.0, 1.0, 0.05))
        N, bound = rc.tail_cut_energy(levels, M, delta)
        assert levels[N + 1] >= 8.0 * M / delta ** 2
        plan = rc.plan_recurrence(levels, delta, rc.ENERGY_BOUND,
                                  energy_bound=M, tau_min=1.0)
        PLANS.append(plan)
        assert plan.achieved_sum < delta ** 2 / 4
        assert plan.tail_mass <= delta ** 2 / 8

        E64 = levels[:64]
        rng = np.random.default_rng(505)
        failures = 0
        for _ in range(100):
            amp = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * np.exp(-E64)
            c = amp / np.linalg.norm(amp)
            while float(np.sum(np.abs(c) ** 2 * E64)) >= M:
                amp *= np.exp(-0.05 * E64)
                c = amp / np.linalg.norm(amp)
            if rc.recurrence_distance(c, E64, plan.time) >= delta:
                failures += 1
        assert failures == 0


def test_c06_finite_net_uniformity():
    with criterion(6, "finite-net uniform certificate", 60):
        eps = 0.3
        delta = eps / 3.0
        s = 1.0
        spec = TruncationSpec((32,), buffer=8)
        H = _harmonic(spec)
        sd = rc.spectral(H)
        rng = np.random.default_rng(606)
        net = [fock.random_interior_state(spec, rng) for _ in range(5)]
        res = rc.invert(sd, s, delta, mode=rc.FINITE_NET, net=net)
        PLANS.append(res.plan)
        t_star = res.t_star

        table = pr.EvolutionTable({0: -1j * H})
        checked = 0
        for i in range(50):
            anchor = net[i % len(net)]
            bump = (rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim))
            bump[~fock.interior_mask(spec)] = 0.0
            bump *= (0.3 * delta) / np.linalg.norm(bump)
            psi = fock.normalize(anchor + bump)
            assert np.linalg.norm(psi - anchor) < delta  # inside the net ball
            lhs = pr.evolve_signed([(0, -s)], psi, table)
            rhs = table.apply(0, t_star, psi)
            assert np.linalg.norm(lhs - rhs) < eps
            checked += 1
        assert checked == 50


def test_c07_delta_decomposition_of_all_plans():
    with criterion(7, "delta decomposition audited on every plan", 30):
        plans = list(PLANS)
        if not plans:  # standalone run: rebuild a representative set
            spec = TruncationSpec((32,), buffer=8)
            sd = rc.spectral(_harmonic(spec))
            rng = np.random.default_rng(707)
            psi = fock.random_interior_state(spec, rng)
            plans.append(rc.invert(sd, 1.0, 1e-4, state=psi).plan)
            plans.append(rc.plan_recurrence(rc.polynomial_levels(128, (0.0, 1.0, 0.05)),
                                            0.2, rc.ENERGY_BOUND, energy_bound=3.0,
                                            tau_min=1.0))
        for plan in plans:
            assert 2.0 * plan.achieved_sum + 4.0 * plan.tail_mass < plan.delta ** 2
            assert plan.guaranteed_distance < plan.delta


def test_c08_lie_closures():
    with criterion(8, "dynamical Lie algebra closures", 10):
        iq = skew_generator(q(0))
        ip = skew_generator(p(0))
        iq2 = skew_generator(as_hermitian(q(0) * q(0)))
        ip2 = skew_generator(as_hermitian(p(0) * p(0)))
        iq3 = skew_generator(as_hermitian(q(0) * q(0) * q(0)))

        b1 = weyl.lie_closure([iq, ip], 6, 64)
        assert b1.dim == 3 and b1.saturated
        b2 = weyl.lie_closure([iq2, ip2], 6, 64)
        assert b2.dim == 3 and b2.saturated
        b3 = weyl.lie_closure([iq2, ip2, iq], 6, 64)
        assert b3.dim == 6 and b3.saturated
        b4 = weyl.lie_closure([iq3, ip2], 6, 64)
        assert not b4.saturated and b4.degree_capped


def test_c09_chain_propagation():
    with criterion(9, "algebraic propagation along the chain", 120):
        spec3 = ch.ChainSpec(3, 1.0, ((0, 1, 1.0), (1, 2, 1.0)), (0,), 3)
        report = ch.chain_controllability(spec3, degree_cap=4, dim_cap=256)
        assert [v.edge for v in report.edge_verdicts] == [(0, 1), (1, 2)]
        assert all(v.verdict == weyl.PROPAGATES for v in report.edge_verdicts)
        assert report.verdict == weyl.PROPAGATES

        report0 = ch.chain_controllability(
            ch.ChainSpec(3, 0.0, ((0, 1, 1.0), (1, 2, 1.0)), (0,), 3), degree_cap=4)
        assert report0.verdict == weyl.FAILS

        # independent truncated-matrix cross-validation, N=2 at D=4 per mode
        tspec = TruncationSpec((4, 4))

        def matrix_generators(omega):
            coupling = ch.coupling_hamiltonian(0, 1, omega, 2)
            locals_ = [q(0, 2), p(0, 2), as_hermitian(q(0, 2) * q(0, 2)),
                       as_hermitian(q(0, 2) * q(0, 2) * q(0, 2))]
            mats = [-1j * fock.represent(h, tspec).matrix for h in locals_]
            Hc = fock.represent(coupling, tspec).matrix
            return mats + [m @ (-1j * Hc) - (-1j * Hc) @ m for m in mats]

        basis1, member1 = matrix_lie_closure(matrix_generators(1.0), dim_cap=300)
        assert len(basis1) == 256  # the full algebra at this truncation
        probe = -1j * fock.represent(as_hermitian(q(1, 2) * q(1, 2)), tspec).matrix
        assert member1(probe)
        basis0, member0 = matrix_lie_closure(matrix_generators(0.0), dim_cap=300)
        assert len(basis0) <= 16 and not member0(probe)


def test_c10_chain_demo_end_to_end():
    with criterion(10, "indirect-control demo on the two-mode chain", 300):
        spec = ch.ChainSpec(2, 1.0, ((0, 1, 1.0),), (0,), 3)
        # two-mode target generator: drift plus the q_1 control leg
        target = (sy.Sum(sy.Gen(0), sy.Gen(2)), 0.3)
        report, labels, table = ch.chain_demo(
            spec, (8, 8), [target], epsilon=0.1, n_budget=256,
            inverter=sy.ExactInverter())
        assert report.all_ok
        rec = report.records[0]
        assert rec.fidelity >= 0.99
        assert rec.sequence is not None, "the emitted sequence must be physical"
        assert all(seg["t"] >= 0 for seg in rec.sequence["segments"])
        assert rec.n >= 2  # adaptive doubling actually refined the word
