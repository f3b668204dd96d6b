import numpy as np
import pytest

from recurq import chains as ch, fock, propagate as pr, synth as sy, weyl
from recurq.chains import ChainSpec, coupling_hamiltonian, drift
from recurq.weyl import as_hermitian, is_hermitian, p, q, skew_generator

from oracles import matrix_lie_closure, per_edge_controllability


def two_mode_chain(omega=1.0, cap=3):
    return ChainSpec(2, omega, ((0, 1, 1.0),), (0,), cap)


def three_mode_chain(omega=1.0, cap=3):
    return ChainSpec(3, omega, ((0, 1, 1.0), (1, 2, 1.0)), (0,), cap)


# -- coupling hamiltonian ---------------------------------------------------------

def test_coupling_omega_zero_is_local_harmonic():
    H = coupling_hamiltonian(0, 1, 0.0, 2)
    expected = as_hermitian(p(0, 2) * p(0, 2) + q(0, 2) * q(0, 2)
                            + p(1, 2) * p(1, 2) + q(1, 2) * q(1, 2))
    assert H.isclose(expected, 1e-14)


def test_coupling_omega_one_cross_terms():
    H = coupling_hamiltonian(0, 1, 1.0, 2)
    cross_q = tuple(((1, 0), (1, 0)))
    cross_p = tuple(((0, 1), (0, 1)))
    assert H.terms[cross_q] == -2.0
    assert H.terms[cross_p] == -2.0


def test_coupling_hermitian_and_symmetric():
    H = coupling_hamiltonian(0, 1, 0.7, 2)
    assert H.adjoint().isclose(H, 1e-14)
    assert H.isclose(coupling_hamiltonian(1, 0, 0.7, 2), 1e-14)


def test_coupling_rejects_equal_modes():
    with pytest.raises(ValueError):
        coupling_hamiltonian(1, 1, 1.0, 2)


# -- drift --------------------------------------------------------------------------

def test_drift_no_couplings_is_zero():
    spec = ChainSpec(2, 1.0, ((0, 1, 0.0),), (0,))
    assert drift(spec).is_zero


def test_drift_two_mode_equals_coupling():
    spec = two_mode_chain()
    assert drift(spec).isclose(coupling_hamiltonian(0, 1, 1.0, 2), 1e-14)


def test_drift_open_chain_locality():
    spec = three_mode_chain()
    d = drift(spec)
    for mono in d.terms:
        support = {i for i, (a, b) in enumerate(mono) if a or b}
        assert support != {0, 2}  # no q1 q3 / p1 p3 cross terms


def test_drift_spectrum_bounded_below():
    spec = two_mode_chain()
    rep = fock.represent(drift(spec), fock.TruncationSpec((8, 8)))
    evals = np.linalg.eigvalsh(rep.matrix)
    assert np.isfinite(evals[0])
    assert evals[0] > -1e-9  # positive semi-definite interaction


# -- control systems ------------------------------------------------------------------

def test_control_system_assembly():
    labels, hams = ch.control_system(two_mode_chain(cap=3))
    assert labels[0] == "drift"
    assert len(hams) == 5  # drift plus p, q, q^2, q^3
    for H in hams:
        assert is_hermitian(H)
        assert weyl.is_skew_hermitian(skew_generator(H))


def test_control_system_hermitian_before_conversion():
    spec = two_mode_chain()
    H0 = drift(spec)
    for _, ctrl in ch.local_controls(spec):
        assert is_hermitian(ctrl)
        assert is_hermitian(as_hermitian(H0 + ctrl))
    _, hams = ch.control_system(spec)
    expected = [H0] + [as_hermitian(H0 + ctrl) for _, ctrl in ch.local_controls(spec)]
    assert [H.terms for H in hams] == [H.terms for H in expected]


def test_control_system_requires_sites():
    with pytest.raises(ValueError):
        ch.control_system(ChainSpec(2, 1.0, ((0, 1, 1.0),), ()))


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(2, 1.0, ((0, 0, 1.0),), (0,))
    with pytest.raises(ValueError):
        ChainSpec(2, 1.0, ((0, 1, -0.5),), (0,))
    with pytest.raises(ValueError):
        ChainSpec(2, -1.0, ((0, 1, 1.0),), (0,))
    with pytest.raises(ValueError):
        ChainSpec(2, 1.0, ((0, 2, 1.0),), (0,))
    with pytest.raises(ValueError):
        ChainSpec(2, 1.0, ((-1, -2, 1.0),), (0,))
    spec = ChainSpec(2, 1.0, ((1, 0, 0.3),), (0,))
    assert spec.couplings == ((0, 1, 0.3),)


def test_chain_spec_bounds_coefficients():
    # a coupling is blamed once the strengths summed at one of its modes
    # carry a coefficient past the bound; omega is blamed first
    big = 0.6 * ch.MAX_COEFFICIENT
    assert ChainSpec(3, 0.0, ((0, 1, big), (2, 1, 0.0)), (0,)).couplings[0][2] == big
    for omega, couplings, field in [(1e160, ((0, 1, 1e300),), "omega"),
                                    (0.0, ((0, 1, big), (2, 1, big)), "couplings[1]"),
                                    (1.0, ((1, 2, 1.0), (0, 1, 1e300)), "couplings[1]")]:
        with pytest.raises(ch.ChainParameterError) as err:
            ChainSpec(3, omega, couplings, (0,))
        assert err.value.field == field


def test_chain_spec_json_roundtrip():
    spec = three_mode_chain()
    assert ChainSpec.from_dict(spec.to_dict()) == spec


# -- controllability propagation -------------------------------------------------------

def test_chain_propagates_three_modes():
    for cap, dims in ((4, (70, 70)), (5, (126, 126))):
        report = ch.chain_controllability(three_mode_chain(), degree_cap=cap, dim_cap=256)
        assert report.verdict == weyl.PROPAGATES
        assert [v.edge for v in report.edge_verdicts] == [(0, 1), (1, 2)]
        assert all(v.verdict == weyl.PROPAGATES for v in report.edge_verdicts)
        assert tuple(v.closure_dim for v in report.edge_verdicts) == dims
        assert not report.unreachable_modes


# every (omega, cap, dim_cap) once, on chains of 2-6 modes controlled at one
# end, in the middle and at both ends, so that edges (u, v) with u > v occur;
# the 0.0 strength every fourth edge leaves modes unreachable
PAIR_CHECKS = [(omega, cap, dim_cap) for omega in (0.0, 0.5, 1.0, 1.3)
               for cap in (2, 3, 4, 5) for dim_cap in (8, 64, 256)]
CHAIN_LAYOUTS = [(n, sites) for n in range(2, 7) for sites in ((0,), (n // 2,), (0, n - 1))]


@pytest.mark.parametrize("k", range(len(PAIR_CHECKS)))
def test_one_pair_check_matches_a_check_per_edge(k):
    omega, cap, dim_cap = PAIR_CHECKS[k]
    n, sites = CHAIN_LAYOUTS[k % len(CHAIN_LAYOUTS)]
    couplings = tuple((i, i + 1, (1.0, 0.5, 0.0, 2.0)[i % 4]) for i in range(n - 1))
    spec = ChainSpec(n, omega, couplings, sites, min(cap, 3))
    report = ch.chain_controllability(spec, degree_cap=cap, dim_cap=dim_cap).to_dict()
    assert report == per_edge_controllability(spec, cap, dim_cap)


def test_chain_runs_at_most_one_pair_check(monkeypatch):
    calls = []
    check = ch.algebraic_propagation_check

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(ch, "algebraic_propagation_check", counted)
    spec = ChainSpec(6, 1.0, tuple((i, i + 1, 1.0) for i in range(5)), (0,))
    report = ch.chain_controllability(spec, degree_cap=3)
    assert len(report.edge_verdicts) == 5 and report.controllable
    assert len(calls) == 1


def test_site_closures_stay_in_the_one_mode_frame(monkeypatch):
    # a 200-mode chain is decided from 1- and 2-mode polynomials: no n-mode
    # drift, no PolyOp of more than 2 modes, and no basis PolyOp built from
    # a closure's rows; the zero coupling leaves site 199 without a drift term
    def refused(*args, **kwargs):
        raise AssertionError("n-mode drift or closure basis built")

    frames, built = [], []

    def recorded(fn):
        def wrapped(gens, *args, **kwargs):
            gens = list(gens)
            frames.append({g.mode_count for g in gens})
            return fn(gens, *args, **kwargs)
        return wrapped

    trusted, post_init = weyl._trusted, weyl.PolyOp.__post_init__
    monkeypatch.setattr(ch, "drift", refused)
    monkeypatch.setattr(weyl, "_from_vector", refused)
    monkeypatch.setattr(weyl, "_trusted", lambda m, *a: built.append(m) or trusted(m, *a))
    monkeypatch.setattr(weyl.PolyOp, "__post_init__",
                        lambda op: built.append(op.mode_count) or post_init(op))
    monkeypatch.setattr(weyl, "lie_closure", recorded(weyl.lie_closure))
    monkeypatch.setattr(ch, "lie_closure", recorded(ch.lie_closure))
    monkeypatch.setattr(ch, "algebraic_propagation_check",
                        recorded(ch.algebraic_propagation_check))
    couplings = tuple((i, i + 1, 1.0 if i < 198 else 0.0) for i in range(199))
    report = ch.chain_controllability(ChainSpec(200, 1.0, couplings, (0, 100, 199)))
    assert report.controllable and report.unreachable_modes == ()
    assert len(report.edge_verdicts) == 197
    assert report.site_closure_dims == {0: 15, 100: 15, 199: 5}
    # the pair check, its closure and the three site closures
    assert len(frames) == 5 and set().union(*frames) <= {1, 2}
    assert built and max(built) <= 2


@pytest.mark.parametrize("cap", [17, 300, 10**6])
def test_chain_refuses_a_cap_before_building_generators(monkeypatch, cap):
    # the local generating set costs O(cap^3) to build: no cap the two-mode
    # table refuses may reach it
    def built(*args):
        raise AssertionError("generators built before the cap check")

    monkeypatch.setattr(ch, "local_skew_generators", built)
    spec = ChainSpec(2, 1.0, ((0, 1, 1.0),), (0,))
    with pytest.raises(weyl.CapError):
        ch.chain_controllability(spec, degree_cap=cap)


def test_chain_decoupled_fails():
    report = ch.chain_controllability(three_mode_chain(omega=0.0), degree_cap=4)
    assert report.verdict == weyl.FAILS
    assert report.unreachable_modes == (1, 2)


def test_chain_disconnected_graph_reported():
    spec = ChainSpec(3, 1.0, ((0, 1, 1.0),), (0,))  # no edge to mode 2
    report = ch.chain_controllability(spec, degree_cap=3)
    assert 2 in report.unreachable_modes
    assert not report.controllable


def test_chain_verdict_monotone_in_controls():
    base = ChainSpec(2, 1.0, ((0, 1, 1.0),), (0,), 2)
    more = ChainSpec(2, 1.0, ((0, 1, 1.0),), (0,), 3)
    r1 = ch.chain_controllability(base, degree_cap=3)
    r2 = ch.chain_controllability(more, degree_cap=3)
    assert r1.verdict == weyl.PROPAGATES
    assert r2.verdict == weyl.PROPAGATES  # adding a control never flips to fails
    assert r2.site_closure_dims[0] >= r1.site_closure_dims[0]


def test_chain_matrix_cross_validation():
    # independent check at four levels per mode: representing the local
    # controls and their drift brackets and closing under *matrix* brackets
    # must reach the full anti-hermitian algebra when propagation holds, and
    # stay mode-local when the coupling is off
    tspec = fock.TruncationSpec((4, 4))

    def matrix_generators(omega):
        spec = two_mode_chain(omega=omega)
        coupling = drift(spec)
        locals_ = [q(0, 2), p(0, 2), as_hermitian(q(0, 2) * q(0, 2)),
                   as_hermitian(q(0, 2) * q(0, 2) * q(0, 2))]
        mats = [-1j * fock.represent(h, tspec).matrix for h in locals_]
        Hc = fock.represent(coupling, tspec).matrix
        brackets = [m @ (-1j * Hc) - (-1j * Hc) @ m for m in mats]
        return mats + brackets

    basis1, member1 = matrix_lie_closure(matrix_generators(1.0), dim_cap=300)
    assert len(basis1) == 256  # full u(16): every direction is reachable
    two_mode_gen = -1j * fock.represent(as_hermitian(q(1, 2) * q(1, 2)), tspec).matrix
    assert member1(two_mode_gen)

    basis0, member0 = matrix_lie_closure(matrix_generators(0.0), dim_cap=300)
    assert len(basis0) <= 16  # never leaves the first mode
    assert not member0(two_mode_gen)


# -- demo -------------------------------------------------------------------------------

def test_chain_demo_trivial_target():
    spec = two_mode_chain()
    report, labels, table = ch.chain_demo(spec, (6, 6), [(sy.Gen(0), 0.0)],
                                          epsilon=1e-9, n_budget=1,
                                          inverter=sy.ExactInverter())
    assert report.all_ok
    assert report.records[0].distance < 1e-12


def test_chain_demo_two_mode_target():
    spec = two_mode_chain()
    report, labels, table = ch.chain_demo(
        spec, (8, 8), [(sy.Sum(sy.Gen(0), sy.Gen(2)), 0.3)],
        epsilon=0.05, n_budget=64, inverter=sy.ExactInverter())
    assert report.all_ok
    rec = report.records[0]
    assert rec.fidelity >= 0.99
    assert rec.sequence is not None
    assert all(s["t"] >= 0 for s in rec.sequence["segments"])


def test_chain_demo_decoupled_cannot_move_mode_two():
    spec = ChainSpec(2, 1.0, ((0, 1, 0.0),), (0,), 3)
    tspec = fock.TruncationSpec((6, 6))
    # target: excite mode 2 -- impossible without coupling
    target_state = fock.fock_state(tspec, (0, 1))
    labels, hams = ch.control_system(spec)
    reps = {k: -1j * fock.represent(h, tspec).matrix for k, h in enumerate(hams)}
    table = pr.EvolutionTable(reps)
    psi0 = fock.ground_state(tspec)
    best = 0.0
    for k in reps:
        out = pr.evolve(pr.ControlSequence(((k, 0.7),)), psi0, table)
        best = max(best, pr.fidelity(out, target_state))
    assert best < 1e-9  # decoupled dynamics never populate mode 2


def test_chain_demo_rejects_large_systems():
    with pytest.raises(ValueError):
        ch.chain_demo(ChainSpec(4, 1.0, ((0, 1, 1.0),), (0,)), (4, 4, 4, 4), [],
                      1e-3, 4, sy.ExactInverter())
