import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurq import chains, cli, fock, propagate, recurrence, synth, weyl

from oracles import per_edge_controllability

SRC = Path(__file__).resolve().parents[1] / "src"


def run(subcommand, config, tmp_path, seed=0, name="run"):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"{name}_out"
    rc_code = cli.main([subcommand, "--config", str(cfg), "--out", str(out),
                        "--seed", str(seed)])
    return rc_code, out


HARMONIC = {"poly": "(0.5,0) * q1^2 + (0.5,0) * p1^2", "mode_count": 1, "dims": [32]}
QP_SYSTEM = {
    "mode_count": 1,
    "dims": [32],
    "generators": ["(1,0) * q1", "(1,0) * p1"],
}


def test_unknown_subcommand_usage():
    assert cli.main(["frobnicate", "--config", "x", "--out", "y"]) == cli.EXIT_USAGE


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    # two runs in one process, a usage error then a good run, share one parser
    built, real = [], cli.build_parser
    usage = real().format_usage()
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    assert cli.main(["frobnicate", "--config", "x", "--out", "y"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(usage)
    assert "invalid choice: 'frobnicate'" in err
    config = {"mode_count": 1, "generators": ["(0,1) * q1^2", "(0,1) * p1^2"]}
    rc_code, out = run("closure", config, tmp_path)
    assert rc_code == cli.EXIT_OK
    assert json.loads((out / "report.json").read_text())["dim"] == 3
    assert cli.main(["closure", "--config", str(tmp_path / "run.json")]) == cli.EXIT_USAGE
    assert "required: --out" in capsys.readouterr().err
    assert len(built) == 1


def test_schema_violation_reports_path(tmp_path, capsys):
    rc_code, _ = run("recur", {"delta": 0.1, "mode": "pointwise"}, tmp_path)
    assert rc_code == cli.EXIT_USAGE
    assert "hamiltonian" in capsys.readouterr().err
    # a coupling is exactly [mode, mode, strength]: no fractional modes read
    # as an edge, no string or boolean strength read as a number
    for coupling in ([0.5, 1.7, 1.0], [0, 1, "1.0"], [0, 1, True], [0, 1], [0, 1, 1.0, 2],
                     [0, -1, 1.0], [0, 1, -0.5]):
        chain = {"n_modes": 2, "omega": 1.0, "couplings": [coupling], "control_sites": [0]}
        rc_code, _ = run("propagation", {"chain": chain}, tmp_path)
        assert rc_code == cli.EXIT_USAGE
        assert "$.chain.couplings[0]" in capsys.readouterr().err


def test_recur_harmonic_emits_4pi_plan(tmp_path):
    config = {"hamiltonian": HARMONIC, "delta": 1e-3, "mode": "pointwise",
              "state": {"fock": [0]}, "tau_min": 1.0}
    rc_code, out = run("recur", config, tmp_path)
    assert rc_code == cli.EXIT_OK
    plan = json.loads((out / "plan.json").read_text())
    assert abs(plan["time"] - 4 * math.pi) < 1e-5
    assert (out / "scan.csv").exists()


def test_recur_search_failure_exit_code(tmp_path):
    # two incommensurate head frequencies at a tiny delta: honest not-found
    config = {"hamiltonian": {"levels": [1.0, 2 ** 0.5, 3 ** 0.5, 5 ** 0.5]},
              "delta": 1e-6, "mode": "energy_bound", "energy_bound": 1.875e-13,
              "tau_min": 0.5, "t_max": 30.0}
    rc_code, out = run("recur", config, tmp_path)
    assert rc_code == cli.EXIT_FAILURE
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "failed"
    assert report["best_objective"] > 0
    levels = config["hamiltonian"]["levels"]
    N, _ = recurrence.tail_cut_energy(levels, config["energy_bound"], config["delta"])
    E = np.array(levels[: N + 1])
    assert report["best_objective"] == float(np.sum(1.0 - np.cos(E * report["best_time"])))
    assert report["grid_points"] > 1 and report["grid_step"] > 0
    assert report["refine_cut"] > report["threshold"]
    assert report["frequencies"] == N + 1 and report["t_max"] == 30.0


def test_recur_exhausted_spectrum_exit_code(tmp_path):
    config = {"hamiltonian": {"levels": [1.0, 2 ** 0.5, 3 ** 0.5, 5 ** 0.5]},
              "delta": 1e-3, "mode": "energy_bound", "energy_bound": 10.0,
              "tau_min": 0.5, "t_max": 30.0}
    rc_code, out = run("recur", config, tmp_path)
    assert rc_code == cli.EXIT_FAILURE
    report = json.loads((out / "report.json").read_text())
    assert "tail threshold" in report["error"]


@pytest.mark.parametrize("hamiltonian", [
    {"levels": [5.0]}, {"level_formula": {"count": 1, "coeffs": [5.0]}},
], ids=["levels", "level-formula"])
def test_recur_one_level_spectrum_exit_code(hamiltonian, tmp_path):
    # E_0 already passes the tail threshold, and no E_1 bounds the tail past
    # N = 0: an exhausted spectrum, not an IndexError
    config = {"hamiltonian": hamiltonian, "delta": 0.5, "mode": "energy_bound",
              "energy_bound": 0.01}
    rc_code, out = run("recur", config, tmp_path)
    assert rc_code == cli.EXIT_FAILURE
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "failed" and "no E_1" in report["error"]


def test_closure_subcommand(tmp_path):
    config = {"mode_count": 1, "generators": ["(0,1) * q1^2", "(0,1) * p1^2"],
              "degree_cap": 6, "dim_cap": 64}
    rc_code, out = run("closure", config, tmp_path)
    assert rc_code == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["dim"] == 3 and report["saturated"]


def test_closure_checks_its_generators_without_adjoints(tmp_path, monkeypatch):
    # lie_closure's vectorized skewness check is the only one: a role check
    # by PolyOp.adjoint cost seconds at the mode-count limit
    def refuse(self):
        raise AssertionError("PolyOp.adjoint called")

    monkeypatch.setattr(weyl.PolyOp, "adjoint", refuse)
    config = {"mode_count": weyl.MAX_MODES, "degree_cap": 4,
              "generators": ["(0,1) * q1^2", "(0,1) * p1^2", "(0,1) * q1 q2"]}
    rc_code, out = run("closure", config, tmp_path)
    assert rc_code == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["dim"] == 6 and report["saturated"]


@pytest.mark.parametrize("generators,index", [
    (["(0,1) * q1^2", "(1,0) * q1^2", "(0,1) * p1^2"], 1),
    (["(0,1) * q1^2", "(0,1) * p1^2", "(0,1) * q1^2 + (1e-6,0) * q1 p1"], 2),
], ids=["hermitian", "near-skew"])
def test_closure_non_skew_generator_exits_usage(generators, index, tmp_path, capsys):
    config = {"mode_count": 1, "generators": generators, "degree_cap": 4}
    rc_code, _ = run("closure", config, tmp_path)
    err = capsys.readouterr().err
    assert rc_code == cli.EXIT_USAGE
    assert err == f"error: $.generators[{index}]: generator must be skew-hermitian\n"


def test_invert_subcommand(tmp_path):
    config = {"hamiltonian": HARMONIC, "delta": 1e-5, "mode": "pointwise",
              "s": 1.0, "state": {"fock": [0]}}
    rc_code, out = run("invert", config, tmp_path)
    assert rc_code == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert abs(report["t_star"] - (4 * math.pi - 1.0)) < 1e-5


def test_invert_finite_net_certifies_the_first_draw(tmp_path):
    # the net is drawn once, from the run's seeded rng, and certified; at
    # delta 1 the tail mass depends on which net was drawn
    config = {"hamiltonian": HARMONIC, "delta": 1.0, "mode": "finite_net",
              "net_size": 3, "s": 1.0}
    rc_code, out = run("invert", config, tmp_path, seed=5)
    assert rc_code == cli.EXIT_OK
    spec = fock.TruncationSpec((32,))
    H = weyl.as_hermitian(weyl.PolyOp.from_text(HARMONIC["poly"], 1))
    sd = recurrence.spectral(fock.represent(H, spec).toarray())
    rng = np.random.default_rng(5)
    net = [fock.random_interior_state(spec, rng) for _ in range(3)]
    res = recurrence.invert(sd, 1.0, 1.0, "finite_net", net)
    assert json.loads((out / "plan.json").read_text()) == res.plan.to_dict()


def test_invert_search_failure_report_carries_diagnostics(tmp_path):
    # the criterion-3b spectrum (dim-32 position operator) at a short horizon
    config = {"hamiltonian": {"poly": "(1,0) * q1", "mode_count": 1, "dims": [32]},
              "delta": 1e-5, "mode": "pointwise", "s": 1.0, "state": {"fock": [0]},
              "t_max": 200.0}
    rc_code, out = run("invert", config, tmp_path)
    assert rc_code == cli.EXIT_FAILURE
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "failed"
    assert report["grid_points"] > 1
    assert report["refine_cut"] > report["threshold"]
    assert report["best_objective"] >= report["threshold"]
    assert report["t_max"] == 200.0


def test_trotter_subcommand(tmp_path):
    config = {"system": QP_SYSTEM, "k": 0, "l": 1, "t": 0.7, "ns": [16, 64],
              "state": {"fock": [0]}}
    rc_code, out = run("trotter", config, tmp_path)
    assert rc_code == cli.EXIT_OK
    rows = (out / "convergence.csv").read_text().strip().splitlines()
    assert rows[0] == "n,error" and len(rows) == 3


def test_commutator_exact_subcommand(tmp_path):
    config = {"system": QP_SYSTEM, "k": 0, "l": 1, "t": 0.5, "n": 8,
              "inverter": {"mode": "exact"}, "state": {"fock": [0]}}
    rc_code, out = run("commutator", config, tmp_path)
    assert rc_code == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["fidelity"] > 0.999 and report["physical"] is False


def test_commutator_recurrence_subcommand(tmp_path):
    system = {
        "mode_count": 1,
        "dims": [24],
        "generators": ["(0.5,0) * q1^2 + (0.5,0) * p1^2",
                       "(0.5,0) * q1^2 + (0.5,0) * p1^2 + (1,0) * q1"],
    }
    config = {"system": system, "k": 0, "l": 1, "t": 0.4, "n": 2,
              "inverter": {"mode": "pointwise", "delta": 1e-4},
              "state": {"fock": [0]}}
    rc_code, out = run("commutator", config, tmp_path)
    assert rc_code == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["physical"] is True
    seq = json.loads((out / "sequence.json").read_text())
    assert all(s["t"] >= 0 for s in seq["segments"])
    plans = json.loads((out / "plans.json").read_text())
    assert plans


def test_compile_subcommand(tmp_path):
    config = {"system": QP_SYSTEM,
              "target": {"op": "sum", "left": {"op": "gen", "k": 0},
                         "right": {"op": "gen", "k": 1}},
              "t": 0.7, "epsilon": 1e-2, "n_budget": 256,
              "inverter": {"mode": "exact"}, "state": {"fock": [0]}}
    rc_code, out = run("compile", config, tmp_path)
    assert rc_code == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["distance"] <= 1e-2
    assert (out / "sequence.json").exists()  # forward-only word stays physical


def test_chain_demo_subcommand(tmp_path):
    config = {
        "chain": {"n_modes": 2, "omega": 1.0, "couplings": [[0, 1, 1.0]],
                  "control_sites": [0], "control_degree_cap": 3},
        "dims": [6, 6],
        "targets": [{"expr": {"op": "sum", "left": {"op": "gen", "k": 0},
                              "right": {"op": "gen", "k": 2}}, "t": 0.3}],
        "epsilon": 0.05, "n_budget": 64, "inverter": {"mode": "exact"},
    }
    rc_code, out = run("chain-demo", config, tmp_path)
    assert rc_code == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["all_ok"]
    assert (out / "summary.csv").exists()


def test_propagation_closes_each_distinct_site_drift_once(tmp_path, monkeypatch):
    # sites with the same strengths in coupling order pose one one-mode
    # problem; the artifacts are those of one closure per site
    couplings = [[i, i + 1, (1.0, 0.5, 2.0)[i % 3]] for i in range(7)]
    sites = [m for m in range(8) if m != 5]
    chain = {"n_modes": 8, "omega": 0.7, "couplings": couplings, "control_sites": sites}
    closures = []
    closure = chains.lie_closure
    monkeypatch.setattr(chains, "lie_closure",
                        lambda *args, **kwargs: closures.append(args) or closure(*args, **kwargs))
    rc_code, out = run("propagation", {"chain": chain, "degree_cap": 4, "dim_cap": 256},
                       tmp_path)
    assert rc_code == cli.EXIT_OK
    drifts = {tuple(a for i, j, a in couplings if m in (i, j)) for m in sites}
    assert len(closures) == len(drifts) == 4
    assert_per_edge_artifacts(out, chain, 4, 256, tmp_path)


def assert_per_edge_artifacts(out, chain, degree_cap, dim_cap, tmp_path):
    """report.json and edges.csv in ``out`` are the bytes the per-edge oracle
    (one pair check per reached edge, in the chain's frame) writes."""
    ref = per_edge_controllability(chains.ChainSpec.from_dict(chain), degree_cap, dim_cap)
    cli.write_json(tmp_path / "report.json", ref)
    cli.write_csv(tmp_path / "edges.csv",
                  [["edge_u", "edge_v", "verdict", "closure_dim", "missing"]] +
                  [[*e["edge"], e["verdict"], e["closure_dim"], e["missing_targets"]]
                   for e in ref["edges"]])
    for name in ("report.json", "edges.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("n_modes,sites,checks,edges,code", [
    (40, list(range(40)), 0, 0, cli.EXIT_OK),
    (1, [0], 0, 0, cli.EXIT_OK),
    (8, [3], 1, 7, cli.EXIT_OK),
], ids=["every-mode-controlled", "one-mode", "one-site"])
def test_pair_check_runs_only_when_an_edge_reads_it(n_modes, sites, checks, edges, code,
                                                    tmp_path, monkeypatch):
    # with every mode a control site the search reaches no edge, so no
    # verdict reads the pair check, and a chain whose controls reach every
    # mode propagates; one control site reads the check on every edge
    chain = {"n_modes": n_modes, "omega": 0.7, "control_sites": sites,
             "couplings": [[i, i + 1, 1.0] for i in range(n_modes - 1)]}
    calls = []
    check = chains.algebraic_propagation_check
    monkeypatch.setattr(chains, "algebraic_propagation_check",
                        lambda *args, **kwargs: calls.append(args) or check(*args, **kwargs))
    rc_code, out = run("propagation", {"chain": chain, "degree_cap": 4, "dim_cap": 256},
                       tmp_path)
    assert rc_code == code and len(calls) == checks
    assert len(json.loads((out / "report.json").read_text())["edges"]) == edges
    assert_per_edge_artifacts(out, chain, 4, 256, tmp_path)


def test_propagation_subcommand(tmp_path):
    config = {"chain": {"n_modes": 2, "omega": 1.0, "couplings": [[0, 1, 1.0]],
                        "control_sites": [0], "control_degree_cap": 3},
              "degree_cap": 3, "dim_cap": 128}
    rc_code, out = run("propagation", config, tmp_path)
    assert rc_code == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "propagates"


def test_compile_finite_net_inverter(tmp_path):
    # reversing the oscillator for t = 1 on a net of two random states: its
    # half-integer spectrum recurs at 4 pi, so the surrogate runs 4 pi - 1
    system = {"mode_count": 1, "dims": [24],
              "generators": ["(0.5,0) * q1^2 + (0.5,0) * p1^2", "(1,0) * q1"]}
    config = {"system": system, "target": {"op": "scale", "factor": -1.0, "inner": 0},
              "t": 1.0, "epsilon": 1e-3, "n_budget": 1, "state": {"fock": [0]},
              "inverter": {"mode": "finite_net", "delta": 1e-4, "net_size": 2}}
    rc_code, out = run("compile", config, tmp_path, seed=3)
    assert rc_code == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["physical"] is True and report["distance"] <= 1e-3
    (segment,) = json.loads((out / "sequence.json").read_text())["segments"]
    assert segment["k"] == 0 and abs(segment["t"] - (4 * math.pi - 1.0)) < 1e-6


# an epsilon no word meets doubles n until the squared 4 n^2-segment bracket
# word drifts in norm (at n = 131 072 on this pair, about 6.9e10 segments)
DRIFT_BRACKET = {"op": "bracket", "left": 0, "right": 1}
DRIFT_SEARCH = {"epsilon": 1e-300, "n_budget": 262144, "inverter": {"mode": "exact"}}


def test_compile_norm_drift_is_a_failed_certificate(tmp_path):
    system = {"mode_count": 1, "dims": [16],
              "generators": ["(1,0) * q1^2 + (1,0) * p1^2", "(1,0) * q1"]}
    config = {"system": system, "target": DRIFT_BRACKET, "t": 0.3, **DRIFT_SEARCH}
    rc_code, out = run("compile", config, tmp_path)
    assert rc_code == cli.EXIT_FAILURE
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"status", "error"} and report["status"] == "failed"
    # the error names the drifting round and the best earlier one
    match = re.fullmatch(r"evolution norm drift \S+ at n=(\d+): best distance (\S+) at n=(\d+)",
                         report["error"])
    assert match, report["error"]
    drift_n, best_distance, best_n = int(match[1]), float(match[2]), int(match[3])
    assert best_n < drift_n <= DRIFT_SEARCH["n_budget"] and 0 < best_distance < 1e-3


def test_chain_demo_norm_drift_fails_one_target_and_keeps_the_others(tmp_path):
    config = {"chain": {"n_modes": 1, "omega": 1.0, "couplings": [], "control_sites": [0]},
              "dims": [12], "targets": [{"expr": 1, "t": 0.2}, {"expr": DRIFT_BRACKET, "t": 0.3}],
              **DRIFT_SEARCH}
    rc_code, out = run("chain-demo", config, tmp_path)
    assert rc_code == cli.EXIT_FAILURE
    ok, drifted = json.loads((out / "report.json").read_text())["targets"]
    assert ok["status"] == "ok" and ok["distance"] <= 1e-12
    assert drifted["status"] == "failed"
    assert drifted["error"].startswith("evolution norm drift")
    # the drifting target keeps its best earlier round, as a budget failure does
    assert drifted["n"] >= 1 and drifted["distance"] < 1e-3
    assert drifted["error"].endswith(f"best distance {drifted['distance']:.3e} at n={drifted['n']}")


@pytest.mark.parametrize("omega,dim_cap,verdict", [
    (1.0, 8, "unknown"), (1.0, 16, "unknown"), (0.0, 8, "fails"), (0.0, 256, "fails"),
])
def test_propagation_dim_capped_closure_is_not_a_failure(omega, dim_cap, verdict, tmp_path):
    # at dim_cap 8 and 16 the closure stops before the coupling brackets that
    # reach mode 2 enter it (at dim_cap 256 the same chain propagates); a
    # chain at omega 0 has no bracket on mode 2 at all, so it fails provably
    config = {"chain": {**CHAIN2, "omega": omega}, "degree_cap": 3, "dim_cap": dim_cap}
    rc_code, out = run("propagation", config, tmp_path)
    assert rc_code == cli.EXIT_FAILURE
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == verdict and not report["controllable"]
    (edge,) = report["edges"]
    assert edge["verdict"] == verdict
    assert (out / "edges.csv").read_text().splitlines()[1].split(",")[2] == verdict


HARMONIC_PAIR = {"mode_count": 1, "dims": [24],
                 "generators": ["(0.5,0) * q1^2 + (0.5,0) * p1^2",
                                "(0.5,0) * q1^2 + (0.5,0) * p1^2 + (1,0) * q1"]}
RERUNS = [
    ("recur", {"hamiltonian": HARMONIC, "delta": 1e-3, "mode": "finite_net", "net_size": 4,
               "tau_min": 1.0}, ("plan.json", "scan.csv")),
    ("chain-demo", {"chain": {"n_modes": 2, "omega": 1.0, "couplings": [[0, 1, 1.0]],
                              "control_sites": [0], "control_degree_cap": 1},
                    "dims": [4, 4],
                    "targets": [{"expr": {"op": "sum", "left": {"op": "gen", "k": 0},
                                          "right": {"op": "gen", "k": 1}}, "t": 0.3},
                                {"expr": {"op": "bracket", "left": {"op": "gen", "k": 0},
                                          "right": {"op": "gen", "k": 1}}, "t": 0.2}],
                    "epsilon": 0.1, "n_budget": 64, "inverter": {"mode": "exact"}},
     ("report.json", "summary.csv")),
    ("commutator", {"system": HARMONIC_PAIR, "k": 0, "l": 1, "t": 0.4, "n": 2,
                    "inverter": {"mode": "pointwise", "delta": 1e-4}, "state": {"fock": [0]}},
     ("sequence.json", "plans.json", "report.json")),
]


def test_reruns_are_bit_identical(tmp_path):
    for sub, config, names in RERUNS:
        rc1, out1 = run(sub, config, tmp_path, seed=11, name=f"{sub}_a")
        rc2, out2 = run(sub, config, tmp_path, seed=11, name=f"{sub}_b")
        assert rc1 == rc2 == cli.EXIT_OK, sub
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (sub, name)


GEN = lambda k: {"op": "gen", "k": k}
BAD_CONFIGS = [
    ("closure", {"mode_count": 1, "generators": ["(0,1) * q1", "(0,1) * q1^^2"]},
     "$.generators[1]"),
    ("trotter", {"system": QP_SYSTEM, "k": 0, "l": 5, "t": 0.5, "ns": [4]}, "$.l"),
    ("commutator", {"system": QP_SYSTEM, "k": 0, "l": 1, "t": 0.5, "n": 2,
                    "inverter": {"mode": "energy_bound", "delta": 0.1}},
     "$.inverter.energy_bounds"),
    ("compile", {"system": QP_SYSTEM, "target": {"op": "bracket", "left": GEN(0),
                                                 "right": GEN(2)},
                 "t": 0.5, "epsilon": 0.1, "n_budget": 4, "inverter": {"mode": "exact"}},
     "$.target"),
    ("propagation", {"chain": {"n_modes": 2, "omega": 1.0, "couplings": [[0, 1, 1.0]],
                               "control_sites": []}}, "$.chain"),
    ("chain-demo", {"chain": {"n_modes": 2, "omega": 1.0, "couplings": [[0, 1, 1.0]],
                              "control_sites": []},
                    "dims": [4, 4], "targets": [{"expr": GEN(0), "t": 0.1}],
                    "epsilon": 0.1, "n_budget": 2,
                    "inverter": {"mode": "exact"}}, "$.chain"),
]


@pytest.mark.parametrize("sub,config,path", BAD_CONFIGS, ids=[c[0] for c in BAD_CONFIGS])
def test_config_errors_exit_usage_with_json_path(sub, config, path, tmp_path, capsys):
    rc_code, _ = run(sub, config, tmp_path)
    err = capsys.readouterr().err
    assert rc_code == cli.EXIT_USAGE
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


CHAIN2 = {"n_modes": 2, "omega": 1.0, "couplings": [[0, 1, 1.0]], "control_sites": [0],
          "control_degree_cap": 3}
CHAIN3 = {"n_modes": 3, "omega": 1.0, "couplings": [[0, 1, 1.0], [1, 2, 1.0]],
          "control_sites": [0], "control_degree_cap": 1}


@pytest.mark.parametrize("sub", ["propagation", "chain-demo"])
@pytest.mark.parametrize("chain,path", [
    ({**CHAIN3, "omega": 1e160}, "$.chain.omega"),
    ({**CHAIN3, "omega": 1e300}, "$.chain.omega"),
    ({**CHAIN3, "couplings": [[0, 1, 1.0], [1, 2, 1e300]]}, "$.chain.couplings[1]"),
], ids=["omega-1e160", "omega-1e300", "strength-1e300"])
def test_oversized_chain_coefficients_exit_usage(sub, chain, path, tmp_path, capsys):
    # squaring such a coefficient overflows a float: refused before any work
    config = {"chain": chain}
    if sub == "chain-demo":
        config.update({"dims": [4, 4, 4], "targets": [{"expr": GEN(0), "t": 0.1}],
                       "epsilon": 0.1, "n_budget": 2, "inverter": {"mode": "exact"}})
    rc_code, _ = run(sub, config, tmp_path)
    err = capsys.readouterr().err
    assert rc_code == cli.EXIT_USAGE
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


def _qp_with(*generators):
    return {**QP_SYSTEM, "generators": list(generators)}


@pytest.mark.parametrize("sub,config,path", [
    ("closure", {"mode_count": 1, "generators": ["(0,1e200) * q1", "(0,1) * p1"]},
     "$.generators[0]"),
    ("trotter", {"system": _qp_with("(1e200,0) * q1", "(1,0) * p1"), "k": 0, "l": 1,
                 "t": 0.5, "ns": [4]}, "$.system.generators[0]"),
    ("commutator", {"system": _qp_with("(1,0) * q1", "(1e80,0) * p1"), "k": 0, "l": 1,
                    "t": 0.5, "n": 2, "inverter": {"mode": "exact"}},
     "$.system.generators[1]"),
    ("compile", {"system": _qp_with("(1,0) * q1", "(1,0) * p1 + (0,1e300) * q1 p1"),
                 "target": GEN(0), "t": 0.5, "epsilon": 0.1, "n_budget": 4,
                 "inverter": {"mode": "exact"}}, "$.system.generators[1]"),
    ("recur", {"hamiltonian": {**HARMONIC, "poly": "(1e300,0) * q1^2"}, "delta": 0.1,
               "mode": "pointwise"}, "$.hamiltonian.poly"),
    ("invert", {"hamiltonian": {**HARMONIC, "poly": "(inf,0) * q1"}, "delta": 0.1,
                "mode": "pointwise", "s": 0.5}, "$.hamiltonian.poly"),
], ids=["closure-1e200", "trotter-1e200", "commutator-1e80", "compile-1e300", "recur-1e300",
        "invert-inf"])
def test_oversized_parsed_coefficients_exit_usage(sub, config, path, tmp_path, capsys):
    # parsed coefficients are held to the chains' bound, chains.MAX_COEFFICIENT:
    # squared in the role checks, 1e200 overflowed into a traceback
    rc_code, _ = run(sub, config, tmp_path)
    err = capsys.readouterr().err
    assert rc_code == cli.EXIT_USAGE
    assert err.startswith(f"error: {path}: bad polynomial ") and "out of range" in err


@pytest.mark.parametrize("sub,config,path", [
    ("closure", {"mode_count": 1, "generators": ["(0,1) * q1", "(0,1) * q1^3"],
                 "degree_cap": 2}, "$.generators[1]"),
    ("propagation", {"chain": CHAIN2, "degree_cap": 2}, "$.degree_cap"),
    ("closure", {"mode_count": 2, "generators": ["(0,1) * q1", "(0,1) * p2"],
                 "degree_cap": 30}, "$.degree_cap"),
    ("closure", {"mode_count": 1, "generators": ["(0,1) * q1"], "degree_cap": 200},
     "$.degree_cap"),
    ("closure", {"mode_count": 2, "generators": ["(0,1) * q1", "(0,1) * p2"],
                 "degree_cap": 9}, "$.degree_cap"),
    ("propagation", {"chain": CHAIN2, "degree_cap": 40}, "$.degree_cap"),
    ("propagation", {"chain": CHAIN2, "degree_cap": 16}, "$.degree_cap"),
    ("propagation", {"chain": {**CHAIN2, "omega": 0.0}, "degree_cap": 16}, "$.degree_cap"),
    ("propagation", {"chain": CHAIN2, "degree_cap": 10**6}, "$.degree_cap"),
], ids=["closure-generator", "propagation-controls", "closure-cap30", "closure-cap200",
        "closure-budget", "propagation-cap40", "propagation-pair-budget",
        "propagation-pair-budget-omega0", "propagation-cap1e6"])
def test_uncapped_closures_exit_usage(sub, config, path, tmp_path, capsys):
    # generators above the cap, inexact structure constants (cap > 16) and
    # tables over the memory budget are config errors, refused before any work
    rc_code, _ = run(sub, config, tmp_path)
    err = capsys.readouterr().err
    assert rc_code == cli.EXIT_USAGE
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


def test_wide_cap1_closures_build_or_exit_usage(tmp_path, capsys):
    # at cap 1 the 2m + 1 monomials of m modes stay below TABLE_MONOMIALS up
    # to 249 modes, but the table's pair exponents grow as m^3: 33 modes
    # build (their exponent-row keys overflowed int64 once), 249 are refused
    # before any array is built
    def config(m):
        return {"mode_count": m, "degree_cap": 1,
                "generators": [f"(0,1) * q{k + 1}" for k in range(m)]}

    rc_code, out = run("closure", config(33), tmp_path, name="narrow")
    report = json.loads((out / "report.json").read_text())
    assert rc_code == cli.EXIT_OK and (report["dim"], report["saturated"]) == (33, True)
    start = time.perf_counter()
    rc_code, _ = run("closure", config(249), tmp_path, name="wide")
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert rc_code == cli.EXIT_USAGE and "Traceback" not in err
    assert err.startswith("error: $.degree_cap: ") and f"{weyl.TABLE_PAIR_EXPONENTS}" in err


@pytest.mark.parametrize("sub,extra", [
    ("commutator", {"k": 0, "l": 1, "t": 0.5, "n": 2}),
    ("compile", {"target": {"op": "bracket", "left": GEN(0), "right": GEN(1)}, "t": 0.25,
                 "epsilon": 0.1, "n_budget": 4}),
])
def test_exhausted_spectrum_writes_a_failure_report(sub, extra, tmp_path):
    # the dim-32 spectra of q and p end far below the tail threshold 8 M / delta^2
    config = {"system": QP_SYSTEM, "state": {"fock": [0]}, **extra,
              "inverter": {"mode": "energy_bound", "delta": 0.1,
                           "energy_bounds": {"0": 1.0, "1": 1.0}}}
    rc_code, out = run(sub, config, tmp_path)
    assert rc_code == cli.EXIT_FAILURE
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "failed" and "spectrum ends" in report["error"]


def test_chain_demo_represents_only_the_generators_its_targets_read(tmp_path, monkeypatch):
    # a cap-3 control system has 5 generators; the targets read 0 and 2
    config = {
        "chain": {"n_modes": 3, "omega": 0.9, "couplings": [[0, 1, 1.1], [1, 2, 0.8]],
                  "control_sites": [0], "control_degree_cap": 3},
        "dims": [4, 4, 4],
        "targets": [{"expr": {"op": "sum", "left": GEN(0), "right": GEN(2)}, "t": 0.3},
                    {"expr": {"op": "scale", "factor": -1.0, "inner": GEN(2)}, "t": 0.2}],
        "epsilon": 0.1, "n_budget": 64, "inverter": {"mode": "exact"},
    }
    built, represent = [], fock.represent
    monkeypatch.setattr(fock, "represent", lambda H, spec: built.append(H) or represent(H, spec))
    rc_code, out = run("chain-demo", config, tmp_path, name="read")
    assert rc_code == cli.EXIT_OK and len(built) == 2
    # the same run over a table of every generator
    build = cli._build_system
    monkeypatch.setattr(cli, "_build_system",
                        lambda spec, herms, reads: build(spec, herms,
                                                         [(range(len(herms)), "$")]))
    rc_all, out_all = run("chain-demo", config, tmp_path, name="all")
    assert rc_all == cli.EXIT_OK and len(built) == 2 + 5
    report = json.loads((out / "report.json").read_text())
    assert len(report["generators"]) == 5 and report["all_ok"]
    assert report == json.loads((out_all / "report.json").read_text())


def test_compile_represents_only_the_generators_its_target_reads(tmp_path, monkeypatch):
    # [H, q^3] reads generators 0 and 3 of the four
    config = {"system": CUBIC_SYSTEM,
              "target": {"op": "bracket", "left": GEN(0), "right": GEN(3)},
              "t": 0.25, "epsilon": 1e-2, "n_budget": 64, "inverter": {"mode": "exact"},
              "state": {"fock": [0]}}
    built, represent = [], fock.represent
    monkeypatch.setattr(fock, "represent", lambda H, spec: built.append(H) or represent(H, spec))
    rc_code, out = run("compile", config, tmp_path, name="read")
    assert rc_code == cli.EXIT_OK and len(built) == 2
    build = cli._build_system
    monkeypatch.setattr(cli, "_build_system",
                        lambda spec, herms, reads: build(spec, herms,
                                                         [(range(len(herms)), "$")]))
    rc_all, out_all = run("compile", config, tmp_path, name="all")
    assert rc_all == cli.EXIT_OK and len(built) == 2 + 4
    assert sorted(os.listdir(out)) == sorted(os.listdir(out_all))
    for name in os.listdir(out):
        assert (out / name).read_bytes() == (out_all / name).read_bytes()


CHAIN_DEMO = {"chain": {**CHAIN2, "control_degree_cap": 1}, "dims": [4, 4],
              "epsilon": 0.1, "n_budget": 4, "inverter": {"mode": "exact"}}
EXACT = {"mode": "exact"}


@pytest.mark.parametrize("sub,config,message", [
    ("trotter", {"system": QP_SYSTEM, "k": 0, "l": 5, "t": 0.5, "ns": [4]},
     "$.l: generator index 5 is out of range; the system has generators 0..1"),
    ("trotter", {"system": QP_SYSTEM, "k": 0, "l": 5, "t": 0.5, "ns": [4],
                 "state": {"fock": [40]}},
     "$.l: generator index 5 is out of range; the system has generators 0..1"),
    ("commutator", {"system": QP_SYSTEM, "k": 2, "l": 1, "t": 0.5, "n": 2,
                    "inverter": EXACT},
     "$.k: generator index 2 is out of range; the system has generators 0..1"),
    ("commutator", {"system": QP_SYSTEM, "k": 3, "l": 1, "t": 0.5, "n": 2,
                    "inverter": EXACT, "state": {"fock": [40]}},
     "$.state: occupation 40 outside [0, 32)"),
    ("compile", {"system": QP_SYSTEM, "target": {"op": "bracket", "left": GEN(0),
                                                 "right": GEN(2)},
                 "t": 0.5, "epsilon": 0.1, "n_budget": 4, "inverter": EXACT},
     "$.target: generator index 2 is out of range; the system has generators 0..1"),
    ("compile", {"system": {**QP_SYSTEM, "generators": ["(1,0) * q1", "(1,0) * p1^^2"]},
                 "target": GEN(2), "t": 0.5, "epsilon": 0.1, "n_budget": 4,
                 "inverter": EXACT},
     "$.system.generators[1]: bad polynomial '(1,0) * p1^^2': "),
    ("chain-demo", {**CHAIN_DEMO, "targets": [{"expr": GEN(1), "t": 0.1},
                                              {"expr": {"op": "sum", "left": GEN(9),
                                                        "right": GEN(7)}, "t": 0.1},
                                              {"expr": GEN(3), "t": 0.1}]},
     "$.targets[1].expr: generator index 7 is out of range; the system has generators 0..2"),
    ("chain-demo", {**CHAIN_DEMO, "dims": [4, 4, 4], "targets": [{"expr": GEN(9), "t": 0.1}]},
     "$.dims: one Fock dimension per mode required"),
], ids=["trotter", "trotter-index-before-state", "commutator", "commutator-state-first",
        "compile", "compile-generators-first", "chain-demo", "chain-demo-dims-first"])
def test_generator_index_errors_keep_their_messages_and_order(sub, config, message, tmp_path,
                                                              capsys):
    # one line, the full message (the parser's own words cut off after the text)
    rc_code, _ = run(sub, config, tmp_path)
    err = capsys.readouterr().err
    assert rc_code == cli.EXIT_USAGE
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.fixture
def unflattened(monkeypatch):
    # a sequence above the limit flattened would hold gigabytes
    def refused(word):
        raise AssertionError("a sequence above the limit was flattened")

    monkeypatch.setattr(propagate, "flatten", refused)


# the first-order word of e^{(q + p) t} misses by a phase of about t^2 / 2n:
# at t = 1 and epsilon 1.5e-7, n = 2^21 misses and n = 2^22 (2^23 segments) meets it
SUM_QP = {"op": "sum", "left": GEN(0), "right": GEN(1)}
SEQUENCE_ABOVE_LIMIT = {
    "compile": ("compile", {"system": QP_SYSTEM, "target": SUM_QP, "t": 1.0,
                            "epsilon": 1.5e-7, "n_budget": 1 << 23, "inverter": EXACT,
                            "state": {"fock": [0]}}, "$.n_budget"),
    # a one-mode chain's generators 1 and 2 are p1 and q1
    "chain-demo": ("chain-demo", {
        "chain": {"n_modes": 1, "omega": 0.0, "couplings": [], "control_sites": [0],
                  "control_degree_cap": 1},
        "dims": [16], "targets": [{"expr": {"op": "sum", "left": GEN(1), "right": GEN(2)},
                                   "t": 1.0}],
        "epsilon": 1.5e-7, "n_budget": 1 << 23, "inverter": EXACT}, "$.n_budget"),
    # 4n^2 = 4 202 500 at n = 1025, refused before the inverter searches
    "commutator": ("commutator", {
        "system": {"mode_count": 1, "dims": [24],
                   "generators": ["(0.5,0) * q1^2 + (0.5,0) * p1^2",
                                  "(0.5,0) * q1^2 + (0.5,0) * p1^2 + (1,0) * q1"]},
        "k": 0, "l": 1, "t": 0.4, "n": 1025, "inverter": {"mode": "pointwise", "delta": 0.1},
        "state": {"fock": [0]}}, "$.n"),
}


@pytest.mark.parametrize("sub,config,path", SEQUENCE_ABOVE_LIMIT.values(),
                         ids=list(SEQUENCE_ABOVE_LIMIT))
def test_sequence_above_the_limit_exits_usage(sub, config, path, tmp_path, capsys,
                                              unflattened, monkeypatch):
    searched = []
    duration = recurrence.RecurrenceInverter.duration
    monkeypatch.setattr(recurrence.RecurrenceInverter, "duration",
                        lambda *args: searched.append(1) or duration(*args))
    rc_code, out = run(sub, config, tmp_path)
    err = capsys.readouterr().err
    assert rc_code == cli.EXIT_USAGE
    assert err.startswith(f"error: {path}: a sequence of ") and "Traceback" not in err
    assert str(propagate.MAX_SEGMENTS) in err and not searched
    assert not (out / "sequence.json").exists() and not (out / "report.json").exists()


def test_sequence_limit_admits_its_own_length(unflattened, monkeypatch):
    # len() of a word tree is O(1): the limit is checked before any flattening
    word = propagate.Repeat(propagate.Concat(((0, 0.5), (1, 0.25))), propagate.MAX_SEGMENTS // 2)
    with pytest.raises(propagate.SequenceSizeError, match=f"{propagate.MAX_SEGMENTS + 1} "):
        propagate.ControlSequence(propagate.Concat((word, (0, 1.0)))).to_dict()
    monkeypatch.setattr(propagate, "flatten", lambda word: ((0, 0.5),))
    assert propagate.ControlSequence(word).to_dict()["segments"] == [{"k": 0, "t": 0.5}]


@pytest.mark.parametrize("sub,config,path", [
    ("recur", {"hamiltonian": {"levels": [0.0, 1.0, math.sqrt(2.0), 100.0]}, "delta": 0.1,
               "mode": "energy_bound", "energy_bound": 0.01, "tau_min": 1.0, "t_max": 1e4,
               "grid_step": 1e-9}, "$.grid_step"),
    ("invert", {"hamiltonian": HARMONIC, "delta": 0.1, "mode": "pointwise", "s": 1.0,
                "t_max": 1e4, "grid_step": 1e-9}, "$.grid_step"),
    ("compile", {"system": QP_SYSTEM, "target": {"op": "scale", "factor": -1.0, "inner": GEN(1)},
                 "t": 0.5, "epsilon": 0.1, "n_budget": 2,
                 "inverter": {"mode": "pointwise", "delta": 0.1, "t_max": 1e13}},
     "$.inverter.t_max"),
], ids=["recur", "invert", "compile-inverter"])
def test_grid_above_the_budget_exits_usage(sub, config, path, tmp_path, capsys, monkeypatch):
    # refused after a budget of two chunks; the kernel refuses a ninth call,
    # so a scan that ignores the budget fails instead of running for hours
    monkeypatch.setattr(recurrence, "_MAX_GRID_POINTS", 2 * (recurrence._CHUNK + 1))
    kernel, calls = recurrence._grid_objective, []

    def counted(*args):
        calls.append(1)
        if len(calls) > 8:
            raise AssertionError("scanned past the grid-point budget")
        return kernel(*args)

    monkeypatch.setattr(recurrence, "_grid_objective", counted)
    rc_code, _ = run(sub, config, tmp_path)
    err = capsys.readouterr().err
    assert rc_code == cli.EXIT_USAGE
    assert err.startswith(f"error: {path}: a grid of step ") and "points from T=" in err
    assert "the most one search scans, short of t_max" in err


def test_default_horizon_above_the_budget_certifies(tmp_path):
    # the head's default horizon 1e6/gap = 1e16 lies some 1.6e17 grid points
    # away; the search certifies near 2 pi in its first chunk
    config = {"hamiltonian": {"levels": [0.0, 1.0, 1.0 + 1e-10, 1000.0]}, "delta": 0.5,
              "mode": "energy_bound", "energy_bound": 2.0, "tau_min": 1.0}
    rc_code, out = run("recur", config, tmp_path)
    assert rc_code == cli.EXIT_OK
    assert 1.0 < json.loads((out / "report.json").read_text())["time"] < 2.0 * math.pi + 0.01


def test_chain_demo_parallel_report_matches_serial(tmp_path):
    # dim 216 with two few-segment targets: both take the action path and
    # share one EvolutionTable across the worker threads
    config = {
        "chain": {"n_modes": 3, "omega": 1.0, "couplings": [[0, 1, 1.0], [1, 2, 0.8]],
                  "control_sites": [0], "control_degree_cap": 1},
        "dims": [6, 6, 6],
        "targets": [{"expr": {"op": "sum", "left": GEN(0), "right": GEN(k)}, "t": t}
                    for k, t in ((1, 0.3), (2, 0.25))],
        "epsilon": 0.1, "n_budget": 64, "inverter": {"mode": "exact"},
    }
    reports = []
    for jobs in (1, 2):
        cfg = tmp_path / f"jobs{jobs}.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / f"jobs{jobs}_out"
        assert cli.main(["chain-demo", "--config", str(cfg), "--out", str(out),
                         "--jobs", str(jobs)]) == cli.EXIT_OK
        reports.append(json.loads((out / "report.json").read_text()))
    assert reports[0] == reports[1]
    assert all(rec["segments"] for rec in reports[0]["targets"])


@pytest.mark.parametrize("sub,config,path", [
    ("trotter", {"system": dict(QP_SYSTEM, dims=[5000]), "k": 0, "l": 1, "t": 0.5,
                 "ns": [4]}, "$.system.dims"),
    ("recur", {"hamiltonian": dict(HARMONIC, dims=[5000]), "delta": 0.1,
               "mode": "pointwise"}, "$.hamiltonian.dims"),
], ids=["trotter", "recur"])
def test_oversized_fock_dimension_exits_usage(sub, config, path, tmp_path, capsys):
    rc_code, _ = run(sub, config, tmp_path)
    err = capsys.readouterr().err
    assert rc_code == cli.EXIT_USAGE
    assert err.startswith(f"error: {path}: ") and str(fock.MAX_DIM) in err


# Each of these once ran: an index or a factor coerced (generator 1, scaled
# by 2.0 or 1.0), a buffer read as 2, 1 or 3, a bound as 0.5 or 1.0, or a
# state or hamiltonian with the first key its builder checks.  Each is
# refused where it stands.
COERCIBLE_EXPRS = {"bare-true": True, "k-float": GEN(1.7), "k-string": GEN("1"),
                   "k-true": GEN(True),
                   "factor-string": {"op": "scale", "factor": "2", "inner": GEN(1)},
                   "factor-true": {"op": "scale", "factor": True, "inner": GEN(1)}}
UNTYPED_FIELDS = {
    **{f"compile-{name}": ("compile", {"system": QP_SYSTEM, "target": expr, "t": 0.5,
                                       "epsilon": 0.1, "n_budget": 2, "inverter": EXACT},
                           "$.target") for name, expr in COERCIBLE_EXPRS.items()},
    **{f"chain-demo-{name}": ("chain-demo", {**CHAIN_DEMO, "targets": [{"expr": expr, "t": 0.1}]},
                              "$.targets[0].expr") for name, expr in COERCIBLE_EXPRS.items()},
    **{f"compile-buffer-{name}": ("compile", {"system": QP_SYSTEM, "target": GEN(0), "t": 0.5,
                                              "epsilon": 0.1, "n_budget": 2, "inverter": EXACT,
                                              "state": {"random_interior": {"buffer": buffer}}},
                                  "$.state.random_interior.buffer")
       for name, buffer in (("float", 2.7), ("true", True), ("string", "3"))},
    **{f"recur-buffer-{name}": ("recur", {"hamiltonian": HARMONIC, "delta": 0.1,
                                          "mode": "pointwise",
                                          "state": {"random_interior": {"buffer": buffer}}},
                                "$.state.random_interior.buffer")
       for name, buffer in (("float", 2.7), ("true", True), ("string", "3"))},
    **{f"compile-bound-{name}": ("compile", {"system": QP_SYSTEM, "target": {
        "op": "scale", "factor": -1.0, "inner": GEN(1)}, "t": 0.5, "epsilon": 0.1,
        "n_budget": 4, "inverter": {"mode": "energy_bound", "delta": 0.1,
                                    "energy_bounds": {"1": bound}}},
        "$.inverter.energy_bounds") for name, bound in (("string", "0.5"), ("true", True))},
    **{f"chain-demo-bound-{name}": ("chain-demo", {**CHAIN_DEMO, "targets": [{"expr": {
        "op": "scale", "factor": -1.0, "inner": GEN(1)}, "t": 0.1}], "inverter": {
        "mode": "energy_bound", "delta": 0.1, "energy_bounds": {"1": bound}}},
        "$.inverter.energy_bounds") for name, bound in (("string", "0.5"), ("true", True))},
    # an energy bound's generator index in any spelling but its one
    **{f"compile-bound-key-{name}": ("compile", {"system": QP_SYSTEM, "target": {
        "op": "scale", "factor": -1.0, "inner": GEN(1)}, "t": 0.5, "epsilon": 0.1,
        "n_budget": 4, "inverter": {"mode": "energy_bound", "delta": 0.1,
                                    "energy_bounds": {key: 1.0, "+0": 1.0}}},
        "$.inverter.energy_bounds")
       for name, key in (("underscore", "0_1"), ("spaces", " 1 "), ("sign", "+1"),
                         ("leading-zero", "01"), ("newline", "1\n"))},
    "chain-demo-bound-key": ("chain-demo", {**CHAIN_DEMO, "targets": [{"expr": {
        "op": "scale", "factor": -1.0, "inner": GEN(1)}, "t": 0.1}], "inverter": {
        "mode": "energy_bound", "delta": 0.1, "energy_bounds": {"0_1": 1.0}}},
        "$.inverter.energy_bounds"),
    "compile-two-states": ("compile", {"system": QP_SYSTEM, "target": GEN(0), "t": 0.5,
                                       "epsilon": 0.1, "n_budget": 2, "inverter": EXACT,
                                       "state": {"fock": [0], "random_interior": {}}},
                           "$.state"),
    "recur-two-states": ("recur", {"hamiltonian": HARMONIC, "delta": 0.1, "mode": "pointwise",
                                   "state": {"fock": [1], "random_interior": {"buffer": 2}}},
                         "$.state"),
    **{name: ("recur", {"hamiltonian": hamiltonian, "delta": 0.5, "mode": "energy_bound",
                        "energy_bound": 0.05}, "$.hamiltonian")
       for name, hamiltonian in (
           ("poly-and-levels", {**HARMONIC, "levels": [0.0, 1.0, 2.0]}),
           ("poly-and-formula", {**HARMONIC, "level_formula": {"count": 3, "coeffs": [0, 1]}}),
           ("levels-and-formula", {"levels": [0.0, 1.0, 2.0],
                                   "level_formula": {"count": 3, "coeffs": [0, 1]}}),
           ("three-hamiltonians", {**HARMONIC, "levels": [0.0, 1.0, 2.0],
                                   "level_formula": {"count": 3, "coeffs": [0, 1]}}))},
}


@pytest.mark.parametrize("sub,config,path", [
    ("recur", {"hamiltonian": HARMONIC, "delta": 0.1, "mode": "energy_bound"},
     "$.energy_bound"),
    ("invert", {"hamiltonian": HARMONIC, "delta": 0.1, "mode": "energy_bound", "s": 0.5},
     "$.energy_bound"),
    ("recur", {"hamiltonian": dict(HARMONIC, dims=[8]), "delta": 0.1, "mode": "pointwise",
               "state": {"fock": [9]}}, "$.state"),
    ("invert", {"hamiltonian": dict(HARMONIC, dims=[8, 8]), "delta": 0.1,
                "mode": "pointwise", "s": 0.5}, "$.hamiltonian.dims"),
    ("recur", {"hamiltonian": dict(HARMONIC, poly="(0,1) * q1"), "delta": 0.1,
               "mode": "pointwise"}, "$.hamiltonian.poly"),
    ("recur", {"hamiltonian": {"levels": []}, "delta": 0.1, "mode": "energy_bound",
               "energy_bound": 1.0}, "$.hamiltonian.levels"),
    ("trotter", {"system": dict(QP_SYSTEM, dims=[8]), "k": 0, "l": 1, "t": 0.5, "ns": [4],
                 "state": {"random_interior": {"buffer": 20}}}, "$.state"),
    ("recur", {"hamiltonian": {"levels": [0.0, 1.0, 2.5]}, "delta": 0.5,
               "mode": "energy_bound", "energy_bound": 0.01, "tau_min": 3.0, "t_max": 2.0},
     "$.t_max"),
    ("invert", {"hamiltonian": HARMONIC, "delta": 0.1, "mode": "pointwise",
                "s": 5.0, "t_max": 4.0}, "$.t_max"),
    ("recur", {"hamiltonian": {"levels": [-1.0, 0.0, 1.0, 2.0]}, "delta": 0.5,
               "mode": "energy_bound", "energy_bound": 0.01}, "$.hamiltonian.levels"),
    ("recur", {"hamiltonian": {"levels": [0.0, 5.0, 1.0]}, "delta": 0.5,
               "mode": "energy_bound", "energy_bound": 0.125, "tau_min": math.pi},
     "$.hamiltonian.levels"),
    ("recur", {"hamiltonian": {"level_formula": {"count": 8, "coeffs": [0.0, 3.0, -0.5]}},
               "delta": 0.5, "mode": "energy_bound", "energy_bound": 0.125},
     "$.hamiltonian.level_formula"),
    ("recur", {"hamiltonian": {"levels": [0.0, 1.0, math.sqrt(2.0), math.pi]}, "delta": 0.5,
               "mode": "energy_bound", "energy_bound": 0.05, "tau_min": 1.0, "t_max": 1e4,
               "grid_step": 1e-300}, "$.grid_step"),
    ("recur", {"hamiltonian": {"levels": [0.0, 1.0, math.sqrt(2.0), math.pi]}, "delta": 0.5,
               "mode": "energy_bound", "energy_bound": 0.05, "tau_min": 1e20,
               "t_max": 1e21}, "$.t_max"),
    ("commutator", {"system": QP_SYSTEM, "k": 0, "l": 1, "t": 0.5, "n": 2,
                    "inverter": {"mode": "pointwise", "delta": 0.1, "t_max": 0.1}},
     "$.inverter.t_max"),
    ("compile", {"system": QP_SYSTEM, "target": {"op": "scale", "factor": -1.0, "inner": 1},
                 "t": 1e20, "epsilon": 0.1, "n_budget": 2,
                 "inverter": {"mode": "pointwise", "delta": 0.1}}, "$.inverter.t_max"),
    ("chain-demo", {"chain": {"n_modes": 2, "omega": 1.0, "couplings": [[0, 1, 1.0]],
                              "control_sites": [0], "control_degree_cap": 1},
                    "dims": [4, 4], "targets": [{"expr": {"op": "scale", "factor": -1.0,
                                                          "inner": 1}, "t": 1e20}],
                    "epsilon": 0.1, "n_budget": 2,
                    "inverter": {"mode": "pointwise", "delta": 0.1, "t_max": 1e21}},
     "$.inverter.t_max"),
    ("commutator", {"system": QP_SYSTEM, "k": 0, "l": 1, "t": 0.5, "n": 2,
                    "inverter": {"mode": "energy_bound", "delta": 0.1,
                                 "energy_bounds": {"0": -1.0, "1": 1.0}}},
     "$.inverter.energy_bounds"),
    ("compile", {"system": QP_SYSTEM, "target": {"op": "scale", "factor": -1.0, "inner": 1},
                 "t": 0.5, "epsilon": 0.1, "n_budget": 4,
                 "inverter": {"mode": "energy_bound", "delta": 0.1,
                              "energy_bounds": {"1": 0.0}}}, "$.inverter.energy_bounds"),
    ("compile", {"system": QP_SYSTEM, "target": {"op": "scale", "factor": -1.0, "inner": 1},
                 "t": 0.5, "epsilon": 0.1, "n_budget": 4,
                 "inverter": {"mode": "energy_bound", "delta": 0.1,
                              "energy_bounds": {"1": "nan"}}}, "$.inverter.energy_bounds"),
    ("chain-demo", {"chain": {"n_modes": 2, "omega": 1.0, "couplings": [[0, 1, 1.0]],
                              "control_sites": [0], "control_degree_cap": 1},
                    "dims": [4, 4], "targets": [{"expr": {"op": "scale", "factor": -1.0,
                                                          "inner": 1}, "t": 0.1}],
                    "epsilon": 0.1, "n_budget": 4,
                    "inverter": {"mode": "energy_bound", "delta": 0.1,
                                 "energy_bounds": {"1": 0.0}}}, "$.inverter.energy_bounds"),
    *[("compile", {"system": QP_SYSTEM, "target": {"op": "scale", "factor": -1.0, "inner": 1},
                   "t": 0.5, "epsilon": 0.1, "n_budget": 4,
                   "inverter": {"mode": "finite_net", "delta": 0.1, "net_size": size}},
       "$.inverter.net_size") for size in (0, -3, 2.5)],
    ("recur", {"hamiltonian": HARMONIC, "delta": 0.1, "mode": "pointwise",
               "state": {"random_interior": {"buffer": -2}}}, "$.state"),
    ("trotter", {"system": QP_SYSTEM, "k": 0, "l": 1, "t": 0.5, "ns": [4], "state": {}},
     "$.state"),
    ("recur", {"hamiltonian": {}, "delta": 0.1, "mode": "energy_bound", "energy_bound": 1.0},
     "$.hamiltonian"),
    ("commutator", {"system": QP_SYSTEM, "k": 0, "l": 1, "t": 1e155, "n": 2,
                    "inverter": {"mode": "exact"}}, "$.t"),
    ("compile", {"system": QP_SYSTEM, "target": {"op": "scale", "factor": 1e300,
                                                 "inner": GEN(0)},
                 "t": 1e10, "epsilon": 0.1, "n_budget": 2, "inverter": {"mode": "exact"}},
     "$.t"),
    ("chain-demo", {"chain": {"n_modes": 2, "omega": 1.0, "couplings": [[0, 1, 1.0]],
                              "control_sites": [0], "control_degree_cap": 1},
                    "dims": [4, 4],
                    "targets": [{"expr": GEN(1), "t": 0.1},
                                {"expr": {"op": "scale", "factor": 1e300, "inner": GEN(0)},
                                 "t": 1e10}],
                    "epsilon": 0.1, "n_budget": 2, "inverter": {"mode": "exact"}},
     "$.targets[1].t"),
    # each size at its limit + 1 and at 10**20, refused before anything of
    # that size is built
    ("propagation", {"chain": {**CHAIN2, "n_modes": weyl.MAX_MODES + 1}}, "$.chain.n_modes"),
    ("propagation", {"chain": {**CHAIN2, "n_modes": 10 ** 20}}, "$.chain.n_modes"),
    ("closure", {"mode_count": weyl.MAX_MODES + 1, "generators": ["(0,1) * q1^2"]},
     "$.mode_count"),
    ("closure", {"mode_count": 10 ** 20, "generators": ["(0,1) * q1^2"]}, "$.mode_count"),
    ("recur", {"hamiltonian": {"poly": "(1,0) * q1^2", "mode_count": fock.MAX_MODES + 1},
               "delta": 0.1, "mode": "pointwise"}, "$.hamiltonian.mode_count"),
    ("recur", {"hamiltonian": {"poly": "(1,0) * q1^2", "mode_count": 10 ** 20},
               "delta": 0.1, "mode": "pointwise"}, "$.hamiltonian.mode_count"),
    *[("recur", {"hamiltonian": {"level_formula": {"count": count, "coeffs": [0.0, 1.0]}},
                 "delta": 0.1, "mode": "energy_bound", "energy_bound": 0.1},
       "$.hamiltonian.level_formula.count") for count in (fock.MAX_DIM + 1, 10 ** 11)],
    *[("recur", {"hamiltonian": HARMONIC, "delta": 0.1, "mode": "finite_net",
                 "net_size": size}, "$.net_size") for size in (cli.MAX_NET_SIZE + 1, 10 ** 9)],
    ("invert", {"hamiltonian": HARMONIC, "delta": 0.1, "mode": "finite_net", "s": 1.0,
                "net_size": cli.MAX_NET_SIZE + 1}, "$.net_size"),
    ("compile", {"system": QP_SYSTEM, "target": {"op": "scale", "factor": -1.0, "inner": 1},
                 "t": 0.5, "epsilon": 0.1, "n_budget": 4,
                 "inverter": {"mode": "finite_net", "delta": 0.1,
                              "net_size": cli.MAX_NET_SIZE + 1}}, "$.inverter.net_size"),
    # the grid's curvature bound (step / 2)^2 overflowed into a traceback
    ("recur", {"hamiltonian": HARMONIC, "delta": 0.001, "mode": "pointwise",
               "tau_min": 1.0, "grid_step": 1e308}, "$.grid_step"),
    ("invert", {"hamiltonian": HARMONIC, "delta": 0.1, "mode": "pointwise", "s": 1.0,
                "grid_step": 1e200}, "$.grid_step"),
    # a polynomial whose adjoint's coefficients overflow a float, or whose
    # matrix entries overflow: refused at the polynomial, not a traceback
    ("recur", {"hamiltonian": {**HARMONIC, "poly": "(1,0) * q1^200 p1^200", "dims": [8]},
               "delta": 0.1, "mode": "pointwise"}, "$.hamiltonian.poly"),
    ("compile", {"system": {**QP_SYSTEM, "generators": ["(1,0) * q1", "(1,0) * q1^200 p1^200"]},
                 "target": GEN(0), "t": 0.5, "epsilon": 0.1, "n_budget": 2,
                 "inverter": {"mode": "exact"}}, "$.system.generators[1]"),
    ("recur", {"hamiltonian": {**HARMONIC, "poly": "(1,0) * q1^99999", "dims": [8]},
               "delta": 0.1, "mode": "pointwise"}, "$.hamiltonian.poly"),
    ("compile", {"system": {**QP_SYSTEM, "dims": [8], "generators": ["(1,0) * q1",
                                                                     "(1,0) * q1^99999"]},
                 "target": GEN(1), "t": 0.5, "epsilon": 0.1, "n_budget": 2,
                 "inverter": {"mode": "exact"}}, "$.system.generators[1]"),
    *UNTYPED_FIELDS.values(),
], ids=["recur-no-bound", "invert-no-bound", "fock-occupation", "dims-vs-modes",
        "non-hermitian", "no-levels", "empty-interior", "recur-horizon", "invert-horizon",
        "negative-level", "unordered-levels", "unordered-formula", "recur-grid-step",
        "recur-grid-reach", "commutator-horizon-below-duration", "compile-horizon-below-duration",
        "chain-demo-grid-reach",
        "negative-energy-bound", "zero-energy-bound", "nan-energy-bound",
        "chain-demo-zero-energy-bound", "net-size-zero", "net-size-negative",
        "net-size-fraction", "negative-interior-buffer", "empty-state", "empty-hamiltonian",
        "commutator-t-squared-overflows", "compile-duration-overflows",
        "chain-demo-duration-overflows",
        "propagation-n-modes-above-limit", "propagation-n-modes-1e20",
        "closure-mode-count-above-limit", "closure-mode-count-1e20",
        "recur-mode-count-above-limit", "recur-mode-count-1e20",
        "level-count-above-limit", "level-count-1e11", "recur-net-size-above-limit",
        "recur-net-size-1e9", "invert-net-size-above-limit", "inverter-net-size-above-limit",
        "recur-grid-step-overflows", "invert-grid-step-overflows",
        "recur-adjoint-overflows", "compile-adjoint-overflows", "recur-matrix-not-finite",
        "compile-matrix-not-finite", *UNTYPED_FIELDS])
def test_config_value_errors_exit_usage(sub, config, path, tmp_path, capsys):
    rc_code, _ = run(sub, config, tmp_path)
    err = capsys.readouterr().err
    assert rc_code == cli.EXIT_USAGE
    assert f"{path}: " in err and "Traceback" not in err



def _left_nested(depth: int) -> dict:
    expr = GEN(0)
    for _ in range(depth):
        expr = {"op": "bracket", "left": expr, "right": GEN(1)}
    return expr


@pytest.mark.parametrize("sub,config,path", [
    ("compile", {"system": QP_SYSTEM, "target": _left_nested(40), "t": 0.5, "epsilon": 0.1,
                 "n_budget": 2, "inverter": {"mode": "exact"}}, "$.target"),
    ("chain-demo", {"chain": CHAIN2, "dims": [4, 4],
                    "targets": [{"expr": GEN(1), "t": 0.1}, {"expr": _left_nested(40), "t": 0.1}],
                    "epsilon": 0.1, "n_budget": 2, "inverter": {"mode": "exact"}},
     "$.targets[1].expr"),
], ids=["compile", "chain-demo"])
def test_target_word_too_large_exits_usage_before_any_word(sub, config, path, tmp_path, capsys,
                                                           monkeypatch):
    # a depth-40 bracket's order-1 word has 3 * 2^40 - 2 leaves: refused from
    # the expression alone, before any word is built
    def refuse(*args):
        raise AssertionError("build_word called")

    monkeypatch.setattr(synth, "build_word", refuse)
    rc_code, _ = run(sub, config, tmp_path)
    err = capsys.readouterr().err
    assert rc_code == cli.EXIT_USAGE
    assert f"error: {path}: " in err and f"{3 * 2**40 - 2} leaves" in err
    assert "Traceback" not in err


def _run_nested(sub, depth, tmp_path):
    """Run ``sub`` on a config whose target is ``depth`` scale ops around
    generator 0, written as text: json.dumps refuses such depths itself."""
    nested = '{"op": "scale", "factor": 1.0, "inner": ' * depth + "0" + "}" * depth
    config = ({"system": QP_SYSTEM, "target": "@", "t": 0.5} if sub == "compile" else
              {"chain": CHAIN2, "dims": [4, 4], "targets": [{"expr": "@", "t": 0.1}]})
    config.update({"epsilon": 0.1, "n_budget": 2, "inverter": {"mode": "exact"}})
    cfg = tmp_path / "nested.json"
    cfg.write_text(json.dumps(config).replace('"@"', nested))
    return cli.main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("sub,depth,path", [
    ("compile", 330, "$.target"), ("chain-demo", 330, "$.targets[0].expr"),
    ("compile", 2000, None),
])
def test_deeply_nested_target_exits_usage(sub, depth, path, tmp_path, capsys):
    # 330 nested scale ops overflowed the frame limit in Scale.__str__, after
    # the search, and 2000 in json.load: both are config errors, the first
    # refused at its path before any word is built
    assert _run_nested(sub, depth, tmp_path) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if path is not None:
        assert f"error: {path}: nests {depth} levels, above {synth.MAX_EXPR_DEPTH}" in err


@pytest.mark.parametrize("sub", ["compile", "chain-demo"])
def test_nested_target_at_the_depth_bound_runs(sub, tmp_path):
    assert _run_nested(sub, synth.MAX_EXPR_DEPTH, tmp_path) == cli.EXIT_OK
    assert json.loads((tmp_path / "out" / "report.json").read_text())


@pytest.mark.parametrize("sub,config,path", [
    ("recur", {"hamiltonian": {"levels": [0.0, 1.0, math.sqrt(2.0), math.pi, 1e20]},
               "delta": 1e-6, "mode": "energy_bound", "energy_bound": 0.1, "tau_min": 1.0,
               "t_max": math.inf}, "$.t_max"),
    ("invert", {"hamiltonian": HARMONIC, "delta": 0.1, "mode": "pointwise", "s": 1.0,
                "t_max": math.inf}, "$.t_max"),
    ("commutator", {"system": QP_SYSTEM, "k": 0, "l": 1, "t": 0.5, "n": 2,
                    "inverter": {"mode": "pointwise", "delta": 0.1, "t_max": math.inf}},
     "$.inverter.t_max"),
    ("recur", {"hamiltonian": {"levels": [0.0, math.nan]}, "delta": 0.1,
               "mode": "energy_bound", "energy_bound": 0.1}, "$.hamiltonian.levels[1]"),
], ids=["recur-horizon", "invert-horizon", "inverter-horizon", "nan-level"])
def test_non_finite_numbers_exit_usage(sub, config, path, tmp_path, capsys):
    # 1e400 is strictly valid JSON and reads as inf; Python also reads NaN
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config).replace("Infinity", "1e400"))
    rc_code = cli.main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc_code == cli.EXIT_USAGE
    assert f"error: {path}: " in err and "Traceback" not in err


@pytest.mark.parametrize("sub,config,path", [
    ("trotter", {"system": QP_SYSTEM, "k": 0, "l": 1, "t": 0.5, "ns": [16.0, 64, 256]},
     "$.ns[0]"),
    ("propagation", {"chain": {**CHAIN2, "n_modes": 1e20}}, "$.chain.n_modes"),
    ("chain-demo", {"chain": {**CHAIN2, "n_modes": 1e20}, "dims": [4, 4],
                    "targets": [{"expr": GEN(0), "t": 0.1}], "epsilon": 0.1, "n_budget": 2,
                    "inverter": {"mode": "exact"}}, "$.chain.n_modes"),
    ("commutator", {"system": QP_SYSTEM, "k": 0, "l": 1, "t": 0.5, "n": 2.0,
                    "inverter": {"mode": "exact"}}, "$.n"),
], ids=["trotter-ns", "propagation-n-modes", "chain-demo-n-modes", "commutator-n"])
def test_integral_floats_are_not_integers(sub, config, path, tmp_path, capsys):
    # jsonschema's own integer type admits 16.0 and 1e20: they reached range()
    # as a TypeError and index arithmetic as an OverflowError
    rc_code, _ = run(sub, config, tmp_path)
    err = capsys.readouterr().err
    assert rc_code == cli.EXIT_USAGE
    assert f"{path}: " in err and "is not of type 'integer'" in err and "Traceback" not in err


@pytest.mark.parametrize("sub,config,path", [
    ("recur", {"hamiltonian": HARMONIC, "delta": 5e-324, "mode": "pointwise",
               "state": {"fock": [0]}, "tau_min": 1.0}, "$.delta"),
    ("invert", {"hamiltonian": HARMONIC, "delta": 1e-160, "mode": "pointwise", "s": 0.5},
     "$.delta"),
    ("commutator", {"system": QP_SYSTEM, "k": 0, "l": 1, "t": 0.5, "n": 2,
                    "inverter": {"mode": "pointwise", "delta": 5e-324}}, "$.inverter.delta"),
], ids=["recur", "invert-subnormal", "commutator-inverter"])
def test_delta_with_underflowing_threshold_exits_usage(sub, config, path, tmp_path, capsys,
                                                       monkeypatch):
    # a threshold delta^2/8 below the smallest normal float certifies no time:
    # refused before any spectrum is taken or grid point scanned
    def no_spectrum(*args, **kwargs):
        raise AssertionError("spectrum taken before the delta check")

    monkeypatch.setattr(recurrence, "spectral", no_spectrum)
    rc_code, out = run(sub, config, tmp_path)
    err = capsys.readouterr().err
    assert rc_code == cli.EXIT_USAGE
    assert err.startswith(f"error: {path}: ") and "delta^2/8" in err
    assert not (out / "scan.csv").exists()


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
                 | st.sampled_from([-0.0, 5e-324, 1e-310, 1e308, -1e308, math.nan, math.inf,
                                    -math.inf, "é ü ∞ 😀", "\x00\x1f\x7f\t\n", '"\\/',
                                    "\u2028\ud800"]))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)
                   | st.dictionaries(st.integers() | st.floats() | st.booleans() | st.none(),
                                     inner, max_size=3)),
    max_leaves=12)


@st.composite
def _shared_json(draw):
    # one object reached along several paths, at equal and at different depths
    part, other = draw(_JSON_VALUES), draw(_JSON_VALUES)
    pieces = [part, [part], {"a": part, "b": [part, other]}, other, [], {}]
    return draw(st.lists(st.sampled_from(pieces), max_size=6))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.one_of(_JSON_VALUES, _shared_json()))
def test_json_text_is_json_dumps(value):
    try:
        expected = json.dumps(value, indent=2, sort_keys=True)
    except TypeError:  # keys of mixed types, such as None and 1, do not sort
        with pytest.raises(TypeError):
            cli.json_text(value)
        return
    assert cli.json_text(value) == expected


def test_json_text_refuses_what_json_dumps_refuses():
    loop = [1]
    loop.append({"again": loop})
    for value, error in ((loop, ValueError), (np.int64(3), TypeError),
                         ({"k": {(0, 1): 2}}, TypeError)):
        with pytest.raises(error) as expected:
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(error) as got:
            cli.json_text(value)
        assert str(got.value) == str(expected.value)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SAMPLE_SUBCOMMANDS = {"chain_demo": "chain-demo", "closure": "closure",
                      "commutator_recurrence": "commutator", "invert_harmonic": "invert",
                      "propagation_chain3": "propagation", "recur_harmonic": "recur",
                      "trotter_qp": "trotter"}


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_sample_config_runs_end_to_end(config, tmp_path):
    out = tmp_path / "out"
    rc_code = cli.main([SAMPLE_SUBCOMMANDS[config.stem], "--config", str(config),
                        "--out", str(out)])
    assert rc_code == cli.EXIT_OK
    assert (out / "report.json").is_file()


def _count_eigh(monkeypatch):
    """Record a copy of every matrix handed to np.linalg.eigh."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_chain_demo_sum_target_diagonalizes_nothing(tmp_path, monkeypatch):
    # a plain sum target reverses no generator, so the pointwise inverter
    # needs no spectrum, and the dim-512 word takes the action path
    config = {
        "chain": {"n_modes": 3, "omega": 1.0, "couplings": [[0, 1, 1.0], [1, 2, 0.8]],
                  "control_sites": [0], "control_degree_cap": 1},
        "dims": [8, 8, 8],
        "targets": [{"expr": {"op": "sum", "left": GEN(0), "right": GEN(1)}, "t": 0.3}],
        "epsilon": 0.1, "n_budget": 64, "inverter": {"mode": "pointwise", "delta": 1e-3},
    }
    calls = _count_eigh(monkeypatch)
    rc_code, out = run("chain-demo", config, tmp_path)
    assert rc_code == cli.EXIT_OK
    assert json.loads((out / "report.json").read_text())["all_ok"]
    assert calls == []


def test_chain_demo_at_dim_4096_allocates_no_dense_matrix(tmp_path, monkeypatch):
    # one dense 4096 x 4096 complex matrix is 256 MB; the sparse generators,
    # their Chebyshev actions and the states of this run need about 12 MB
    config = {
        "chain": {"n_modes": 3, "omega": 1.0, "couplings": [[0, 1, 1.0], [1, 2, 0.8]],
                  "control_sites": [0], "control_degree_cap": 1},
        "dims": [16, 16, 16],
        "targets": [{"expr": {"op": "sum", "left": GEN(0), "right": GEN(1)}, "t": 0.3}],
        "epsilon": 0.1, "n_budget": 32, "inverter": {"mode": "exact"},
    }
    calls = _count_eigh(monkeypatch)
    tracemalloc.start()
    try:
        rc_code, out = run("chain-demo", config, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc_code == cli.EXIT_OK and calls == []
    report = json.loads((out / "report.json").read_text())
    assert report["all_ok"] and report["targets"][0]["n"] == 2
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MB"


def test_commutator_inverter_covers_only_reversed_generators(tmp_path, monkeypatch):
    system = {
        "mode_count": 1,
        "dims": [24],
        "generators": ["(0.5,0) * q1^2 + (0.5,0) * p1^2",
                       "(0.5,0) * q1^2 + (0.5,0) * p1^2 + (1,0) * q1",
                       "(1,0) * p1"],
    }
    config = {"system": system, "k": 0, "l": 1, "t": 0.4, "n": 2,
              "inverter": {"mode": "pointwise", "delta": 1e-4},
              "state": {"fock": [0]}}
    calls = _count_eigh(monkeypatch)
    rc_code, out = run("commutator", config, tmp_path)
    assert rc_code == cli.EXIT_OK
    # generators 0 and 1 once each, shared by the table and the inverter,
    # plus the one-off target; the unused generator 2 never
    spec, herms = cli._parse_system(system)
    table = cli._build_system(spec, herms, [(range(len(herms)), "$")])
    assert len(calls) == 3
    decomposed = [k for k in table.indices()
                  if any(np.array_equal(a, 1j * table.matrix(k).toarray()) for a in calls)]
    assert decomposed == [0, 1]
    # the plans equal those of an inverter on independent spectra of every generator
    spectra = {k: recurrence.spectral(1j * table.matrix(k).toarray())
               for k in table.indices()}
    inverter = recurrence.RecurrenceInverter(spectra, 1e-4, "pointwise",
                                             fock.fock_state(spec, [0]))
    bracket = synth.Bracket(synth.Gen(0), synth.Gen(1))
    propagate.realize_word(synth.build_word(bracket, 0.4 * 0.4, 2), inverter)
    plans = json.loads((out / "plans.json").read_text())
    assert plans == [p.to_dict() for p in inverter.plans().values()]


def test_recur_artifacts_independent_of_blas_threads(tmp_path):
    # 62 head levels over four grid chunks: the scan's matrix products are
    # large enough for a threaded BLAS to split them.  200 head levels pass
    # the scan's 192-level product slices: OpenBLAS sums a single product of
    # inner size 400 in a thread-count-dependent order, which shows in the
    # window minima of the one chunk scanned.  scan.csv has one row per
    # window, chunk_rows per full chunk
    chunk_rows = recurrence._CHUNK // recurrence._TRACE_WINDOW
    heads = {
        "ladder": ({"count": 128, "coeffs": [0.0, 1.0, 1 / 11]}, 2.0, 62, 3 * chunk_rows),
        "wide": ({"count": 400, "coeffs": [0.0, 1.0]}, 1.0, 200, chunk_rows - 1),
    }
    for name, (formula, bound, levels, rows) in heads.items():
        config = {"hamiltonian": {"level_formula": formula}, "delta": 0.2,
                  "mode": "energy_bound", "energy_bound": bound, "tau_min": 1.0}
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}_threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-m", "recurq.cli", "recur", "--config",
                                   str(cfg), "--out", str(out)], env=env, capture_output=True)
            assert proc.returncode == cli.EXIT_OK, proc.stderr.decode()
            outs.append(out)
        for artifact in ("plan.json", "scan.csv"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()
        assert json.loads((outs[0] / "plan.json").read_text())["N"] + 1 == levels
        assert len((outs[0] / "scan.csv").read_text().splitlines()) - 1 > rows


def _csv_writer_bytes(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


@pytest.mark.parametrize("rows", [
    [[0.0, -0.0], [1e16, 9.999e15], [1e-4, 1e-5], [-1.5, -2.5e-300], [-1e16, -9.999e15],
     [0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0], [12345.678901234567, -0.12345678901234568],
     [math.inf, -math.inf, math.nan], []],
    [["n", "error"], [4, 0.125], [4096, 3.0517578125e-05], [0, -1], [2 ** 70, 1]],
    [["edge_u", "edge_v", "verdict", "closure_dim", "missing"], [0, 1, "propagates", 12, 0],
     ["label", "status", "n", "segments", "distance", "fidelity", "wall_time"],
     ["scale(-1.0, [G0, G1])", 'say "ok"', 4, 64, None, 0.99, 0.0123],
     ["a\nb", " lead", True, np.float64(0.1), 2]],
], ids=["floats", "ints", "strings"])
def test_write_csv_matches_csv_writer(rows, tmp_path):
    path = tmp_path / "rows.csv"
    cli.write_csv(str(path), rows)
    assert path.read_bytes() == _csv_writer_bytes(rows)


def test_recur_scan_csv_matches_csv_writer(tmp_path):
    # the golden-ratio level returns late: 2.6M grid points, 656 windows
    levels = [0.0, 1.0, (1.0 + math.sqrt(5.0)) / 2.0, math.pi]
    config = {"hamiltonian": {"levels": levels}, "delta": 7e-4, "mode": "energy_bound",
              "energy_bound": 1.225e-7, "tau_min": 1.0, "t_max": 1e5, "grid_step": 0.01}
    rc_code, out = run("recur", config, tmp_path)
    trace: list = []
    recurrence.plan_recurrence(np.array(levels), 7e-4, "energy_bound", 1.225e-7,
                               tau_min=1.0, t_max=1e5, grid_step=0.01, trace=trace)
    assert rc_code == cli.EXIT_OK and len(trace) > 300
    assert (out / "scan.csv").read_bytes() == _csv_writer_bytes([["T", "objective"], *trace])


def test_recur_scan_memory_does_not_grow_with_chunks(tmp_path):
    # scan.csv rows are written chunk by chunk as the search runs: ten times
    # the chunks (16 rows each) leave the peak where it was; rows held until
    # the search ends would add about 1.6 kB a chunk
    levels = [0.0, 1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0), math.sqrt(6.0),
              math.sqrt(7.0), 100.0]  # the bound cuts 100: the step is 2 pi / (100 sqrt 7)
    chunk = 65536 * 2.0 * math.pi / (100.0 * math.sqrt(7.0))
    peaks, sizes = [], []
    for chunks in (100, 1000):
        config = {"hamiltonian": {"levels": levels}, "delta": 1e-5, "mode": "energy_bound",
                  "energy_bound": 1e-9, "tau_min": 1.0, "t_max": 1.0 + chunks * chunk}
        tracemalloc.start()
        try:
            rc_code, out = run("recur", config, tmp_path, name=f"chunks{chunks}")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rc_code == cli.EXIT_FAILURE
        sizes.append(len((out / "scan.csv").read_bytes().splitlines()))
    assert sizes[1] > 9 * sizes[0] > 9 * 1000
    assert peaks[1] - peaks[0] < 2**18, f"grew {(peaks[1] - peaks[0]) / 2**20:.2f} MB"


CUBIC_SYSTEM = {
    "mode_count": 1,
    "dims": [24],
    "generators": ["(0.5,0) * q1^2 + (0.5,0) * p1^2", "(1,0) * q1", "(0.5,0) * p1^2",
                   "(0.2,0) * q1^3"],
}


def test_compile_negative_duration_meets_epsilon(tmp_path):
    # a negative t is e^{-[H, q^3] |t|}: the bracket word swaps its operands,
    # and the oracle state is e^{(-G)|t|} psi0
    config = {"system": CUBIC_SYSTEM,
              "target": {"op": "bracket", "left": GEN(0), "right": GEN(3)},
              "t": -0.25, "epsilon": 1e-2, "n_budget": 64, "inverter": {"mode": "exact"},
              "state": {"fock": [0]}}
    rc_code, out = run("compile", config, tmp_path)
    assert rc_code == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "ok" and report["distance"] <= 1e-2


def test_chain_demo_negative_duration_target_is_ok(tmp_path):
    config = {
        "chain": {"n_modes": 2, "omega": 1.0, "couplings": [[0, 1, 1.0]],
                  "control_sites": [0], "control_degree_cap": 1},
        "dims": [4, 4],
        "targets": [{"expr": {"op": "sum", "left": GEN(0), "right": GEN(1)}, "t": -0.2}],
        "epsilon": 0.05, "n_budget": 64, "inverter": {"mode": "exact"},
    }
    rc_code, out = run("chain-demo", config, tmp_path)
    assert rc_code == cli.EXIT_OK
    target, = json.loads((out / "report.json").read_text())["targets"]
    assert target["status"] == "ok" and target["distance"] <= 0.05


def test_squared_word_reports_independent_of_blas_threads(tmp_path):
    # dim 96: the block products and squarings of these words are large
    # enough for a threaded BLAS to split them
    system = {"mode_count": 1, "dims": [96],
              "generators": ["(1,0) * q1", "(0.5,0) * p1^2", "(0.2,0) * q1^3"]}
    jobs = {
        "commutator": {"system": system, "k": 0, "l": 1, "t": 0.4, "n": 8,
                       "inverter": {"mode": "exact"}, "state": {"fock": [0]}},
        "compile": {"system": system, "target": {"op": "bracket", "left": {
            "op": "bracket", "left": GEN(0), "right": GEN(1)}, "right": GEN(2)},
            "t": 0.29, "epsilon": 1e-2, "n_budget": 8, "inverter": {"mode": "exact"},
            "state": {"fock": [0]}},
    }
    for sub, config in jobs.items():
        cfg = tmp_path / f"{sub}.json"
        cfg.write_text(json.dumps(config))
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"{sub}_threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-m", "recurq.cli", sub, "--config",
                                   str(cfg), "--out", str(out)], env=env, capture_output=True)
            reports.append((proc.returncode, (out / "report.json").read_bytes()))
        assert reports[0] == reports[1], sub
        assert reports[0][0] == cli.EXIT_OK, sub
