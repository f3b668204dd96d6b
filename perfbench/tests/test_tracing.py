"""The tracer wraps every binding, and tracing does not change results."""

import pytest

import tracing
import workloads
import worker

SEED = 7

# span -> workload whose job list is built to exercise it (the prediction
# table in perfbench/README.md)
EXERCISED_ON = {
    "cli.main": "long-words",
    "cli.validate_config": "long-words",
    "cli.write": "long-words",
    "chains.chain_controllability": "closure-chains",
    "chains.control_system": "dense-3mode",
    "weyl.lie_closure": "closure-chains",
    "weyl.algebraic_propagation_check": "closure-chains",
    "weyl.skew_monomial_generators": "closure-chains",
    "weyl.local_skew_generators": "closure-chains",
    "fock.represent": "dense-3mode",
    "linalg.eigh": "dense-3mode",
    "propagate.evolve": "long-words",
    "propagate.evolve_signed": "long-words",
    "propagate.expm_skew": "long-words",
    "propagate.realize_word": "long-words",
    "propagate.trotter_errors": "long-words",
    "recurrence.spectral": "recur-search",
    "recurrence.find_recurrence_time": "recur-search",
    "recurrence.invert": "recur-search",
    "recurrence.inverter.duration": "long-words",
    "synth.compile_sequence": "long-words",
    "synth.build_word": "long-words",
    "synth.reachability_report": "dense-3mode",
}



def _chain_demo():
    from recurq import chains, synth

    spec = chains.ChainSpec(2, 1.0, ((0, 1, 1.0),), (0,), 1)
    report, _, _ = chains.chain_demo(spec, (4, 4), [(synth.Gen(1), 0.1)], 0.1, 4,
                                     synth.ExactInverter())
    assert report.all_ok


def _propagation_check():
    from recurq import chains, weyl

    local = weyl.local_skew_generators(0, 2, 2)
    weyl.algebraic_propagation_check(local, chains.coupling_hamiltonian(0, 1, 1.0, 2), 2)


# bindings no CLI job calls through: chains.chain_demo (which the CLI
# re-implements) and weyl's own names, which only chains imports and calls
LIBRARY_ONLY = {
    "recurq.chains.represent": _chain_demo,
    "recurq.chains.reachability_report": _chain_demo,
    "recurq.weyl.local_skew_generators": _propagation_check,
    "recurq.weyl.algebraic_propagation_check": _propagation_check,
}


@pytest.fixture(scope="module")
def traced_passes(tmp_path_factory):
    """Per workload: an untraced pass, then a traced pass of the same job list."""
    out = {}
    for name in workloads.WORKLOADS:
        runner = worker.Runner(name, SEED, str(tmp_path_factory.mktemp(name)))
        times, failures = [], []
        worker._pass(runner, times, failures)
        tracer = tracing.Tracer().install()
        try:
            worker._pass(runner, times, failures, tracer)
        finally:
            tracer.uninstall()
        out[name] = (tracer, failures)
    return out


def test_every_span_is_listed():
    assert set(EXERCISED_ON) == {span for _, _, span in tracing.SPANS}


def test_every_span_records_calls_on_its_workload(traced_passes):
    for span, name in EXERCISED_ON.items():
        assert traced_passes[name][0].calls[span] > 0, (span, name)


def test_every_binding_records_calls(traced_passes):
    sites = set()
    called = set()
    for tracer, _ in traced_passes.values():
        sites |= set(tracer.site_calls)
        called |= {site for site, n in tracer.site_calls.items() if n > 0}
    # the from-import bindings in chains and synth are wrapped sites
    for site in ("recurq.chains.lie_closure", "recurq.chains.algebraic_propagation_check",
                 "recurq.chains.local_skew_generators", "recurq.chains.represent",
                 "recurq.chains.reachability_report", "recurq.synth.evolve",
                 "recurq.synth.evolve_signed", "recurq.synth.expm_skew",
                 "recurq.synth.realize_word"):
        assert site in sites, site
    assert sites - called == set(LIBRARY_ONLY)


def test_library_only_bindings_record_calls():
    for site, exercise in LIBRARY_ONLY.items():
        tracer = tracing.Tracer().install()
        try:
            tracer.enabled = True
            exercise()
        finally:
            tracer.uninstall()
        assert tracer.site_calls[site] > 0, site


def test_uninstall_restores_every_binding():
    from recurq import chains, propagate, synth

    before = (synth.evolve, chains.lie_closure, propagate.evolve)
    tracer = tracing.Tracer().install()
    assert synth.evolve is not before[0]
    tracer.uninstall()
    assert (synth.evolve, chains.lie_closure, propagate.evolve) == before


def test_tracing_does_not_change_artifacts(traced_passes):
    # Runner compares each job's artifact digest with its first (untraced)
    # run and reports a difference as a failure
    for name, (_, failures) in traced_passes.items():
        assert failures == [], (name, failures)


def test_recursive_build_word_counts_top_level_calls_only(traced_passes):
    tracer = traced_passes["long-words"][0]
    metrics = tracer.metrics(0, 0.0)
    assert metrics["synth.compile.rounds"] == tracer.calls["synth.build_word"]
    # one top-level call per compile round: far fewer than segments built
    assert metrics["synth.build_word.segments"] > 100 * metrics["synth.compile.rounds"]


def test_layer_isolation(traced_passes):
    for name in ("long-words", "dense-3mode", "recur-search"):
        metrics = traced_passes[name][0].metrics(0, 0.0)
        assert metrics["weyl.lie_closure.calls"] == 0, name
        assert metrics["weyl.algebraic_propagation_check.calls"] == 0, name
    grid = {name: t.metrics(0, 0.0)["recurrence.grid_points"]
            for name, (t, _) in traced_passes.items()}
    assert all(grid["recur-search"] > v for k, v in grid.items() if k != "recur-search")
    closure = traced_passes["closure-chains"][0].metrics(0, 0.0)
    assert closure["weyl.lie_closure.monomials_max"] > 120  # sparse path reached
