"""The output checks accept true results and catch wrong ones."""

import json
import math
from types import SimpleNamespace

import checks
from workloads import harmonic


def _write(tmp_path, name, payload):
    (tmp_path / name).write_text(json.dumps(payload))


def _harmonic_plan(T, delta=1e-3):
    desc = {"terms": harmonic(1.0), "dim": 16}
    E, V, shift = checks.spectrum(desc)
    head = checks.head_sum(E, 3, T)
    tail = float((abs(V[0, 4:]) ** 2).sum())
    return desc, {"delta": delta, "N": 3, "time": T, "achieved_sum": head,
                  "tail_mass": tail, "mode": "pointwise", "energy_bound": None,
                  "shift": shift}


def test_harmonic_plan_at_4pi_passes_and_elsewhere_fails():
    desc, plan = _harmonic_plan(4 * math.pi)
    assert checks.plan_problems(plan, desc, fock=0) == []
    desc, plan = _harmonic_plan(3.0)
    assert checks.plan_problems(plan, desc, fock=0)


def test_fabricated_search_failure_is_caught(tmp_path):
    desc = {"terms": [(1.0, 1, 0)], "dim": 8}
    job = SimpleNamespace(config={"delta": 0.3}, exits=(1,),
                          check={"kind": "search_failure", "spectrum": desc, "fock": 0})
    E, V, _ = checks.spectrum(desc)
    N = checks.tail_cut(abs(V[0, :]) ** 2, 0.3)
    honest = checks.head_sum(E, N, 5.0)
    _write(tmp_path, "report.json", {"status": "failed", "best_time": 5.0,
                                     "best_objective": honest})
    assert honest >= 0.3 ** 2 / 4
    assert checks.check_job(job, 1, str(tmp_path)) == []
    _write(tmp_path, "report.json", {"status": "failed", "best_time": 5.0,
                                     "best_objective": honest * 2 + 1})
    assert checks.check_job(job, 1, str(tmp_path))


def test_wrong_exit_code_and_verdict_are_caught(tmp_path):
    job = SimpleNamespace(config={}, exits=(1,),
                          check={"kind": "propagation", "verdict": "fails"})
    _write(tmp_path, "report.json", {"verdict": "propagates", "controllable": True})
    assert checks.check_job(job, 0, str(tmp_path))
    assert checks.check_job(job, 1, str(tmp_path))


def test_negative_segment_is_caught(tmp_path):
    job = SimpleNamespace(config={"epsilon": 0.1, "n_budget": 4}, exits=(0,),
                          check={"kind": "compile"})
    _write(tmp_path, "report.json", {"status": "ok", "n": 1, "distance": 0.01,
                                     "physical": True, "segments": 2})
    _write(tmp_path, "sequence.json", {"segments": [{"k": 0, "t": 0.1}, {"k": 1, "t": -0.1}]})
    assert checks.check_job(job, 0, str(tmp_path))


def test_digest_masks_only_wall_time(tmp_path):
    report = {"all_ok": True, "targets": [{"label": "x", "distance": 0.01, "wall_time": 1.0}]}
    _write(tmp_path, "report.json", report)
    (tmp_path / "summary.csv").write_text("label,distance,wall_time\nx,0.01,1.0\n")
    first = checks.digest(str(tmp_path))
    report["targets"][0]["wall_time"] = 2.0
    _write(tmp_path, "report.json", report)
    (tmp_path / "summary.csv").write_text("label,distance,wall_time\nx,0.01,2.0\n")
    assert checks.digest(str(tmp_path)) == first
    report["targets"][0]["distance"] = 0.02
    _write(tmp_path, "report.json", report)
    assert checks.digest(str(tmp_path)) != first
