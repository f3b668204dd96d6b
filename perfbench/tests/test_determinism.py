"""The same seed gives the same configs, artifacts and per-layer counts."""

import json
import os
import subprocess
import sys

import pytest

import tracing
import workloads
from conftest import BENCH, ROOT

SEED = 11


def _config_texts(name, seed):
    return [job.config_text() for job in workloads.job_list(name, seed)] + [
        workloads.warmup_job(name, seed).config_text()]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_configs_repeat_byte_for_byte(name):
    code = ("import json, sys; sys.path.insert(0, %r); import workloads; "
            "print(json.dumps([j.config_text() for j in workloads.job_list(%r, %d)] "
            "+ [workloads.warmup_job(%r, %d).config_text()]))"
            % (BENCH, name, SEED, name, SEED))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert json.loads(out.stdout) == _config_texts(name, SEED)
    assert _config_texts(name, SEED) != _config_texts(name, SEED + 1)


def _traced_run(name, work):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = os.path.join(work, "result.json")
    subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), "--role", "measure",
                    "--workload", name, "--seed", str(SEED), "--trace", "1",
                    "--work", work, "--result", result],
                   env=env, check=True, timeout=170)
    with open(result) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_artifacts_and_counts_repeat_across_processes(name, tmp_path):
    first = _traced_run(name, str(tmp_path / "a"))
    second = _traced_run(name, str(tmp_path / "b"))
    assert first["failures"] == [] and second["failures"] == []
    assert first["digests"] == second["digests"]
    for metric in tracing.DETERMINISTIC:
        assert first["per_layer"][metric] == second["per_layer"][metric], metric
