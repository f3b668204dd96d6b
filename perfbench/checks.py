"""Per-job output checks and artifact digests.

A check re-derives what it can from the job's own inputs instead of trusting
the report: recurrence plans are re-validated on a spectrum rebuilt here
from the polynomial's term list, honest search failures are re-evaluated at
their reported best time, and verdicts are compared with the physics known
for the generated chain.  ``check_job`` returns a list of problems; an empty
list means the job's output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re

import numpy as np


def _load(out: str, name: str):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


# -- spectra rebuilt from term lists -------------------------------------------


def matrix1(terms, dim: int) -> np.ndarray:
    """Truncate-then-multiply matrix of sum c * q^a p^b on one mode."""
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)
    q = (a + a.conj().T) / math.sqrt(2.0)
    p = 1j * (a.conj().T - a) / math.sqrt(2.0)
    M = np.zeros((dim, dim), dtype=complex)
    for c, qa, pb in terms:
        M += c * np.linalg.matrix_power(q, qa) @ np.linalg.matrix_power(p, pb)
    return (M + M.conj().T) / 2.0


def spectrum(desc):
    """(energies ascending and shifted to E_0 >= 0, eigenvectors or None, shift)."""
    if "coeffs" in desc:
        n = np.arange(desc["count"], dtype=float)
        E = sum(c * n ** k for k, c in enumerate(desc["coeffs"]))
        return np.asarray(E, dtype=float), None, 0.0
    E, V = np.linalg.eigh(matrix1(desc["terms"], desc["dim"]))
    shift = max(0.0, -float(E[0]))
    return E + shift, V, shift


def head_sum(E, N: int, T: float) -> float:
    return float(np.sum(1.0 - np.cos(E[: N + 1] * T)))


def _fock_weights(V, k: int) -> np.ndarray:
    return np.abs(V[k, :]) ** 2


def plan_problems(plan: dict, desc: dict, fock: int | None = None) -> list:
    """Re-validate a recurrence plan on the spectrum rebuilt from ``desc``."""
    E, V, shift = spectrum(desc)
    delta, N, T = plan["delta"], plan["N"], plan["time"]
    d2 = delta * delta
    problems = []
    if abs(shift - plan["shift"]) > 1e-9 * max(1.0, abs(shift)):
        problems.append(f"plan shift {plan['shift']} != rebuilt shift {shift}")
    if not 0 <= N < len(E) - (plan["mode"] == "energy_bound"):
        return problems + [f"plan head index N={N} outside the spectrum"]
    head = head_sum(E, N, T)
    if plan["mode"] == "energy_bound":
        M = plan["energy_bound"]
        if E[N + 1] < 8.0 * M / d2:
            problems.append(f"E_(N+1)={E[N + 1]} below the tail threshold {8.0 * M / d2}")
        tail = M / E[N + 1]
        tail_ok = tail <= d2 / 8.0
    else:
        tail = plan["tail_mass"]
        if fock is not None:
            tail = float(np.sum(_fock_weights(V, fock)[N + 1:]))
        tail_ok = tail < d2 / 8.0
    if not head < d2 / 4.0:
        problems.append(f"rebuilt head sum {head:.3e} >= delta^2/4 at T={T}")
    if not tail_ok:
        problems.append(f"tail {tail:.3e} fails the delta^2/8 bound")
    if not 2.0 * head + 4.0 * tail < d2:
        problems.append(f"2*head + 4*tail = {2 * head + 4 * tail:.3e} >= delta^2 = {d2:.3e}")
    return problems


def tail_cut(weights, delta: float) -> int:
    suffix = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])
    hits = np.nonzero(suffix[1:] < delta * delta / 8.0)[0]
    return int(hits[0]) if hits.size else len(weights) - 1


# -- per-kind checks ---------------------------------------------------------------


def _check_plan(job, out):
    plan = _load(out, "plan.json")
    report = _load(out, "report.json")
    problems = plan_problems(plan, job.check["spectrum"], job.check.get("fock"))
    if report.get("status") != "ok":
        problems.append(f"report status {report.get('status')!r}")
    floor = job.config.get("s", job.config.get("tau_min", 0.0))
    if plan["time"] < floor:
        problems.append(f"plan time {plan['time']} below its floor {floor}")
    if "t_star" in report and report["t_star"] < 0:
        problems.append(f"negative forward duration t*={report['t_star']}")
    return problems


def _check_search_failure(job, out):
    report = _load(out, "report.json")
    if report.get("status") != "failed" or report.get("best_time") is None:
        return [f"expected an honest search failure, got {report}"]
    E, V, _ = spectrum(job.check["spectrum"])
    delta = job.config["delta"]
    N = tail_cut(_fock_weights(V, job.check["fock"]), delta)
    value = head_sum(E, N, report["best_time"])
    problems = []
    if abs(value - report["best_objective"]) > 1e-6 * max(1.0, value):
        problems.append(f"best objective {report['best_objective']} != rebuilt {value}")
    if value < delta * delta / 4.0:
        problems.append(f"rebuilt objective {value:.3e} certifies; failure was not honest")
    return problems


def _segments_problems(out, expected_len=None):
    seq = _load(out, "sequence.json")
    durations = [s["t"] for s in seq["segments"]]
    problems = []
    if any(not t >= 0 for t in durations):
        problems.append("negative segment duration in sequence.json")
    if expected_len is not None and len(durations) != expected_len:
        problems.append(f"sequence.json has {len(durations)} segments, expected {expected_len}")
    return problems


def _check_trotter(job, out):
    errors = _load(out, "report.json")["errors"]
    ns = sorted(int(n) for n in errors)
    final = errors[str(ns[-1])]
    problems = []
    if not final <= job.check["epsilon"]:
        problems.append(f"trotter error {final} at n={ns[-1]} above {job.check['epsilon']}")
    if not final <= errors[str(ns[0])]:
        problems.append("trotter error did not decrease with n")
    return problems


def _check_commutator(job, out):
    report = _load(out, "report.json")
    problems = []
    if report.get("status") != "ok":
        return [f"report status {report.get('status')!r}"]
    if not report["error"] <= job.check["epsilon"]:
        problems.append(f"commutator error {report['error']} above {job.check['epsilon']}")
    if report["physical"]:
        problems += _segments_problems(out, 4 * job.config["n"] ** 2)
        for plan in _load(out, "plans.json"):
            per_spectrum = [plan_problems(plan, desc) for desc in job.check["spectra"]]
            if all(per_spectrum):
                problems.append(f"plan at T={plan['time']} fails on every generator: "
                                f"{per_spectrum[0]}")
    return problems


def _check_compile(job, out):
    report = _load(out, "report.json")
    if report.get("status") != "ok":
        return [f"report status {report.get('status')!r}: {report.get('error')}"]
    problems = []
    if not report["distance"] <= job.config["epsilon"]:
        problems.append(f"distance {report['distance']} above epsilon {job.config['epsilon']}")
    if report["n"] > job.config["n_budget"]:
        problems.append(f"order {report['n']} beyond the budget")
    if report["physical"]:
        problems += _segments_problems(out, report["segments"])
    return problems


def _check_budget_failure(job, out):
    report = _load(out, "report.json")
    match = re.search(r"best distance (\S+) at n=", report.get("error") or "")
    if report.get("status") != "failed" or match is None:
        return [f"expected a budget failure, got {report}"]
    if not float(match.group(1)) > job.config["epsilon"]:
        return [f"budget failure reports distance {match.group(1)} within epsilon"]
    return []


def _check_closure(job, out):
    from recurq import weyl

    report = _load(out, "report.json")
    problems = []
    if report["dim"] != len(report["basis"]):
        problems.append(f"dim {report['dim']} != {len(report['basis'])} basis entries")
    for text in report["basis"]:
        op = weyl.PolyOp.from_text(text, job.config["mode_count"])
        if not weyl.is_skew_hermitian(op):
            problems.append(f"basis entry is not skew-hermitian: {text[:80]}")
            break
    return problems


def _check_propagation(job, out):
    report = _load(out, "report.json")
    expected = job.check["verdict"]
    if report["verdict"] != expected:
        return [f"verdict {report['verdict']!r}, expected {expected!r}"]
    if report["controllable"] != (expected == "propagates"):
        return ["controllable flag contradicts the verdict"]
    return []


def _check_chain_demo(job, out):
    report = _load(out, "report.json")
    problems = []
    if not report["all_ok"]:
        problems.append("chain-demo report is not all_ok")
    for rec in report["targets"]:
        if rec["status"] != "ok" or not rec["distance"] <= job.config["epsilon"]:
            problems.append(f"target {rec['label']}: {rec['status']} at {rec['distance']}")
        seq = rec.get("sequence")
        if seq is not None and any(not s["t"] >= 0 for s in seq["segments"]):
            problems.append(f"target {rec['label']}: negative segment duration")
    return problems


CHECKS = {
    "plan": _check_plan,
    "search_failure": _check_search_failure,
    "trotter": _check_trotter,
    "commutator": _check_commutator,
    "compile": _check_compile,
    "budget_failure": _check_budget_failure,
    "closure": _check_closure,
    "propagation": _check_propagation,
    "chain-demo": _check_chain_demo,
}


def check_job(job, rc, out: str) -> list:
    """Problems with one finished job: exit code first, then its artifacts."""
    if rc not in job.exits:
        return [f"exit code {rc}, expected one of {list(job.exits)}"]
    try:
        return CHECKS[job.check["kind"]](job, out)
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


# -- artifact digests --------------------------------------------------------------


def _masked(name: str, data: bytes) -> bytes:
    """Blank chain-demo's per-target wall_time, the one non-deterministic field.

    ``TargetRecord.wall_time`` is a measured duration written into
    report.json and summary.csv; every other emitted number is meant to be
    bit-identical across reruns, so only that field is masked.
    """
    if name == "report.json":
        payload = json.loads(data)
        if isinstance(payload, dict) and isinstance(payload.get("targets"), list):
            for rec in payload["targets"]:
                rec.pop("wall_time", None)
            return json.dumps(payload, sort_keys=True).encode()
    if name == "summary.csv":
        rows = list(csv.reader(io.StringIO(data.decode())))
        if rows and rows[0] and rows[0][-1] == "wall_time":
            buf = io.StringIO()
            csv.writer(buf).writerows(row[:-1] for row in rows)
            return buf.getvalue().encode()
    return data


def digest(out: str) -> str:
    """Hash of every artifact in ``out`` with the wall-time fields masked."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + _masked(name, data) + b"\0")
    return h.hexdigest()


def out_bytes(out: str) -> int:
    return sum(os.path.getsize(os.path.join(out, name)) for name in os.listdir(out))
