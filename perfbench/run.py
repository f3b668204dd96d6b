"""recurq benchmark: one workload, one seed, one line of JSON metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics: ``setup_s`` from
several fresh processes that each import, generate the configs and run one
warm-up job, then one process (one client, ``--jobs 1``) runs the seeded job
list back to back until ``--seconds`` have passed and enough jobs lie beyond
the workload's tail percentile.  Every time is scaled to the reference host
speed measured by calibration rounds run between jobs and around each set-up
process (see ``calibrate.py``).  With ``--trace 1`` the job list runs once
untraced and once with every layer entry point wrapped, and the per-layer
metrics come from the traced pass.  Every job's exit code and artifacts are
checked; the last line of output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170.0

END_TO_END = (
    ("throughput_jobs_per_s", "jobs/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: str, threads: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        env[var] = str(min(int(current), threads) if current.isdigit() else threads)
    return env


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "recurq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_sha(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_child(args, env, timeout):
    """Run worker.py to completion; raises on a nonzero exit or a timeout."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")


def percentile(values, pct):
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(-(-pct * len(ordered) // 100), 1)
    return ordered[rank - 1], len(ordered) - rank


def fastest_runs(times, per_pass, pct):
    """Each job's faster half of its runs (more if the tail needs them).

    Every pass runs the same jobs, so the runs of one job differ only by
    what else the host is doing; keeping each job's faster half removes most
    of that contention.  More runs per job are kept when the faster half
    would leave fewer than ten jobs beyond the tail percentile.
    """
    runs = [sorted(times[i::per_pass]) for i in range(per_pass)]
    passes = len(runs[0])
    keep = -(-passes // 2)
    while keep < passes and percentile([0.0] * keep * per_pass, pct)[1] < 10:
        keep += 1
    return [t for job in runs for t in job[:keep]], keep, passes


def timing_metrics(times, pct):
    tail, beyond = percentile(times, pct)
    return {"throughput_jobs_per_s": len(times) / sum(times),
            "job_p50_s": statistics.median(times), "job_tail_s": tail}, beyond


def measure_setup(common, env, work, deadline):
    """Raw and scaled set-up seconds of SETUP_RUNS fresh processes.

    NEAR calibration rounds run before and after each process; a sample is
    scaled by the median of the rounds on both sides of it.
    """
    calibration = calibrate.Calibration()
    near = calibrate.NEAR
    rounds = [calibration.round() for _ in range(near)]
    raw, scaled = [], []
    for k in range(SETUP_RUNS):
        t0 = time.perf_counter()
        run_child(["--role", "setup", "--work", os.path.join(work, f"setup{k}")] + common,
                  env, max(1.0, deadline - time.monotonic()))
        raw.append(time.perf_counter() - t0)
        rounds += [calibration.round() for _ in range(near)]
        host = statistics.median(rounds[k * near:(k + 2) * near])
        scaled.append(raw[-1] * calibrate.C_REF_S / host)
    return raw, scaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="recurq benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: the same seed gives the same job list")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced pass")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "recurq", "cli.py")):
        print("error: run from the repository root; src/recurq/cli.py not found",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    threads = nproc()
    env = child_env(root, threads)
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        provenance = {
            "git_sha": git_sha(root), "source_digest": source_digest(root),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": threads,
            "blas_threads_env": int(env["OPENBLAS_NUM_THREADS"]),
            "cpu": cpu_model(),
        }
        setup_raw, setup = ([], []) if args.trace else measure_setup(common, env, work,
                                                                      deadline)
        result_path = os.path.join(work, "result.json")
        run_child(["--role", "measure", "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--work", os.path.join(work, "measure"),
                   "--result", result_path] + common,
                  env, max(1.0, deadline - time.monotonic()))
        with open(result_path) as fh:
            raw = json.load(fh)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    provenance.update(raw["versions"])
    times = raw["times"]
    failures = raw["failures"]
    attempted = len(times)
    failed = len(failures)
    correct = not failures and not raw["warmup_problems"]

    print("provenance " + json.dumps(provenance, sort_keys=True))
    for f in failures[:20]:
        print(f"FAILED job {f['job']} ({f['label']}): {'; '.join(f['problems'])}")
    if raw["warmup_problems"]:
        print(f"FAILED warm-up job: {'; '.join(raw['warmup_problems'])}")
    print(f"error_frac: {failed / attempted:.6f} ratio ({failed} of {attempted} jobs)")

    if args.trace:
        metrics = {}
        units = dict(tracing.PER_LAYER)
        for name, value in raw["per_layer"].items():
            metrics[name] = {"value": value, "unit": units[name]}
            print(f"{name}: {value:.6g} {units[name]}")
        callers = ", ".join(f"{k}={v}" for k, v in sorted(raw["eigh_callers"].items()))
        print(f"linalg.eigh calls by calling span: {callers or 'none'}")
    else:
        pct = workloads.WORKLOADS[args.workload].tail_pct
        rounds = raw["calibration"]
        factors = calibrate.scale_factors(rounds, len(times))
        scaled = [t * f for t, f in zip(times, factors)]
        kept, keep, passes = fastest_runs(scaled, raw["jobs_per_pass"], pct)
        values, beyond = timing_metrics(kept, pct)
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = raw["peak_rss_mb"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"{name}: {values[name]:.6g} {unit}")
        unscaled, _ = timing_metrics(fastest_runs(times, raw["jobs_per_pass"], pct)[0], pct)
        print(f"timings are scaled to a host on which a calibration round takes "
              f"{calibrate.C_REF_S} s; here {len(rounds)} rounds took "
              f"{statistics.median(rounds):.4f} s (median), "
              f"{min(rounds):.4f}-{max(rounds):.4f} s")
        print(f"timings use the {keep} fastest of each job's {passes} scaled runs "
              f"({raw['jobs_per_pass']} jobs a pass, {raw['elapsed_s']:.1f} s); "
              f"job_tail_s is p{pct} of {len(kept)} job runs ({beyond} beyond it)")
        print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items())
              + f", setup_s {statistics.median(setup_raw):.6g}; setup samples raw "
              + ", ".join(f"{s:.3f}" for s in setup_raw)
              + ", scaled " + ", ".join(f"{s:.3f}" for s in setup))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
