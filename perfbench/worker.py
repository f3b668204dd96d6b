"""One benchmark process: set up a workload, then run its jobs back to back.

Started by ``run.py`` with the role ``setup`` (import, generate, warm up,
exit: the cost every CLI user pays) or ``measure`` (the same set-up, then the
timed passes over the job list).  One client, one process, ``--jobs 1``.
The measure role writes its raw results as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def versions():
    """Interpreter and library versions plus the BLAS threads in use."""
    import importlib.metadata

    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "jsonschema": importlib.metadata.version("jsonschema"),
            "blas_threads": blas_threads()}


class Runner:
    """Writes the generated configs and runs jobs through ``cli.main``."""

    def __init__(self, workload, seed, work):
        from recurq import cli

        import checks
        import workloads

        self.cli = cli
        self.checks = checks
        self.work = work
        self.jobs = workloads.job_list(workload, seed)
        self.warmup = workloads.warmup_job(workload, seed)
        os.makedirs(os.path.join(work, "configs"), exist_ok=True)
        for i, job in enumerate(self.jobs + [self.warmup]):
            with open(self._config(i), "w") as fh:
                fh.write(job.config_text())
        self.digests = {}

    def _config(self, i):
        return os.path.join(self.work, "configs", f"{i:03d}.json")

    def run(self, i, tracer=None):
        """Run job i once; returns (seconds, problems, out_dir)."""
        job = self.jobs[i] if i < len(self.jobs) else self.warmup
        out = os.path.join(self.work, "out", f"{i:03d}")
        shutil.rmtree(out, ignore_errors=True)
        argv = [job.sub, "--config", self._config(i), "--out", out,
                "--seed", str(job.seed), "--jobs", "1"]
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception:
            rc = None
            crash = traceback.format_exc(limit=3)
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
        if rc is None:
            return dt, [f"crashed: {crash}"], out
        problems = self.checks.check_job(job, rc, out)
        if not problems:
            d = self.checks.digest(out)
            if self.digests.setdefault(i, d) != d:
                problems = ["artifacts differ from this job's first run"]
        return dt, problems, out


def _pass(runner, times, failures, tracer=None, after=None):
    write_bytes = 0
    for i in range(len(runner.jobs)):
        dt, problems, out = runner.run(i, tracer)
        times.append(dt)
        if after is not None:
            after()
        write_bytes += runner.checks.out_bytes(out) if os.path.isdir(out) else 0
        if problems:
            failures.append({"job": i, "label": runner.jobs[i].label, "problems": problems})
    return write_bytes


def setup(args):
    # the measure role checks the same warm-up job and reports its problems
    runner = Runner(args.workload, args.seed, args.work)
    runner.run(len(runner.jobs))
    return 0


def measure(args):
    import workloads

    runner = Runner(args.workload, args.seed, args.work)
    _, warm_problems, _ = runner.run(len(runner.jobs))
    times, failures = [], []
    result = {"jobs_per_pass": len(runner.jobs), "warmup_problems": warm_problems,
              "versions": versions()}
    if args.trace:
        import tracing

        # untraced passes on both sides of the traced one, so that warm-up
        # drift does not read as tracing overhead
        _pass(runner, times, failures)
        before = sum(times)
        tracer = tracing.Tracer().install()
        try:
            write_bytes = _pass(runner, times, failures, tracer)
        finally:
            tracer.uninstall()
        traced = sum(times) - before
        _pass(runner, times, failures)
        untraced = (sum(times) - traced) / 2.0
        result["per_layer"] = tracer.metrics(write_bytes, traced / untraced - 1.0)
        result["site_calls"] = dict(tracer.site_calls)
        result["eigh_callers"] = {str(k): v for k, v in tracer.eigh_callers.items()}
    else:
        import calibrate

        spec = workloads.WORKLOADS[args.workload]
        calibration = calibrate.Calibration()
        rounds = [calibration.round()]
        start = time.perf_counter()
        passes = 0
        while True:
            _pass(runner, times, failures, after=lambda: rounds.append(calibration.round()))
            passes += 1
            beyond = len(times) - -(-spec.tail_pct * len(times) // 100)
            if time.perf_counter() - start >= args.seconds and beyond >= 10:
                break
        result["passes"] = passes
        result["calibration"] = rounds
        result["elapsed_s"] = time.perf_counter() - start
    result["times"] = times
    result["failures"] = failures
    result["digests"] = runner.digests
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory for configs and outputs")
    parser.add_argument("--result", help="where the measure role writes its JSON")
    args = parser.parse_args(argv)
    return setup(args) if args.role == "setup" else measure(args)


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
