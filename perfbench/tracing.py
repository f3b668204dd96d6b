"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the layer entry points of ``recurq`` (and
``numpy.linalg.eigh``) with timing wrappers.  Modules that imported a
function by name hold their own binding, so every module global that is the
original function gets its own wrapper; each binding site counts its calls
separately, which lets the tests prove that no binding was missed.

A span records inclusive time, self time (inclusive minus its child spans),
and a call count.  A call made while the same span is already open (the
recursion of ``synth.build_word`` through its module global) runs unwrapped
inside the open span, so only top-level calls are counted.  Hooks derive
sizes from arguments and results with tracing paused.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span); "Class.method" attributes patch the class
SPANS = (
    ("recurq.cli", "main", "cli.main"),
    ("recurq.cli", "validate_config", "cli.validate_config"),
    ("recurq.cli", "write_json", "cli.write"),
    ("recurq.cli", "write_csv", "cli.write"),
    ("recurq.chains", "chain_controllability", "chains.chain_controllability"),
    ("recurq.chains", "control_system", "chains.control_system"),
    ("recurq.weyl", "lie_closure", "weyl.lie_closure"),
    ("recurq.weyl", "algebraic_propagation_check", "weyl.algebraic_propagation_check"),
    ("recurq.weyl", "skew_monomial_generators", "weyl.skew_monomial_generators"),
    ("recurq.weyl", "local_skew_generators", "weyl.local_skew_generators"),
    ("recurq.fock", "represent", "fock.represent"),
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("recurq.propagate", "evolve", "propagate.evolve"),
    ("recurq.propagate", "evolve_signed", "propagate.evolve_signed"),
    ("recurq.propagate", "expm_skew", "propagate.expm_skew"),
    ("recurq.propagate", "realize_word", "propagate.realize_word"),
    ("recurq.propagate", "trotter_errors", "propagate.trotter_errors"),
    ("recurq.recurrence", "spectral", "recurrence.spectral"),
    ("recurq.recurrence", "find_recurrence_time", "recurrence.find_recurrence_time"),
    ("recurq.recurrence", "invert", "recurrence.invert"),
    ("recurq.recurrence", "RecurrenceInverter.duration", "recurrence.inverter.duration"),
    ("recurq.synth", "compile_sequence", "synth.compile_sequence"),
    ("recurq.synth", "build_word", "synth.build_word"),
    ("recurq.synth", "reachability_report", "synth.reachability_report"),
)

# every per-layer metric the traced run reports, with its unit
PER_LAYER = (
    ("cli.main.s", "s"), ("cli.validate_config.s", "s"), ("cli.write.s", "s"),
    ("cli.write.bytes", "bytes"),
    ("chains.chain_controllability.s", "s"), ("chains.chain_controllability.calls", "count"),
    ("chains.control_system.s", "s"),
    ("weyl.lie_closure.s", "s"), ("weyl.lie_closure.calls", "count"),
    ("weyl.lie_closure.dim_sum", "count"), ("weyl.lie_closure.monomials_max", "count"),
    ("weyl.algebraic_propagation_check.s", "s"),
    ("weyl.algebraic_propagation_check.calls", "count"),
    ("weyl.skew_monomial_generators.s", "s"),
    ("fock.represent.s", "s"), ("fock.represent.calls", "count"),
    ("fock.represent.bytes", "bytes"), ("fock.represent.dim_max", "count"),
    ("linalg.eigh.s", "s"), ("linalg.eigh.calls", "count"), ("linalg.eigh.n3_sum", "count"),
    ("propagate.evolve.s", "s"), ("propagate.evolve.segments", "count"),
    ("propagate.evolve_signed.s", "s"), ("propagate.evolve_signed.segments", "count"),
    ("propagate.segments_per_s", "1/s"),
    ("propagate.expm_skew.s", "s"), ("propagate.expm_skew.calls", "count"),
    ("propagate.realize_word.s", "s"), ("propagate.trotter_errors.s", "s"),
    ("recurrence.spectral.s", "s"), ("recurrence.spectral.calls", "count"),
    ("recurrence.find_recurrence_time.s", "s"),
    ("recurrence.find_recurrence_time.calls", "count"),
    ("recurrence.find_recurrence_time.certified", "count"),
    ("recurrence.certify_ratio", "ratio"), ("recurrence.grid_points", "count"),
    ("recurrence.invert.calls", "count"), ("recurrence.inverter.duration.calls", "count"),
    ("recurrence.inverter_hit_ratio", "ratio"),
    ("synth.compile_sequence.s", "s"), ("synth.compile_sequence.calls", "count"),
    ("synth.compile.rounds", "count"), ("synth.build_word.s", "s"),
    ("synth.build_word.segments", "count"), ("synth.compile.budget_failures", "count"),
    ("synth.reachability_report.s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# per-layer metrics that are exact counts of a fixed job list: they repeat
# bit for bit across runs of one seed
DETERMINISTIC = tuple(name for name, unit in PER_LAYER
                      if unit in ("count", "bytes") and name != "cli.write.bytes") + (
    "recurrence.certify_ratio", "recurrence.inverter_hit_ratio")


def _grid_points(args, result, exc):
    if result is not None:
        if result.grid_step <= 0:
            return 1
        return int(round((result.searched_to - args["tau_min"]) / result.grid_step)) + 1
    step = args["grid_step"]
    if step is None:
        e_max = max(abs(float(e)) for e in args["energies"])
        step = 2.0 * math.pi / (100.0 * e_max)
    return int(round((exc.t_max - args["tau_min"]) / step)) + 1


class Tracer:
    """Span and counter collector; one per traced run."""

    def __init__(self):
        self.enabled = False
        self._stack = []  # open frames: [span, child seconds]
        self._open = Counter()
        self._patches = []  # (owner, attribute, original)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.site_calls = Counter()
        self.eigh_callers = Counter()

    # -- installation ------------------------------------------------------

    def install(self):
        from recurq import recurrence, synth, weyl

        self._enumerate_monomials = weyl.enumerate_monomials
        self._search_error = recurrence.RecurrenceSearchError
        self._budget_error = synth.CompileBudgetError
        # the package namespace only re-exports for library users; CLI jobs
        # reach every function through the submodules
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and name.startswith("recurq.")]
        for mod_name, attr, span in SPANS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(span, f"{mod_name}.{attr}", orig))
                continue
            orig = getattr(owner, attr)
            for mod in [owner] + [m for m in modules if m is not owner]:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        site = f"{mod.__name__}.{name}"
                        self._patch(mod, name, self._wrap(span, site, orig))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self.enabled = False

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)
        self.site_calls.setdefault(wrapper.site, 0)

    # -- spans -------------------------------------------------------------

    def _wrap(self, span, site, orig):
        hook = getattr(self, "_hook_" + span.replace(".", "_"), None)
        signature = inspect.signature(orig) if hook else None
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or tracer._open[span]:
                return orig(*args, **kwargs)
            tracer.site_calls[site] += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span, 0.0]
            tracer._stack.append(frame)
            tracer._open[span] += 1
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer._open[span] -= 1
                tracer.calls[span] += 1
                tracer.total_s[span] += dt
                tracer.self_s[span] += dt - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                if hook is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    tracer.enabled = False
                    try:
                        hook(bound.arguments, result, exc, parent)
                    finally:
                        tracer.enabled = True

        wrapper.site = site
        return wrapper

    # -- hooks: sizes derived from arguments and results --------------------

    def _hook_weyl_lie_closure(self, args, result, exc, parent):
        if result is None:
            return
        self.counts["weyl.lie_closure.dim_sum"] += result.dim
        gens = list(args["generators"])
        support = sorted({m for g in gens for m in g.support}) or [0]
        n = len(self._enumerate_monomials(gens[0].mode_count, support, args["degree_cap"]))
        key = "weyl.lie_closure.monomials_max"
        self.counts[key] = max(self.counts[key], n)

    def _hook_fock_represent(self, args, result, exc, parent):
        dim = args["spec"].dim
        self.counts["fock.represent.bytes"] += dim * dim * 16
        key = "fock.represent.dim_max"
        self.counts[key] = max(self.counts[key], dim)

    def _hook_linalg_eigh(self, args, result, exc, parent):
        self.counts["linalg.eigh.n3_sum"] += args["a"].shape[-1] ** 3
        self.eigh_callers[parent] += 1

    def _hook_propagate_evolve(self, args, result, exc, parent):
        self.counts["propagate.evolve.segments"] += len(args["seq"])

    def _hook_propagate_evolve_signed(self, args, result, exc, parent):
        self.counts["propagate.evolve_signed.segments"] += len(args["segments"])

    def _hook_recurrence_find_recurrence_time(self, args, result, exc, parent):
        if result is None and not isinstance(exc, self._search_error):
            return
        if result is not None:
            self.counts["recurrence.find_recurrence_time.certified"] += 1
        self.counts["recurrence.grid_points"] += _grid_points(args, result, exc)

    def _hook_recurrence_invert(self, args, result, exc, parent):
        if parent == "recurrence.inverter.duration":
            self.counts["recurrence.inverter.misses"] += 1

    def _hook_synth_build_word(self, args, result, exc, parent):
        if result is not None:
            self.counts["synth.build_word.segments"] += len(result)

    def _hook_synth_compile_sequence(self, args, result, exc, parent):
        if isinstance(exc, self._budget_error):
            self.counts["synth.compile.budget_failures"] += 1

    # -- report ------------------------------------------------------------

    def metrics(self, write_bytes: int, overhead_frac: float) -> dict:
        """Every PER_LAYER metric by name."""
        out = {}
        for span in {s for _, _, s in SPANS}:
            out[span + ".s"] = self.self_s[span]
            out[span + ".calls"] = self.calls[span]
        out.update(self.counts)
        evolve_s = (self.total_s["propagate.evolve"]
                    + self.total_s["propagate.evolve_signed"])
        segments = (self.counts["propagate.evolve.segments"]
                    + self.counts["propagate.evolve_signed.segments"])
        out["propagate.segments_per_s"] = segments / evolve_s if evolve_s else 0.0
        searches = self.calls["recurrence.find_recurrence_time"]
        out["recurrence.certify_ratio"] = (
            self.counts["recurrence.find_recurrence_time.certified"] / searches
            if searches else 0.0)
        durations = self.calls["recurrence.inverter.duration"]
        out["recurrence.inverter_hit_ratio"] = (
            1.0 - self.counts["recurrence.inverter.misses"] / durations if durations else 0.0)
        out["synth.compile.rounds"] = self.calls["synth.build_word"]
        out["cli.write.bytes"] = write_bytes
        out["trace.overhead_frac"] = overhead_frac
        return {name: out.get(name, 0) for name, _ in PER_LAYER}
