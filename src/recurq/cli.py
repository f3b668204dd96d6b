"""Batch front-end: experiment configs in, certificates/tables/traces out.

One binary with subcommands; every run takes a JSON config, writes artifacts
(report.json, CSV traces, sequences) into --out, and exits nonzero when any
certificate or verification fails.  Runs are deterministic given config and
seed; files are written atomically.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np
from jsonschema import Draft202012Validator, validators

from . import chains, fock, propagate, recurrence, synth, weyl

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


# -- config schemas -----------------------------------------------------------

_POLY = {"type": "string"}
_HAMILTONIAN = {
    "type": "object",
    "properties": {
        "poly": _POLY,
        "mode_count": {"type": "integer", "minimum": 1},
        "dims": {"type": "array", "items": {"type": "integer", "minimum": 2}},
        "levels": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "level_formula": {
            "type": "object",
            "properties": {
                "count": {"type": "integer", "minimum": 1},
                "coeffs": {"type": "array", "items": {"type": "number"}},
            },
            "required": ["count", "coeffs"],
        },
    },
}
_STATE = {
    "type": "object",
    "properties": {
        "fock": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "random_interior": {"type": "object"},
    },
}
_SYSTEM = {
    "type": "object",
    "properties": {
        "mode_count": {"type": "integer", "minimum": 1},
        "dims": {"type": "array", "items": {"type": "integer", "minimum": 2}},
        "generators": {"type": "array", "items": _POLY, "minItems": 1},
    },
    "required": ["mode_count", "dims", "generators"],
}
_INVERTER = {
    "type": "object",
    "properties": {
        "mode": {"enum": ["exact", "pointwise", "finite_net", "energy_bound"]},
        "delta": {"type": "number", "exclusiveMinimum": 0},
        "t_max": {"type": "number", "exclusiveMinimum": 0},
        "net_size": {"type": "integer", "minimum": 1},
        "energy_bounds": {"type": "object"},
    },
    "required": ["mode"],
}
_CHAIN = {
    "type": "object",
    "properties": {
        "n_modes": {"type": "integer", "minimum": 1},
        "omega": {"type": "number", "minimum": 0},
        "couplings": {"type": "array", "items": {
            "type": "array", "minItems": 3, "maxItems": 3,
            "prefixItems": [{"type": "integer", "minimum": 0}, {"type": "integer", "minimum": 0},
                            {"type": "number", "minimum": 0}]}},
        "control_sites": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "control_degree_cap": {"type": "integer", "minimum": 1},
    },
    "required": ["n_modes", "omega", "couplings", "control_sites"],
}

SCHEMAS = {
    "closure": {
        "type": "object",
        "properties": {
            "mode_count": {"type": "integer", "minimum": 1},
            "generators": {"type": "array", "items": _POLY, "minItems": 1},
            "degree_cap": {"type": "integer", "minimum": 1},
            "dim_cap": {"type": "integer", "minimum": 1},
        },
        "required": ["mode_count", "generators"],
    },
    "propagation": {
        "type": "object",
        "properties": {
            "chain": _CHAIN,
            "degree_cap": {"type": "integer", "minimum": 1},
            "dim_cap": {"type": "integer", "minimum": 1},
        },
        "required": ["chain"],
    },
    "recur": {
        "type": "object",
        "properties": {
            "hamiltonian": _HAMILTONIAN,
            "delta": {"type": "number", "exclusiveMinimum": 0},
            "mode": {"enum": ["pointwise", "finite_net", "energy_bound"]},
            "state": _STATE,
            "net_size": {"type": "integer", "minimum": 1},
            "energy_bound": {"type": "number", "exclusiveMinimum": 0},
            "tau_min": {"type": "number", "minimum": 0},
            "t_max": {"type": "number", "exclusiveMinimum": 0},
            "grid_step": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["hamiltonian", "delta", "mode"],
    },
    "invert": {
        "type": "object",
        "properties": {
            "hamiltonian": _HAMILTONIAN,
            "delta": {"type": "number", "exclusiveMinimum": 0},
            "mode": {"enum": ["pointwise", "finite_net", "energy_bound"]},
            "s": {"type": "number", "minimum": 0},
            "state": _STATE,
            "net_size": {"type": "integer", "minimum": 1},
            "energy_bound": {"type": "number", "exclusiveMinimum": 0},
            "t_max": {"type": "number", "exclusiveMinimum": 0},
            "grid_step": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["hamiltonian", "delta", "mode", "s"],
    },
    "trotter": {
        "type": "object",
        "properties": {
            "system": _SYSTEM,
            "k": {"type": "integer", "minimum": 0},
            "l": {"type": "integer", "minimum": 0},
            "t": {"type": "number", "minimum": 0},
            "ns": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
            "state": _STATE,
        },
        "required": ["system", "k", "l", "t", "ns"],
    },
    "commutator": {
        "type": "object",
        "properties": {
            "system": _SYSTEM,
            "k": {"type": "integer", "minimum": 0},
            "l": {"type": "integer", "minimum": 0},
            "t": {"type": "number", "minimum": 0},
            "n": {"type": "integer", "minimum": 1},
            "inverter": _INVERTER,
            "state": _STATE,
        },
        "required": ["system", "k", "l", "t", "n", "inverter"],
    },
    "compile": {
        "type": "object",
        "properties": {
            "system": _SYSTEM,
            "target": {},
            "t": {"type": "number"},
            "epsilon": {"type": "number", "exclusiveMinimum": 0},
            "n_budget": {"type": "integer", "minimum": 1},
            "inverter": _INVERTER,
            "state": _STATE,
        },
        "required": ["system", "target", "t", "epsilon", "n_budget", "inverter"],
    },
    "chain-demo": {
        "type": "object",
        "properties": {
            "chain": _CHAIN,
            "dims": {"type": "array", "items": {"type": "integer", "minimum": 2}},
            "targets": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "properties": {"expr": {}, "t": {"type": "number"}},
                    "required": ["expr", "t"],
                },
            },
            "epsilon": {"type": "number", "exclusiveMinimum": 0},
            "n_budget": {"type": "integer", "minimum": 1},
            "inverter": _INVERTER,
        },
        "required": ["chain", "dims", "targets", "epsilon", "n_budget", "inverter"],
    },
}


class ConfigError(ValueError):
    pass


# The schemas' "integer": jsonschema's own also admits integral floats such
# as 16.0 and 1e20, which reach range() and index arithmetic as floats.
_Validator = validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: isinstance(value, int) and not isinstance(value, bool)))


def _non_finite(value, path: str = "$"):
    """JSON path of the first infinite or NaN number in ``value``, or None.
    Python's json reads 1e400 as inf and accepts NaN and Infinity, and the
    schemas' number bounds let inf through."""
    if isinstance(value, float) and not math.isfinite(value):
        return path
    if isinstance(value, dict):
        items = [(f"{path}.{key}", item) for key, item in value.items()]
    elif isinstance(value, list):
        items = [(f"{path}[{i}]", item) for i, item in enumerate(value)]
    else:
        return None
    return next((bad for sub, item in items if (bad := _non_finite(item, sub))), None)


def validate_config(subcommand: str, config: dict):
    bad = _non_finite(config)
    if bad is not None:
        raise ConfigError(f"{bad}: numbers must be finite")
    validator = _Validator(SCHEMAS[subcommand])
    errors = sorted(validator.iter_errors(config), key=lambda e: e.json_path)
    if errors:
        lines = [f"{e.json_path}: {e.message}" for e in errors]
        raise ConfigError("config schema violations:\n  " + "\n  ".join(lines))


# -- atomic artifact writers ---------------------------------------------------


def _atomic_write(path: str, write):
    """Call ``write(fh)`` on a temp file beside ``path``, then move it over ``path``."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _scalar_text(value):
    """JSON text of None, a bool, an int or a float, in json's spelling
    (NaN and the infinities included); None for any other value."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    return None


def json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    json's indented encoder is its pure-Python one, which walks every node
    each time it occurs.  Here the text of a list or dict is built once per
    (object, nesting level) and joined wherever that object recurs, so a
    word's repeated segments, shared as one dict per distinct leaf by
    ``ControlSequence.to_dict``, cost a lookup each.
    """
    string = json.encoder.encode_basestring_ascii
    memo: dict = {}
    open_ids: set = set()

    def encode(o, level: int) -> str:
        if isinstance(o, (list, tuple, dict)):
            key = (id(o), level)
            text = memo.get(key)
            if text is None:
                text = memo[key] = container(o, level)
            return text
        if isinstance(o, str):
            return string(o)
        text = _scalar_text(o)
        if text is None:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        return text

    def key_text(key) -> str:
        text = key if isinstance(key, str) else _scalar_text(key)
        if text is None:
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        return string(text)

    def container(o, level: int) -> str:
        if not o:
            return "{}" if isinstance(o, dict) else "[]"
        if id(o) in open_ids:
            raise ValueError("Circular reference detected")
        open_ids.add(id(o))
        if isinstance(o, dict):
            parts = [key_text(k) + ": " + encode(v, level + 1) for k, v in sorted(o.items())]
            brackets = "{}"
        else:
            parts = [encode(v, level + 1) for v in o]
            brackets = "[]"
        open_ids.remove(id(o))
        inner = "\n" + "  " * (level + 1)
        return (brackets[0] + inner + ("," + inner).join(parts)
                + "\n" + "  " * level + brackets[1])

    return encode(value, 0)


def write_json(path: str, data) -> None:
    text = json_text(data) + "\n"
    _atomic_write(path, lambda fh: fh.write(text))


def write_csv(path: str, rows) -> None:
    _atomic_write(path, lambda fh: csv.writer(fh).writerows(rows))


# scan.csv rows formatted and written per write call
_SCAN_BATCH = 2048


def write_scan(path: str, trace) -> None:
    """scan.csv: a header, then the search trace's (T, objective) float pairs
    as the bytes csv.writer gives them (each float's repr, ',' between,
    '\\r\\n' after).  Rows are formatted a batch at a time, so the file is
    never held whole as one string."""
    def write(fh):
        fh.write("T,objective\r\n")
        for i in range(0, len(trace), _SCAN_BATCH):
            fh.write("".join(["%r,%r\r\n" % row for row in trace[i:i + _SCAN_BATCH]]))

    _atomic_write(path, write)


# -- config material -----------------------------------------------------------


def _parse_poly(text: str, mode_count: int, path: str, kind) -> weyl.PolyOp:
    """The polynomial ``text`` as ``kind`` (``weyl.as_hermitian`` or ``as_skew``).
    Its coefficients are held to the chains' bound ``chains.MAX_COEFFICIENT``:
    the role checks square them, and the closures and brackets multiply them."""
    try:
        poly = weyl.PolyOp.from_text(text, mode_count)
        for c in poly.terms.values():
            if not math.hypot(c.real, c.imag) <= chains.MAX_COEFFICIENT:
                raise ValueError(f"coefficient {c} is out of range (coefficient bound "
                                 f"{chains.MAX_COEFFICIENT:.3g})")
        return kind(poly)
    except ValueError as exc:
        raise ConfigError(f"{path}: bad polynomial {text!r}: {exc}") from None


def _parse_expr(data, path: str):
    try:
        return synth.expr_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed generator expression: {exc!r}") from None


def _check_indices(indices, count: int, path: str) -> None:
    """Refuse an index outside a system of ``count`` generators."""
    unknown = sorted(k for k in indices if not 0 <= k < count)
    if unknown:
        raise ConfigError(f"{path}: {chains.GeneratorIndexError(unknown[0], count)}")


def _chain_spec(cfg) -> chains.ChainSpec:
    try:
        return chains.ChainSpec.from_dict(cfg)
    except chains.ChainParameterError as exc:
        raise ConfigError(f"$.chain.{exc.field}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"$.chain: {exc}") from None


def _random_net(cfg, spec: fock.TruncationSpec, rng):
    """The finite-net inverter's ``net_size`` random interior states (3 if unset)."""
    return [fock.random_interior_state(spec, rng) for _ in range(int(cfg.get("net_size", 3)))]


def _check_delta(delta: float, path: str) -> None:
    """Refuse a delta whose tail threshold delta^2/8 is not a positive normal
    float: no time could meet it, yet the scan would run to its horizon."""
    if not delta * delta / 8.0 >= sys.float_info.min:
        raise ConfigError(f"{path}: delta {delta:g} is too small: its threshold delta^2/8 = "
                          f"{delta * delta / 8.0:g} is below the smallest normal float "
                          f"{sys.float_info.min:g}")


def _build_state(state_cfg, spec: fock.TruncationSpec, rng) -> np.ndarray:
    if state_cfg is None:
        return fock.ground_state(spec)
    try:
        if "fock" in state_cfg:
            return fock.fock_state(spec, state_cfg["fock"])
        if "random_interior" in state_cfg:
            buffer = int(state_cfg["random_interior"].get("buffer", 0))
            return fock.random_interior_state(fock.TruncationSpec(spec.dims, buffer), rng)
    except ValueError as exc:
        raise ConfigError(f"$.state: {exc}") from None
    raise ConfigError(f"$.state: unintelligible state config {state_cfg!r}")


def _truncation(dims, mode_count: int, path: str) -> fock.TruncationSpec:
    try:
        spec = fock.TruncationSpec(tuple(dims))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if spec.dim > fock.MAX_DIM:
        raise ConfigError(f"{path}: total dimension {spec.dim} exceeds limit {fock.MAX_DIM}")
    if spec.mode_count != mode_count:
        raise ConfigError(f"{path}: dims length must match mode_count")
    return spec


def _build_hamiltonian(cfg):
    """Returns (levels, spectral_data_or_None, spec_or_None)."""
    if "levels" in cfg:
        return np.asarray(cfg["levels"], dtype=float), None, None
    if "level_formula" in cfg:
        lf = cfg["level_formula"]
        return recurrence.polynomial_levels(lf["count"], lf["coeffs"]), None, None
    if "poly" in cfg:
        mode_count = int(cfg.get("mode_count", 1))
        spec = _truncation(cfg.get("dims", (32,) * mode_count), mode_count,
                           "$.hamiltonian.dims")
        H = _parse_poly(cfg["poly"], mode_count, "$.hamiltonian.poly", weyl.as_hermitian)
        sd = recurrence.spectral(fock.represent(H, spec).matrix)
        return sd.energies, sd, spec
    raise ConfigError("$.hamiltonian: needs 'poly', 'levels', or 'level_formula'")


def _parse_system(cfg):
    """(truncation, hermitian generators) of a ``system`` config: the dims
    checked and every generator parsed, none of them represented."""
    mode_count = int(cfg["mode_count"])
    spec = _truncation(cfg["dims"], mode_count, "$.system.dims")
    herms = [_parse_poly(text, mode_count, f"$.system.generators[{i}]", weyl.as_hermitian)
             for i, text in enumerate(cfg["generators"])]
    return spec, herms


def _build_system(spec: fock.TruncationSpec, herms, indices) -> propagate.EvolutionTable:
    """The table of the skew generators -iH_k for the checked ``indices`` only."""
    return propagate.EvolutionTable({k: -1j * fock.represent(herms[k], spec).csr
                                     for k in sorted(indices)})


def _order_one_word(expr, t: float, path: str):
    """The order-1 word of e^{G(expr) t}.  No leaf of a higher order is
    longer, so a duration that is not finite is refused here, at ``path``,
    before any table is built."""
    try:
        return synth.build_word(expr, t, 1)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _build_inverter(cfg, table, psi0, rng, spec, words):
    """Inverter for the reversed segments of the targets' order-1 ``words``;
    it reads each reversed generator's spectrum from the table's store."""
    mode = cfg["mode"]
    if mode == "exact":
        return synth.ExactInverter()
    delta = cfg.get("delta")
    if delta is None:
        raise ConfigError("$.inverter.delta: recurrence inverter configs need 'delta'")
    _check_delta(delta, "$.inverter.delta")
    kwargs = {"t_max": cfg.get("t_max")}
    if mode == "pointwise":
        kwargs["state"] = psi0
    elif mode == "finite_net":
        kwargs["net"] = _random_net(cfg, spec, rng)
    elif mode == "energy_bound":
        try:
            bounds = {int(k): float(v) for k, v in cfg.get("energy_bounds", {}).items()}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"$.inverter.energy_bounds: {exc}") from None
        if not all(0.0 < v < math.inf for v in bounds.values()):
            raise ConfigError(f"$.inverter.energy_bounds: bounds must be positive and "
                              f"finite, got {bounds}")
        # only reversed segments reach the inverter; segment signs do not
        # depend on the order n
        reversed_gens = {k for word in words for k, s in propagate.leaves(word) if s < 0}
        missing = sorted(reversed_gens - set(bounds))
        if missing:
            raise ConfigError(f"$.inverter.energy_bounds: no energy bound for the "
                              f"reversed generator(s) {missing}")
        kwargs["energy_bounds"] = bounds
    return recurrence.RecurrenceInverter(table.spectra, delta, mode, **kwargs)


# -- subcommand implementations --------------------------------------------------


def _capped(closure, *args, **kwargs):
    """``closure(*args, **kwargs)``, with a cap the bracket table cannot
    represent as a config error."""
    try:
        return closure(*args, **kwargs)
    except weyl.CapError as exc:
        raise ConfigError(f"$.degree_cap: {exc}") from None


def _run_closure(config, out, rng, jobs):
    gens = [_parse_poly(g, int(config["mode_count"]), f"$.generators[{i}]", weyl.as_skew)
            for i, g in enumerate(config["generators"])]
    cap = config.get("degree_cap", weyl.DEFAULT_DEGREE_CAP)
    for i, g in enumerate(gens):
        if g.degree > cap:
            raise ConfigError(f"$.generators[{i}]: generator degree {g.degree} exceeds "
                              f"degree_cap {cap}")
    basis = _capped(weyl.lie_closure, gens, cap, config.get("dim_cap", weyl.DEFAULT_DIM_CAP))
    write_json(os.path.join(out, "report.json"), {
        "dim": basis.dim,
        "saturated": basis.saturated,
        "degree_capped": basis.degree_capped,
        "dim_capped": basis.dim_capped,
        "basis": [b.to_text() for b in basis.basis],
    })
    return EXIT_OK


def _run_propagation(config, out, rng, jobs):
    spec = _chain_spec(config["chain"])
    caps = {key: config[key] for key in ("degree_cap", "dim_cap") if key in config}
    report = _capped(chains.chain_controllability, spec, **caps)
    write_json(os.path.join(out, "report.json"), report.to_dict())
    write_csv(os.path.join(out, "edges.csv"),
              [["edge_u", "edge_v", "verdict", "closure_dim", "missing"]] +
              [[v.edge[0], v.edge[1], v.verdict, v.closure_dim, v.missing]
               for v in report.edge_verdicts])
    return EXIT_OK if report.controllable else EXIT_FAILURE


def _plan_context(config, rng, floor: str):
    """(levels, spectral data or None, the mode's state, net or energy bound
    as ``recurrence.invert`` takes them).  ``floor`` names the config value,
    ``tau_min`` or ``s``, below which no recurrence time is searched."""
    t_max, lowest = config.get("t_max"), config.get(floor, 0.0)
    if t_max is not None and t_max < lowest:
        raise ConfigError(f"$.t_max: t_max {t_max:g} is below {floor} {lowest:g}")
    _check_delta(config["delta"], "$.delta")
    levels, sd, spec = _build_hamiltonian(config["hamiltonian"])
    mode = config["mode"]
    if mode == "energy_bound":
        if "energy_bound" not in config:
            raise ConfigError("$.energy_bound: energy_bound mode needs 'energy_bound'")
        if sd is None and (np.any(levels < 0) or np.any(np.diff(levels) < 0)):
            key = "levels" if "levels" in config["hamiltonian"] else "level_formula"
            raise ConfigError(f"$.hamiltonian.{key}: energy_bound mode needs ascending, "
                              "non-negative levels")
        return levels, sd, {"energy_bound": float(config["energy_bound"])}
    if sd is None:
        raise ConfigError(f"$.hamiltonian: {mode} mode needs a matrix hamiltonian ('poly')")
    if mode == "pointwise":
        return levels, sd, {"state": _build_state(config.get("state"), spec, rng)}
    return levels, sd, {"net": _random_net(config, spec, rng)}


def _failed(out, exc) -> int:
    """Write the failure report of a search, spectrum or compile error; exit 1."""
    details = exc.to_dict() if isinstance(exc, recurrence.RecurrenceSearchError) else {}
    write_json(os.path.join(out, "report.json"),
               {"status": "failed", "error": str(exc), **details})
    return EXIT_FAILURE


def _run_recur(config, out, rng, jobs):
    levels, sd, context = _plan_context(config, rng, "tau_min")
    if "state" in context:
        context = {"state_overlaps": sd.overlaps(context["state"])}
    elif "net" in context:
        context = {"net_overlaps": [sd.overlaps(v) for v in context["net"]]}
    trace: list = []
    try:
        plan = recurrence.plan_recurrence(
            levels, float(config["delta"]), config["mode"],
            tau_min=float(config.get("tau_min", 0.0)),
            t_max=config.get("t_max"), grid_step=config.get("grid_step"),
            shift=sd.shift if sd is not None else 0.0, trace=trace, **context)
    finally:
        write_scan(os.path.join(out, "scan.csv"), trace)
    write_json(os.path.join(out, "plan.json"), plan.to_dict())
    write_json(os.path.join(out, "report.json"),
               {"status": "ok", "time": plan.time, "N": plan.N})
    return EXIT_OK


def _run_invert(config, out, rng, jobs):
    _, sd, context = _plan_context(config, rng, "s")
    if sd is None:
        raise ConfigError("$.hamiltonian: invert needs a matrix hamiltonian ('poly')")
    res = recurrence.invert(sd, float(config["s"]), float(config["delta"]), config["mode"],
                            t_max=config.get("t_max"), grid_step=config.get("grid_step"),
                            **context)
    write_json(os.path.join(out, "plan.json"), res.plan.to_dict())
    write_json(os.path.join(out, "report.json"),
               {"status": "ok", "t_star": res.t_star, "time": res.plan.time})
    return EXIT_OK


def _run_trotter(config, out, rng, jobs):
    k, l = int(config["k"]), int(config["l"])
    spec, herms = _parse_system(config["system"])
    _check_indices([k], len(herms), "$.k")
    _check_indices([l], len(herms), "$.l")
    table = _build_system(spec, herms, {k, l})
    psi0 = _build_state(config.get("state"), spec, rng)
    rows = propagate.trotter_errors(k, l, float(config["t"]), config["ns"], psi0, table)
    write_csv(os.path.join(out, "convergence.csv"),
              [["n", "error"]] + [[n, e] for n, e in rows])
    write_json(os.path.join(out, "report.json"),
               {"errors": {str(n): e for n, e in rows}})
    return EXIT_OK


def _run_commutator(config, out, rng, jobs):
    k, l, t, n = int(config["k"]), int(config["l"]), float(config["t"]), int(config["n"])
    # e^{[H_k, H_l] t^2} at step sqrt(t^2) / n = t / n
    bracket = synth.Bracket(synth.Gen(k), synth.Gen(l))
    words = [_order_one_word(bracket, t * t, "$.t")]
    spec, herms = _parse_system(config["system"])
    psi0 = _build_state(config.get("state"), spec, rng)
    _check_indices([k], len(herms), "$.k")
    _check_indices([l], len(herms), "$.l")
    table = _build_system(spec, herms, {k, l})
    inverter = _build_inverter(config["inverter"], table, psi0, rng, spec, words)
    seq, plans = synth.realize(bracket, t * t, n, inverter)
    if len(seq) != 4 * n * n:
        raise AssertionError("commutator word must have 4 n^2 segments")
    error, fidelity = synth.verify(seq, psi0, bracket, table, t * t)
    if inverter.physical:
        seq = propagate.ControlSequence(
            seq.word, f"commutator(k={k}, l={l}, t={t}, n={n}; {len(plans)} inversions)")
        write_json(os.path.join(out, "sequence.json"), seq.to_dict())
        write_json(os.path.join(out, "plans.json"), [p.to_dict() for p in plans.values()])
    write_json(os.path.join(out, "report.json"),
               {"n": n, "t": t, "physical": inverter.physical, "error": error,
                "fidelity": fidelity, "status": "ok"})
    return EXIT_OK


def _run_compile(config, out, rng, jobs):
    spec, herms = _parse_system(config["system"])
    psi0 = _build_state(config.get("state"), spec, rng)
    expr, t = _parse_expr(config["target"], "$.target"), float(config["t"])
    words = [_order_one_word(expr, t, "$.t")]
    indices = synth.expr_indices(expr)
    _check_indices(indices, len(herms), "$.target")
    table = _build_system(spec, herms, indices)
    inverter = _build_inverter(config["inverter"], table, psi0, rng, spec, words)
    result = synth.compile_sequence(expr, t, float(config["epsilon"]),
                                    int(config["n_budget"]), inverter, psi0, table)
    if result.physical:
        write_json(os.path.join(out, "sequence.json"), result.sequence.to_dict())
    write_json(os.path.join(out, "report.json"),
               {"status": "ok", "n": result.n, "distance": result.distance,
                "fidelity": result.fidelity, "physical": result.physical,
                "segments": len(result.sequence)})
    return EXIT_OK


def _run_chain_demo(config, out, rng, jobs):
    spec = _chain_spec(config["chain"])
    targets = [(_parse_expr(t["expr"], f"$.targets[{i}].expr"), float(t["t"]))
               for i, t in enumerate(config["targets"])]
    words = [_order_one_word(expr, t, f"$.targets[{i}].t")
             for i, (expr, t) in enumerate(targets)]
    indices = set().union(*(synth.expr_indices(expr) for expr, _ in targets))
    try:
        labels, tspec, table = chains.chain_table(spec, config["dims"], indices)
    except ValueError as exc:
        raise ConfigError(f"$.dims: {exc}") from None
    except chains.GeneratorIndexError as exc:
        # name the first target that reads an unknown generator
        for i, (expr, _) in enumerate(targets):
            _check_indices(synth.expr_indices(expr), exc.count, f"$.targets[{i}].expr")
        raise
    psi0 = fock.ground_state(tspec)
    inverter = _build_inverter(config["inverter"], table, psi0, rng, tspec, words)
    report = synth.reachability_report(table, psi0, targets, float(config["epsilon"]),
                                       int(config["n_budget"]), inverter, jobs=jobs)
    payload = report.to_dict()
    payload["generators"] = labels
    write_json(os.path.join(out, "report.json"), payload)
    write_csv(os.path.join(out, "summary.csv"), report.summary_rows())
    return EXIT_OK if report.all_ok else EXIT_FAILURE


RUNNERS = {
    "closure": _run_closure,
    "propagation": _run_propagation,
    "recur": _run_recur,
    "invert": _run_invert,
    "trotter": _run_trotter,
    "commutator": _run_commutator,
    "compile": _run_compile,
    "chain-demo": _run_chain_demo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recurq",
        description="Batch experiments: closures, propagation, recurrence plans, "
                    "product formulas, and compiled control sequences.",
    )
    sub = parser.add_subparsers(dest="subcommand")
    for name in RUNNERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=0, help="RNG seed (mandatory for sampling)")
        sp.add_argument("--jobs", type=int, default=1, help="worker parallelism bound")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: parsing keeps no
    state in the parser, so in-process callers need not rebuild it per run."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args, unknown = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_USAGE
    if unknown or args.subcommand is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.config) as fh:
            config = json.load(fh)
        validate_config(args.subcommand, config)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.out, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    try:
        return RUNNERS[args.subcommand](config, args.out, rng, max(1, args.jobs))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except recurrence.GridReachError as exc:
        # a recurrence scan that cannot reach its horizon: blame an inverter's
        # horizon, else the grid step if the config sets one, else the horizon
        path = ("$.inverter.t_max" if "inverter" in config
                else "$.grid_step" if "grid_step" in config else "$.t_max")
        print(f"error: {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (recurrence.RecurrenceSearchError, recurrence.SpectrumExhaustedError,
            synth.CompileBudgetError) as exc:
        # no certified time, a spectrum too short for its tail cut, or an
        # exhausted refinement budget: a failed certificate, with its report
        return _failed(args.out, exc)


if __name__ == "__main__":
    sys.exit(main())
