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
import types

import numpy as np
from jsonschema import Draft202012Validator, validators

from . import chains, fock, propagate, recurrence, synth, weyl

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


# -- config schemas -----------------------------------------------------------
#
# A fragment that two subcommands share is defined once, so a field reads the
# same in every certificate that takes it; look-alikes stay apart
# (notes/decisions.md, "Config fields defined once").


def _config(properties: dict, required: list) -> dict:
    """The schema of an object with these ``properties``, ``required`` in order."""
    return {"type": "object", "properties": properties, "required": required}


_POLY = {"type": "string"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NON_NEGATIVE = {"type": "number", "minimum": 0}
_INDEX = {"type": "integer", "minimum": 0}
_COUNT = {"type": "integer", "minimum": 1}
_DIMS = {"type": "array", "items": {"type": "integer", "minimum": 2}}
_GENERATORS = {"type": "array", "items": _POLY, "minItems": 1}
# closure's mode_count and a chain's n_modes count symbolic modes only
_SYMBOLIC_MODES = {"type": "integer", "minimum": 1, "maximum": weyl.MAX_MODES}
# A finite net's states are each drawn, overlapped with every eigenvector and,
# in compile, evolved through every word, like the run's own state: 256 of
# them at the fock.MAX_DIM limit hold 16 MiB and repeat that work 256 times.
MAX_NET_SIZE = 256
_NET_SIZE = {"type": "integer", "minimum": 1, "maximum": MAX_NET_SIZE}
_HAMILTONIAN = {
    "type": "object",
    "properties": {
        "poly": _POLY,
        # a system's mode_count is held to its dims, a hamiltonian's to this
        "mode_count": {"type": "integer", "minimum": 1, "maximum": fock.MAX_MODES},
        "dims": _DIMS,
        "levels": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        # no more levels than a poly hamiltonian's Fock space can have
        "level_formula": _config({
            "count": {"type": "integer", "minimum": 1, "maximum": fock.MAX_DIM},
            "coeffs": {"type": "array", "items": {"type": "number"}},
        }, ["count", "coeffs"]),
    },
}
_STATE = {
    "type": "object",
    "properties": {
        "fock": {"type": "array", "items": _INDEX},
        "random_interior": {"type": "object",
                            "properties": {"buffer": {"type": "integer"}}},
    },
}
_SYSTEM = _config({"mode_count": _COUNT, "dims": _DIMS, "generators": _GENERATORS},
                  ["mode_count", "dims", "generators"])
_INVERTER = _config({
    "mode": {"enum": ["exact", "pointwise", "finite_net", "energy_bound"]},
    "delta": _POSITIVE,
    "t_max": _POSITIVE,
    "net_size": _NET_SIZE,
    # keyed by generator index in its one spelling; \Z, as Python's $
    # also matches before a trailing newline
    "energy_bounds": {"type": "object",
                      "propertyNames": {"pattern": r"^(0|[1-9][0-9]*)\Z"}},
}, ["mode"])
_CHAIN = _config({
    "n_modes": _SYMBOLIC_MODES,
    "omega": _NON_NEGATIVE,
    "couplings": {"type": "array", "items": {
        "type": "array", "minItems": 3, "maxItems": 3,
        "prefixItems": [_INDEX, _INDEX, _NON_NEGATIVE]}},
    "control_sites": {"type": "array", "items": _INDEX},
    "control_degree_cap": _COUNT,
}, ["n_modes", "omega", "couplings", "control_sites"])

_CAPS = {"degree_cap": _COUNT, "dim_cap": _COUNT}
_PLAN_SEARCH = {
    "hamiltonian": _HAMILTONIAN,
    "delta": _POSITIVE,
    "mode": {"enum": ["pointwise", "finite_net", "energy_bound"]},
    "state": _STATE,
    "net_size": _NET_SIZE,
    "energy_bound": _POSITIVE,
    "t_max": _POSITIVE,
    "grid_step": _POSITIVE,
}
_PLAN_REQUIRED = ["hamiltonian", "delta", "mode"]
_PAIR = {"system": _SYSTEM, "k": _INDEX, "l": _INDEX, "t": _NON_NEGATIVE}
_SYNTHESIS = {"epsilon": _POSITIVE, "n_budget": _COUNT, "inverter": _INVERTER}

SCHEMAS = {
    "closure": _config({"mode_count": _SYMBOLIC_MODES, "generators": _GENERATORS, **_CAPS},
                       ["mode_count", "generators"]),
    "propagation": _config({"chain": _CHAIN, **_CAPS}, ["chain"]),
    "recur": _config({**_PLAN_SEARCH, "tau_min": _NON_NEGATIVE}, _PLAN_REQUIRED),
    "invert": _config({**_PLAN_SEARCH, "s": _NON_NEGATIVE}, [*_PLAN_REQUIRED, "s"]),
    "trotter": _config({**_PAIR, "ns": {"type": "array", "items": _COUNT, "minItems": 1},
                        "state": _STATE}, [*_PAIR, "ns"]),
    "commutator": _config({**_PAIR, "n": _COUNT, "inverter": _INVERTER, "state": _STATE},
                          [*_PAIR, "n", "inverter"]),
    "compile": _config({"system": _SYSTEM, "target": {}, "t": {"type": "number"},
                        **_SYNTHESIS, "state": _STATE},
                       ["system", "target", "t", *_SYNTHESIS]),
    "chain-demo": _config({
        "chain": _CHAIN,
        "dims": _DIMS,
        "targets": {"type": "array", "minItems": 1,
                    "items": _config({"expr": {}, "t": {"type": "number"}}, ["expr", "t"])},
        **_SYNTHESIS,
    }, ["chain", "dims", "targets", *_SYNTHESIS]),
}


class ConfigError(ValueError):
    pass


# The schemas' "integer": jsonschema's own also admits integral floats such
# as 16.0 and 1e20, which reach range() and index arithmetic as floats.
_Validator = validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: isinstance(value, int) and not isinstance(value, bool)))


def _non_finite(value):
    """JSON path of the first infinite or NaN number in ``value``, or None.
    Python's json reads 1e400 as inf and accepts NaN and Infinity, and the
    schemas' number bounds let inf through.  Walked depth first on a stack,
    not by recursion: json.load admits configs deeper than the frame limit."""
    stack = [("$", value)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, float) and not math.isfinite(value):
            return path
        if isinstance(value, dict):
            stack.extend(reversed([(f"{path}.{key}", item) for key, item in value.items()]))
        elif isinstance(value, list):
            stack.extend(reversed([(f"{path}[{i}]", item) for i, item in enumerate(value)]))
    return None


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
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
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


# -- config material -----------------------------------------------------------


def _parse_poly(text: str, mode_count: int, path: str, kind) -> weyl.PolyOp:
    """The polynomial ``text`` as ``kind`` (``weyl.as_hermitian``; None: as is).
    Its coefficients are held to the chains' bound ``chains.MAX_COEFFICIENT``:
    the role checks square them, and the closures and brackets multiply them."""
    try:
        poly = weyl.PolyOp.from_text(text, mode_count)
        for c in poly.terms.values():
            if not math.hypot(c.real, c.imag) <= chains.MAX_COEFFICIENT:
                raise ValueError(f"coefficient {c} is out of range (coefficient bound "
                                 f"{chains.MAX_COEFFICIENT:.3g})")
        return poly if kind is None else kind(poly)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: bad polynomial {text!r}: {exc}") from None


def _parse_expr(data, path: str):
    depth, level = 0, [data]  # counted level by level, without recursion
    while level := [item for node in level if isinstance(node, dict) for item in node.values()]:
        depth += 1
    if depth > synth.MAX_EXPR_DEPTH:
        raise ConfigError(f"{path}: nests {depth} levels, above {synth.MAX_EXPR_DEPTH}")
    try:
        expr = synth.expr_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed generator expression: {exc!r}") from None
    if (leaves := synth.word_leaves(expr)) > synth.MAX_WORD_LEAVES:
        raise ConfigError(f"{path}: its order-1 word has {leaves} leaves, above "
                          f"synth.MAX_WORD_LEAVES = {synth.MAX_WORD_LEAVES}")
    return expr


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


def _one_of(cfg, keys, path: str) -> str:
    """The one key of ``keys`` that ``cfg`` sets; none or several are refused."""
    given = [key for key in keys if key in cfg]
    if len(given) != 1:
        raise ConfigError(f"{path}: needs exactly one of {', '.join(map(repr, keys))}, "
                          f"got {given or 'none'}")
    return given[0]


def _build_state(state_cfg, spec: fock.TruncationSpec, rng) -> np.ndarray:
    if state_cfg is None:
        return fock.ground_state(spec)
    kind = _one_of(state_cfg, ("fock", "random_interior"), "$.state")
    try:
        if kind == "fock":
            return fock.fock_state(spec, state_cfg["fock"])
        buffer = state_cfg["random_interior"].get("buffer", 0)
        return fock.random_interior_state(fock.TruncationSpec(spec.dims, buffer), rng)
    except ValueError as exc:
        raise ConfigError(f"$.state: {exc}") from None


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
    """(spectrum, truncation): the SpectralData and truncation of a 'poly'
    hamiltonian, or plain levels and None."""
    kind = _one_of(cfg, ("poly", "levels", "level_formula"), "$.hamiltonian")
    if kind == "levels":
        return np.asarray(cfg["levels"], dtype=float), None
    if kind == "level_formula":
        lf = cfg["level_formula"]
        return recurrence.polynomial_levels(lf["count"], lf["coeffs"]), None
    mode_count = int(cfg.get("mode_count", 1))
    spec = _truncation(cfg.get("dims", (32,) * mode_count), mode_count, "$.hamiltonian.dims")
    H = _parse_poly(cfg["poly"], mode_count, "$.hamiltonian.poly", weyl.as_hermitian)
    try:
        M = fock.represent(H, spec)
    except ValueError as exc:  # an entry that is not finite
        raise ConfigError(f"$.hamiltonian.poly: {exc}") from None
    return recurrence.spectral(M.toarray()), spec


def _parse_system(cfg):
    """(truncation, hermitian generators) of a ``system`` config: the dims
    checked and every generator parsed, none of them represented."""
    mode_count = int(cfg["mode_count"])
    spec = _truncation(cfg["dims"], mode_count, "$.system.dims")
    herms = [_parse_poly(text, mode_count, f"$.system.generators[{i}]", weyl.as_hermitian)
             for i, text in enumerate(cfg["generators"])]
    return spec, herms


def _build_system(spec: fock.TruncationSpec, herms, reads) -> propagate.EvolutionTable:
    """The table of the skew generators -iH_k for the indices the run reads
    only.  ``reads`` pairs each index set with its config path, where an
    index outside the system is refused, in order."""
    for indices, path in reads:
        unknown = sorted(k for k in indices if not 0 <= k < len(herms))
        if unknown:
            raise ConfigError(f"{path}: generator index {unknown[0]} is out of range; the "
                              f"system has generators 0..{len(herms) - 1}")
    reps = {}
    for k in sorted(set().union(*(indices for indices, _ in reads))):
        try:  # an entry that is not finite; never a chain's, with its bounded coefficients
            reps[k] = -1j * fock.represent(herms[k], spec)
        except ValueError as exc:
            raise ConfigError(f"$.system.generators[{k}]: {exc}") from None
    return propagate.EvolutionTable(reps)


def _word(expr, t: float, n: int, path: str):
    """The order-n word of e^{G(expr) t}.  No leaf of a higher order is
    longer, so the order-1 word bounds every round's reversals, and a
    duration that is not finite is refused here, at ``path``, before any
    table is built."""
    try:
        return synth.build_word(expr, t, n)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _build_inverter(cfg, table, psi0, rng, spec, words):
    """Inverter for the reversed segments of ``words``, whose leaves are the
    longest the run realizes; it reads each reversed generator's spectrum
    from the table's store and searches one plan from its longest reversal."""
    mode = cfg["mode"]
    if mode == "exact":
        return synth.ExactInverter()
    delta = cfg.get("delta")
    if delta is None:
        raise ConfigError("$.inverter.delta: recurrence inverter configs need 'delta'")
    _check_delta(delta, "$.inverter.delta")
    # each reversed generator's longest reversal, the last of its sorted ones;
    # segment signs do not depend on the order n
    reach = dict(sorted((k, -s) for word in words for k, s in propagate.leaves(word) if s < 0))
    if mode == "pointwise":
        cover = psi0
    elif mode == "finite_net":
        cover = _random_net(cfg, spec, rng)
    else:
        bounds = cfg.get("energy_bounds", {})
        # JSON numbers only: a bool or a numeric string is refused, not coerced
        if not all(type(v) in (int, float) and 0.0 < v < math.inf for v in bounds.values()):
            raise ConfigError(f"$.inverter.energy_bounds: bounds must be positive and "
                              f"finite numbers, got {bounds}")
        bounds = {int(k): float(v) for k, v in bounds.items()}
        missing = sorted(set(reach) - set(bounds))  # only reversals reach the inverter
        if missing:
            raise ConfigError(f"$.inverter.energy_bounds: no energy bound for the "
                              f"reversed generator(s) {missing}")
        cover = bounds
    return recurrence.RecurrenceInverter(table.spectra, delta, mode, cover,
                                         t_max=cfg.get("t_max"), reach=reach)


# -- subcommand implementations --------------------------------------------------


def _run_closure(config, out, rng, jobs):
    # lie_closure is the generators' one check, of degree and of skewness
    gens = [_parse_poly(g, int(config["mode_count"]), f"$.generators[{i}]", None)
            for i, g in enumerate(config["generators"])]
    try:
        basis = weyl.lie_closure(gens, config.get("degree_cap", weyl.DEFAULT_DEGREE_CAP),
                                 config.get("dim_cap", weyl.DEFAULT_DIM_CAP))
    except weyl.GeneratorError as exc:
        raise ConfigError(f"$.generators[{exc.index}]: {exc}") from None
    except weyl.CapError as exc:
        raise ConfigError(f"$.degree_cap: {exc}") from None
    write_json(os.path.join(out, "report.json"), {
        "dim": basis.dim,
        "saturated": basis.saturated,
        "degree_capped": basis.degree_capped,
        "dim_capped": basis.dim_capped,
        "all_degrees": basis.all_degrees,
        "basis": [b.to_text() for b in basis.basis],
    })
    return EXIT_OK


def _run_propagation(config, out, rng, jobs):
    spec = _chain_spec(config["chain"])
    caps = {key: config[key] for key in ("degree_cap", "dim_cap") if key in config}
    try:
        report = chains.chain_controllability(spec, **caps)
    except weyl.CapError as exc:
        # a cap the bracket table cannot represent, or controls above it
        raise ConfigError(f"$.degree_cap: {exc}") from None
    write_json(os.path.join(out, "report.json"), report.to_dict())
    write_csv(os.path.join(out, "edges.csv"),
              [["edge_u", "edge_v", "verdict", "closure_dim", "missing"]] +
              [[v.edge[0], v.edge[1], v.verdict, v.closure_dim, v.missing]
               for v in report.edge_verdicts])
    return EXIT_OK if report.controllable else EXIT_FAILURE


def _plan_context(config, rng, floor: str):
    """(spectrum, cover) as ``recurrence.plan_recurrence`` takes them: the
    hamiltonian's SpectralData or plain levels, and the mode's state, net or
    energy bound.  ``floor`` names the config value, ``tau_min`` or ``s``,
    below which no recurrence time is searched."""
    t_max, lowest = config.get("t_max"), config.get(floor, 0.0)
    if t_max is not None and t_max < lowest:
        raise ConfigError(f"$.t_max: t_max {t_max:g} is below {floor} {lowest:g}")
    _check_delta(config["delta"], "$.delta")
    spectrum, spec = _build_hamiltonian(config["hamiltonian"])
    mode = config["mode"]
    if mode == "energy_bound":
        if "energy_bound" not in config:
            raise ConfigError("$.energy_bound: energy_bound mode needs 'energy_bound'")
        if spec is None and (np.any(spectrum < 0) or np.any(np.diff(spectrum) < 0)):
            key = "levels" if "levels" in config["hamiltonian"] else "level_formula"
            raise ConfigError(f"$.hamiltonian.{key}: energy_bound mode needs ascending, "
                              "non-negative levels")
        return spectrum, float(config["energy_bound"])
    if spec is None:
        raise ConfigError(f"$.hamiltonian: {mode} mode needs a matrix hamiltonian ('poly')")
    if mode == "pointwise":
        return spectrum, _build_state(config.get("state"), spec, rng)
    return spectrum, _random_net(config, spec, rng)


def _run_recur(config, out, rng, jobs):
    spectrum, cover = _plan_context(config, rng, "tau_min")
    found = {}

    def search(fh):
        # scan.csv streams each chunk's (T, objective) rows as csv.writer
        # spells them; a failed search still commits the rows it scanned
        fh.write("T,objective\r\n")
        trace = types.SimpleNamespace(
            extend=lambda rows: fh.write("".join(["%r,%r\r\n" % row for row in rows])))
        try:
            found["plan"] = recurrence.plan_recurrence(
                spectrum, float(config["delta"]), config["mode"], cover,
                tau_min=float(config.get("tau_min", 0.0)),
                t_max=config.get("t_max"), grid_step=config.get("grid_step"), trace=trace)
        except BaseException as exc:
            found["error"] = exc

    _atomic_write(os.path.join(out, "scan.csv"), search)
    if "error" in found:
        raise found["error"]
    plan = found["plan"]
    write_json(os.path.join(out, "plan.json"), plan.to_dict())
    write_json(os.path.join(out, "report.json"), {"status": "ok", "time": plan.time, "N": plan.N})
    return EXIT_OK


def _run_invert(config, out, rng, jobs):
    sd, cover = _plan_context(config, rng, "s")
    if not isinstance(sd, recurrence.SpectralData):
        raise ConfigError("$.hamiltonian: invert needs a matrix hamiltonian ('poly')")
    res = recurrence.invert(sd, float(config["s"]), float(config["delta"]), config["mode"],
                            cover, t_max=config.get("t_max"), grid_step=config.get("grid_step"))
    write_json(os.path.join(out, "plan.json"), res.plan.to_dict())
    write_json(os.path.join(out, "report.json"),
               {"status": "ok", "t_star": res.t_star, "time": res.plan.time})
    return EXIT_OK


def _run_trotter(config, out, rng, jobs):
    k, l = int(config["k"]), int(config["l"])
    spec, herms = _parse_system(config["system"])
    table = _build_system(spec, herms, [([k], "$.k"), ([l], "$.l")])
    psi0 = _build_state(config.get("state"), spec, rng)
    rows = propagate.trotter_errors(k, l, float(config["t"]), config["ns"], psi0, table)
    write_csv(os.path.join(out, "convergence.csv"), [["n", "error"]] + [[n, e] for n, e in rows])
    write_json(os.path.join(out, "report.json"), {"errors": {str(n): e for n, e in rows}})
    return EXIT_OK


def _run_commutator(config, out, rng, jobs):
    k, l, t, n = int(config["k"]), int(config["l"]), float(config["t"]), int(config["n"])
    # e^{[H_k, H_l] t^2} at step sqrt(t^2) / n = t / n
    bracket = synth.Bracket(synth.Gen(k), synth.Gen(l))
    words = [_word(bracket, t * t, n, "$.t")]  # the one word the run realizes
    spec, herms = _parse_system(config["system"])
    psi0 = _build_state(config.get("state"), spec, rng)
    table = _build_system(spec, herms, [([k], "$.k"), ([l], "$.l")])
    inverter = _build_inverter(config["inverter"], table, psi0, rng, spec, words)
    if inverter.physical:
        propagate.check_writable(4 * n * n)  # before any search
    seq, plans = synth.realize(bracket, t * t, n, inverter)
    if len(seq) != 4 * n * n:
        raise AssertionError("commutator word must have 4 n^2 segments")
    error, fidelity = synth.verify(seq, psi0, bracket, table, t * t)
    if inverter.physical:
        seq = propagate.ControlSequence(
            seq.word, f"commutator(k={k}, l={l}, t={t}, n={n}; {len(plans)} inversions)")
        write_json(os.path.join(out, "sequence.json"), seq.to_dict())
        write_json(os.path.join(out, "plans.json"), [p.to_dict() for p in plans])
    write_json(os.path.join(out, "report.json"),
               {"n": n, "t": t, "physical": inverter.physical, "error": error,
                "fidelity": fidelity, "status": "ok"})
    return EXIT_OK


def _run_compile(config, out, rng, jobs):
    spec, herms = _parse_system(config["system"])
    psi0 = _build_state(config.get("state"), spec, rng)
    expr, t = _parse_expr(config["target"], "$.target"), float(config["t"])
    words = [_word(expr, t, 1, "$.t")]
    table = _build_system(spec, herms, [(synth.expr_indices(expr), "$.target")])
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
    words = [_word(expr, t, 1, f"$.targets[{i}].t")
             for i, (expr, t) in enumerate(targets)]
    try:
        tspec = chains.chain_truncation(spec, config["dims"])
    except ValueError as exc:
        raise ConfigError(f"$.dims: {exc}") from None
    labels, hams = chains.control_system(spec)
    table = _build_system(tspec, hams, [(synth.expr_indices(expr), f"$.targets[{i}].expr")
                                        for i, (expr, _) in enumerate(targets)])
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


def _seed(text: str) -> int:
    """``--seed``: a non-negative integer, as ``np.random.default_rng`` takes."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"{seed} is negative; a seed is >= 0")
    return seed


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
        sp.add_argument("--seed", type=_seed, default=0, help="RNG seed (mandatory for sampling)")
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
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
        validate_config(args.subcommand, config)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError,
            ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"error: --out: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    except propagate.SequenceSizeError as exc:
        # a word too long to write out: commutator's order n, else the budget
        print(f"error: {'$.n' if 'n' in config else '$.n_budget'}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (recurrence.RecurrenceSearchError, recurrence.SpectrumExhaustedError,
            synth.CompileBudgetError, propagate.NormDriftError) as exc:
        # no certified time, a spectrum too short for its tail cut, an
        # exhausted refinement budget, or an evaluation that drifted in norm:
        # a failed certificate, with its report
        details = exc.to_dict() if isinstance(exc, recurrence.RecurrenceSearchError) else {}
        write_json(os.path.join(args.out, "report.json"),
                   {"status": "failed", "error": str(exc), **details})
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
