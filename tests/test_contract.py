"""The exit-code contract under hostile numbers: every subcommand, given its
sample config with one numeric value replaced, returns 0, 1 or 2 from
``cli.main`` and raises nothing; an exit 2 names the offending ``$.`` path,
and no run outlasts its wall budget."""

import contextlib
import io
import json
import math
import signal
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from recurq import cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SAMPLES = {
    "closure": "closure.json",
    "propagation": "propagation_chain3.json",
    "recur": "recur_harmonic.json",
    "invert": "invert_harmonic.json",
    "trotter": "trotter_qp.json",
    "commutator": "commutator_recurrence.json",
    "chain-demo": "chain_demo.json",
}
# compile has no sample config: the q, p pair's bracket under the exact inverter
COMPILE = {
    "system": {"mode_count": 1, "dims": [16], "generators": ["(1,0) * q1", "(1,0) * p1"]},
    "target": {"op": "bracket", "left": {"op": "gen", "k": 0}, "right": {"op": "gen", "k": 1}},
    "t": 0.25, "epsilon": 0.1, "n_budget": 8, "inverter": {"mode": "exact"},
    "state": {"fock": [0]},
}
HOSTILE = [math.nan, math.inf, -math.inf, 0, -1, 1e308, 5e-324, 1e20]
WALL_BUDGET_S = 5.0


def _numeric_paths(schema, value, path=()):
    """Paths of the numbers the schema admits in ``value``: each numeric
    property it declares, present or not, and the numbers in the present
    arrays and objects below it."""
    if schema.get("type") in ("number", "integer"):
        return [path]
    out = []
    if schema.get("type") == "object" and isinstance(value, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in value or sub.get("type") in ("number", "integer"):
                out += _numeric_paths(sub, value.get(key), path + (key,))
    elif schema.get("type") == "array" and isinstance(value, list):
        prefix = schema.get("prefixItems", [])
        for i, item in enumerate(value):
            sub = prefix[i] if i < len(prefix) else schema.get("items", {})
            out += _numeric_paths(sub, item, path + (i,))
    return out


def _cases():
    bases = {sub: json.loads((CONFIGS / name).read_text()) for sub, name in SAMPLES.items()}
    bases["compile"] = COMPILE
    return [(sub, config, path) for sub, config in bases.items()
            for path in _numeric_paths(cli.SCHEMAS[sub], config)]


CASES = _cases()


def _replaced(config, path, value):
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


def _integral_float(config, path):
    """The leaf at ``path`` as an integral float (2.0 where it is absent)."""
    node = config
    for key in path:
        try:
            node = node[key]
        except (KeyError, IndexError):
            return 2.0
    return float(math.ceil(node))


class _Overrun(BaseException):
    """A run past its wall budget, raised by the interval timer."""


@contextlib.contextmanager
def _wall_budget(seconds):
    def overrun(signum, frame):
        raise _Overrun(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_every_subcommand_has_numeric_cases():
    subs = {sub for sub, _, _ in CASES}
    assert subs == set(cli.SCHEMAS) and len(CASES) > 60


def _case(sub, path):
    return next(case for case in CASES if case[0] == sub and case[2] == path)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(CASES), st.sampled_from(HOSTILE + ["integral"]))
@example(_case("recur", ("grid_step",)), 1e308)  # raised OverflowError out of cli.main
def test_hostile_numbers_keep_the_exit_contract(case, value):
    sub, config, path = case
    if value == "integral":
        value = _integral_float(config, path)
    config = _replaced(config, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with _wall_budget(WALL_BUDGET_S), contextlib.redirect_stderr(err):
            code = cli.main([sub, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (cli.EXIT_OK, cli.EXIT_FAILURE, cli.EXIT_USAGE), (sub, path, value, code)
    if code == cli.EXIT_USAGE:
        assert "$." in err.getvalue(), (sub, path, value, err.getvalue())


def test_shared_fields_are_defined_once():
    # a field that several subcommands take is one schema object, so every
    # certificate reads it alike (notes/decisions.md, "Config fields defined once")
    props = {sub: schema["properties"] for sub, schema in cli.SCHEMAS.items()}
    shared = {
        ("recur", "invert"): ("delta", "t_max", "grid_step", "energy_bound"),
        ("trotter", "commutator"): ("system", "k", "l", "t"),
        ("compile", "chain-demo"): ("epsilon", "n_budget"),
        ("closure", "propagation"): ("degree_cap", "dim_cap"),
        ("commutator", "compile", "chain-demo"): ("inverter",),
    }
    for subs, keys in shared.items():
        for key in keys:
            first, *rest = (props[sub][key] for sub in subs)
            assert all(field is first for field in rest), (subs, key)
    # the look-alikes stay apart: compile's and chain-demo's t may be
    # negative, the plan modes have no "exact", and each mode_count has its
    # own maximum
    signed = props["compile"]["t"]
    assert signed == props["chain-demo"]["targets"]["items"]["properties"]["t"]
    assert signed != props["trotter"]["t"] and props["trotter"]["t"]["minimum"] == 0
    plan_modes = props["recur"]["mode"]["enum"]
    assert "exact" not in plan_modes
    assert plan_modes != props["compile"]["inverter"]["properties"]["mode"]["enum"]
    mode_counts = [props["closure"]["mode_count"],
                   props["recur"]["hamiltonian"]["properties"]["mode_count"],
                   props["compile"]["system"]["properties"]["mode_count"]]
    assert len({field.get("maximum") for field in mode_counts}) == 3
