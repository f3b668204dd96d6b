"""Seeded job lists for the four benchmark workloads.

A workload is a fixed list of CLI jobs built from the seed.  The seed draws
the numbers (frequencies, couplings, durations, spectral scales) while the
shape of every job (subcommand, Fock dimensions, refinement orders, degree
caps) is fixed per job slot, so every seed asks for the same amount of work:

- recurrence searches scale the whole spectrum by a seeded factor and scale
  ``tau_min``, ``t_max``, ``s`` and the energy bound with it, which leaves the
  number of grid points scanned unchanged;
- closure generators are rescaled, which leaves their real span unchanged;
- chain frequencies and compile durations are drawn from ranges in which the
  verdicts and the refinement order reached do not change.

Each job carries what its output check needs (``check``) and the exit codes
it may return (``exits``).  One-mode polynomials are kept as term lists
``[(coeff, q_exp, p_exp), ...]`` so the checks can rebuild their matrices
without the program's parser.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Job:
    sub: str
    config: dict
    seed: int
    label: str
    exits: tuple = (0,)
    check: dict = field(default_factory=dict)

    def config_text(self) -> str:
        return json.dumps(self.config, indent=1, sort_keys=True) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # (rng) -> list of (sub, config, label, exits, check)
    warmup: object  # (rng) -> one (sub, config, label, exits, check)
    tail_pct: int  # fixed percentile reported as job_tail_s


# -- polynomial text --------------------------------------------------------


def poly1(terms) -> str:
    """Render one-mode terms [(c, a, b)] as 'c * q1^a p1^b' text."""
    parts = []
    for c, a, b in terms:
        factors = []
        if a:
            factors.append("q1" + (f"^{a}" if a > 1 else ""))
        if b:
            factors.append("p1" + (f"^{b}" if b > 1 else ""))
        coeff = f"({c!r},0)"
        parts.append(coeff + (" * " + " ".join(factors) if factors else ""))
    return " + ".join(parts)


def harmonic(w: float):
    return [(w / 2.0, 2, 0), (w / 2.0, 0, 2)]


def skew1(c: float, a: int, b: int) -> str:
    """Skew one-mode monomial i*c*q^a (a > 0) or i*c*p^b, as text."""
    name = "q1" if a else "p1"
    power = a or b
    return f"(0,{c!r}) * {name}" + (f"^{power}" if power > 1 else "")


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


# -- closure-chains ---------------------------------------------------------


def _chain(rng, n_modes, omega=None, cap=3):
    return {
        "n_modes": n_modes,
        "omega": _u(rng, 0.5, 1.5) if omega is None else omega,
        "couplings": [[i, i + 1, _u(rng, 0.5, 1.5)] for i in range(n_modes - 1)],
        "control_sites": [0],
        "control_degree_cap": cap,
    }


def _closure_1mode(rng, cap):
    gens = [skew1(_u(rng, 0.5, 2.0), 1, 0), skew1(_u(rng, 0.5, 2.0), 0, 2),
            skew1(_u(rng, 0.5, 2.0), 3, 0)]
    return {"mode_count": 1, "generators": gens, "degree_cap": cap, "dim_cap": 64}


def _closure_2mode(rng, cap, dim_cap):
    w = _u(rng, 0.3, 1.5)
    coupling = (f"(0,1) * q1^2 + (0,1) * p1^2 + (0,1) * q2^2 + (0,1) * p2^2 "
                f"+ (0,{w!r}) * q1 q2 + (0,{w!r}) * p1 p2")
    gens = [skew1(_u(rng, 0.5, 2.0), 1, 0), skew1(_u(rng, 0.5, 2.0), 0, 1),
            skew1(_u(rng, 0.5, 2.0), 3, 0), coupling]
    return {"mode_count": 2, "generators": gens, "degree_cap": cap, "dim_cap": dim_cap}


def _closure_sp4(rng, cap):
    gens = [f"(0,{_u(rng, 0.5, 2.0)!r}) * {factors}"
            for factors in ("q1^2", "p1^2", "q1 q2", "p2^2")]
    return {"mode_count": 2, "generators": gens, "degree_cap": cap, "dim_cap": 64}


def closure_chains(rng):
    prop = lambda chain, cap: {"chain": chain, "degree_cap": cap, "dim_cap": 256}
    ok = {"kind": "propagation", "verdict": "propagates"}
    fails = {"kind": "propagation", "verdict": "fails"}
    closure = {"kind": "closure"}
    criterion9 = {"n_modes": 3, "omega": 1.0, "couplings": [[0, 1, 1.0], [1, 2, 1.0]],
                  "control_sites": [0], "control_degree_cap": 3}
    return [
        ("propagation", prop(_chain(rng, 2), 3), "2-mode chain, cap 3", (0,), ok),
        ("propagation", prop(_chain(rng, 2), 4), "2-mode chain, cap 4", (0,), ok),
        ("propagation", prop(_chain(rng, 3), 3), "3-mode chain, cap 3", (0,), ok),
        ("propagation", prop(criterion9, 4), "criterion-9 chain", (0,), ok),
        ("propagation", prop(_chain(rng, 2, omega=0.0), 4), "2-mode chain, omega 0",
         (1,), fails),
        ("propagation", prop(_chain(rng, 3, omega=0.0), 4), "3-mode chain, omega 0",
         (1,), fails),
        ("closure", _closure_1mode(rng, 8), "1-mode closure, cap 8", (0,), closure),
        ("closure", _closure_1mode(rng, 10), "1-mode closure, cap 10", (0,), closure),
        ("closure", _closure_sp4(rng, 5), "2-mode sp(4), cap 5 (126 monomials)",
         (0,), closure),
        ("closure", _closure_2mode(rng, 4, 48), "2-mode closure, cap 4 (70 monomials)",
         (0,), closure),
        ("closure", _closure_2mode(rng, 5, 60), "2-mode closure, cap 5 (126 monomials)",
         (0,), closure),
    ]


def closure_chains_warmup(rng):
    return ("propagation", {"chain": _chain(rng, 2), "degree_cap": 3, "dim_cap": 256},
            "warm-up 2-mode chain", (0,), {"kind": "propagation", "verdict": "propagates"})


# -- long-words ------------------------------------------------------------

GEN = lambda k: {"op": "gen", "k": k}
SUM = lambda a, b: {"op": "sum", "left": a, "right": b}
BRACKET = lambda a, b: {"op": "bracket", "left": a, "right": b}


def _system1(dim, terms_list):
    return {"mode_count": 1, "dims": [dim], "generators": [poly1(t) for t in terms_list]}


def _qp(rng):
    return [[(_u(rng, 0.8, 1.2), 1, 0)], [(_u(rng, 0.8, 1.2), 0, 1)]]


# H, q, p^2 and q^3 with fixed weights: the compile jobs on this set draw
# only their duration, from ranges checked to converge at one order
CUBIC_SET = [harmonic(1.0), [(1.0, 1, 0)], [(0.5, 0, 2)], [(0.2, 3, 0)]]


def _system2(w):
    drift = (f"(0.5,0) * q1^2 + (0.5,0) * p1^2 + (0.5,0) * q2^2 + (0.5,0) * p2^2 "
             f"+ ({w!r},0) * q1 q2 + ({w!r},0) * p1 p2")
    return {"mode_count": 2, "dims": [6, 6],
            "generators": [drift, "(1,0) * q1", "(1,0) * p1", "(0.5,0) * q1^2"]}


def long_words(rng):
    fock0 = {"fock": [0]}
    # H and H + q share their scale w, so the recurrence searches of the
    # pointwise inverter scan the same number of grid points for every seed
    w = _u(rng, 0.8, 1.25)
    pair = [harmonic(w), harmonic(w) + [(w, 1, 0)]]
    pair_spectra = [{"terms": t, "dim": 24} for t in pair]
    jobs = [
        ("trotter", {"system": _system1(24, pair), "k": 0, "l": 1,
                     "t": _u(rng, 0.5, 0.9), "ns": [64, 256, 1024, 4096], "state": fock0},
         "trotter H+q, dim 24", (0,), {"kind": "trotter", "epsilon": 1e-3}),
        ("trotter", {"system": _system1(32, _qp(rng)), "k": 0, "l": 1,
                     "t": _u(rng, 0.5, 0.9), "ns": [64, 256, 1024, 4096], "state": fock0},
         "trotter q+p, dim 32", (0,), {"kind": "trotter", "epsilon": 1e-3}),
        ("commutator", {"system": _system1(24, _qp(rng)), "k": 0, "l": 1,
                        "t": _u(rng, 0.3, 0.6), "n": 64, "inverter": {"mode": "exact"},
                        "state": fock0},
         "commutator [q,p], exact, n 64", (0,), {"kind": "commutator", "epsilon": 1e-8}),
        ("commutator", {"system": _system2(_u(rng, 0.25, 0.35)), "k": 2, "l": 3,
                        "t": _u(rng, 0.2, 0.4), "n": 48, "inverter": {"mode": "exact"},
                        "state": {"fock": [0, 0]}},
         "commutator [p1,q1^2], (6,6), exact, n 48", (0,),
         {"kind": "commutator", "epsilon": 2e-3}),
        ("commutator", {"system": _system1(24, pair), "k": 0, "l": 1,
                        "t": _u(rng, 0.3, 0.5), "n": 16,
                        "inverter": {"mode": "pointwise", "delta": 1e-4},
                        "state": fock0},
         "commutator [H,H+q], pointwise recurrence, n 16", (0,),
         {"kind": "commutator", "epsilon": 2e-2, "spectra": pair_spectra}),
        ("compile", {"system": _system1(24, CUBIC_SET),
                     "target": BRACKET(BRACKET(GEN(1), GEN(2)), GEN(3)),
                     "t": _u(rng, 0.27, 0.31), "epsilon": 1e-2, "n_budget": 16,
                     "inverter": {"mode": "exact"}, "state": fock0},
         "compile [[q,p^2],q^3], exact", (0,), {"kind": "compile"}),
        ("compile", {"system": _system1(24, CUBIC_SET),
                     "target": BRACKET(BRACKET(GEN(1), GEN(2)), GEN(3)),
                     "t": _u(rng, 0.27, 0.31), "epsilon": 1e-2, "n_budget": 16,
                     "inverter": {"mode": "exact"}, "state": fock0},
         "compile [[q,p^2],q^3], exact, second duration", (0,), {"kind": "compile"}),
        ("compile", {"system": _system2(0.3), "target": BRACKET(BRACKET(GEN(0), GEN(3)), GEN(1)),
                     "t": _u(rng, 0.09, 0.12), "epsilon": 1e-2, "n_budget": 16,
                     "inverter": {"mode": "exact"}, "state": {"fock": [0, 0]}},
         "compile [[H,q1^2],q1], (6,6), exact", (0,), {"kind": "compile"}),
        ("compile", {"system": _system1(24, CUBIC_SET), "target": BRACKET(GEN(0), GEN(3)),
                     "t": _u(rng, 0.23, 0.28), "epsilon": 1e-2, "n_budget": 64,
                     "inverter": {"mode": "exact"}, "state": fock0},
         "compile [H,q^3], exact", (0,), {"kind": "compile"}),
        ("compile", {"system": _system1(24, pair), "target": BRACKET(GEN(0), GEN(1)),
                     "t": _u(rng, 0.23, 0.28) / (w * w), "epsilon": 1e-2, "n_budget": 64,
                     "inverter": {"mode": "pointwise", "delta": 1e-4}, "state": fock0},
         "compile [H,H+q], pointwise recurrence", (0,),
         {"kind": "compile", "spectra": pair_spectra}),
        ("compile", {"system": _system1(24, CUBIC_SET), "target": BRACKET(GEN(0), GEN(3)),
                     "t": _u(rng, 0.28, 0.32), "epsilon": 1e-3, "n_budget": 4,
                     "inverter": {"mode": "exact"}, "state": fock0},
         "compile [H,q^3] past its budget", (1,), {"kind": "budget_failure"}),
    ]
    return jobs


def long_words_warmup(rng):
    return ("commutator", {"system": _system1(24, _qp(rng)), "k": 0, "l": 1,
                           "t": 0.4, "n": 4, "inverter": {"mode": "exact"},
                           "state": {"fock": [0]}},
            "warm-up commutator", (0,), {"kind": "commutator", "epsilon": 1e-8})


# -- dense-3mode -----------------------------------------------------------


def _demo(rng, dims, cap, control):
    t = _u(rng, 0.2, 0.4)
    return {"chain": _chain(rng, 3, cap=cap), "dims": dims,
            "targets": [{"expr": SUM(GEN(0), GEN(control)), "t": t}],
            "epsilon": 0.1, "n_budget": 64, "inverter": {"mode": "exact"}}


def dense_3mode(rng):
    demo = {"kind": "chain-demo"}
    # generator 1 is drift+p1 and 2 is drift+q1 at every control cap
    return [
        ("chain-demo", _demo(rng, [8, 8, 8], 1, 1), "chain-demo dim 512, 3 generators",
         (0,), demo),
        ("chain-demo", _demo(rng, [8, 8, 8], 3, 2), "chain-demo dim 512, 5 generators",
         (0,), demo),
        ("chain-demo", _demo(rng, [8, 8, 8], 1, 2), "chain-demo dim 512, 3 generators",
         (0,), demo),
        ("chain-demo", _demo(rng, [8, 8, 9], 1, 2), "chain-demo dim 576, 3 generators",
         (0,), demo),
        ("chain-demo", _demo(rng, [9, 9, 9], 1, 1), "chain-demo dim 729, 3 generators",
         (0,), demo),
    ]


def dense_3mode_warmup(rng):
    return ("chain-demo", _demo(rng, [4, 4, 4], 1, 1), "warm-up chain-demo dim 64",
            (0,), {"kind": "chain-demo"})


# -- recur-search ----------------------------------------------------------


def _ladder(rng, q):
    s = _u(rng, 0.7, 1.4)
    coeffs = [0.0, s, s / q]
    cfg = {"hamiltonian": {"level_formula": {"count": 128, "coeffs": coeffs}},
           "delta": 0.2, "mode": "energy_bound", "energy_bound": 2.0 * s, "tau_min": 1.0 / s}
    return cfg, {"kind": "plan", "spectrum": {"coeffs": coeffs, "count": 128}}


def _matrix_ham(terms, dim):
    return {"poly": poly1(terms), "mode_count": 1, "dims": [dim]}


def recur_search(rng):
    jobs = []
    for q in (11, 13):
        cfg, check = _ladder(rng, q)
        jobs.append(("recur", cfg, f"ladder n + n^2/{q}, energy bound", (0,), check))

    c = _u(rng, 0.7, 1.4)
    gh8 = [(c, 1, 0)]
    spec8 = {"terms": gh8, "dim": 8}
    jobs.append(("recur", {"hamiltonian": _matrix_ham(gh8, 8), "delta": 0.3,
                           "mode": "pointwise", "state": {"fock": [0]}, "tau_min": 0.5 / c},
                 "Gauss-Hermite dim 8, pointwise", (0,),
                 {"kind": "plan", "spectrum": spec8, "fock": 0}))
    jobs.append(("recur", {"hamiltonian": _matrix_ham(gh8, 8), "delta": 0.3,
                           "mode": "pointwise", "state": {"fock": [1]}, "tau_min": 0.5 / c},
                 "Gauss-Hermite dim 8, pointwise, first excited state", (0,),
                 {"kind": "plan", "spectrum": spec8, "fock": 1}))
    jobs.append(("invert", {"hamiltonian": _matrix_ham(gh8, 8), "delta": 0.3,
                            "mode": "pointwise", "state": {"fock": [0]}, "s": 0.7 / c},
                 "invert Gauss-Hermite dim 8, pointwise", (0,),
                 {"kind": "plan", "spectrum": spec8, "fock": 0}))

    w = _u(rng, 0.7, 1.4)
    h16 = {"terms": harmonic(w), "dim": 16}
    h32 = {"terms": harmonic(w), "dim": 32}
    jobs.append(("recur", {"hamiltonian": _matrix_ham(harmonic(w), 16), "delta": 0.1,
                           "mode": "finite_net", "net_size": 3, "tau_min": 1.0 / w},
                 "harmonic dim 16, finite net", (0,), {"kind": "plan", "spectrum": h16}))
    jobs.append(("invert", {"hamiltonian": _matrix_ham(harmonic(w), 32), "delta": 0.5,
                            "mode": "energy_bound", "energy_bound": 0.5 * w, "s": 0.7 / w},
                 "invert harmonic dim 32, energy bound", (0,),
                 {"kind": "plan", "spectrum": h32}))
    jobs.append(("invert", {"hamiltonian": _matrix_ham(harmonic(w), 16), "delta": 0.1,
                            "mode": "finite_net", "net_size": 3, "s": 0.9 / w},
                 "invert harmonic dim 16, finite net", (0,), {"kind": "plan", "spectrum": h16}))

    g = _u(rng, 0.7, 1.4)
    gh32 = [(g, 1, 0)]
    jobs.append(("recur", {"hamiltonian": _matrix_ham(gh32, 32), "delta": 1e-5,
                           "mode": "pointwise", "state": {"fock": [0]},
                           "tau_min": 1.0 / g, "t_max": 3e3 / g},
                 "criterion-3b shape: Gauss-Hermite dim 32, delta 1e-5, bounded horizon",
                 (1,), {"kind": "search_failure", "spectrum": {"terms": gh32, "dim": 32},
                        "fock": 0}))
    return jobs


def recur_search_warmup(rng):
    w = _u(rng, 0.7, 1.4)
    return ("recur", {"hamiltonian": _matrix_ham(harmonic(w), 16), "delta": 1e-3,
                      "mode": "pointwise", "state": {"fock": [0]}, "tau_min": 1.0 / w},
            "warm-up harmonic recurrence", (0,),
            {"kind": "plan", "spectrum": {"terms": harmonic(w), "dim": 16}, "fock": 0})


WORKLOADS = {w.name: w for w in (
    Workload("closure-chains",
             "symbolic closures and chain propagation checks on both sides of the "
             "120-monomial dense/sparse switch; no Fock, evolution or recurrence work",
             closure_chains, closure_chains_warmup, 60),
    Workload("long-words",
             "product-formula words of 10^4-10^5 segments at small dimension: "
             "evolution, word building and artifact writing dominate",
             long_words, long_words_warmup, 80),
    Workload("dense-3mode",
             "3-mode chain demos at dims 512-729: dense Fock representation and "
             "eigendecomposition dominate, few segments",
             dense_3mode, dense_3mode_warmup, 50),
    Workload("recur-search",
             "recurrence plans and inversions on seeded spectra: the grid cosine "
             "scan dominates, including one honest horizon failure",
             recur_search, recur_search_warmup, 70),
)}


def _rng(workload: str, seed: int, part: str):
    tag = [ord(ch) for ch in f"{workload}/{part}"]
    return np.random.default_rng([int(seed)] + tag)


def _jobs(entries, seed, base):
    return [Job(sub, cfg, seed * 1009 + base + i, label, tuple(exits), check)
            for i, (sub, cfg, label, exits, check) in enumerate(entries)]


def job_list(workload: str, seed: int) -> list:
    """The workload's fixed job list for this seed."""
    return _jobs(WORKLOADS[workload].build(_rng(workload, seed, "jobs")), seed, 0)


def warmup_job(workload: str, seed: int) -> Job:
    entry = WORKLOADS[workload].warmup(_rng(workload, seed, "warmup"))
    return _jobs([entry], seed, 1000)[0]
