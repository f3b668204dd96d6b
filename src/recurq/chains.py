"""Coupled-oscillator chains: interaction Hamiltonians, control systems, and
the end-to-end indirect-controllability demonstration.

The pair interaction between modes i and j with spring constant omega is

    H_ij = p_i^2 + q_i^2 + p_j^2 + q_j^2 + omega (p_i - p_j)^2 + omega (q_i - q_j)^2,

the always-on drift is sum a_ij H_ij over the coupling graph, and local
controls act on designated sites.  Controllability spreads along coupling
edges by the propagation criterion of :mod:`recurq.weyl`: if the capped local
algebra at one end of an edge together with one coupling bracket spans the
capped pair algebra, the next mode's local algebra becomes available there.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

from .fock import TruncationSpec, ground_state, represent
from .propagate import EvolutionTable
from .synth import expr_indices, reachability_report
from .weyl import (FAILS, HERMITIAN, PROPAGATES, SKEW, UNKNOWN, PolyOp, as_hermitian,
                   algebraic_propagation_check, const, lie_closure,
                   local_skew_generators, p, q, skew_generator, table_monomials)

DEFAULT_CONTROL_POWERS = (1, 2, 3)  # q, q^2, q^3 plus p on each control site

# Bound on every coefficient of a chain's Hamiltonians.  The hermiticity
# checks and the closures square coefficients, and the brackets multiply
# them by structure constants (k! C(b,k) C(c,k) <= 2e15 per mode at caps up
# to 16): a fourth root of the float range keeps all of these finite.
MAX_COEFFICIENT = sys.float_info.max ** 0.25


class ChainParameterError(ValueError):
    """A chain parameter that puts a Hamiltonian coefficient above
    ``MAX_COEFFICIENT``; ``field`` names it as in ``ChainSpec.to_dict``:
    ``"omega"`` or ``"couplings[k]"``, k in the order given."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{message} (coefficient bound {MAX_COEFFICIENT:.3g})")
        self.field = field


@dataclass(frozen=True)
class ChainSpec:
    """Geometry and control layout of a coupled-oscillator chain."""

    n_modes: int
    omega: float
    couplings: tuple  # ((i, j, a_ij), ...) with i < j, a_ij >= 0
    control_sites: tuple
    control_degree_cap: int = 3

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be positive")
        if self.omega < 0:
            raise ValueError("omega must be >= 0")
        # 1 + 2 omega bounds the pair coefficients 1 + omega and 2 omega, and
        # load[m] the strengths summed at mode m plus a control's unit weight
        scale = 1.0 + 2.0 * self.omega
        if not scale <= MAX_COEFFICIENT:
            raise ChainParameterError("omega", f"omega {self.omega!r} is out of range")
        load = [1.0] * self.n_modes
        seen = set()
        cleaned = []
        for k, (i, j, a) in enumerate(self.couplings):
            i, j, a = int(i), int(j), float(a)
            if i == j:
                raise ValueError("self-coupling a_ii is not allowed")
            if a < 0:
                raise ValueError("coupling strengths must be >= 0")
            i, j = min(i, j), max(i, j)
            if i < 0 or j >= self.n_modes:
                raise ValueError("coupling mode index out of range")
            load[i] += a
            load[j] += a
            if not scale * max(load[i], load[j]) <= MAX_COEFFICIENT:
                raise ChainParameterError(f"couplings[{k}]",
                                          f"coupling strength {a!r} is out of range")
            if (i, j) in seen:
                raise ValueError(f"duplicate coupling ({i}, {j})")
            seen.add((i, j))
            cleaned.append((i, j, a))
        object.__setattr__(self, "couplings", tuple(sorted(cleaned)))
        sites = tuple(sorted(int(s) for s in set(self.control_sites)))
        if not sites:
            raise ValueError("control sites must be nonempty")
        if any(not 0 <= s < self.n_modes for s in sites):
            raise ValueError("control site out of range")
        object.__setattr__(self, "control_sites", sites)
        if self.control_degree_cap < 1:
            raise ValueError("control_degree_cap must be >= 1")

    @property
    def edges(self):
        return tuple((i, j) for i, j, a in self.couplings if a > 0)

    def to_dict(self) -> dict:
        return {
            "n_modes": self.n_modes,
            "omega": self.omega,
            "couplings": [list(c) for c in self.couplings],
            "control_sites": list(self.control_sites),
            "control_degree_cap": self.control_degree_cap,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChainSpec":
        return cls(
            n_modes=int(data["n_modes"]),
            omega=float(data["omega"]),
            couplings=tuple(tuple(c) for c in data["couplings"]),
            control_sites=tuple(data["control_sites"]),
            control_degree_cap=int(data.get("control_degree_cap", cls.control_degree_cap)),
        )


def coupling_hamiltonian(i: int, j: int, omega: float, n_modes: int) -> PolyOp:
    """Rotating-wave pair interaction between modes i and j."""
    if i == j:
        raise ValueError("coupling requires two distinct modes")
    qi, pi, qj, pj = q(i, n_modes), p(i, n_modes), q(j, n_modes), p(j, n_modes)
    H = pi * pi + qi * qi + pj * pj + qj * qj
    dp = pi - pj
    dq = qi - qj
    H = H + omega * (dp * dp) + omega * (dq * dq)
    return as_hermitian(H)


def _site_controls(site: int, n_modes: int, cap: int) -> list:
    """(label, monomial) of each local control at ``site``: p, then q^k for
    each k of DEFAULT_CONTROL_POWERS up to the degree cap."""
    powers = [(f"p{site + 1}", (0, 1))] + [(f"q{site + 1}" + (f"^{k}" if k > 1 else ""), (k, 0))
                                           for k in DEFAULT_CONTROL_POWERS if k <= cap]
    return [(label, tuple(pair if m == site else (0, 0) for m in range(n_modes)))
            for label, pair in powers]


def control_system(spec: ChainSpec):
    """Directly implementable Hamiltonians: drift alone and drift + control.

    Returns ``(labels, hamiltonians)``.  The drift sums a_ij H_ij's terms in
    coupling order, and each control adds 1 to its monomial in a copy of it:
    real multiples of hermitian monomials, so every sum is hermitian as built
    (notes/decisions.md, "Chain Hamiltonians summed from the coupling terms").
    Switching one on evolves by the skew generator -iH.
    """
    n = spec.n_modes
    drift: dict = {}
    for i, j, a in spec.couplings:
        for m, c in coupling_hamiltonian(i, j, spec.omega, n).terms.items():
            term = c * a
            if term != 0:  # a * H drops an exactly zero product
                drift[m] = drift.get(m, 0j) + term
    labels, hams = ["drift"], [PolyOp(n, drift, HERMITIAN)]
    for site in spec.control_sites:
        for label, mono in _site_controls(site, n, spec.control_degree_cap):
            terms = dict(drift)
            terms[mono] = terms.get(mono, 0j) + 1
            labels.append(f"drift+{label}")
            hams.append(PolyOp(n, terms, HERMITIAN))
    return labels, hams


# -- propagation of controllability along the graph ---------------------------


@dataclass
class EdgeVerdict:
    edge: tuple
    verdict: str
    closure_dim: int
    missing: int
    all_degrees: bool  # of the pair's closure at min(degree_cap, 3)

    def to_dict(self) -> dict:
        return {
            "edge": list(self.edge),
            "verdict": self.verdict,
            "closure_dim": self.closure_dim,
            "missing_targets": self.missing,
            "all_degrees": self.all_degrees,
        }


@dataclass
class ChainControllabilityReport:
    spec: ChainSpec
    degree_cap: int
    edge_verdicts: list
    unreachable_modes: tuple
    site_closure_dims: dict

    @property
    def controllable(self) -> bool:
        return (not self.unreachable_modes
                and all(v.verdict == PROPAGATES for v in self.edge_verdicts))

    @property
    def verdict(self) -> str:
        if self.controllable:
            return PROPAGATES
        return UNKNOWN if any(v.verdict == UNKNOWN for v in self.edge_verdicts) else FAILS

    def to_dict(self) -> dict:
        return {
            "chain": self.spec.to_dict(),
            "degree_cap": self.degree_cap,
            "verdict": self.verdict,
            "controllable": self.controllable,
            "edges": [v.to_dict() for v in self.edge_verdicts],
            "unreachable_modes": list(self.unreachable_modes),
            "site_closure_dims": {str(k): v for k, v in self.site_closure_dims.items()},
        }


def _site_dim(gens, degree_cap: int, dim_cap: int) -> int:
    """The site closure's dimension at ``degree_cap``, as ``_pair_verdict``
    takes the pair's: from the closure at min(degree_cap, 3) when it can."""
    closure = lie_closure(gens, min(degree_cap, 3), dim_cap)
    dim = table_monomials(degree_cap, len(closure.support))
    if closure.all_degrees and dim <= dim_cap:
        return dim
    return lie_closure(gens, degree_cap, dim_cap).dim if degree_cap > 3 else closure.dim


def _pair_verdict(coupling: PolyOp, degree_cap: int, dim_cap: int) -> tuple:
    """``(verdict, closure_dim, missing, all_degrees)`` of the pair check at
    ``degree_cap``.  When its closure at min(degree_cap, 3) holds every cubic
    on its modes S, the Lie algebra is every polynomial on S: the check there
    propagates (S the pair) or fails (S mode 0), and the dimension is
    C(2|S| + cap, cap) if within ``dim_cap`` (notes/decisions.md, "Chain
    verdicts from the cap-3 closure").  Otherwise the check runs at the cap."""
    low = min(degree_cap, 3)
    check = algebraic_propagation_check(local_skew_generators(0, 2, low), coupling, low, dim_cap)
    full, dim = check.closure.all_degrees, table_monomials(degree_cap, len(check.closure.support))
    if full and dim <= dim_cap:
        return check.verdict, dim, table_monomials(degree_cap, 2) - dim, full
    if low < degree_cap:
        check = algebraic_propagation_check(local_skew_generators(0, 2, degree_cap), coupling,
                                            degree_cap, dim_cap)
    return check.verdict, check.closure.dim, len(check.missing), full


def chain_controllability(spec: ChainSpec, degree_cap: int = 4,
                          dim_cap: int = 256) -> ChainControllabilityReport:
    """Edge-by-edge propagation verdicts from the control sites outward.

    Each coupling edge (u, v) reached in breadth-first order from a control
    site is tested with the capped single-mode generating set at u; the
    overall verdict is "propagates on every edge of a spanning structure".
    Every edge poses the same two-mode problem, so that check runs once, on
    modes 0 and 1, at the first edge the search reaches; it does not run when
    every edge joins two control sites (notes/decisions.md, "One pair check
    per chain").  The per-site closure dimension of the bare controls with
    the drift terms local to that site is reported as context, not as part
    of the verdict; it runs in the one-mode frame, with no n-mode polynomial
    (notes/decisions.md, "Site closures in the one-mode frame").  Both close
    at min(degree_cap, 3) first (``_pair_verdict``).  A ``degree_cap`` that
    the two-mode bracket table (one-mode, with no edge) cannot represent
    raises ``weyl.CapError`` before any closure.
    """
    coupling = coupling_hamiltonian(0, 1, spec.omega, 2)
    # refuse a cap the table cannot represent before any closure
    table_monomials(degree_cap, 2 if spec.edges else 1)
    adjacency: dict = {m: [] for m in range(spec.n_modes)}
    for i, j in spec.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)

    # H_ij's terms on i alone (or j alone) are H_01's mode-0 terms, summed
    # over a site's couplings in order as control_system sums them
    harmonic = PolyOp(1, {m[:1]: c for m, c in coupling.terms.items() if m[1] == (0, 0)})
    local_drift = {site: const(0.0, 1) for site in spec.control_sites}
    for i, j, a in spec.couplings:
        for m in local_drift.keys() & {i, j}:
            local_drift[m] = local_drift[m] + a * harmonic
    controls = [PolyOp(1, {mono: -1j}, SKEW)
                for _, mono in _site_controls(0, 1, spec.control_degree_cap)]
    # sites whose drifts have the same coefficients (the same strengths in
    # coupling order) pose the same one-mode problem: each is closed once
    closed, site_dims = {}, {}
    for site, H in local_drift.items():
        key = tuple(H.terms.items())
        if key not in closed:
            gens = controls if H.is_zero else controls + [skew_generator(H)]
            closed[key] = _site_dim(gens, degree_cap, dim_cap)
        site_dims[site] = closed[key]

    visited = set(spec.control_sites)
    frontier = list(spec.control_sites)
    verdicts = []
    pair = None
    while frontier:
        u = frontier.pop(0)
        for v in sorted(adjacency[u]):
            if v in visited:
                continue
            if pair is None:
                pair = _pair_verdict(coupling, degree_cap, dim_cap)
            verdicts.append(EdgeVerdict((u, v), *pair))
            if pair[0] == PROPAGATES:
                visited.add(v)
                frontier.append(v)
    unreachable = tuple(sorted(set(range(spec.n_modes)) - visited))
    return ChainControllabilityReport(spec, degree_cap, verdicts, unreachable, site_dims)


# -- end-to-end demonstration --------------------------------------------------


def chain_truncation(spec: ChainSpec, dims: Sequence[int]) -> TruncationSpec:
    """The truncated Fock space of a chain demo.  Desk scale only: at most
    three modes at <= 16 levels each."""
    if spec.n_modes > 3:
        raise ValueError("chain demos are desk-scale: at most 3 modes")
    if len(dims) != spec.n_modes:
        raise ValueError("one Fock dimension per mode required")
    if any(d > 16 for d in dims):
        raise ValueError("chain demos are desk-scale: at most 16 levels per mode")
    return TruncationSpec(tuple(dims))


def chain_demo(spec: ChainSpec, dims: Sequence[int], targets, epsilon: float,
               n_budget: int, inverter):
    """Compile and verify ``targets``, (expression, duration) pairs over the
    control system's generator indices (0 = drift), from the truncated chain's
    ground state.  Only the generators they read are represented; an index
    outside the system raises ``IndexError``."""
    tspec = chain_truncation(spec, dims)
    labels, hams = control_system(spec)
    indices = sorted(set().union(*(expr_indices(expr) for expr, _ in targets)))
    for k in indices:
        if not 0 <= k < len(hams):
            raise IndexError(f"generator index {k} is out of range; the system has "
                             f"generators 0..{len(hams) - 1}")
    table = EvolutionTable({k: -1j * represent(hams[k], tspec) for k in indices})
    report = reachability_report(table, ground_state(tspec), targets, epsilon, n_budget, inverter)
    return report, labels, table
