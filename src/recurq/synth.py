"""Compilation of generator expressions into forward-time control sequences.

Targets are expression trees over the available generator set: sums compile
through the splitting formula, brackets through the group-commutator word
(duration t meaning e^{[G1,G2] t}, realized with step sqrt(t)/n), negative
scalings by inverting the whole sub-word.  The refinement order n doubles
until a held-out verification meets the requested accuracy or the budget is
exhausted; sequences are only ever returned verification-gated.

Reversed segments are realized by a recurrence inverter (physical) or, for
oracle studies, kept signed and evaluated by exact inverses; in that case the
result is the signed word tree itself, never a ControlSequence.  ``realize``
builds either kind of word and ``run`` is the one place that executes it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .propagate import (Concat, ControlSequence, EvolutionTable, NormDriftError, Repeat,
                        evolve, evolve_signed, expm_apply, fidelity, leaves, realize_word,
                        state_error, uses_spectrum)
from .recurrence import GridReachError

# Most leaves of a target's order-1 word (``word_leaves``), which take
# build_word about 0.35 s (notes/decisions.md, "Word size bound")
MAX_WORD_LEAVES = 2**16
# Most levels of nested objects in a config's expression (``cli._parse_expr``):
# Python's 1000 frames stopped the recursive ``Scale.__str__`` at 330 levels
MAX_EXPR_DEPTH = 256


# -- expression trees ---------------------------------------------------------


@dataclass(frozen=True)
class Gen:
    k: int

    def __str__(self):
        return f"H{self.k}"


@dataclass(frozen=True)
class Sum:
    left: object
    right: object

    def __str__(self):
        return f"({self.left} + {self.right})"


@dataclass(frozen=True)
class Bracket:
    left: object
    right: object

    def __str__(self):
        return f"[{self.left}, {self.right}]"


@dataclass(frozen=True)
class Scale:
    factor: float
    inner: object

    def __str__(self):
        return f"({self.factor} * {self.inner})"


def _gen(k) -> Gen:
    if type(k) is not int:  # a bool is refused too
        raise TypeError(f"generator index {k!r} is not an integer")
    return Gen(k)


def expr_from_dict(data) -> object:
    """Parse {'op': 'gen'|'sum'|'bracket'|'scale', ...} JSON trees; a bare
    index is a generator.  Indices must be integers and factors numbers:
    true, "1" and 1.7 are refused, not coerced."""
    if not isinstance(data, dict):
        return _gen(data)
    op = data["op"]
    if op == "gen":
        return _gen(data["k"])
    if op == "sum":
        return Sum(expr_from_dict(data["left"]), expr_from_dict(data["right"]))
    if op == "bracket":
        return Bracket(expr_from_dict(data["left"]), expr_from_dict(data["right"]))
    if op == "scale":
        factor = data["factor"]
        if type(factor) not in (int, float):
            raise TypeError(f"scale factor {factor!r} is not a number")
        return Scale(float(factor), expr_from_dict(data["inner"]))
    raise ValueError(f"unknown expression op {op!r}")


def expr_indices(expr) -> set:
    if isinstance(expr, Gen):
        return {expr.k}
    if isinstance(expr, (Sum, Bracket)):
        return expr_indices(expr.left) | expr_indices(expr.right)
    if isinstance(expr, Scale):
        return expr_indices(expr.inner)
    raise TypeError(f"not a generator expression: {expr!r}")


def word_leaves(expr) -> int:
    """Leaves of the order-1 word of ``expr``, as many as ``build_word``'s tree
    has at every order: a bracket's block holds each side twice."""
    if isinstance(expr, Gen):
        return 1
    if isinstance(expr, Scale):
        return word_leaves(expr.inner)
    if isinstance(expr, (Sum, Bracket)):
        leaves = word_leaves(expr.left) + word_leaves(expr.right)
        return 2 * leaves if isinstance(expr, Bracket) else leaves
    raise TypeError(f"not a generator expression: {expr!r}")


def expr_matrix(expr, table: EvolutionTable):
    """Effective generator of the expression (skew-hermitian matrix).

    CSR where the one-off oracle takes the action path; a dense ndarray
    below dim 2 * SPECTRAL_DIVISOR, where the oracle diagonalizes a dense
    copy anyway and dense products cost about a tenth of sparse ones.
    """
    dense = uses_spectrum(1, table.dim)

    def build(expr):
        if isinstance(expr, Gen):
            M = table.matrix(expr.k)
            return M.toarray() if dense else M
        if isinstance(expr, Sum):
            return build(expr.left) + build(expr.right)
        if isinstance(expr, Bracket):
            A, B = build(expr.left), build(expr.right)
            return A @ B - B @ A
        if isinstance(expr, Scale):
            return expr.factor * build(expr.inner)
        raise TypeError(f"not a generator expression: {expr!r}")

    return build(expr)


def build_word(expr, duration: float, n: int):
    """Signed time-ordered word realizing e^{G(expr) * duration} at order n.

    The word is a tree: a sum is Repeat(left + right, n) and a bracket is
    Repeat(right + left + right^-1 + left^-1, n^2), so its size grows with
    the expression, not with its n^(2 depth) segments.  A leaf duration
    that is not finite (an overflowing scale or bracket) raises ValueError.
    """
    if isinstance(expr, Gen):
        if not math.isfinite(duration):
            raise ValueError(f"word duration {duration:g} is not finite")
        return Concat(((expr.k, float(duration)),))
    if isinstance(expr, Scale):
        return build_word(expr.inner, expr.factor * duration, n)
    if isinstance(expr, Sum):
        step = duration / n
        return Repeat(Concat((build_word(expr.left, step, n),
                              build_word(expr.right, step, n))), n)
    if isinstance(expr, Bracket):
        left, right = expr.left, expr.right
        if duration < 0:
            left, right = right, left  # [A,B](-t) = [B,A] t
            duration = -duration
        s = math.sqrt(duration) / n
        block = Concat((build_word(right, s, n), build_word(left, s, n),
                        build_word(right, -s, n), build_word(left, -s, n)))
        return Repeat(block, n * n)
    raise TypeError(f"not a generator expression: {expr!r}")


# -- compilation ---------------------------------------------------------------


class CompileBudgetError(RuntimeError):
    def __init__(self, best_n, best_distance, epsilon):
        self.best_n = best_n
        self.best_distance = best_distance
        self.epsilon = epsilon
        super().__init__(f"budget exhausted: best distance {best_distance:.3e} at n={best_n} "
                         f"(needed < {epsilon:.3e})")


class CompileDriftError(NormDriftError):
    """A round's evaluation drifted in norm after an earlier round finished."""

    def __init__(self, drift, n, best_n, best_distance):
        self.best_n = best_n
        self.best_distance = best_distance
        super().__init__(f"{drift} at n={n}: best distance {best_distance:.3e} at n={best_n}")


class ExactInverter:
    """Oracle marker: reversed segments stay signed in the word tree and
    ``run`` evaluates them by exact inverses instead of physical forward
    durations."""

    physical = False
    net = ()

    def duration(self, k: int, s: float):
        raise TypeError("the exact inverter has no forward duration; run the signed word tree")


@dataclass
class CompileResult:
    sequence: object  # ControlSequence (physical) or signed word tree (oracle)
    n: int
    distance: float
    fidelity: float
    plans: dict

    @property
    def physical(self) -> bool:
        return isinstance(self.sequence, ControlSequence)


def realize(expr, t: float, n: int, inverter) -> tuple:
    """(sequence, plans) of the order-n word for e^{G(expr) t}.

    The sequence is a ControlSequence when the word reverses no segment or a
    physical ``inverter`` realized every reversed segment (``plans`` holds
    its certificates), and under the ExactInverter the signed word tree that
    ``build_word`` made.
    """
    word = build_word(expr, t, n)
    provenance = f"{expr} @ t={t}, n={n}"
    if not any(s < 0 for _, s in leaves(word)):
        return ControlSequence(word, provenance), {}
    if not inverter.physical:
        return word, {}
    word, plans = realize_word(word, inverter)
    return ControlSequence(word, provenance), plans


def run(sequence, states: np.ndarray, table: EvolutionTable) -> np.ndarray:
    """The sequence applied to one state or a dim x m block of column states:
    a ControlSequence forward only, a signed word tree by exact inverses."""
    if isinstance(sequence, ControlSequence):
        return evolve(sequence, states, table)
    return evolve_signed(sequence, states, table)


def _oracle(expr, t: float, table: EvolutionTable, states) -> list:
    """[e^{G(expr) t} v for v in states], for either sign of t."""
    return expm_apply(expr_matrix(expr, table), t, states)


def compile_sequence(expr, t: float, epsilon: float, n_budget: int, inverter,
                     psi0: np.ndarray, table: EvolutionTable) -> CompileResult:
    """Compile e^{G(expr) t} psi0 to accuracy epsilon by doubling n.

    Each round realizes the order-n word (``realize``) and runs it on psi0
    and, for a finite-net inverter, on every state of its net.  Verification
    is held out: the returned object met epsilon on all of them.  A search
    that ends unmet reports its best round: CompileBudgetError past the
    budget, CompileDriftError on a norm drift after the first round.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n_budget < 1:
        raise ValueError("n_budget must be >= 1")
    psi0 = np.asarray(psi0, dtype=complex)
    states = [psi0] + [np.asarray(v, dtype=complex) for v in inverter.net]
    targets = _oracle(expr, t, table, states)
    block = np.column_stack(states)  # each round evaluates its word once

    best_n, best_distance = None, math.inf
    n = 1
    while n <= n_budget:
        seq, plans = realize(expr, t, n, inverter)
        try:
            outs = run(seq, block, table).T
        except NormDriftError as exc:
            if best_n is None:
                raise
            raise CompileDriftError(exc, n, best_n, best_distance) from exc
        distance = max(state_error(o, tgt) for o, tgt in zip(outs, targets))
        if distance < best_distance:
            best_n, best_distance = n, distance
        if distance <= epsilon:
            return CompileResult(seq, n, distance, fidelity(outs[0], targets[0]), plans)
        n *= 2
    raise CompileBudgetError(best_n, best_distance, epsilon)


def verify(seq, psi0: np.ndarray, expr, table: EvolutionTable, t: float):
    """Distance and fidelity of the executed ControlSequence or signed word
    tree against the oracle state e^{G(expr) t} psi0."""
    psi0 = np.asarray(psi0, dtype=complex)
    target_state = _oracle(expr, t, table, [psi0])[0]
    out = run(seq, psi0, table)
    distance = state_error(out, target_state)
    fid = fidelity(out, target_state)
    gram = 2.0 - 2.0 * float(np.real(np.vdot(out, target_state)))
    if abs(distance * distance - gram) > 1e-9:
        raise AssertionError("distance/overlap identity violated")
    return distance, fid


# -- reachability reports -------------------------------------------------------


@dataclass
class TargetRecord:
    label: str
    status: str
    n: int | None
    distance: float | None
    fidelity: float | None
    segments: int | None
    error: str | None
    plans: list
    sequence: dict | None

    def to_dict(self) -> dict:
        # shallow: the embedded plan and sequence dicts stay shared, so the
        # JSON writer encodes each repeated segment once
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class ReachabilityReport:
    records: list
    epsilon: float

    @property
    def all_ok(self) -> bool:
        return all(r.status == "ok" for r in self.records)

    def to_dict(self) -> dict:
        return {"epsilon": self.epsilon, "all_ok": self.all_ok,
                "targets": [r.to_dict() for r in self.records]}

    def summary_rows(self):
        return [["label", "status", "n", "segments", "distance", "fidelity"]] + [
            [r.label, r.status, r.n, r.segments, r.distance, r.fidelity] for r in self.records]


def reachability_report(table: EvolutionTable, psi0: np.ndarray, targets: Sequence,
                        epsilon: float, n_budget: int, inverter,
                        jobs: int = 1) -> ReachabilityReport:
    """Compile every (expr, t) target and record the achieved accuracy.

    Per-target failures (budget, inverter, norm drift) are captured in the
    report rather than raised.  Two errors that the configuration must change
    escape and abort the report: a GridReachError (an inverter horizon) and a
    SequenceSizeError (a compiled word too long to write out).
    """
    targets = list(targets)

    def record(item):
        expr, t = item
        label = f"{expr} @ t={t}"
        try:
            res = compile_sequence(expr, t, epsilon, n_budget, inverter, psi0, table)
        except GridReachError:
            raise
        except (CompileBudgetError, CompileDriftError) as exc:
            return TargetRecord(label, "failed", exc.best_n, exc.best_distance, None, None,
                                str(exc), [], None)
        except (RuntimeError, ValueError) as exc:
            return TargetRecord(label, "failed", None, None, None, None, str(exc), [], None)
        return TargetRecord(label, "ok", res.n, res.distance, res.fidelity, len(res.sequence),
                            None, [p.to_dict() for p in res.plans.values()],
                            res.sequence.to_dict() if res.physical else None)

    if jobs > 1 and len(targets) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(record, targets))
    else:
        records = [record(item) for item in targets]
    return ReachabilityReport(records, epsilon)
