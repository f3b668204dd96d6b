"""Unitary time evolution under switched generators and the two product formulas.

A control sequence is the only object the physics can execute: an ordered
list of (generator index, duration >= 0) pairs, applied in time order.  The
product formulas are

    (e^{H_k t/n} e^{H_l t/n})^n           -> e^{(H_k + H_l) t},
    (e^{-H_k s} e^{-H_l s} e^{H_k s} e^{H_l s})^{n^2} -> e^{[H_k, H_l] t^2},

with s = t/n.  The commutator word needs reversed segments; those are either
evaluated exactly (oracle-only signed evolution, negative durations never
leave this module) or replaced by forward recurrence surrogates supplied by
an inverter strategy.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

from .fock import TruncatedRep

SKEW_TOL = 1e-8
UNITARY_TOL = 1e-8
NORM_TOL = 1e-10

# A generator is evaluated spectrally (one dense eigh, then V e^{-iwt} V^dag
# per segment) when a word applies it at least dim // SPECTRAL_DIVISOR times,
# and otherwise by the action e^{Gt}v of expm_multiply on its sparse matrix
# (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011).  Measured break-even, in
# segments of one action against one eigh, for a 3-mode chain generator and
# segments of duration 0.3 (two runs, 2-vCPU Xeon, OpenBLAS): dim 64 -> 0.5,
# 125 -> 2, 216 -> 4-5, 512 -> 20-40, 729 -> 50-75, 1000 -> 220-270; about
# twice that at duration 0.15.  dim // 64 stays at or below it from dim 125
# up, and below dim 128 every generator takes the spectral path.
SPECTRAL_DIVISOR = 64

# expm_multiply switches to the randomized onenormest, which draws from the
# global np.random state, once the trace-shifted 1-norm of its argument
# exceeds ~63 (condition 3.13 of Al-Mohy & Higham with m_max = 55, ell = 2,
# one vector).  Actions are split into substeps of at most this 1-norm, so
# they always take the exact-norm branch and never depend on the RNG state.
ACTION_NORM_STEP = 32.0


@dataclass(frozen=True)
class ControlSequence:
    """Physical switching schedule; every duration is non-negative."""

    segments: tuple
    provenance: str = ""

    def __post_init__(self):
        segs = []
        for k, t in self.segments:
            k = int(k)
            t = float(t)
            if k < 0:
                raise ValueError(f"generator index {k} is negative")
            if t < 0:
                raise ValueError(f"negative duration {t} in control sequence")
            segs.append((k, t))
        object.__setattr__(self, "segments", tuple(segs))

    def __len__(self):
        return len(self.segments)

    @property
    def total_time(self) -> float:
        return sum(t for _, t in self.segments)

    def to_dict(self) -> dict:
        return {
            "segments": [{"k": k, "t": t} for k, t in self.segments],
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ControlSequence":
        segs = tuple((s["k"], s["t"]) for s in data["segments"])
        return cls(segs, data.get("provenance", ""))


def _as_matrix(H) -> np.ndarray:
    return H.matrix if isinstance(H, TruncatedRep) else np.asarray(H)


def _skew_defect(M: np.ndarray) -> float:
    """max |M + M^dag|, evaluated over the nonzeros of M only.

    Entries where both M_ij and M_ji vanish contribute 0, and
    |M_ji + conj(M_ij)| = |M_ij + conj(M_ji)|, so this is the dense value.
    """
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"generator must be a square matrix, got shape {M.shape}")
    i, j = np.divmod(np.flatnonzero(M != 0), M.shape[0])
    return float(np.max(np.abs(M[i, j] + M[j, i].conj()), initial=0.0))


def _check_skew(M: np.ndarray):
    defect = _skew_defect(M)
    if defect > SKEW_TOL:
        raise ValueError(f"matrix is not skew-hermitian: defect {defect:.3e}")


def uses_spectrum(applications: int, dim: int) -> bool:
    """The spectral/action rule for a generator applied this often in a word."""
    return applications >= dim // SPECTRAL_DIVISOR


class _Action:
    """e^{G t} psi by expm_multiply on a sparse copy of the generator."""

    def __init__(self, M: np.ndarray):
        self.G = scipy.sparse.csr_array(M)
        shifted = self.G - (self.G.trace() / M.shape[0]) * scipy.sparse.eye_array(
            M.shape[0], format="csr")
        self.norm = float(abs(shifted).sum(axis=0).max())

    def __call__(self, t: float, psi: np.ndarray) -> np.ndarray:
        steps = max(1, math.ceil(abs(t) * self.norm / ACTION_NORM_STEP))
        out = psi
        for _ in range(steps):
            out = expm_multiply(self.G * (t / steps), out)
        drift = abs(np.linalg.norm(out) - np.linalg.norm(psi))
        if drift > NORM_TOL:
            raise AssertionError(f"action norm drift {drift:.3e}")
        return out


class EvolutionTable:
    """Spectral factorizations and sparse copies of a generator family,
    reused across segments.

    Each generator H is skew-hermitian.  On the spectral path iH is
    diagonalized once and e^{H t} = V e^{-i w t} V^dag is assembled per
    duration; on the action path e^{H t} psi is computed from a CSR copy of
    H.  ``uses_spectrum`` picks the path per word.  Both caches are filled
    under one lock, so threads sharing a table never diagonalize or convert
    a generator twice.
    """

    def __init__(self, reps: Mapping[int, object]):
        self._eig = {}
        self._actions = {}
        self._mats = {}
        self._lock = threading.Lock()
        dim = None
        for k, H in reps.items():
            M = _as_matrix(H)
            _check_skew(M)
            if dim is None:
                dim = M.shape[0]
            elif M.shape[0] != dim:
                raise ValueError("all generators must share one dimension")
            self._mats[int(k)] = M
        self.dim = dim

    def indices(self):
        return sorted(self._mats)

    def matrix(self, k: int) -> np.ndarray:
        return self._mats[k]

    def _cached(self, cache: dict, k: int, build):
        value = cache.get(k)
        if value is None:
            if k not in self._mats:
                raise KeyError(f"unresolved generator index {k}")
            with self._lock:
                value = cache.get(k)
                if value is None:
                    value = cache[k] = build(self._mats[k])
        return value

    def _decomp(self, k: int):
        return self._cached(self._eig, k, lambda M: np.linalg.eigh(1j * M))

    def apply(self, k: int, t: float, psi: np.ndarray) -> np.ndarray:
        """Spectral path: e^{H_k t} psi from the cached eigendecomposition."""
        w, V = self._decomp(k)
        return V @ (np.exp(-1j * w * t) * (V.conj().T @ psi))

    def act(self, k: int, t: float, psi: np.ndarray) -> np.ndarray:
        """Action path: e^{H_k t} psi by expm_multiply, norm-checked."""
        return self._cached(self._actions, k, _Action)(t, psi)

    def unitary(self, k: int, t: float) -> np.ndarray:
        w, V = self._decomp(k)
        return (V * np.exp(-1j * w * t)) @ V.conj().T

    def _stepper(self, segments):
        """Per-segment evaluator for this word, by ``uses_spectrum``."""
        if self.dim is None or self.dim // SPECTRAL_DIVISOR <= 1:
            return self.apply  # every applied generator meets the rule
        counts = Counter(k for k, _ in segments)
        spectral = {k for k, n in counts.items() if uses_spectrum(n, self.dim)}
        return lambda k, t, psi: (self.apply if k in spectral else self.act)(k, t, psi)


def _as_table(reps) -> EvolutionTable:
    return reps if isinstance(reps, EvolutionTable) else EvolutionTable(reps)


def expm_skew(H, t: float) -> np.ndarray:
    """Unitary e^{H t} for skew-hermitian H via spectral decomposition."""
    if t < 0:
        raise ValueError("expm_skew is restricted to forward durations")
    M = _as_matrix(H)
    _check_skew(M)
    w, V = np.linalg.eigh(1j * M)
    U = (V * np.exp(-1j * w * t)) @ V.conj().T
    defect = np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0])))
    if defect > UNITARY_TOL:
        raise AssertionError(f"propagator lost unitarity: {defect:.3e}")
    return U


def expm_apply(H, t: float, states: Sequence) -> list:
    """[e^{H t} v for v in states] for a one-off skew-hermitian generator H.

    H is applied once, so ``uses_spectrum`` runs with a count of 1: the
    unitarity-checked ``expm_skew`` below dim 2 * SPECTRAL_DIVISOR, one
    norm-checked expm_multiply action per state above.
    """
    M = _as_matrix(H)
    if uses_spectrum(1, M.shape[0]):
        U = expm_skew(M, t)
        return [U @ np.asarray(v) for v in states]
    if t < 0:
        raise ValueError("expm_apply is restricted to forward durations")
    _check_skew(M)
    action = _Action(M)
    return [action(t, np.asarray(v, dtype=complex)) for v in states]


def _run_word(segments, psi0: np.ndarray, table: EvolutionTable) -> np.ndarray:
    psi = np.asarray(psi0, dtype=complex)
    step = table._stepper(segments)
    for k, t in segments:
        psi = step(k, float(t), psi)
    return psi


def evolve(seq: ControlSequence, psi0: np.ndarray, reps) -> np.ndarray:
    """Apply the sequence in time order (first segment acts first)."""
    psi = _run_word(seq.segments, psi0, _as_table(reps))
    drift = abs(np.linalg.norm(psi) - np.linalg.norm(psi0))
    if drift > NORM_TOL:
        raise AssertionError(f"evolution norm drift {drift:.3e}")
    return psi


def evolve_signed(segments: Sequence, psi0: np.ndarray, reps) -> np.ndarray:
    """Oracle evolution of a signed word; negative durations apply the exact
    (matrix) inverse of the forward propagator.  Unphysical, test/verification
    use only."""
    return _run_word(segments, psi0, _as_table(reps))


def trotter_sequence(k: int, l: int, t: float, n: int) -> ControlSequence:
    """2n alternating forward segments approximating e^{(H_k + H_l) t}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    step = t / n
    segs = [(k, step), (l, step)] * n
    return ControlSequence(tuple(segs), provenance=f"trotter(k={k}, l={l}, t={t}, n={n})")


def commutator_word(k: int, l: int, t: float, n: int):
    """Signed time-ordered word whose limit is e^{[H_k, H_l] t^2}.

    Each of the n^2 repetitions is the group-commutator block
    e^{-H_k s} e^{-H_l s} e^{H_k s} e^{H_l s} with s = t/n, emitted in time
    order (rightmost factor first).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    s = t / n
    block = ((l, s), (k, s), (l, -s), (k, -s))
    return block * (n * n)


def realize_word(word, inverter) -> tuple:
    """Replace reversed segments of a signed word by forward surrogates.

    ``inverter.duration(k, s)`` must return ``(t_star, plan)`` with
    e^{H_k t_star} ~ e^{-H_k s}; plans are collected for certification.
    Returns ``(segments, plans)`` with all durations >= 0.
    """
    segments = []
    plans = {}
    for k, t in word:
        if t >= 0:
            segments.append((k, t))
            continue
        t_star, plan = inverter.duration(k, -t)
        if t_star < 0:
            raise ValueError("inverter returned a negative duration")
        segments.append((k, t_star))
        plans.setdefault((k, -t), plan)
    return tuple(segments), plans


def commutator_sequence(k: int, l: int, t: float, n: int, inverter) -> ControlSequence:
    """Forward-time realization of the group-commutator word (4n^2 segments).

    Reversed segments are replaced by recurrence surrogates from ``inverter``;
    an inverter failure (no recurrence time within its horizon) propagates.
    """
    word = commutator_word(k, l, t, n)
    segments, plans = realize_word(word, inverter)
    prov = f"commutator(k={k}, l={l}, t={t}, n={n}; {len(plans)} inversions)"
    seq = ControlSequence(segments, provenance=prov)
    if len(seq) != 4 * n * n:
        raise AssertionError("commutator word must have 4 n^2 segments")
    return seq


def state_error(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(np.asarray(a), np.asarray(b))))


def trotter_errors(k: int, l: int, t: float, ns: Sequence[int], psi0: np.ndarray,
                   reps) -> list:
    """(n, error) table against the dense e^{(H_k+H_l)t} oracle."""
    table = _as_table(reps)
    target = expm_apply(table.matrix(k) + table.matrix(l), t, [psi0])[0]
    rows = []
    for n in ns:
        out = evolve(trotter_sequence(k, l, t, n), psi0, table)
        rows.append((int(n), state_error(out, target)))
    return rows
