"""Recurrence machinery: spectral tail cuts, almost-periodic time search, and
forward-time inversion of discrete-spectrum evolutions.

For a hermitian generator with eigenvalues E_n and a state with eigenbasis
overlaps c_n, the return distance after time T is

    || psi - e^{-i H T} psi || = sqrt( 2 sum_n |c_n|^2 (1 - cos(E_n T)) ).

Splitting the sum at a tail index N with sum_{n>N} |c_n|^2 < delta^2/8 and
finding T with sum_{n<=N} (1 - cos(E_n T)) < delta^2/4 certifies a distance
below delta; the time depends only on the spectrum, never on the state.  The
tail index comes from the worst state of a finite net (pointwise: a net of
one state), or state-independently from an energy bound M via the smallest N
with E_{N+1} >= 8 M / delta^2.  An inverter built on these certificates turns
any reversed segment e^{-H s} into the forward surrogate e^{H (T - s)}.

Search caveat: existence of recurrence times is guaranteed for discrete
spectra, but no horizon bound exists; for spectra without commensurate
structure the required times explode beyond any numerical reach, and the grid
search fails loudly with diagnostics instead.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

POINTWISE = "pointwise"
FINITE_NET = "finite_net"
ENERGY_BOUND = "energy_bound"

OVERLAP_NORM_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-9
HERMITICITY_TOL = 1e-8


class RecurrenceSearchError(RuntimeError):
    """No recurrence time found within the horizon; carries diagnostics.

    ``best_objective`` is the direct cosine sum at ``best_time``.  ``grid_points``
    counts the scanned grid times, ``refine_cut`` is the grid level below which
    every true sub-threshold minimum must show, and ``frequencies`` is the
    number of distinct |E_n| in the searched head.
    """

    def __init__(self, t_max, best_time, best_objective, threshold, *,
                 grid_step, grid_points, refine_cut, frequencies):
        self.t_max = t_max
        self.best_time = best_time
        self.best_objective = best_objective
        self.threshold = threshold
        self.grid_step = grid_step
        self.grid_points = grid_points
        self.refine_cut = refine_cut
        self.frequencies = frequencies
        super().__init__(
            f"no recurrence time within horizon {t_max:g}: best objective "
            f"{best_objective:.3e} at T={best_time:.6g} (needed < {threshold:.3e}); "
            f"scanned {grid_points} grid points at step {grid_step:.3e} with refine "
            f"cut {refine_cut:.3e}; {frequencies} distinct |E_n|"
        )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in (
            "t_max", "best_time", "best_objective", "threshold", "grid_step", "grid_points",
            "refine_cut", "frequencies")}


class SpectrumExhaustedError(ValueError):
    """The available spectrum ends below the energy-bound tail threshold."""


class GridReachError(ValueError):
    """The recurrence scan cannot reach its horizon: the horizon is below
    tau_min, it or the grid step is not finite, the grid step is too coarse
    to bound the objective between grid points, the grid has more points
    than one search scans, or a chunk of the grid no longer advances the
    scanned time."""


@dataclass(frozen=True)
class SpectralData:
    """Ascending eigen-decomposition of a hermitian generator.

    ``eigenvalues`` are kept as diagonalized; evolution phases use them.
    ``energies`` are the same values shifted by ``shift`` = max(0, -E_min) so
    that E_0 >= 0, which amounts to a global phase of the evolution;
    recurrence plans use them.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    energies: np.ndarray = field(init=False, repr=False)
    shift: float = field(init=False)

    def __post_init__(self):
        E = np.asarray(self.eigenvalues, dtype=float)
        V = np.asarray(self.vectors, dtype=complex)
        if np.any(np.diff(E) < -1e-12):
            raise ValueError("eigenvalues must be non-decreasing")
        gram = V.conj().T @ V
        defect = np.max(np.abs(gram - np.eye(V.shape[1])))
        if not defect <= ORTHONORMALITY_TOL:  # a NaN defect fails too
            raise ValueError(f"eigenvectors not orthonormal: defect {defect:.3e}")
        shift = max(0.0, -float(E[0]))
        object.__setattr__(self, "eigenvalues", E)
        object.__setattr__(self, "vectors", V)
        object.__setattr__(self, "energies", E + shift)
        object.__setattr__(self, "shift", shift)

    def overlaps(self, psi: np.ndarray) -> np.ndarray:
        """Eigenbasis coefficients c_n of a normalized state."""
        c = self.vectors.conj().T @ np.asarray(psi, dtype=complex)
        total = float(np.sum(np.abs(c) ** 2))
        if abs(total - 1.0) > OVERLAP_NORM_TOL:
            raise ValueError(f"state not normalized: sum |c_n|^2 = {total}")
        return c


def spectral(H: np.ndarray) -> SpectralData:
    """Eigen-decompose a dense hermitian matrix.

    The one diagonalization of a generator: ``EvolutionTable`` evolves with
    it and ``RecurrenceInverter`` certifies recurrences on it.
    """
    M = np.asarray(H)
    defect = float(np.max(np.abs(M - M.conj().T)))
    if not defect <= HERMITICITY_TOL:  # a NaN entry fails too
        raise ValueError(f"matrix is not hermitian: defect {defect:.3e}")
    E, V = np.linalg.eigh((M + M.conj().T) / 2.0)
    return SpectralData(E, V)


def tail_cut(c: np.ndarray, delta: float) -> int:
    """Smallest N with sum_{n>N} |c_n|^2 < delta^2 / 8."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    w = np.abs(np.asarray(c)) ** 2
    threshold = delta * delta / 8.0
    # suffix[k] = sum_{n >= k} w_n; seek smallest N with suffix[N+1] < threshold
    suffix = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])
    hits = np.nonzero(suffix[1:] < threshold)[0]
    return int(hits[0]) if hits.size else len(w) - 1


def tail_mass(c: np.ndarray, N: int) -> float:
    w = np.abs(np.asarray(c)) ** 2
    return float(np.sum(w[N + 1:]))


def tail_cut_energy(energies: Sequence[float], M: float, delta: float):
    """Smallest N with E_{N+1} >= 8 M / delta^2, plus the tail bound M / E_{N+1}.

    Valid for ascending spectra shifted so E_0 >= 0: every level past N is
    then at least E_{N+1}, and the bound covers every state with energy
    expectation below M, independent of the state.
    """
    if M is None or M <= 0:
        raise ValueError(f"energy bound M must be positive, got {M!r}")
    if delta <= 0:
        raise ValueError("delta must be positive")
    E = np.asarray(energies, dtype=float)
    if E[0] < -1e-12:
        raise ValueError("energy-bound tail cut requires E_0 >= 0")
    if np.any(np.diff(E) < 0):
        raise ValueError("energy-bound tail cut requires ascending levels")
    threshold = 8.0 * M / (delta * delta)
    hits = np.nonzero(E >= threshold)[0]
    if hits.size == 0:
        raise SpectrumExhaustedError(
            f"spectrum ends at E={E[-1]:g} below tail threshold {threshold:g}; "
            "truncation too small for this (M, delta)"
        )
    idx = max(int(hits[0]), 1)  # N = 0 keeps at least the ground level in the head
    if idx == len(E):
        raise SpectrumExhaustedError(
            f"spectrum has the one level E={E[0]:g} and no E_1 to bound the tail "
            "past N = 0; truncation too small for this (M, delta)"
        )
    N = idx - 1
    return N, float(M / E[N + 1])


def tail_cut_finite_net(net_overlaps: Sequence[np.ndarray], delta: float) -> int:
    """N = max over net points of the pointwise tail cut."""
    net_overlaps = list(net_overlaps)
    if not net_overlaps:
        raise ValueError("empty net")
    return max(tail_cut(c, delta) for c in net_overlaps)


# -- almost-periodic time search ---------------------------------------------


def _objective(energies: np.ndarray):
    def f(T):
        return float(np.sum(1.0 - np.cos(energies * T)))
    return f


# Grid points per angle-addition block.  A chunk of m points is ceil(m / _BLOCK)
# rows of _BLOCK columns.  The phase table of a full chunk costs
# (m / _BLOCK + _BLOCK) * N sines and cosines once per search, which is
# smallest at sqrt(2^16) = 256; each chunk then costs 2N sines and cosines,
# 4 ceil(m / _BLOCK) N multiplies for its row phases and one GEMM whose cost
# does not depend on the block (notes/decisions.md).
_BLOCK = 256
# Grid points per chunk of the scan, and per window of ``trace``: the scan
# records each window's lowest grid point (scan.csv).  Windows partition the
# grid, so the rows are a lower envelope of the search; a fixed stride would
# alias, as 200 points of the default step are two periods of E_max.
_CHUNK = 1 << 16
_TRACE_WINDOW = 1 << 12
# Head levels per slice of the scan product.  OpenBLAS was measured to sum a
# GEMM of inner size above 384 in a thread-count-dependent order, so the
# product is summed over slices of inner size 2 * 192 in a fixed order.
_HEAD_SLICE = 192
# Steps per refine.  A step that is not Newton's halves the bracket, and the
# refine stops at a step below _REFINE_TOL of its bracket, so within 41 halvings.
_REFINE_STEPS = 64
_REFINE_TOL = 2.0 ** -40
# Most grid points one search scans, about 2^24 chunks: a search still
# short of its horizon then is refused (notes/decisions.md, "A grid-point
# budget per search").
_MAX_GRID_POINTS = 1 << 40


def _unit_phases(x: np.ndarray) -> np.ndarray:
    """e^{i x}, one cosine and one sine per entry."""
    z = np.empty(np.shape(x), dtype=complex)
    np.cos(x, out=z.real)
    np.sin(x, out=z.imag)
    return z


class _PhaseTable:
    """The phases that every chunk of at most m grid points at step h shares.

    Per slice of at most _HEAD_SLICE head levels e: the row offsets
    e^{i e a B h} for a = 0..ceil(m/B)-1, and the column factor
    [cos C ; -sin C] with C = e b h for b = 0..B-1, its rows interleaved as
    cos C_n, -sin C_n to match the real view of a complex row.  A search
    builds one, for m = _CHUNK + 1, and shares it with no other search.
    """

    def __init__(self, E: np.ndarray, h: float, m: int):
        self.E, self.h, self.m = E, h, m
        offsets = np.arange(0, m, _BLOCK) * h
        cols = np.arange(min(m, _BLOCK)) * h
        slices = []
        for lo in range(0, len(E), _HEAD_SLICE):
            e = E[lo:lo + _HEAD_SLICE]
            C = np.outer(e, cols)
            columns = np.empty((2 * len(e), len(cols)))
            np.cos(C, out=columns[0::2])
            np.negative(np.sin(C), out=columns[1::2])
            slices.append((e, _unit_phases(np.outer(offsets, e)), columns))
        self.slices = tuple(slices)


def _grid_objective(table: _PhaseTable, start: float, m: int) -> np.ndarray:
    """sum_n (1 - cos(E_n t_j)) at t_j = j h + start for j = 0..m-1, m at most
    ``table.m``, with h and E from ``table``.

    With j = a B + b this is N - Re(e^{i E aBh} e^{i E start} . e^{i E b h}):
    each of the first ceil(m / B) row offsets of the table is turned by
    e^{i E start} (2N sines and cosines), and the rows' real view
    [cos A_n, sin A_n, ...] times the column factor is one product of inner
    size 2N per slice of at most _HEAD_SLICE levels, the slices summed in
    order.  Each row phase takes one rotation of a directly formed offset, so
    rounding does not build up along the chunk.  The product takes at least
    two rows: numpy sends a one-row product to gemv, which sums in another
    order than the GEMM of a longer chunk.
    """
    rows = max(2, -(-m // _BLOCK))
    S = None
    for e, offsets, columns in table.slices:
        turned = np.multiply(offsets[:rows], _unit_phases(e * start))
        P = turned.view(float) @ columns
        S = P if S is None else np.add(S, P, out=S)
    S = S.ravel()[:m]
    return np.subtract(len(table.E), S, out=S)


def _window_minima(vals: np.ndarray, last: bool) -> np.ndarray:
    """Indices of the lowest point, the first on ties, of each window of
    _TRACE_WINDOW grid points of a chunk.  The chunk's last point is the next
    chunk's j = 0, so it counts only in the ``last`` chunk."""
    own = vals if last else vals[:-1]
    full = own.size - own.size % _TRACE_WINDOW
    j = np.arange(0, full, _TRACE_WINDOW)
    j += own[:full].reshape(-1, _TRACE_WINDOW).argmin(axis=1)
    if full < own.size:
        j = np.append(j, full + int(own[full:].argmin()))
    return j


def _refine(E: np.ndarray, t_j: float, lo: float, hi: float):
    """(T, f(T)) at the minimum of f(T) = sum_n (1 - cos(E_n T)) on [lo, hi]
    that f descends to from the grid point t_j in [lo, hi].

    In local coordinates u = T - t_j, with theta_n = E_n t_j mod 2 pi reduced
    once, f'(u) = sum E_n sin(theta_n + E_n u) and f''(u) = sum
    E_n^2 cos(theta_n + E_n u), so the resolution in u does not shrink as t_j
    grows.  The minimum lies on the side f' points down to: a safeguarded
    Newton iteration on f' runs there in a bracket where f' changes sign,
    bisecting where a Newton step leaves the bracket or f'' <= 0, until a step
    is below _REFINE_TOL of the bracket; with no sign change the minimum is the
    bracket's end.  f(T) is the direct sum at the returned T.
    """
    theta = np.mod(E * t_j, 2.0 * math.pi)
    E2 = E * E

    def slopes(u):
        phase = theta + E * u
        return float(np.sum(E * np.sin(phase))), float(np.sum(E2 * np.cos(phase)))

    g, d = slopes(0.0)
    u = 0.0
    if g != 0.0:
        far = (lo if g > 0.0 else hi) - t_j
        if slopes(far)[0] * g >= 0.0:
            u = far  # f' keeps its sign: f descends to the end of the bracket
        else:
            a, b = sorted((far, 0.0))  # f' < 0 at a and > 0 at b
            tol = _REFINE_TOL * (hi - lo)
            for _ in range(_REFINE_STEPS):
                v = u - g / d if d > 0.0 else math.nan
                if not a < v < b:
                    v = 0.5 * (a + b)
                if abs(v - u) <= tol:
                    u = v
                    break
                u = v
                g, d = slopes(u)
                if g < 0.0:
                    a = u
                elif g > 0.0:
                    b = u
                else:
                    break
    T = min(max(t_j + u, lo), hi)
    return T, _objective(E)(T)


def _distinct_frequencies(E: np.ndarray) -> int:
    return 1 + int(np.count_nonzero(np.diff(np.unique(np.abs(E))) > 1e-12))


@dataclass
class RecurrenceTime:
    time: float
    objective: float
    searched_to: float
    grid_step: float


def find_recurrence_time(energies: Sequence[float], delta: float, tau_min: float = 0.0,
                         t_max: float | None = None, grid_step: float | None = None,
                         trace=None) -> RecurrenceTime:
    """Earliest grid time T in [tau_min, t_max] with sum(1 - cos(E_n T)) < delta^2/4.

    The grid is t_i = tau_min + i h at the fixed step h = grid_step, with its
    last point, the first at or past t_max, moved to t_max; every time in
    [tau_min, t_max] lies within h/2 of a grid point.  It is scanned in chunks
    of _CHUNK steps by angle addition (``_grid_objective``) from one phase
    table per search.  Its local minima below the refine cut are polished by
    ``_refine`` inside [tau_min, t_max], so exact recurrences between grid
    points are still found, and every returned time and objective comes from
    the direct sum.  Depends only on the eigenvalue list, never on a state.
    Raises RecurrenceSearchError with the best objective seen when the horizon
    is exhausted, and GridReachError when the scan cannot get there, or has
    scanned _MAX_GRID_POINTS points short of it.

    ``trace`` is None or anything with an ``extend``, such as a list or the
    CLI's streaming scan.csv writer: each chunk extends it with the (T,
    objective) pair of every window's lowest grid point, in time order.
    """
    E = np.asarray(energies, dtype=float)
    if E.size == 0:
        raise ValueError("empty eigenvalue list")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if tau_min < 0:
        raise ValueError("tau_min must be >= 0")
    threshold = delta * delta / 4.0
    f = _objective(E)

    e_max = float(np.max(np.abs(E)))
    if e_max == 0.0:
        return RecurrenceTime(tau_min, 0.0, tau_min, 0.0)
    if grid_step is None:
        grid_step = 2.0 * math.pi / (100.0 * e_max)
    if t_max is None:
        gaps = np.diff(np.unique(E))
        gap = float(np.min(gaps[gaps > 1e-12])) if np.any(gaps > 1e-12) else e_max
        t_max = 1e6 / gap
    if t_max < tau_min:
        raise GridReachError(f"t_max {t_max:g} is below tau_min {tau_min:g}")
    if not (math.isfinite(t_max) and math.isfinite(grid_step)):
        raise GridReachError(f"a grid of step {grid_step:g} cannot scan to t_max {t_max:g}")

    # any true sub-threshold minimum shows up on the grid below this level:
    # the curvature term covers the distance to the nearest grid point, the
    # rounding term the float error of the grid phases and products
    rounding = 8.0 * len(E) * np.finfo(float).eps * (e_max * (t_max + grid_step) + 1.0)
    try:
        refine_cut = threshold + 1.5 * float(np.sum(E * E)) * (grid_step / 2.0) ** 2 + rounding
    except OverflowError:
        raise GridReachError(f"a grid of step {grid_step:g} is too coarse: the curvature "
                             "bound between its points overflows") from None

    f_min = f(tau_min)
    if f_min < threshold:
        return RecurrenceTime(tau_min, f_min, tau_min, grid_step)

    h = grid_step

    def at(i):  # the grid time of index i, before the last point moves to t_max
        return i * h + tau_min

    table = _PhaseTable(E, h, _CHUNK + 1)
    best_t, best_f = tau_min, f_min
    first, start = 0, tau_min  # the chunk's j = 0: its grid index and time
    prev_last = math.inf  # the previous chunk's last grid value, left of this chunk's j = 0
    n_point = 0
    while start < t_max:
        if n_point >= _MAX_GRID_POINTS:
            raise GridReachError(f"a grid of step {grid_step:g} scanned {n_point} points "
                                 f"from T={tau_min:g} to T={start:g}, the most one search "
                                 f"scans, short of t_max {t_max:g}")
        stop = at(first + _CHUNK)
        if not stop > start:  # the chunk is below the float spacing at start
            raise GridReachError(f"a grid of step {grid_step:g} cannot advance past "
                                 f"T={start:g} toward t_max {t_max:g}")
        last = stop >= t_max
        j = _CHUNK
        if last:  # end at the first grid point at or past t_max
            j = min(_CHUNK, math.ceil((t_max - start) / h))
            while j > 1 and at(first + j - 1) >= t_max:
                j -= 1
            while at(first + j) < t_max:
                j += 1
        m = j + 1
        vals = _grid_objective(table, start, m)
        if last and at(first + j) > t_max:
            vals[-1] = f(t_max)  # the last point, moved to t_max
        if trace is not None:
            w = _window_minima(vals, last)
            trace.extend(zip(np.minimum(at(first + w), t_max).tolist(), vals[w].tolist()))
        i_best = int(np.argmin(vals))
        if vals[i_best] < best_f:
            best_t = min(at(first + i_best), t_max)
            best_f = float(vals[i_best])
        # refine the local minima below the cut; j = 0 compares with the previous
        # chunk's last point (+inf before the first), j = m - 1 waits for the
        # next chunk, and in the last chunk compares with itself
        if vals[i_best] < refine_cut:
            low = np.flatnonzero((vals if last else vals[:-1]) < refine_cut)
            left = vals[low - 1]
            if low.size and low[0] == 0:
                left[0] = prev_last
            low = low[(vals[low] <= left) & (vals[low] <= vals[np.minimum(low + 1, m - 1)])]
            for t_j in np.minimum(at(first + low), t_max).tolist():
                t_ref, f_ref = _refine(E, t_j, max(t_j - h, tau_min), min(t_j + h, t_max))
                if f_ref < best_f:
                    best_t, best_f = t_ref, f_ref
                if f_ref < threshold:
                    return RecurrenceTime(t_ref, f_ref, t_j, grid_step)
        prev_last = float(vals[-1])
        n_point += m
        first, start = first + _CHUNK, stop
    raise RecurrenceSearchError(
        t_max, best_t, f(best_t), threshold, grid_step=grid_step, grid_points=n_point,
        refine_cut=refine_cut, frequencies=_distinct_frequencies(E))


# -- certified plans and inversion -------------------------------------------


def _spectrum_hash(energies: np.ndarray) -> str:
    payload = np.round(np.asarray(energies, dtype=float), 12).tobytes()
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class RecurrencePlan:
    """Certificate that e^{H T} returns the guaranteed state class within delta.

    ``achieved_sum`` is the head objective at the chosen time and ``tail_mass``
    the spectral weight beyond the cut (exact for pointwise/net modes, the
    bound M/E_{N+1} in energy-bound mode, where it may equal delta^2/8).
    Validity is checked on construction, including the decomposition
    2*achieved_sum + 4*tail_mass < delta^2.
    """

    delta: float
    N: int
    time: float
    achieved_sum: float
    tail_mass: float
    mode: str
    energy_bound: float | None = None
    shift: float = 0.0
    spectrum_hash: str = ""

    def __post_init__(self):
        if self.mode not in (POINTWISE, FINITE_NET, ENERGY_BOUND):
            raise ValueError(f"unknown mode {self.mode!r}")
        d2 = self.delta * self.delta
        if not self.achieved_sum < d2 / 4.0:
            raise ValueError(
                f"head objective {self.achieved_sum:.3e} fails the delta^2/4 bound"
            )
        tail_ok = self.tail_mass <= d2 / 8.0 if self.mode == ENERGY_BOUND \
            else self.tail_mass < d2 / 8.0
        if not tail_ok:
            raise ValueError(f"tail mass {self.tail_mass:.3e} fails the delta^2/8 bound")
        if not 2.0 * self.achieved_sum + 4.0 * self.tail_mass < d2:
            raise ValueError("delta decomposition 2*head + 4*tail < delta^2 violated")

    @property
    def guaranteed_distance(self) -> float:
        return math.sqrt(2.0 * self.achieved_sum + 4.0 * self.tail_mass)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class InvertResult:
    t_star: float
    plan: RecurrencePlan


def plan_recurrence(spectrum, delta: float, mode: str, cover, *,
                    tau_min: float = 0.0, t_max: float | None = None,
                    grid_step: float | None = None, trace=None) -> RecurrencePlan:
    """Build a certified recurrence plan for the states ``cover`` names.

    ``spectrum`` is the generator's SpectralData, or in energy_bound mode
    also its plain ascending levels.  ``cover`` is the one state (pointwise),
    the net's states (finite_net) or the energy bound M (energy_bound); a
    pointwise plan is the finite-net plan of a one-state net.  ``trace``,
    anything with an ``extend``, receives the scan's window minima as in
    ``find_recurrence_time``.
    """
    sd = spectrum if isinstance(spectrum, SpectralData) else None
    E = sd.energies if sd is not None else np.asarray(spectrum, dtype=float)
    if mode == ENERGY_BOUND:
        N, mass = tail_cut_energy(E, cover, delta)
        bound = float(cover)
    elif mode in (POINTWISE, FINITE_NET):
        if sd is None:
            raise ValueError(f"{mode} mode needs the spectral data, not plain levels")
        overlaps = [sd.overlaps(v) for v in ([cover] if mode == POINTWISE else cover)]
        N = tail_cut_finite_net(overlaps, delta)
        mass = max(tail_mass(c, N) for c in overlaps)
        bound = None
    else:
        raise ValueError(f"unknown mode {mode!r}")

    found = find_recurrence_time(E[: N + 1], delta, tau_min=tau_min, t_max=t_max,
                                 grid_step=grid_step, trace=trace)
    return RecurrencePlan(
        delta=delta, N=N, time=found.time, achieved_sum=found.objective,
        tail_mass=mass, mode=mode, energy_bound=bound,
        shift=sd.shift if sd is not None else 0.0, spectrum_hash=_spectrum_hash(E),
    )


def invert(sd: SpectralData, s: float, delta: float, mode: str, cover, *,
           t_max: float | None = None, grid_step: float | None = None) -> InvertResult:
    """Forward surrogate for e^{-H s}: a duration t* >= 0 with e^{H t*} within
    delta of e^{-H s} on the states ``cover`` names (``plan_recurrence``),
    plus the certificate."""
    if s < 0:
        raise ValueError("segment duration must be >= 0")
    plan = plan_recurrence(sd, delta, mode, cover, tau_min=s, t_max=t_max,
                           grid_step=grid_step)
    t_star = plan.time - s
    if t_star < 0:
        raise AssertionError("recurrence search returned a time below tau_min")
    return InvertResult(t_star, plan)


class RecurrenceInverter:
    """Duration-producing inversion strategy for the product-formula words.

    Reads the spectral data of generator k from ``spectra[k]`` when k is
    first reversed; an ``EvolutionTable.spectra`` store decomposes it then,
    once for evolution and inversion alike.  ``cover`` is the chosen mode's
    state, net, or per-generator energy bounds ``{k: M}``; ``net`` lists the
    states a compiled word is verified on besides its initial state.  Results
    are cached per (generator, duration).
    """

    physical = True

    def __init__(self, spectra, delta: float, mode: str, cover, *, t_max: float | None = None):
        self.spectra = spectra
        self.delta = float(delta)
        self.mode = mode
        self.cover = cover
        self.net = tuple(cover) if mode == FINITE_NET else ()
        self.t_max = t_max
        self._cache: dict = {}

    def plans(self):
        return {key: res.plan for key, res in self._cache.items()}

    def duration(self, k: int, s: float):
        key = (int(k), float(s))
        # threads sharing an inverter may both fill one key; invert is
        # deterministic, so either result is the same certificate
        if key not in self._cache:
            cover = self.cover.get(key[0]) if self.mode == ENERGY_BOUND else self.cover
            self._cache[key] = invert(self.spectra[key[0]], key[1], self.delta, self.mode,
                                      cover, t_max=self.t_max)
        res = self._cache[key]
        return res.t_star, res.plan


def polynomial_levels(count: int, coeffs: Sequence[float]) -> np.ndarray:
    """Spectrum ladder E_n = sum_k coeffs[k] * n^k for n = 0..count-1."""
    n = np.arange(count, dtype=float)
    E = np.zeros(count)
    for k, c in enumerate(coeffs):
        E += c * n ** k
    return E
