import json
import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurq import cli, fock, propagate as pr, recurrence as rc, synth
from recurq.fock import TruncationSpec
from recurq.weyl import as_hermitian, p, q

from oracles import (direct_grid_scan, direct_grid_values, fixed_step_scan, loop_tail_cut,
                     recurrence_distance, two_product_grid_objective)


def _oscillator(spec):
    return fock.represent(as_hermitian((p(0) * p(0) + q(0) * q(0)) * 0.5), spec).toarray()


@pytest.fixture(scope="module")
def harmonic():
    spec = TruncationSpec((32,), buffer=8)
    return spec, rc.spectral(_oscillator(spec))


# -- spectral -------------------------------------------------------------------

def test_spectral_number_operator():
    sd = rc.spectral(np.diag(np.arange(8.0)))
    assert np.allclose(sd.energies, np.arange(8.0))
    assert np.allclose(np.abs(sd.vectors), np.eye(8))
    assert sd.shift == 0.0


def test_spectral_harmonic_interior(harmonic):
    spec, sd = harmonic
    weight_top = np.abs(sd.vectors[-1, :]) ** 2
    interior = sd.energies[weight_top < 0.5]
    assert np.max(np.abs(np.sort(interior)[:25] - (np.arange(25) + 0.5))) < 1e-8


def test_spectral_rejects_non_hermitian():
    with pytest.raises(ValueError):
        rc.spectral(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_rejects_a_nan_entry():
    # a NaN defect compares False with the tolerance; it fails the check
    M = np.eye(3, dtype=complex)
    M[0, 1] = M[1, 0] = np.nan
    with pytest.raises(ValueError, match="not hermitian: defect nan"):
        rc.spectral(M)


def test_spectral_data_rejects_nan_eigenvectors():
    # a NaN orthonormality defect compares False with the tolerance; it fails
    V = np.eye(3, dtype=complex)
    V[1, 2] = np.nan
    with pytest.raises(ValueError, match="not orthonormal: defect nan"):
        rc.SpectralData(np.array([0.0, 1.0, 2.0]), V)


def test_spectral_shift_re_references_negative_spectra(rng):
    # both spectra bottom out below zero, so the recorded shift re-references
    # them identically and the (projective) return distance agrees
    base = np.diag(np.linspace(-3.0, 4.0, 12))
    sd1 = rc.spectral(base)
    sd2 = rc.spectral(base - 2.0 * np.eye(12))
    assert sd1.shift == 3.0 and sd2.shift == 5.0
    psi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    psi /= np.linalg.norm(psi)
    c1, c2 = sd1.overlaps(psi), sd2.overlaps(psi)
    T = 1.37
    d1 = recurrence_distance(c1, sd1.energies, T)
    d2 = recurrence_distance(c2, sd2.energies, T)
    assert abs(d1 - d2) < 1e-10


def test_recurrence_distance_matches_direct_evolution(harmonic, rng):
    spec, sd = harmonic
    psi = fock.random_interior_state(spec, rng)
    c = sd.overlaps(psi)
    T = 2.37
    # direct evolution of the shift-referenced hamiltonian
    evolved = sd.vectors @ (np.exp(-1j * sd.energies * T) * c)
    direct = np.linalg.norm(psi - evolved)
    assert abs(recurrence_distance(c, sd.energies, T) - direct) < 1e-9


# -- recurrence distance ----------------------------------------------------------

def test_distance_zero_at_t0(harmonic, rng):
    spec, sd = harmonic
    c = sd.overlaps(fock.random_interior_state(spec, rng))
    assert recurrence_distance(c, sd.energies, 0.0) == 0.0


def test_distance_harmonic_period(harmonic, rng):
    spec, sd = harmonic
    c = sd.overlaps(fock.random_interior_state(spec, rng))
    assert recurrence_distance(c, sd.energies, 4 * math.pi) < 1e-9
    assert abs(recurrence_distance(c, sd.energies, 2 * math.pi) - 2.0) < 1e-9


def test_distance_length_mismatch():
    with pytest.raises(ValueError):
        recurrence_distance(np.ones(3), np.ones(4), 1.0)


# -- tail cuts ---------------------------------------------------------------------

def test_tail_cut_point_mass():
    assert rc.tail_cut(np.array([1.0, 0, 0, 0]), 0.5) == 0


def test_tail_cut_uniform_example():
    c = np.sqrt(np.full(10, 0.1))
    assert rc.tail_cut(c, 0.3) == 9  # threshold 0.01125 forces the full head
    assert rc.tail_cut(c, math.sqrt(8) + 1e-9) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.05, 2.0))
def test_tail_cut_is_minimal(seed, delta):
    gen = np.random.default_rng(seed)
    c = gen.standard_normal(16) + 1j * gen.standard_normal(16)
    c /= np.linalg.norm(c)
    N = rc.tail_cut(c, delta)
    w = np.abs(c) ** 2
    assert w[N + 1:].sum() < delta ** 2 / 8
    if N > 0:
        assert w[N:].sum() >= delta ** 2 / 8


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(0, 40), st.floats(0.01, 3.0))
def test_tail_cut_matches_the_level_loop(seed, n, delta):
    gen = np.random.default_rng(seed)
    c = (gen.standard_normal(n) + 1j * gen.standard_normal(n)) * gen.exponential(1.0, n)
    assert rc.tail_cut(c, delta) == loop_tail_cut(c, delta)


def test_tail_cut_matches_the_level_loop_at_its_edges():
    # a tail of exactly delta^2/8 = 0.125 is not below it; all-zero weights
    # cut at once; an empty head gives -1 either way
    for c in ([1.0, 0.25, 0.25], [0.0] * 5, []):
        assert rc.tail_cut(np.array(c), 1.0) == loop_tail_cut(np.array(c), 1.0)
    assert rc.tail_cut(np.array([1.0, 0.25, 0.25]), 1.0) == 1
    assert rc.tail_cut(np.zeros(5), 1.0) == 0


def test_tail_cut_energy_formula():
    # threshold arithmetic: M = 10, delta = 0.1 -> E_{N+1} >= 8000
    E = np.linspace(0.0, 10000.0, 2001)  # spacing 5
    N, bound = rc.tail_cut_energy(E, 10.0, 0.1)
    assert E[N + 1] >= 8000.0 and E[N] < 8000.0
    assert bound == 10.0 / E[N + 1]


def test_tail_cut_energy_harmonic_example():
    E = np.arange(64) + 0.5
    N, bound = rc.tail_cut_energy(E, 2.0, 1.0)
    assert N == 15
    assert E[16] == 16.5


def test_tail_cut_energy_exhaustion():
    with pytest.raises(rc.SpectrumExhaustedError):
        rc.tail_cut_energy(np.arange(64) + 0.5, 10.0, 0.1)


def test_tail_cut_energy_requires_ascending_levels():
    # with levels [0, 5, 1] the cut N = 0 would leave level 2 (E = 1 < 8M/delta^2)
    # outside the head: sqrt(0.875)|0> + sqrt(0.125)|2> has energy M = 0.125
    # yet tail mass 0.125 > delta^2 / 8
    with pytest.raises(ValueError, match="ascending"):
        rc.tail_cut_energy([0.0, 5.0, 1.0], 0.125, 0.5)
    with pytest.raises(ValueError, match="E_0"):
        rc.tail_cut_energy([-1.0, 0.0, 1.0], 0.125, 0.5)


def test_tail_cut_energy_state_independent(rng):
    # Monte-Carlo check of the inequality chain behind the bound
    E = np.arange(64) + 0.5
    M, delta = 2.0, 1.0
    N, _ = rc.tail_cut_energy(E, M, delta)
    for _ in range(100):
        amp = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * np.exp(-E)
        c = amp / np.linalg.norm(amp)
        while float(np.sum(np.abs(c) ** 2 * E)) >= M:
            amp *= np.exp(-0.05 * E)
            c = amp / np.linalg.norm(amp)
        assert np.sum(np.abs(c[N + 1:]) ** 2) < delta ** 2 / 8


def test_tail_cut_finite_net(rng):
    cs = []
    for _ in range(5):
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        cs.append(v / np.linalg.norm(v))
    delta = 0.2
    N = rc.tail_cut_finite_net(cs, delta)
    assert N == max(rc.tail_cut(c, delta) for c in cs)
    # single-point net reduces to the pointwise cut
    assert rc.tail_cut_finite_net(cs[:1], delta) == rc.tail_cut(cs[0], delta)
    # supersets can only push the cut up
    assert rc.tail_cut_finite_net(cs, delta) >= rc.tail_cut_finite_net(cs[:2], delta)
    with pytest.raises(ValueError):
        rc.tail_cut_finite_net([], delta)


# -- time search --------------------------------------------------------------------

def test_find_time_harmonic_period():
    E = np.arange(20) + 0.5
    found = rc.find_recurrence_time(E, 1e-3, tau_min=1.0)
    assert abs(found.time - 4 * math.pi) < 1e-6
    assert found.objective < (1e-3) ** 2 / 4


def test_find_time_two_incommensurate_levels():
    E = np.array([1.0, math.sqrt(2.0)])
    delta = 0.5
    threshold = delta ** 2 / 4
    found = rc.find_recurrence_time(E, delta, tau_min=0.5)
    assert found.objective < threshold
    # dense scan oracle: no sub-threshold time in any earlier dip; the search
    # refines to the bottom of the winning dip, so allow its half-width
    half_width = math.sqrt(threshold / np.sum(E ** 2))
    ts = np.arange(0.5, found.time - half_width - found.grid_step, 1e-4)
    objs = 2 - np.cos(np.outer(ts, E)).sum(axis=1)
    assert objs.min() >= threshold


def test_find_time_sequence_of_recurrences():
    E = np.arange(12) + 0.5
    first = rc.find_recurrence_time(E, 1e-3, tau_min=1.0)
    second = rc.find_recurrence_time(E, 1e-3, tau_min=first.time + 0.5)
    assert second.time > first.time
    assert abs(second.time - 8 * math.pi) < 1e-6


def test_find_time_failure_carries_diagnostics():
    E = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)])
    with pytest.raises(rc.RecurrenceSearchError) as err:
        rc.find_recurrence_time(E, 1e-6, tau_min=0.5, t_max=50.0)
    exc = err.value
    assert exc.best_objective > 0
    assert exc.t_max == 50.0
    # the reported objective is the direct cosine sum, not a grid value
    assert exc.best_objective == float(np.sum(1.0 - np.cos(E * exc.best_time)))
    assert exc.grid_step == 2.0 * math.pi / (100.0 * math.sqrt(5.0))
    assert exc.grid_points == math.ceil(49.5 / exc.grid_step) + 1  # first point >= t_max
    assert exc.refine_cut > exc.threshold
    assert exc.frequencies == 4
    assert exc.to_dict()["grid_points"] == exc.grid_points
    for text in (f"{exc.grid_points} grid points", "refine cut", "4 distinct |E_n|"):
        assert text in str(exc)


@pytest.mark.parametrize("t_max,grid_step", [
    (1e4, 1e-300), (1e4, 0.0), (1e4, math.nan), (math.inf, None), (math.nan, None),
    (0.5, None),
], ids=["step-below-spacing", "zero-step", "nan-step", "inf-horizon", "nan-horizon",
        "horizon-below-tau-min"])
def test_find_time_refuses_a_scan_that_cannot_finish(t_max, grid_step):
    # each of these scans would loop without end; the first chunk is refused
    with pytest.raises(rc.GridReachError):
        rc.find_recurrence_time([0.0, 1.0, math.sqrt(2.0), math.pi], 0.5, tau_min=1.0,
                                t_max=t_max, grid_step=grid_step)


@pytest.fixture
def two_chunk_budget(monkeypatch):
    # a budget of two full chunks; the kernel refuses a fourth call, so a
    # scan that ignores the budget fails instead of running for hours
    monkeypatch.setattr(rc, "_MAX_GRID_POINTS", 2 * (_CHUNK + 1))
    kernel, calls = rc._grid_objective, []

    def counted(*args):
        calls.append(args[2])
        if len(calls) > 3:
            raise AssertionError("scanned past the grid-point budget")
        return kernel(*args)

    monkeypatch.setattr(rc, "_grid_objective", counted)
    return calls


@pytest.mark.parametrize("t_max", [1e4, 1e300], ids=["found", "beyond-float-reach"])
def test_find_time_refuses_a_scan_at_its_budget(two_chunk_budget, t_max):
    # at step 1e-9 the grid to 1e4 has 1e13 points; toward 1e300 its chunks
    # would stall only near T = 6e11
    refusal = (f"scanned {2 * (_CHUNK + 1)} points from T=1 to T=1.00013, the most one "
               f"search scans, short of t_max {t_max:g}")
    with pytest.raises(rc.GridReachError, match=re.escape(refusal)):
        rc.find_recurrence_time([1.0, math.sqrt(2.0)], 1e-6, tau_min=1.0, t_max=t_max,
                                grid_step=1e-9)
    assert two_chunk_budget == [_CHUNK + 1] * 2


def test_find_time_scans_a_grid_at_its_budget(two_chunk_budget):
    # two chunks of 2^-20 from 1 reach t_max = 1.125 exactly: the scan ends
    # at its horizon; one step further needs a third chunk and is refused
    step = 2.0 ** -20
    with pytest.raises(rc.RecurrenceSearchError) as err:
        rc.find_recurrence_time([1.0, math.sqrt(2.0)], 1e-6, tau_min=1.0, t_max=1.125,
                                grid_step=step)
    assert err.value.grid_points == 2 * (_CHUNK + 1)
    two_chunk_budget.clear()
    with pytest.raises(rc.GridReachError, match="short of t_max 1.125"):
        rc.find_recurrence_time([1.0, math.sqrt(2.0)], 1e-6, tau_min=1.0, t_max=1.125 + step,
                                grid_step=step)
    assert two_chunk_budget == [_CHUNK + 1] * 2


@pytest.mark.parametrize("gap", [1e-10, 1e-8])
def test_find_time_certifies_long_before_a_default_horizon_above_the_budget(gap):
    # the default horizon 1e6/gap (1e16 or 1e14) is one the float grid
    # reaches, at about 1.6e20 or 1.6e18 points of 2 pi/1e5; the budget
    # bounds the points scanned, so the search certifies near 2 pi as before
    found = rc.find_recurrence_time([0.0, 1.0, 1.0 + gap, 1000.0], 0.5, tau_min=1.0)
    assert found.objective < 0.5 ** 2 / 4.0
    assert 1.0 < found.time < 2.0 * math.pi + 0.01


@pytest.mark.parametrize("t_max", [None, 1e300])
def test_find_time_certifies_before_a_horizon_its_grid_cannot_reach(t_max):
    # the default horizon 1e6/gap is 5e16 here, where the float spacing (8) is
    # above a chunk of the default grid (65536 steps of 2 pi/1e5); the scan
    # still certifies T near 2 pi in its second chunk
    E = [0.0, 1.0, 1.0 + 2e-11, 1000.0]
    found = rc.find_recurrence_time(E, 0.5, tau_min=1.0, t_max=t_max)
    assert found.objective < 0.5 ** 2 / 4.0
    assert 1.0 < found.time < 2.0 * math.pi + 0.01


def test_failure_counts_distinct_absolute_frequencies():
    E = np.array([-1.0, 1.0, 2.0, 2.0 + 1e-14, 3.0])
    with pytest.raises(rc.RecurrenceSearchError) as err:
        rc.find_recurrence_time(E, 1e-3, tau_min=0.5, t_max=1.0)
    assert err.value.frequencies == 3


def _rounding(E, t_last, h):
    return 8.0 * len(E) * np.finfo(float).eps * (np.max(np.abs(E)) * (t_last + h) + 1.0)


@pytest.mark.parametrize("N,start,m", [
    (1, 0.0, 2), (1, 1e5, 1000), (4, 0.5, 2), (8, 3.0, 257), (8, 1e5, 700),
    (32, 1e3, 1 << 12), (128, 1.0, 515), (128, 1e5, (1 << 16) + 1),
    (1, 1e6, (1 << 16) + 1), (1, 1e7, (1 << 16) + 1), (8, 1e6, 4099), (66, 1e7, 2000),
    (193, 1.0, 1000), (193, 1e6, 515), (193, 1e7, (1 << 16) + 1),
])
def test_grid_objective_matches_direct_scan(N, start, m):
    # far from t = 0 each row phase is a rotation of its table offset by
    # e^{i E start}; at 193 levels the head is two slices
    rng = np.random.default_rng(N + m)
    E = np.sort(rng.uniform(0.0, 10.0, N))
    h = 2.0 * math.pi / (100.0 * np.max(E))
    stop = start + (m - 1) * h
    ts = np.linspace(start, stop, m)
    vals = rc._grid_objective(rc._PhaseTable(E, (stop - start) / (m - 1), m), start, m)
    assert vals.shape == (m,)
    assert np.max(np.abs(vals - direct_grid_values(E, ts))) <= _rounding(E, stop, h)


_SURDS = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)])
_CHUNK = 1 << 16


@pytest.mark.parametrize("tau_min,step,t_max,last_m", [
    (2048.0 - 1e-3, 0.01, 2048.0 - 1e-3 + 5.5 * _CHUNK * 0.01, _CHUNK // 2 + 1),
    (0.5, 0.03, 0.5 + (2 * _CHUNK + 0.4) * 0.03, 2),
], ids=["binades-short-last-chunk", "two-point-last-chunk"])
def test_one_phase_table_per_search(tau_min, step, t_max, last_m):
    # from just below 2^11 the chunks cross the binades at 2048 and 4096,
    # where the old step (stop - start) / (m - 1) moved, and end in a short
    # chunk; the other grid ends one step past its
    # second chunk, at a point moved to t_max.  The search builds one table of
    # _CHUNK + 1 points at the fixed step, forms each chunk's start as
    # tau_min + k * _CHUNK * step, and every chunk's values are the first m
    # of a fresh full table's at that start, bit for bit, and within the
    # rounding term of the direct scan
    builds, chunks, kernel = [], [], rc._grid_objective

    class Counted(rc._PhaseTable):
        def __init__(self, *args):
            builds.append(args[1:])
            super().__init__(*args)

    def recorded(table, start, m):
        chunks.append((table, start, m, kernel(table, start, m)))
        return chunks[-1][3]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rc, "_PhaseTable", Counted)
        mp.setattr(rc, "_grid_objective", recorded)
        with pytest.raises(rc.RecurrenceSearchError) as err:
            rc.find_recurrence_time(_SURDS, 1e-6, tau_min=tau_min, t_max=t_max, grid_step=step)
    assert builds == [(step, _CHUNK + 1)]
    assert len({id(table) for table, _, _, _ in chunks}) == 1
    ms = [m for _, _, m, _ in chunks]
    assert ms == [_CHUNK + 1] * (len(chunks) - 1) + [last_m]
    assert err.value.grid_points == sum(ms)
    fresh = rc._PhaseTable(_SURDS, step, _CHUNK + 1)
    for k, (_, start, m, vals) in enumerate(chunks):
        assert start == tau_min + (k * _CHUNK) * step
        ts = np.minimum(tau_min + (k * _CHUNK + np.arange(m)) * step, t_max)
        full = rc._grid_objective(fresh, start, _CHUNK + 1)
        moved = k == len(chunks) - 1 and tau_min + (k * _CHUNK + m - 1) * step > t_max
        assert vals[:m - moved].tobytes() == full[:m - moved].tobytes(), start
        direct = direct_grid_values(_SURDS, ts)
        assert np.max(np.abs(vals - direct)) <= _rounding(_SURDS, t_max, step)
    assert ts[-1] == t_max and ts[-2] < t_max
    assert moved == (last_m == 2)


@pytest.mark.parametrize("N", [1, 7, 193])
def test_short_chunks_read_the_first_rows_of_the_table(N):
    # a chunk of m points reads the first ceil(m / 256) rows, and at least
    # two: its values are the first m of a full chunk's at the same start
    rng = np.random.default_rng(N)
    E = np.sort(rng.uniform(0.0, 10.0, N))
    table = rc._PhaseTable(E, 2.0 * math.pi / (100.0 * np.max(E)), _CHUNK + 1)
    for start in (0.5, 1e5):
        full = rc._grid_objective(table, start, _CHUNK + 1)
        for m in (2, 3, 255, 256, 257, 258, 4097, _CHUNK):
            assert rc._grid_objective(table, start, m).tobytes() == full[:m].tobytes(), m


def _outcome_bits(energies, delta, **kwargs):
    """The search's result fields, or its failure's to_dict(), as _float_bits."""
    try:
        fields = vars(rc.find_recurrence_time(energies, delta, **kwargs))
    except rc.RecurrenceSearchError as exc:
        fields = {"error": True, **exc.to_dict()}
    return {key: _float_bits(v) for key, v in fields.items()}


def test_concurrent_searches_match_serial_runs():
    # searches share no table across calls: each thread scans its own spectrum
    rng = np.random.default_rng(11)
    cases = []
    for k in range(8):
        E = np.sort(rng.uniform(0.0, 10.0, int(rng.integers(1, 12))))
        if k % 2:
            E = float(rng.uniform(0.5, 2.0)) * np.arange(1, len(E) + 1)
        step = 2.0 * math.pi / (100.0 * float(np.max(E)))
        t_max = float(rng.uniform(1.2, 3.5)) * _CHUNK * step
        cases.append((E, float(rng.choice([1e-3, 1e-6])), float(rng.uniform(0.5, 50.0)), t_max))
    serial = [_outcome_bits(E, d, tau_min=t0, t_max=t1) for E, d, t0, t1 in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside and between chunks
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(
                lambda case: _outcome_bits(case[0], case[1], tau_min=case[2], t_max=case[3]),
                cases * 2, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 2
    assert {"error" in bits for bits in serial} == {True, False}


def test_narrow_dip_between_grid_points_is_found():
    # a harmonic-like ladder returns exactly at T0 = 2 pi / w; the grid is laid
    # so T0 falls midway between two points, where the dip (half-width ~6e-6)
    # is far narrower than the step and no grid point is below threshold
    w, delta = 1.3, 1e-4
    E = w * np.array([1.0, 2.0, 3.0, 5.0, 7.0])
    T0, tau_min = 2.0 * math.pi / w, 0.5
    grid_step = (T0 - tau_min) / 700.5
    windows, _ = direct_grid_scan(E, tau_min, T0 + 1.0, grid_step)
    assert min(v for _, _, v in windows) > delta * delta / 4.0
    found = rc.find_recurrence_time(E, delta, tau_min=tau_min, grid_step=grid_step)
    assert abs(found.time - T0) < 1e-7  # float cos is flat to ~1e-8 at the bottom
    assert found.objective < delta * delta / 4.0


_PHI = (1.0 + math.sqrt(5.0)) / 2.0


def test_refine_certifies_the_golden_ladder():
    # levels 0, 1 and the golden ratio at delta 3e-4 (threshold 2.25e-8) return
    # near T = 68 775.746 with 9.1e-9; the grid brackets that dip below its
    # refine cut from tau_min 1, and the refine must reach its bottom
    found = rc.find_recurrence_time([0.0, 1.0, _PHI], 3e-4, tau_min=1.0, t_max=2e5)
    assert abs(found.time - 68775.746) < 1e-3
    assert found.objective < 3e-4 ** 2 / 4.0
    assert found.objective == rc._objective(np.array([0.0, 1.0, _PHI]))(found.time)


def test_refine_finds_a_dip_narrower_than_sqrt_eps_t():
    # a ladder returns exactly at T0 = 2 pi k / w past 1e5; its dip below the
    # threshold is 1.2e-5 wide, far narrower than sqrt(eps) T0 (1.5e-3), and
    # the grid puts T0 midway between two points, none of them below threshold
    w, delta = 1.3, 1e-4
    E = w * np.array([1.0, 2.0, 3.0, 5.0, 7.0])
    period = 2.0 * math.pi / w
    T0 = 21000 * period
    tau_min = T0 - 0.5 * period
    grid_step = (T0 - tau_min) / 700.5
    windows, _ = direct_grid_scan(E, tau_min, T0 + 1.0, grid_step)
    assert min(v for _, _, v in windows) > delta * delta / 4.0
    width = 2.0 * math.sqrt(delta * delta / 4.0 / (np.sum(E * E) / 2.0))
    assert width < 0.01 * math.sqrt(2.2e-16) * T0
    found = rc.find_recurrence_time(E, delta, tau_min=tau_min, t_max=T0 + 1.0,
                                    grid_step=grid_step)
    assert T0 > 1e5 and abs(found.time - T0) < 1e-7
    assert found.objective < 1e-4 * delta * delta / 4.0
    assert found.objective == rc._objective(E)(found.time)


def _refine_calls(energies, delta, **kwargs):
    """The search's outcome and every refine's (t_j, lo, hi, T, f(T))."""
    calls, refine = [], rc._refine

    def recorded(E, t_j, lo, hi):
        calls.append((t_j, lo, hi) + refine(E, t_j, lo, hi))
        return calls[-1][3:]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rc, "_refine", recorded)
        try:
            outcome = rc.find_recurrence_time(energies, delta, **kwargs)
        except rc.RecurrenceSearchError as exc:
            outcome = exc
    return outcome, calls


@pytest.mark.parametrize("case", ["after-tau-min", "cut-by-t-max", "at-t-max", "coarse"])
def test_refined_times_stay_in_their_brackets(case):
    # every refine bracket is the grid point +- h inside [tau_min, t_max], and
    # every refined time lies in its bracket, with the direct sum as objective:
    # a dip just after tau_min, a dip whose bottom 2 pi lies past t_max (the
    # search certifies t_max itself), one at the moved last point, and
    # failing searches on a coarse grid of seeded spectra, where every local
    # minimum is below the refine cut and brackets meet both ends
    step = 2.0 * math.pi / 300.0
    runs = {
        "after-tau-min": [([1.0, 2.0, 3.0], 1e-3, 2.0 * math.pi - 0.2 * step, 20.0, step)],
        "cut-by-t-max": [([1.0, 2.0, 3.0], 1e-3, 0.5, 2.0 * math.pi - 1e-4, step)],
        "at-t-max": [([1.0, 2.0, 3.0], 1e-3, 0.5, 2.0 * math.pi + 0.3 * step, step)],
        "coarse": [],
    }[case]
    rng = np.random.default_rng(5)
    for _ in range(6 if case == "coarse" else 0):
        E = np.sort(rng.uniform(0.0, 3.0, int(rng.integers(2, 6))))
        runs.append((E, 1e-3, float(rng.uniform(0.0, 5.0)), float(rng.uniform(50.0, 400.0)),
                     3.0 / float(np.max(E))))
    clamped = set()
    for E, delta, tau_min, t_max, h in runs:
        outcome, calls = _refine_calls(E, delta, tau_min=tau_min, t_max=t_max, grid_step=h)
        assert calls
        f = rc._objective(np.asarray(E, dtype=float))
        for t_j, lo, hi, T, value in calls:
            assert lo == max(t_j - h, tau_min) and hi == min(t_j + h, t_max)
            assert tau_min <= lo <= T <= hi <= t_max
            assert value == f(T)
            clamped |= {"lo"} if lo == tau_min else set()
            clamped |= {"hi"} if hi == t_max else set()
        if case == "coarse":
            assert isinstance(outcome, rc.RecurrenceSearchError)
        else:
            assert outcome.time <= t_max and outcome.objective < delta * delta / 4.0
    if case == "cut-by-t-max":
        assert outcome.time == t_max
    assert clamped == {"coarse": {"lo", "hi"}, "after-tau-min": {"lo"}}.get(case, {"hi"})


def test_trace_samples_match_direct_scan():
    # three chunks, the last one short: one row per window of 4 096 owned points
    E = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)])
    trace: list = []
    with pytest.raises(rc.RecurrenceSearchError) as err:
        rc.find_recurrence_time(E, 1e-6, tau_min=0.5, t_max=5000.0, trace=trace)
    step = err.value.grid_step
    windows, n_point = direct_grid_scan(E, 0.5, 5000.0, step)
    assert n_point > 2 * (1 << 16) and err.value.grid_points == n_point
    assert len(trace) == len(windows) == 16 + 16 + 12
    for (t, v), (times, _, lowest) in zip(trace, windows):
        assert t in times
        assert abs(v - lowest) <= _rounding(E, 5000.0, step)


def _traced_chunks(energies, delta, **kwargs):
    """The search's trace and every chunk's (start, h, m, grid values)."""
    chunks, kernel = [], rc._grid_objective

    def recorded(table, start, m):
        chunks.append((start, table.h, m, kernel(table, start, m)))
        return chunks[-1][3]

    trace: list = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rc, "_grid_objective", recorded)
        with pytest.raises(rc.RecurrenceSearchError):
            rc.find_recurrence_time(energies, delta, trace=trace, **kwargs)
    return trace, chunks


@pytest.mark.parametrize("last_m", [4097, 2 * 4096 + 7])
def test_trace_rows_are_the_kernel_window_minima(last_m):
    # two full chunks and a short last one: 4 097 points leave the t_max point
    # a window of its own, 8 199 a partial window.  Each chunk's last point is
    # the next chunk's first and counts once; the t_max point counts
    E = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)])
    step = 2.0 * math.pi / (100.0 * math.sqrt(5.0))
    t_max = 0.5 + (2 * _CHUNK + last_m - 1) * step
    trace, chunks = _traced_chunks(E, 1e-6, tau_min=0.5, t_max=t_max, grid_step=step)
    assert [m for _, _, m, _ in chunks] == [_CHUNK + 1, _CHUNK + 1, last_m]
    expected = []
    for k, (start, h, m, vals) in enumerate(chunks):
        own = m if k == len(chunks) - 1 else m - 1
        for lo in range(0, own, 1 << 12):
            window = vals[lo:min(lo + (1 << 12), own)].tolist()
            j = lo + window.index(min(window))
            t = min(0.5 + (k * _CHUNK + j) * step, t_max)
            expected.append((float(t).hex(), float(vals[j]).hex()))
    assert len(expected) == 16 + 16 + -(-last_m // 4096)
    assert [(t.hex(), v.hex()) for t, v in trace] == expected
    assert trace[-1][0] == t_max or last_m % 4096 != 1


def test_window_minima_copy_nothing_of_the_chunk():
    # the windows are a view of the chunk's values: a padded copy of a full
    # chunk would take 512 KiB
    vals = np.random.default_rng(0).uniform(0.0, 4.0, _CHUNK + 1)
    for last in (False, True):
        tracemalloc.start()
        try:
            rows = rc._window_minima(vals, last)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 16 + last
        assert peak < 64 * 1024, f"peak {peak / 1024:.0f} KiB"


def test_untraced_search_forms_no_windows(monkeypatch):
    def refuse(*args):
        raise AssertionError("window minima of an untraced search")

    monkeypatch.setattr(rc, "_window_minima", refuse)
    E = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0)])
    with pytest.raises(rc.RecurrenceSearchError) as err:
        rc.find_recurrence_time(E, 1e-6, tau_min=0.5, t_max=3000.0)
    assert err.value.grid_points > _CHUNK


def _float_bits(value):
    """A float as (type name, float.hex), anything else as it is."""
    return (type(value).__name__, float(value).hex()) if isinstance(value, float) else value


def _same_scan(energies, delta, search=rc.find_recurrence_time, **kwargs):
    """Run ``search`` and the fixed-step-and-seam oracle on one input, assert
    that they agree bit for bit on the result or failure and on every trace
    sample, and return the search's RecurrenceTime or RecurrenceSearchError."""
    runs = []
    for scan in (search, fixed_step_scan):
        trace: list = []
        try:
            outcome = scan(energies, delta, trace=trace, **kwargs)
            fields = vars(outcome)
        except rc.RecurrenceSearchError as exc:
            outcome, fields = exc, exc.to_dict()
        runs.append((outcome, {key: _float_bits(v) for key, v in fields.items()},
                     [(_float_bits(t), _float_bits(v)) for t, v in trace]))
    assert runs[0][1:] == runs[1][1:]
    return runs[0][0]


def test_scan_matches_oracle_in_the_first_chunk():
    found = _same_scan(np.arange(20) + 0.5, 1e-3, tau_min=1.0)
    assert found.searched_to < 1.0 + _CHUNK * found.grid_step
    assert abs(found.time - 4.0 * math.pi) < 1e-6


def test_scan_matches_oracle_at_the_seam():
    # the ladder returns at 2 pi, which the grid puts at the last point of the
    # first chunk: the certificate comes from j = 0 of the second chunk, whose
    # left neighbour is the first chunk's last value
    step = (2.0 * math.pi - 0.5) / (_CHUNK + 0.3)
    found = _same_scan([1.0, 2.0, 3.0], 1e-3, tau_min=0.5, t_max=2.0 * math.pi + 1.0,
                       grid_step=step)
    assert found.searched_to == 0.5 + _CHUNK * step


def test_scan_matches_oracle_when_the_seam_reads_higher(monkeypatch):
    # j = 0 of a chunk repeats the time of the previous chunk's last point; a
    # value that reads higher there is no local minimum, so the dip at the seam
    # is not refined and the search runs out its horizon, as the oracle does
    step = (2.0 * math.pi - 0.5) / (_CHUNK + 0.3)
    grid = rc._grid_objective

    def lifted(table, start, m):
        vals = grid(table, start, m)
        if start > 0.5:
            vals[0] += 1e-9
        return vals

    monkeypatch.setattr(rc, "_grid_objective", lifted)
    failure = _same_scan([1.0, 2.0, 3.0], 1e-3, tau_min=0.5, t_max=2.0 * math.pi + 1.0,
                         grid_step=step)
    assert isinstance(failure, rc.RecurrenceSearchError)


def test_scan_matches_oracle_on_a_dip_just_after_tau_min():
    # the ladder returns at 2 pi, a fifth of a step after tau_min: the first
    # point of the first chunk is refined, and the next return, 4 pi, is not
    # reported instead
    step = 2.0 * math.pi / 300.0
    found = _same_scan([1.0, 2.0, 3.0], 1e-3, tau_min=2.0 * math.pi - 0.2 * step)
    assert abs(found.time - 2.0 * math.pi) < 1e-6


@pytest.mark.parametrize("extra", [None, 0.4], ids=["short-last-chunk", "two-point-last-chunk"])
def test_scan_matches_oracle_on_failures(extra):
    E = [1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)]
    step = 2.0 * math.pi / (100.0 * math.sqrt(5.0))
    t_max = 5000.0 if extra is None else 0.5 + (2 * _CHUNK + extra) * step
    failure = _same_scan(E, 1e-6, tau_min=0.5, t_max=t_max)
    last = failure.grid_points - 2 * (_CHUNK + 1)  # three chunks, the last one short
    assert 2 <= last < _CHUNK + 1 and (extra is None or last == 2)


@pytest.mark.parametrize("energies,tau_min", [
    (np.arange(6.0), 0.0), ([1.0, 2.0, 3.0], 2.0 * math.pi), ([0.0, 0.0], 1.0),
], ids=["t-zero", "at-a-recurrence", "zero-spectrum"])
def test_scan_matches_oracle_when_tau_min_is_already_a_recurrence(energies, tau_min):
    found = _same_scan(energies, 1e-3, tau_min=tau_min)
    assert found.time == found.searched_to == tau_min


def _kernel_run(kernel, energies, delta, search=rc.find_recurrence_time, **kwargs):
    """Run the search with ``kernel`` as its grid kernel; return the refine
    calls in order as float.hex, the result or failure fields as
    ``_float_bits`` and every chunk's (E, start, h, m) and grid values."""
    refines, chunks = [], []
    refine = rc._refine

    def recorded_refine(E, t_j, lo, hi):
        refines.append(tuple(float(v).hex() for v in (t_j, lo, hi)))
        return refine(E, t_j, lo, hi)

    def recorded_kernel(table, start, m):
        chunks.append(((table.E, start, table.h, m), kernel(table, start, m)))
        return chunks[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rc, "_refine", recorded_refine)
        mp.setattr(rc, "_grid_objective", recorded_kernel)
        try:
            fields = vars(search(energies, delta, **kwargs))
        except rc.RecurrenceSearchError as exc:
            fields = exc.to_dict()
    return refines, {key: _float_bits(v) for key, v in fields.items()}, chunks


def _two_product_kernel(table, start, m):
    return two_product_grid_objective(table.E, start, table.h, m)


def _same_kernels(energies, delta, search=rc.find_recurrence_time, **kwargs):
    """Assert that the search refines the same candidates and returns the same
    result or failure, bit for bit, with the single-product kernel and the
    two-product one, and that their grid values differ by at most the
    rounding term."""
    single = _kernel_run(rc._grid_objective, energies, delta, search, **kwargs)
    double = _kernel_run(_two_product_kernel, energies, delta, search, **kwargs)
    assert single[:2] == double[:2]
    assert [args for args, _ in single[2]] == [args for args, _ in double[2]]
    for ((E, start, h, m), ours), (_, theirs) in zip(single[2], double[2]):
        assert ours.shape == theirs.shape == (m,)
        assert np.max(np.abs(ours - theirs)) <= _rounding(E, start + (m - 1) * h, h)


@pytest.mark.parametrize("seed", range(12))
def test_scan_matches_oracle_on_seeded_spectra(seed):
    rng = np.random.default_rng(seed)
    E = np.sort(rng.uniform(0.0, 10.0, int(rng.integers(1, 9)))) * 10.0 ** rng.uniform(-2, 2)
    step = 2.0 * math.pi / (100.0 * float(np.max(E)))
    tau_min = float(rng.uniform(0.0, 5.0)) / float(np.max(E))
    t_max = tau_min + float(rng.uniform(0.2, 3.5)) * _CHUNK * step
    delta = float(rng.choice([1e-3, 0.3, 0.8]))
    _same_scan(E, delta, tau_min=tau_min, t_max=t_max)
    _same_kernels(E, delta, tau_min=tau_min, t_max=t_max)


# The recur-search benchmark's jobs for seed 1 (subcommand, --seed, config),
# warm-up first: their head spectra as the benchmark scans them.
RECUR_SEARCH_SEED_1 = [
    ("recur", 2009, {"delta": 0.001, "hamiltonian": {
        "dims": [16], "mode_count": 1,
        "poly": "(0.3539428343913264,0) * q1^2 + (0.3539428343913264,0) * p1^2"},
        "mode": "pointwise", "state": {"fock": [0]}, "tau_min": 1.4126575012031175}),
    ("recur", 1009, {"delta": 0.2, "energy_bound": 2.2356168524168476, "hamiltonian": {
        "level_formula": {"coeffs": [0.0, 1.1178084262084238, 0.10161894783712944],
                          "count": 128}}, "mode": "energy_bound", "tau_min": 0.8946076774461016}),
    ("recur", 1010, {"delta": 0.2, "energy_bound": 1.8671266802290991, "hamiltonian": {
        "level_formula": {"coeffs": [0.0, 0.9335633401145496, 0.07181256462419612],
                          "count": 128}}, "mode": "energy_bound", "tau_min": 1.0711645980842592}),
    ("recur", 1011, {"delta": 0.3, "hamiltonian": {
        "dims": [8], "mode_count": 1, "poly": "(1.2468178636929421,0) * q1"},
        "mode": "pointwise", "state": {"fock": [0]}, "tau_min": 0.40102088248804285}),
    ("recur", 1012, {"delta": 0.3, "hamiltonian": {
        "dims": [8], "mode_count": 1, "poly": "(1.2468178636929421,0) * q1"},
        "mode": "pointwise", "state": {"fock": [1]}, "tau_min": 0.40102088248804285}),
    ("invert", 1013, {"delta": 0.3, "hamiltonian": {
        "dims": [8], "mode_count": 1, "poly": "(1.2468178636929421,0) * q1"},
        "mode": "pointwise", "s": 0.56142923548326, "state": {"fock": [0]}}),
    ("recur", 1014, {"delta": 0.1, "hamiltonian": {
        "dims": [16], "mode_count": 1,
        "poly": "(0.5811392836641106,0) * q1^2 + (0.5811392836641106,0) * p1^2"},
        "mode": "finite_net", "net_size": 3, "tau_min": 0.8603789385007263}),
    ("invert", 1015, {"delta": 0.5, "energy_bound": 0.5811392836641106, "hamiltonian": {
        "dims": [32], "mode_count": 1,
        "poly": "(0.5811392836641106,0) * q1^2 + (0.5811392836641106,0) * p1^2"},
        "mode": "energy_bound", "s": 0.6022652569505085}),
    ("invert", 1016, {"delta": 0.1, "hamiltonian": {
        "dims": [16], "mode_count": 1,
        "poly": "(0.5811392836641106,0) * q1^2 + (0.5811392836641106,0) * p1^2"},
        "mode": "finite_net", "net_size": 3, "s": 0.7743410446506538}),
    ("recur", 1017, {"delta": 1e-05, "hamiltonian": {
        "dims": [32], "mode_count": 1, "poly": "(0.8950991691799742,0) * q1"},
        "mode": "pointwise", "state": {"fock": [0]}, "t_max": 3351.5839398537096,
        "tau_min": 1.1171946466179032}),
]


@pytest.mark.parametrize("sub,seed,config", RECUR_SEARCH_SEED_1,
                         ids=[f"job{i}" for i in range(len(RECUR_SEARCH_SEED_1))])
def test_scan_matches_oracle_on_the_benchmark_spectra(sub, seed, config, tmp_path,
                                                      monkeypatch):
    search = rc.find_recurrence_time
    outcomes = []

    def compared(energies, delta, tau_min=0.0, t_max=None, grid_step=None, trace=None):
        outcomes.append(_same_scan(energies, delta, search=search, tau_min=tau_min,
                                   t_max=t_max, grid_step=grid_step))
        _same_kernels(energies, delta, search, tau_min=tau_min, t_max=t_max,
                      grid_step=grid_step)
        return search(energies, delta, tau_min=tau_min, t_max=t_max, grid_step=grid_step,
                      trace=trace)

    monkeypatch.setattr(rc, "find_recurrence_time", compared)
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(config))
    code = cli.main([sub, "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--seed", str(seed)])
    failed = [isinstance(o, rc.RecurrenceSearchError) for o in outcomes]
    assert outcomes and code == (cli.EXIT_FAILURE if any(failed) else cli.EXIT_OK)


def test_find_time_state_independent(harmonic, rng):
    spec, sd = harmonic
    psi1 = fock.random_interior_state(spec, rng)
    psi2 = fock.random_interior_state(spec, rng)
    delta = 1e-4
    N1 = rc.tail_cut(sd.overlaps(psi1), delta)
    N2 = rc.tail_cut(sd.overlaps(psi2), delta)
    N = max(N1, N2)
    t1 = rc.find_recurrence_time(sd.energies[:N + 1], delta, tau_min=1.0)
    t2 = rc.find_recurrence_time(sd.energies[:N + 1], delta, tau_min=1.0)
    assert t1.time == t2.time  # bitwise: same inputs, same search


# -- invert ----------------------------------------------------------------------------

def test_invert_s0_trivial(harmonic):
    spec, sd = harmonic
    res = rc.invert(sd, 0.0, 1e-3, rc.POINTWISE, fock.ground_state(spec))
    assert res.t_star == 0.0


def test_invert_harmonic_certificate(harmonic, rng):
    spec, sd = harmonic
    psi = fock.random_interior_state(spec, rng)
    res = rc.invert(sd, 1.0, 1e-6, rc.POINTWISE, psi)
    assert abs(res.t_star - (4 * math.pi - 1.0)) < 1e-6
    table = pr.EvolutionTable({0: -1j * _oscillator(spec)})
    lhs = pr.evolve_signed([(0, -1.0)], psi, table)
    rhs = table.apply(0, res.t_star, psi)
    assert np.linalg.norm(lhs - rhs) < 1e-6


def test_invert_plan_decomposition(harmonic, rng):
    spec, sd = harmonic
    psi = fock.random_interior_state(spec, rng)
    res = rc.invert(sd, 0.5, 1e-4, rc.POINTWISE, psi)
    plan = res.plan
    assert 2 * plan.achieved_sum + 4 * plan.tail_mass < plan.delta ** 2
    assert plan.mode == rc.POINTWISE


def test_invert_energy_bound_mode(rng):
    # commensurate anharmonic ladder: exact recurrence at 40 pi
    levels = rc.polynomial_levels(128, (0.0, 1.0, 0.05))
    sd = rc.SpectralData(levels[:64], np.eye(64))
    res = rc.invert(sd, 1.0, 0.5, rc.ENERGY_BOUND, 1.0)
    plan = res.plan
    assert plan.energy_bound == 1.0
    d = recurrence_distance(np.eye(64)[3], sd.energies, plan.time)
    assert d < 0.5


def test_plan_validation_rejects_bad_numbers():
    with pytest.raises(ValueError):
        rc.RecurrencePlan(delta=0.1, N=3, time=1.0, achieved_sum=1.0,
                          tail_mass=0.0, mode=rc.POINTWISE)
    with pytest.raises(ValueError):
        rc.RecurrencePlan(delta=0.1, N=3, time=1.0, achieved_sum=0.0,
                          tail_mass=1.0, mode=rc.POINTWISE)


def test_plan_json_roundtrip(harmonic, rng):
    # the text plan.json holds, read back, rebuilds the same plan
    spec, sd = harmonic
    res = rc.invert(sd, 1.0, 1e-4, rc.POINTWISE, fock.random_interior_state(spec, rng))
    data = json.loads(cli.json_text(res.plan.to_dict()))
    assert data["mode"] == "pointwise"
    assert data["N"] == res.plan.N
    assert data["spectrum_hash"]
    assert rc.RecurrencePlan(**data) == res.plan


def test_inverter_caches(harmonic):
    spec, sd = harmonic
    psi = fock.ground_state(spec)
    inv = rc.RecurrenceInverter({0: sd}, 1e-5, rc.POINTWISE, psi)
    t1, plan1 = inv.duration(0, 0.25)
    t2, plan2 = inv.duration(0, 0.25)
    assert t1 == t2 and plan1 is plan2
    assert len(inv.plans()) == 1


def test_exact_inverter_refuses_durations():
    with pytest.raises(TypeError):
        synth.ExactInverter().duration(0, 0.1)


def test_polynomial_levels():
    lev = rc.polynomial_levels(5, (0.5, 1.0))
    assert np.allclose(lev, [0.5, 1.5, 2.5, 3.5, 4.5])
    anh = rc.polynomial_levels(4, (0.0, 1.0, 0.05))
    assert np.allclose(anh, [0.0, 1.05, 2.2, 3.45])
