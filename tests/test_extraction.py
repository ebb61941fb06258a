import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resonet as rn
from resonet.errors import (
    InsufficientPeaksError,
    InsufficientSpanError,
    InvalidSpecError,
)

F0 = 10e9
FBW = 0.05


def mapping_spec(f0=F0, fbw=FBW):
    # order is irrelevant here; the spec only supplies the band mapping
    return rn.FilterSpec(order=2, f0_hz=f0, bandwidth_hz=fbw * f0, ripple_db=0.04321)


def coupled_pair_response(k, points=2001, f0=F0, fbw=FBW):
    """Two synchronously tuned resonators, ports loaded weakly enough that
    the loading linewidth sits far below the mode splitting, output side
    weaker so the peaks stay near -20 dB."""
    m12 = k / fbw
    q1 = 50.0 / m12
    m = np.array([[0.0, m12], [m12, 0.0]])
    cm = rn.CouplingMatrix(m=m, qe1=q1, qen=400.0 * q1)
    return rn.sweep(cm, mapping_spec(f0, fbw), 0.85 * f0, 1.15 * f0, points)


def single_resonator_response(qe, points=4001, f0=F0, fbw=FBW):
    q_in = qe * fbw
    cm = rn.CouplingMatrix(m=np.zeros((1, 1)), qe1=q_in, qen=2500.0 * q_in)
    span = 2.5 * f0 / qe
    return rn.sweep(cm, mapping_spec(f0, fbw), f0 - span, f0 + span, points)


def test_extract_k_degenerate_peaks():
    assert rn.extract_k(rn.PeakPair(f_p1=5e9, f_p2=5e9)) == 0.0


def test_extract_k_direct_arithmetic():
    pair = rn.PeakPair(f_p1=np.sqrt(0.95), f_p2=np.sqrt(1.05))
    assert rn.extract_k(pair) == pytest.approx(0.05, abs=1e-12)


def test_peak_pair_orders_and_validates():
    pair = rn.PeakPair(f_p1=2e9, f_p2=1e9)
    assert (pair.f_p1, pair.f_p2) == (1e9, 2e9)
    with pytest.raises(InvalidSpecError):
        rn.PeakPair(f_p1=0.0, f_p2=1e9)


@pytest.mark.parametrize("f_p1, f_p2", [(1e9, math.inf), (math.inf, 1e9), (math.nan, 1e9)])
def test_peak_pair_refuses_non_finite_peaks(f_p1, f_p2):
    # extract_k of (1e9, inf) would be inf / inf
    with pytest.raises(InvalidSpecError, match="positive and finite"):
        rn.PeakPair(f_p1=f_p1, f_p2=f_p2)


@settings(max_examples=80, deadline=None)
@given(
    f1=st.floats(min_value=1e6, max_value=1e12),
    f2=st.floats(min_value=1e6, max_value=1e12),
    scale_exp=st.integers(min_value=-20, max_value=20),
)
def test_extract_k_scale_invariant(f1, f2, scale_exp):
    base = rn.extract_k(rn.PeakPair(f_p1=f1, f_p2=f2))
    # power-of-two scalings are exact in floating point
    c = 2.0**scale_exp
    assert rn.extract_k(rn.PeakPair(f_p1=c * f1, f_p2=c * f2)) == base
    assert 0.0 <= base < 1.0


def test_extract_k_monotone_in_separation():
    # pairs (1/r, r) share geometric mean 1 while the separation grows
    ks = [
        rn.extract_k(rn.PeakPair(f_p1=1.0 / r, f_p2=r)) for r in (1.1, 1.2, 1.3)
    ]
    assert ks[0] < ks[1] < ks[2]


def test_find_peaks_monotone_response_is_empty():
    grid = np.linspace(1e9, 2e9, 101)
    s21 = np.linspace(0.01, 0.5, 101).astype(complex)
    resp = rn.FrequencyResponse(grid=grid, s11=np.zeros(101), s21=s21)
    assert rn.find_peaks(resp).size == 0


def test_find_peaks_needs_three_samples():
    resp = rn.FrequencyResponse(grid=[1e9, 2e9], s11=[0, 0], s21=[0.1, 0.2])
    with pytest.raises(InvalidSpecError):
        rn.find_peaks(resp)


def test_two_resonator_pair_shows_two_peaks():
    resp = coupled_pair_response(0.046)
    peaks = rn.find_peaks(resp)
    assert peaks.size == 2
    # fixture convention: weak enough coupling keeps transmission low
    assert 20 * np.log10(np.abs(resp.s21).max()) < -19.0


def test_separation_grows_with_coupling():
    seps = []
    for k in (0.02, 0.05, 0.08):
        peaks = rn.find_peaks(coupled_pair_response(k), expected=2)
        seps.append(peaks[-1] - peaks[0])
    assert seps[0] < seps[1] < seps[2]


def test_single_resonator_single_peak():
    resp = single_resonator_response(18.628)
    peaks = rn.find_peaks(resp, expected=1)
    assert peaks.size == 1
    step = resp.grid[1] - resp.grid[0]
    assert abs(peaks[0] - F0) < step


def test_insufficient_peaks_error_carries_count():
    resp = single_resonator_response(18.628)
    with pytest.raises(InsufficientPeaksError) as err:
        rn.find_peaks(resp, expected=2)
    assert err.value.found == 1


@pytest.mark.parametrize("k_design", [0.02, 0.046, 0.1])
def test_coupling_round_trip(k_design):
    resp = coupled_pair_response(k_design, points=4001)
    peaks = rn.find_peaks(resp, expected=2)
    k = rn.extract_k(rn.PeakPair(f_p1=peaks[0], f_p2=peaks[1]))
    step = resp.grid[1] - resp.grid[0]
    # The model puts the peaks where (f2 - f1) / sqrt(f1 f2) = k_design, and
    # the Hong-Lancaster formula reads that splitting as tanh(2 asinh(k / 2)).
    k_expected = math.tanh(2.0 * math.asinh(k_design / 2.0))
    assert abs(k - k_expected) <= 2 * step / F0 + 1e-4


@pytest.mark.parametrize("qe,f0,fbw", [(18.628, 10e9, 0.05), (46.57, 300e9, 0.02)])
def test_qe_round_trip(qe, f0, fbw):
    resp = single_resonator_response(qe, f0=f0, fbw=fbw)
    peaks = rn.find_peaks(resp, expected=1)
    got = rn.extract_qe(resp, float(peaks[0]))
    assert got == pytest.approx(qe, rel=0.02)


def test_qe_error_shrinks_with_grid_density():
    errs = []
    for points in (251, 501):
        resp = single_resonator_response(18.628, points=points)
        peaks = rn.find_peaks(resp, expected=1)
        errs.append(abs(rn.extract_qe(resp, float(peaks[0])) - 18.628))
    assert errs[1] < errs[0]


def test_qe_needs_bracketed_3db_points():
    # span much narrower than the 3 dB width
    q_in = 18.628 * FBW
    cm = rn.CouplingMatrix(m=np.zeros((1, 1)), qe1=q_in, qen=2500.0 * q_in)
    resp = rn.sweep(cm, mapping_spec(), F0 - 1e7, F0 + 1e7, 101)
    with pytest.raises(InsufficientSpanError):
        rn.extract_qe(resp, F0)


@pytest.mark.parametrize("f0", [math.inf, math.nan, 0.0])
def test_qe_needs_a_positive_finite_f0(f0):
    resp = single_resonator_response(18.628)
    with pytest.raises(InvalidSpecError, match="f0 must be positive and finite"):
        rn.extract_qe(resp, f0)


def peak_oracle_inputs():
    """Seeded |S21|-like arrays in [0, 1]: random floats, small integers
    (full of plateaus, some with one tall sample so that prominences tie
    PEAK_PROMINENCE x max exactly), and constant, monotone, 3-sample and
    edge-peaked arrays."""
    rng = np.random.default_rng(1810)
    cases = [
        np.full(7, 0.5),
        np.linspace(0.1, 0.9, 9),
        np.linspace(0.9, 0.1, 9),
        np.array([0.1, 0.5, 0.2]),
        np.array([0.5, 0.1, 0.5]),
        np.array([0.5, 0.5, 0.5]),
        np.array([0.9, 0.2, 0.5, 0.1, 0.3]),  # tallest sample first
        np.array([0.3, 0.1, 0.5, 0.2, 0.9]),  # tallest sample last
        np.array([0.2, 0.7, 0.7, 0.1, 0.7, 0.7, 0.7, 0.3]),  # even and odd plateaus
        np.array([0.1, 0.6, 0.6, 0.6, 0.6]),  # plateau up to the last sample
    ]
    for _ in range(200):
        n = int(rng.integers(3, 80))
        cases.append(rng.random(n))
        cases.append(rng.integers(0, 4, n) / 4.0)
        tall = rng.integers(0, 4, n).astype(float)
        tall[rng.integers(n)] = 100.0
        cases.append(tall / 128.0)
    return cases


def test_find_peaks_matches_scipy_find_peaks():
    from scipy import signal

    from resonet.extraction import PEAK_PROMINENCE, _parabolic_vertex, _prominent_maxima

    for y in peak_oracle_inputs():
        every, _ = signal.find_peaks(y)
        prominences = signal.peak_prominences(y, every)[0]
        # no threshold, the default one, the least prominent peak's own (a
        # tie) and just above the most prominent peak
        top = prominences.max(initial=0.0)
        levels = [0.0, PEAK_PROMINENCE * y.max(), prominences.min(initial=top), np.nextafter(top, np.inf)]
        for level in levels:
            want, _ = signal.find_peaks(y, prominence=level)
            got = _prominent_maxima(y, level)
            assert np.array_equal(got, want), (y.tolist(), level, got, want)
        # find_peaks refines the peaks at the default threshold
        grid = np.linspace(1e9, 2e9, y.size)
        resp = rn.FrequencyResponse(grid=grid, s11=np.zeros(y.size), s21=y)
        want, _ = signal.find_peaks(y, prominence=PEAK_PROMINENCE * y.max())
        expected = [_parabolic_vertex(grid, y, i)[0] for i in want]
        assert np.array_equal(rn.find_peaks(resp), expected), (y.tolist(), want)
