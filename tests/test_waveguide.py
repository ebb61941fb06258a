import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import resonet as rn
from resonet.errors import BelowCutoffError, InvalidSpecError, UnknownPresetError

C0 = 299792458.0


def test_wg16_cutoff():
    fc = rn.cutoff_frequency(22.86e-3)
    assert fc == pytest.approx(6.557e9, abs=1e6)
    assert fc == pytest.approx(6.56e9, rel=1e-3)


def test_wr3_width_from_cutoff():
    assert rn.cutoff_frequency(0.762e-3) == pytest.approx(196.71e9, abs=1e7)


def test_cutoff_scaling_exact():
    assert rn.cutoff_frequency(2 * 22.86e-3) == rn.cutoff_frequency(22.86e-3) / 2.0


def test_cutoff_rejects_nonpositive():
    with pytest.raises(InvalidSpecError):
        rn.cutoff_frequency(0.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_waveguide_rejects_non_finite_width_and_frequency(value):
    with pytest.raises(InvalidSpecError):
        rn.cutoff_frequency(value)
    with pytest.raises(InvalidSpecError):
        rn.guided_wavelength(22.86e-3, value)


def test_guided_wavelength_wg16_at_10ghz():
    assert rn.guided_wavelength(22.86e-3, 10e9) == pytest.approx(39.7e-3, abs=0.1e-3)


def test_guided_wavelength_free_space_limit():
    a = 22.86e-3
    f = 1e13
    assert rn.guided_wavelength(a, f) == pytest.approx(C0 / f, rel=1e-6)


def test_guided_wavelength_diverges_at_cutoff():
    a = 22.86e-3
    f = rn.cutoff_frequency(a) * (1 + 1e-9)
    assert rn.guided_wavelength(a, f) > 1e4 * (C0 / f)


def test_below_cutoff_raises():
    a = 22.86e-3
    with pytest.raises(BelowCutoffError):
        rn.guided_wavelength(a, 5e9)
    with pytest.raises(BelowCutoffError):
        rn.guided_wavelength(a, rn.cutoff_frequency(a))


@given(st.floats(min_value=1e-4, max_value=1.0), st.floats(min_value=1.01, max_value=100.0))
def test_guided_exceeds_free_space(a, ratio):
    f = rn.cutoff_frequency(a) * ratio
    assert rn.guided_wavelength(a, f) > C0 / f


def test_wg16_preset():
    wg = rn.band_preset("WG16")
    assert wg.a == pytest.approx(22.86e-3)
    assert wg.band_start == pytest.approx(8.2e9)
    assert wg.band_stop == pytest.approx(12.4e9)
    assert wg.cutoff == pytest.approx(6.557e9, abs=1e6)


def test_wr3_preset():
    wr = rn.band_preset("wr3")  # case-insensitive
    assert wr.a == pytest.approx(0.762e-3)
    assert wr.band_start == pytest.approx(220e9)
    assert wr.band_stop == pytest.approx(325e9)
    assert wr.cutoff == pytest.approx(196.71e9, abs=1e7)


def test_presets_usable_band_starts_above_cutoff():
    for name in rn.preset_names():
        wg = rn.band_preset(name)
        assert wg.band_start > wg.cutoff


def test_unknown_preset_lists_available():
    with pytest.raises(UnknownPresetError) as err:
        rn.band_preset("WR999")
    assert "WG16" in str(err.value)
    assert "WR3" in str(err.value)


def test_waveguide_spec_validation():
    with pytest.raises(InvalidSpecError):
        rn.WaveguideSpec(name="bad", a=1e-3, b=2e-3, band_start=200e9, band_stop=300e9)
    with pytest.raises(InvalidSpecError):
        # band starts below cutoff
        rn.WaveguideSpec(name="bad", a=22.86e-3, b=10.16e-3, band_start=1e9, band_stop=12e9)
