"""Unit-conversion tests: CODATA recomputation oracles, frozen spot values,
round trips and monotonicity."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from attoclock import units
from helpers import rel_err

# CODATA 2018 primitives, frozen here independently of the package table so
# the table values are cross-checked rather than echoed.
HBAR_JS = 1.054571817e-34
HARTREE_J = 4.3597447222071e-18
EPS0_F_PER_M = 8.8541878128e-12
C_M_PER_S = 299792458.0
E_AU_V_PER_M = 5.14220674763e11


class TestConstantsTable:
    def test_au_time_matches_hbar_over_hartree(self):
        recomputed = HBAR_JS / HARTREE_J * 1e18
        assert rel_err(units.CONSTANTS.au_time_in_attoseconds, recomputed) < 1e-9

    def test_intensity_unit_matches_codata_derivation(self):
        recomputed = 0.5 * EPS0_F_PER_M * C_M_PER_S * E_AU_V_PER_M**2 / 1e4
        assert rel_err(units.CONSTANTS.intensity_au_in_w_per_cm2, recomputed) < 1e-9

    def test_table_is_immutable(self):
        with pytest.raises(Exception):
            units.CONSTANTS.speed_of_light = 1.0

    def test_table_within_invariant_ranges(self):
        table = units.CONSTANTS
        assert all(math.isfinite(value) and value > 0 for value in table[:4])
        assert 24.18 <= table.au_time_in_attoseconds <= 24.20
        assert 137.0 <= table.speed_of_light <= 137.1
        assert table.version == "codata2018"


class TestAuTimeToAttoseconds:
    def test_zero_fixed_point(self):
        assert units.au_time_to_attoseconds(0.0) == 0.0

    def test_one_au(self):
        assert rel_err(units.au_time_to_attoseconds(1.0), 24.188843265857) < 1e-12

    def test_total_time_spot_value(self):
        # matches the total-time display value at F=0.06 for He/Clementi
        assert abs(units.au_time_to_attoseconds(2.23104) - 53.97) < 5e-3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            units.au_time_to_attoseconds(bad)

    @given(st.floats(min_value=-1e6, max_value=1e6,
                     allow_nan=False, allow_infinity=False))
    def test_linear_and_sign_preserving(self, t):
        out = units.au_time_to_attoseconds(t)
        assert out == t * units.CONSTANTS.au_time_in_attoseconds
        assert math.copysign(1.0, out) == math.copysign(1.0, t) or t == 0


class TestIntensityField:
    def test_zero(self):
        assert units.intensity_to_field(0.0) == 0.0

    def test_atomic_intensity_unit_is_unit_field(self):
        assert rel_err(units.intensity_to_field(3.50944552059e16), 1.0) < 1e-12

    def test_spot_value_2e14(self):
        assert rel_err(units.intensity_to_field(2.0e14), 0.075491098560215116) < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            units.intensity_to_field(-1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            units.intensity_to_field(float("nan"))

    @given(st.floats(min_value=1e10, max_value=1e18),
           st.floats(min_value=1e10, max_value=1e18))
    def test_strictly_monotone(self, a, b):
        if a == b:
            return
        lo, hi = sorted((a, b))
        assert units.intensity_to_field(lo) < units.intensity_to_field(hi)


class TestEllipticalPeakField:
    def test_linear_polarization_identity(self):
        assert units.elliptical_peak_field(0.1, 0.0) == 0.1

    def test_experiment_ellipticity(self):
        assert rel_err(units.elliptical_peak_field(0.1, 0.87),
                       0.07544430785777147) < 1e-12

    def test_zero_amplitude(self):
        assert units.elliptical_peak_field(0.0, 0.87) == 0.0

    @pytest.mark.parametrize("eps", [-0.1, 1.0001, 2.0])
    def test_ellipticity_range_enforced(self, eps):
        with pytest.raises(ValueError):
            units.elliptical_peak_field(0.1, eps)

    @given(st.floats(min_value=1e-6, max_value=10.0),
           st.floats(min_value=0.0, max_value=1.0))
    # 1 + eps^2 rounds to 1 + 2^-52, whose square root rounds to 1: f0 is the
    # correctly rounded f0 / sqrt(1 + eps^2) here.
    @example(1.0, 1.2675895633725514e-08)
    def test_never_exceeds_f0(self, f0, eps):
        out = units.elliptical_peak_field(f0, eps)
        assert out <= f0
        if eps == 0.0:
            assert out == f0
        elif math.sqrt(1.0 + eps * eps) > 1.0:    # the divisor the function uses
            assert out < f0


class TestWavelengthToAngularFrequency:
    def test_experiment_wavelength(self):
        assert rel_err(units.wavelength_to_angular_frequency(735.0),
                       0.061990955822014545) < 1e-12

    def test_definitional_fixed_point(self):
        lam = (2.0 * math.pi * units.CONSTANTS.speed_of_light
               * units.CONSTANTS.bohr_radius_nm)
        assert rel_err(units.wavelength_to_angular_frequency(lam), 1.0) < 1e-14
        assert rel_err(units.wavelength_to_angular_frequency(45.5633), 1.0) < 1e-5

    def test_linearity_in_inverse_wavelength(self):
        assert rel_err(units.wavelength_to_angular_frequency(1470.0),
                       units.wavelength_to_angular_frequency(735.0) / 2.0) < 1e-14

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("nan"), 1e-320])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            units.wavelength_to_angular_frequency(bad)

    @given(st.floats(min_value=1.0, max_value=1e5),
           st.floats(min_value=1.0, max_value=1e5))
    def test_strictly_decreasing(self, a, b):
        if a == b:
            return
        lo, hi = sorted((a, b))
        assert (units.wavelength_to_angular_frequency(lo)
                > units.wavelength_to_angular_frequency(hi))
