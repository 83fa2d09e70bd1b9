"""Barrier geometry: frozen derived values, closed form vs bisection oracle,
algebraic root identities, regime classification."""

import math
import sys
import types

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from attoclock.atom import AtomModel
from attoclock.barrier import (ATOMIC_BAND, GEOMETRY_FIELDS, RegimeError,
                               atomic_field_strength, classify_regime, solve_geometry)
from attoclock.clocks import evaluate
from helpers import rel_err, subatomic_cases, table
from reference import exit_points_oracle, signed_barrier_height

F06 = 0.06


def potential(x, atom, f):
    """Combined potential -z_eff/x - x*F, read off the signed barrier height."""
    return -atom.ip - signed_barrier_height(x, atom, f)


def geometry(atom, f):
    """The barrier at one field: the geometry stage over a one-field chunk."""
    (segment,) = solve_geometry(atom, [f])
    return types.SimpleNamespace(**{name: segment[name][0] for name in GEOMETRY_FIELDS})


def crossings(atom, f):
    geom = geometry(atom, f)
    return geom.x_entrance, geom.x_exit

# frozen from a 50-digit evaluation of the closed forms (He, ip=0.90357)
CLEMENTI_F06 = {
    "delta_z": 0.64143491088340366,
    "x_minus": 2.1844590759716361,
    "x_plus": 12.875040924028364,
    "x_classical": 15.0595,
    "d_b": 10.690581848056728,
    "x_peak": 5.3033008588991064,
    "h_max": 0.26717389693210723,
    "veff_peak": -0.63639610306789277,
}
FA_CLEMENTI = 0.12095388813333333
FA_KULLIE = 0.14844340816363636
X_A_CLEMENTI = 3.7351837710415352        # 2 z_eff / ip
DZI_F015 = 0.44278804760291351


class TestEffectivePotential:
    def test_direct_substitution(self):
        hydrogen = AtomModel(name="H", ip=0.5, z_eff=1.0)
        # -ip + z_eff/x + x*F at x = 1
        assert signed_barrier_height(1.0, hydrogen, 0.1) == 0.6

    def test_value_at_barrier_peak(self, he_clementi):
        x_m = geometry(he_clementi, F06).x_peak
        assert rel_err(potential(x_m, he_clementi, F06),
                       CLEMENTI_F06["veff_peak"]) < 1e-12

    def test_coulomb_tail_approaches_zero_from_below(self):
        hydrogen = AtomModel(name="H", ip=0.5, z_eff=1.0)
        weak = 1e-300
        # -V(x) = z_eff/x + x*F, the signed height above the bound level
        values = [signed_barrier_height(x, hydrogen, weak) + hydrogen.ip
                  for x in (1e3, 1e6, 1e9)]
        assert all(v > 0 for v in values)
        assert values[0] > values[1] > values[2]
        assert abs(values[-1]) < 1e-8

    def test_domain_error(self, he_clementi):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                signed_barrier_height(bad, he_clementi, F06)


class TestBarrierHeight:
    def test_zero_at_both_crossings(self, he_clementi):
        x_minus, x_plus = crossings(he_clementi, F06)
        assert abs(signed_barrier_height(x_minus, he_clementi, F06)) <= 1e-12 * he_clementi.ip
        assert abs(signed_barrier_height(x_plus, he_clementi, F06)) <= 1e-12 * he_clementi.ip

    def test_maximum_value(self, he_clementi):
        x_m = geometry(he_clementi, F06).x_peak
        assert rel_err(abs(signed_barrier_height(x_m, he_clementi, F06)),
                       CLEMENTI_F06["h_max"]) < 1e-12
        assert rel_err(geometry(he_clementi, F06).h_max,
                       CLEMENTI_F06["h_max"]) < 1e-12

    def test_peak_is_extremum_of_potential(self, he_clementi):
        # V is maximal at x_peak, so the signed height (-ip - V) is minimal
        # there and the absolute height is maximal between the crossings.
        x_m = geometry(he_clementi, F06).x_peak
        h_peak = signed_barrier_height(x_m, he_clementi, F06)
        n = 10_000
        for i in range(n + 1):
            x = 0.1 * x_m + (10.0 * x_m - 0.1 * x_m) * i / n
            assert signed_barrier_height(x, he_clementi, F06) >= h_peak

    def test_h_max_matches_grid_maximum_inside_barrier(self, he_clementi):
        x_minus, x_plus = crossings(he_clementi, F06)
        n = 10_000
        grid_max = max(abs(signed_barrier_height(x_minus + (x_plus - x_minus) * i / n,
                                                 he_clementi, F06)) for i in range(n + 1))
        geom = geometry(he_clementi, F06)
        assert abs(geom.h_max - grid_max) < 1e-8


class TestBarrierPeak:
    def test_clementi_f006(self, he_clementi):
        assert rel_err(geometry(he_clementi, F06).x_peak,
                       CLEMENTI_F06["x_peak"]) < 1e-12

    def test_unit_case(self):
        model = AtomModel(name="U", ip=1.0, z_eff=1.0)
        assert geometry(model, 1.0).x_peak == 1.0

    def test_peak_at_critical_field_is_2z_over_ip(self, he_clementi):
        fa = atomic_field_strength(he_clementi)
        assert rel_err(geometry(he_clementi, fa).x_peak, X_A_CLEMENTI) < 1e-12

    @pytest.mark.parametrize("f", [1e-320, 5e-324])
    def test_tiny_field_against_decimal(self, he_clementi, f):
        # z_eff / F overflows here, but its root (about 1e160) does not
        assert reference.close(geometry(he_clementi, f).x_peak,
                               reference.point(he_clementi, f)["x_peak"])


class TestAtomicFieldStrength:
    def test_both_he_models(self, he_clementi, he_kullie):
        assert rel_err(atomic_field_strength(he_clementi), FA_CLEMENTI) < 1e-14
        assert rel_err(atomic_field_strength(he_kullie), FA_KULLIE) < 1e-14

    def test_hydrogen_textbook_value(self):
        assert atomic_field_strength(AtomModel(name="H", ip=0.5, z_eff=1.0)) == 0.0625

    def test_appearance_intensity_is_square(self, he_clementi):
        fa = atomic_field_strength(he_clementi)
        assert next(table(("i_a_au",), he_clementi, [None])) == (fa * fa,)

    def test_h_max_vanishes_at_critical_field(self, he_clementi):
        fa = atomic_field_strength(he_clementi)
        geom = geometry(he_clementi, fa)
        assert geom.h_max <= 1e-12


class TestDeltaZ:
    def test_zero_at_critical_field(self, he_clementi):
        fa = atomic_field_strength(he_clementi)
        geom = geometry(he_clementi, fa)
        assert (geom.delta_z, geom.delta_z_imag) == (0.0, 0.0)

    def test_subatomic_value(self, he_clementi):
        geom = geometry(he_clementi, F06)
        assert rel_err(geom.delta_z, CLEMENTI_F06["delta_z"]) < 1e-12
        assert geom.delta_z_imag == 0.0

    def test_superatomic_value(self, he_clementi):
        geom = geometry(he_clementi, 0.15)
        assert geom.delta_z == 0.0
        assert rel_err(geom.delta_z_imag, DZI_F015) < 1e-12


class TestExitPoints:
    def test_clementi_f006(self, he_clementi):
        x_minus, x_plus = crossings(he_clementi, F06)
        assert rel_err(x_minus, CLEMENTI_F06["x_minus"]) < 1e-12
        assert rel_err(x_plus, CLEMENTI_F06["x_plus"]) < 1e-12

    def test_double_root_at_critical_field(self, he_clementi):
        fa = atomic_field_strength(he_clementi)
        x_minus, x_plus = crossings(he_clementi, fa)
        assert x_minus == x_plus
        assert rel_err(x_minus, X_A_CLEMENTI) < 1e-12

    def test_sum_is_classical_exit(self, he_clementi):
        geom = geometry(he_clementi, F06)
        assert rel_err(geom.x_entrance + geom.x_exit, geom.x_classical) < 1e-12

    def test_superatomic_error_carries_complex_pair(self, he_clementi):
        # no real crossings: (ip -+ i delta_z'') / (2F) is left to the caller
        geom = geometry(he_clementi, 0.15)
        assert geom.x_entrance is None and geom.x_exit is None
        assert rel_err(geom.delta_z_imag / (2 * geom.f), DZI_F015 / 0.3) < 1e-12

    @pytest.mark.parametrize("f", [1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14])
    def test_weak_field_entrance_against_decimal(self, he_clementi, f):
        # the double-precision difference form (ip - delta_z) / (2F) loses up to 1e-3 here
        x_minus = geometry(he_clementi, f).x_entrance
        assert reference.close(x_minus, reference.point(he_clementi, f)["x_entrance"], rel=1e-15)

    @given(subatomic_cases())
    def test_vieta_identities_and_root_property(self, case):
        atom, f = case
        x_minus, x_plus = crossings(atom, f)
        assert 0 < x_minus <= x_plus
        assert rel_err(x_minus + x_plus, atom.ip / f) < 1e-12
        assert rel_err(x_minus * x_plus, atom.z_eff / f) < 1e-12
        assert abs(signed_barrier_height(x_minus, atom, f)) <= 1e-12 * atom.ip
        assert abs(signed_barrier_height(x_plus, atom, f)) <= 1e-12 * atom.ip


class TestClassicalExit:
    def test_clementi_f006(self, he_clementi):
        assert rel_err(geometry(he_clementi, F06).x_classical,
                       CLEMENTI_F06["x_classical"]) < 1e-12

    def test_unit_case(self):
        model = AtomModel(name="U", ip=1.0, z_eff=1.0)
        assert geometry(model, 1.0).x_classical == 1.0


class TestBarrierWidth:
    def test_clementi_f006(self, he_clementi):
        assert rel_err(geometry(he_clementi, F06).barrier_width,
                       CLEMENTI_F06["d_b"]) < 1e-12

    def test_vanishes_at_critical_field(self, he_clementi):
        fa = atomic_field_strength(he_clementi)
        assert geometry(he_clementi, fa).barrier_width == 0.0

    def test_equals_exit_point_separation(self, he_clementi):
        geom = geometry(he_clementi, F06)
        assert rel_err(geom.barrier_width, geom.x_exit - geom.x_entrance) < 1e-12

    def test_strictly_decreasing_in_field(self, he_clementi):
        fa = atomic_field_strength(he_clementi)
        widths = [geometry(he_clementi, frac * fa).barrier_width
                  for frac in [k / 200 for k in range(1, 200)]]
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_superatomic_error(self, he_clementi):
        assert geometry(he_clementi, 0.15).barrier_width is None


class TestFieldCheck:
    @pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
    def test_bad_field_rejected(self, he_clementi, f):
        # evaluate's own check, reached without LaserField in front of it
        with pytest.raises(ValueError, match="f_peak must be finite and > 0"):
            evaluate(he_clementi, f)


class TestExitPointsOracle:
    @pytest.mark.parametrize("frac", [0.1, 0.4960, 0.9, 1 - 1e-6])
    def test_matches_closed_form(self, he_clementi, frac):
        f = frac * atomic_field_strength(he_clementi)
        closed = crossings(he_clementi, f)
        bisected = exit_points_oracle(he_clementi, f, tol=1e-12)
        assert abs(closed[0] - bisected[0]) <= 1e-10
        assert abs(closed[1] - bisected[1]) <= 1e-10

    def test_roots_inside_classical_exit(self, he_clementi):
        f = 0.9 * atomic_field_strength(he_clementi)
        x_minus, x_plus = exit_points_oracle(he_clementi, f)
        assert 0 < x_minus < x_plus < he_clementi.ip / f

    def test_near_degenerate_roots_straddle_peak(self, he_clementi):
        fa = atomic_field_strength(he_clementi)
        f = fa * (1 - 1e-6)
        x_minus, x_plus = exit_points_oracle(he_clementi, f, tol=1e-13)
        x_m = geometry(he_clementi, f).x_peak
        assert x_minus < x_m < x_plus
        assert rel_err(x_plus - x_minus,
                       geometry(he_clementi, f).barrier_width) < 1e-4

    def test_bad_tolerance(self, he_clementi):
        with pytest.raises(ValueError):
            exit_points_oracle(he_clementi, F06, tol=0.0)

    def test_degenerate_regime_rejected(self, he_clementi):
        fa = atomic_field_strength(he_clementi)
        with pytest.raises(RegimeError):
            exit_points_oracle(he_clementi, fa)


class TestRegimeClassification:
    def test_band_around_critical_field(self, he_clementi):
        fa = atomic_field_strength(he_clementi)
        assert classify_regime(he_clementi, fa) == "atomic"
        inside = fa * (1 + 0.5 * ATOMIC_BAND)
        assert classify_regime(he_clementi, inside) == "atomic"
        below = fa * (1 - 1e-9)
        assert classify_regime(he_clementi, below) == "sub_atomic"
        above = fa * (1 + 1e-9)
        assert classify_regime(he_clementi, above) == "super_atomic"


def ulps_from(x: float, k: int) -> float:
    """The float ``k`` steps above ``x`` (below it for negative ``k``)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


class TestDiscriminantSign:
    """disc = ip^2 - 4 z_eff F has the sign of its regime and is never 0 outside
    the band, so solve_geometry takes its root without clamping it at 0. Below
    F_a the regime needs F < fl(ip^2 / 4 z_eff), hence F < ip^2 / (4 z_eff)
    exactly (F_a is rounded to nearest), hence 4 z_eff F < ip^2 and
    fl(4 z_eff F) <= ip^2. Above F_a the same steps give >=. AtomModel keeps
    ip^2 and F_a normal, so the band spans about 10^4 ulps of each, and outside
    it 4 z_eff F differs from ip^2 by more than rounding can close."""

    @settings(max_examples=1000, deadline=None)
    @given(st.floats(-153.8, 154.1), st.floats(0.0, 1.0),
           st.sampled_from((-1.0, 0.0, 1.0)), st.floats(-12.0, -0.1), st.integers(-60, 60))
    def test_sign_matches_regime_near_critical_field(self, log_ip, t, side, u, k):
        # log-uniform ip with ip^2 normal, and log-uniform z_eff over the range that
        # keeps F_a = ip^2 / (4 z_eff) normal and 4 z_eff finite
        lo, hi = max(2.0 * log_ip - 308.8, -323.0), min(2.0 * log_ip + 307.0, 307.6)
        ip, z_eff = 10.0 ** log_ip, 10.0 ** (lo + t * (hi - lo))
        assume(sys.float_info.min <= ip * ip / (4.0 * z_eff) < math.inf)
        atom = AtomModel(name="X", ip=ip, z_eff=z_eff)
        # k ulps from F_a, which stays in the band, or from F_a (1 +- 10^u) outside it
        f = ulps_from(atomic_field_strength(atom) * (1.0 + side * 10.0 ** u), k)
        assume(0.0 < f < math.inf)
        z4f = 4.0 * z_eff * f
        disc = ip * ip - z4f
        geom = geometry(atom, f)
        if geom.regime == "sub_atomic":
            assert disc > 0.0 and geom.delta_z == math.sqrt(disc)
        elif geom.regime == "super_atomic" and z4f < math.inf:
            assert disc < 0.0 and geom.delta_z_imag == math.sqrt(-disc)

    def test_subnormal_critical_field_is_rejected(self):
        # ip^2 = 1000 and F_a = 100000 subnormal spacings: F one spacing off F_a
        # moved 4 z_eff F by 0.01 of one, which rounded back to ip^2, so disc was
        # 0 outside the band
        with pytest.raises(ValueError, match=r"^ip\^2 underflows; model rejected$"):
            AtomModel(name="X", ip=7.0289803374404635e-161, z_eff=0.0025)


class TestSolveGeometry:
    def test_subatomic_invariants(self, he_clementi):
        geom = geometry(he_clementi, F06)
        assert geom.regime == "sub_atomic"
        assert 0 < geom.x_entrance <= geom.x_peak <= geom.x_exit
        assert geom.delta_z > 0 and geom.delta_z_imag == 0.0

    def test_atomic_invariants(self, he_clementi):
        fa = atomic_field_strength(he_clementi)
        geom = geometry(he_clementi, fa)
        assert geom.regime == "atomic"
        assert geom.x_entrance == geom.x_peak == geom.x_exit
        assert geom.delta_z == 0.0 and geom.barrier_width == 0.0

    def test_superatomic_invariants(self, he_clementi):
        geom = geometry(he_clementi, 0.15)
        assert geom.regime == "super_atomic"
        assert geom.x_entrance is None and geom.x_exit is None
        assert geom.barrier_width is None
        assert geom.delta_z == 0.0 and geom.delta_z_imag > 0.0
        assert math.isfinite(geom.x_peak) and geom.x_peak > 0
