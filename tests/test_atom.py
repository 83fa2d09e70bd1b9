"""Atom/laser input models: catalog contents and validation."""

import math

import pytest

from attoclock.atom import (AtomConfigError, AtomModel, FieldOrigin, HE_IP_AU,
                            LaserField, builtin_catalog, catalog_lookup)
from attoclock.barrier import atomic_field_strength
from helpers import rel_err

# NIST He I ionization energy in eV, divided by the Hartree in eV.
HE_IP_EV = 24.587389011
HARTREE_EV = 27.211386245988


class TestCatalog:
    def test_contains_both_effective_charge_models(self):
        z_by_source = {a.source: a.z_eff for a in builtin_catalog()}
        assert z_by_source["Kullie"] == 1.375
        assert z_by_source["Clementi"] == 1.6875

    def test_entries_share_default_ionization_potential(self):
        ips = {a.ip for a in builtin_catalog()}
        assert ips == {HE_IP_AU}

    def test_default_ip_matches_ev_recomputation(self):
        assert rel_err(HE_IP_AU, HE_IP_EV / HARTREE_EV) < 1e-6

    def test_entries_satisfy_invariants(self):
        for entry in builtin_catalog():
            assert entry.ip > 0 and entry.z_eff > 0
            fa = atomic_field_strength(entry)
            assert math.isfinite(fa) and fa > 0

    def test_lookup_is_case_insensitive(self):
        assert catalog_lookup("he:KULLIE").z_eff == 1.375
        assert catalog_lookup("He:clementi").z_eff == 1.6875

    def test_bare_name_with_two_models_is_ambiguous(self):
        with pytest.raises(AtomConfigError, match="ambiguous"):
            catalog_lookup("He")

    def test_unknown_atom(self):
        with pytest.raises(AtomConfigError, match="unknown"):
            catalog_lookup("Xe")


class TestAtomModelValidation:
    @pytest.mark.parametrize("ip,z", [(0.0, 1.0), (-1.0, 1.0), (float("nan"), 1.0),
                                      (1.0, 0.0), (1.0, -2.0)])
    def test_invalid_fields_rejected(self, ip, z):
        with pytest.raises(ValueError):
            AtomModel(name="X", ip=ip, z_eff=z)


class TestLaserField:
    def test_direct(self):
        field = LaserField.direct(0.06)
        assert field.f_peak == 0.06 and field.origin is FieldOrigin.DIRECT

    @pytest.mark.parametrize("bad", [0.0, -0.1, float("nan"), float("inf")])
    def test_invalid_peak_rejected(self, bad):
        with pytest.raises(ValueError):
            LaserField.direct(bad)

    def test_from_intensity(self):
        field = LaserField.from_intensity(2.0e14)
        assert rel_err(field.f_peak, 0.075491098560215116) < 1e-12
        assert field.origin is FieldOrigin.FROM_INTENSITY

    def test_from_f0_ellipticity(self):
        field = LaserField.from_f0_ellipticity(0.1, 0.87, wavelength=735.0)
        assert rel_err(field.f_peak, 0.07544430785777147) < 1e-12
        assert field.f0 == 0.1 and field.ellipticity == 0.87
        assert field.wavelength == 735.0

    def test_elliptical_consistency_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            LaserField(f_peak=0.1, f0=0.1, ellipticity=0.87,
                       origin=FieldOrigin.FROM_F0_ELLIPTICITY)

    def test_ellipticity_range(self):
        with pytest.raises(ValueError):
            LaserField.from_f0_ellipticity(0.1, 1.5)

    def test_wavelength_must_be_positive(self):
        with pytest.raises(ValueError):
            LaserField.direct(0.06, wavelength=-735.0)
