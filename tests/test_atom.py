"""Atom/laser input models: catalog contents and validation."""

import math
import sys

import pytest

from attoclock.atom import (AtomModel, HE_IP_AU, LaserField, builtin_catalog,
                            catalog_lookup)
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
        with pytest.raises(ValueError, match="ambiguous"):
            catalog_lookup("He")

    def test_unknown_atom(self):
        with pytest.raises(ValueError, match="unknown"):
            catalog_lookup("Xe")


class TestAtomModelValidation:
    @pytest.mark.parametrize("ip,z", [(0.0, 1.0), (-1.0, 1.0), (float("nan"), 1.0),
                                      (1.0, 0.0), (1.0, -2.0)])
    def test_invalid_fields_rejected(self, ip, z):
        with pytest.raises(ValueError):
            AtomModel(name="X", ip=ip, z_eff=z)

    # F_a = ip^2 / (4 z_eff) overflows: from ip^2, or from the division by a tiny z_eff
    @pytest.mark.parametrize("ip,z", [(1e200, 1.0), (1e154, 1e-10)])
    def test_overflowing_critical_field_rejected(self, ip, z):
        with pytest.raises(ValueError, match=r"^ip\^2 / \(4 z_eff\) overflows; model rejected$"):
            AtomModel(name="X", ip=ip, z_eff=z)

    # ip^2 or F_a below the smallest normal double: both must be normal
    @pytest.mark.parametrize("ip,z,quantity", [
        (1e-170, 1.0, r"ip\^2"),                          # ip^2 is 0
        (1e-160, 1e-300, r"ip\^2"),                       # F_a normal, ip^2 not
        (1e-150, 1e10, r"ip\^2 / \(4 z_eff\)"),           # ip^2 normal, F_a not
        (1.0, 1e308, r"ip\^2 / \(4 z_eff\)"),             # 4 z_eff overflows: F_a is 0
    ])
    def test_underflowing_critical_field_rejected(self, ip, z, quantity):
        with pytest.raises(ValueError, match=rf"^{quantity} underflows; model rejected$"):
            AtomModel(name="X", ip=ip, z_eff=z)

    def test_smallest_normal_critical_field_accepted(self):
        ip = math.sqrt(sys.float_info.min)        # ip^2 and F_a are the smallest normal
        atom = AtomModel(name="X", ip=ip, z_eff=0.25)
        assert ip * ip == atomic_field_strength(atom) == sys.float_info.min
        with pytest.raises(ValueError, match=r"^ip\^2 underflows"):
            atom._replace(ip=math.nextafter(ip, 0.0))

    @pytest.mark.parametrize("name,source", [("a,b", ""), ('a"b', ""), ("a\rb", ""),
                                             ("X", "a\nb"), ("X", "a,b")])
    def test_label_that_breaks_csv_rejected(self, name, source):
        with pytest.raises(ValueError, match="line break"):
            AtomModel(name=name, ip=0.5, z_eff=1.0, source=source)

    @pytest.mark.parametrize("name", ["#H", "# atom=He"])
    def test_name_that_reads_as_metadata_rejected(self, name):
        # a data row that starts with '#' is dropped as a metadata line
        with pytest.raises(ValueError, match="starts with '#'"):
            AtomModel(name=name, ip=0.5, z_eff=1.0)

    def test_replace_validates(self, he_clementi):
        assert he_clementi._replace(source="X") == AtomModel("He", HE_IP_AU, 1.6875, "X")
        with pytest.raises(ValueError, match="ip must be finite and > 0"):
            he_clementi._replace(ip=-1.0)


class TestLaserField:
    def test_direct(self):
        field = LaserField.direct(0.06)
        assert field.f_peak == 0.06 and field.origin == "direct"
        assert field == (0.06, "direct") and LaserField._fields == ("f_peak", "origin")

    @pytest.mark.parametrize("bad", [0.0, -0.1, float("nan"), float("inf")])
    def test_invalid_peak_rejected(self, bad):
        with pytest.raises(ValueError):
            LaserField.direct(bad)

    def test_from_intensity(self):
        field = LaserField.from_intensity(2.0e14)
        assert rel_err(field.f_peak, 0.075491098560215116) < 1e-12
        assert field.origin == "from_intensity"

    def test_from_f0_ellipticity(self):
        field = LaserField.from_f0_ellipticity(0.1, 0.87)
        assert rel_err(field.f_peak, 0.07544430785777147) < 1e-12
        assert field.origin == "from_f0_ellipticity"

    def test_ellipticity_range(self):
        with pytest.raises(ValueError, match="ellipticity must be in"):
            LaserField.from_f0_ellipticity(0.1, 1.5)

    def test_replace_validates(self):
        assert LaserField.direct(0.06)._replace(f_peak=0.07) == (0.07, "direct")
        with pytest.raises(ValueError, match="f_peak must be finite and > 0"):
            LaserField.direct(0.06)._replace(f_peak=-1.0)
