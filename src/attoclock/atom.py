"""Atom and laser-drive input models plus the built-in effective-charge catalog."""

import collections
import math
import sys

from .units import elliptical_peak_field, intensity_to_field

# The catalog's He ionization potential in au (24.587 eV over the Hartree energy).
HE_IP_AU = 0.90357


class AtomModel(collections.namedtuple("AtomModel", "name ip z_eff source")):
    """One-electron model of the bound system: ionization potential (au) plus the
    effective nuclear charge the tunneling electron sees, and its provenance."""

    __slots__ = ()

    def __new__(cls, name: str, ip: float, z_eff: float, source: str = "") -> "AtomModel":
        self = super().__new__(cls, name, ip, z_eff, source)
        if not (math.isfinite(ip) and ip > 0):
            raise ValueError(f"ip must be finite and > 0, got {ip!r}")
        if not (math.isfinite(z_eff) and z_eff > 0):
            raise ValueError(f"z_eff must be finite and > 0, got {z_eff!r}")
        ip2 = ip * ip
        f_a = ip2 / (4.0 * z_eff)
        if not math.isfinite(f_a):
            raise ValueError("ip^2 / (4 z_eff) overflows; model rejected")
        # Below the normal range they have lost bits: 4 z_eff F can round to ip^2
        # outside the band around F_a, and the barrier width to 0.
        if ip2 < sys.float_info.min:
            raise ValueError("ip^2 underflows; model rejected")
        if f_a < sys.float_info.min:
            raise ValueError("ip^2 / (4 z_eff) underflows; model rejected")
        if any(ch in name + source for ch in ',"\r\n'):   # they are CSV cells
            raise ValueError(f"comma, quote or line break in atom {self.label()!r}")
        if name.startswith("#"):   # it starts data rows, where '#' marks metadata
            raise ValueError(f"atom name {name!r} starts with '#'")
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))   # _replace validates too

    def label(self) -> str:
        return f"{self.name}:{self.source}" if self.source else self.name


class LaserField(collections.namedtuple("LaserField", "f_peak origin")):
    """Peak field strength (au) of the drive, F0 / sqrt(1 + eps^2) for an elliptical
    pulse, and how it was set: "direct", "from_intensity" or "from_f0_ellipticity"."""

    __slots__ = ()

    def __new__(cls, f_peak: float, origin: str) -> "LaserField":
        if not (math.isfinite(f_peak) and f_peak > 0):
            raise ValueError(f"f_peak must be finite and > 0, got {f_peak!r}")
        return super().__new__(cls, f_peak, origin)

    _make = classmethod(lambda cls, iterable: cls(*iterable))   # _replace validates too

    @classmethod
    def direct(cls, f_peak: float) -> "LaserField":
        return cls(f_peak, "direct")

    @classmethod
    def from_intensity(cls, intensity_w_cm2: float) -> "LaserField":
        return cls(intensity_to_field(intensity_w_cm2), "from_intensity")

    @classmethod
    def from_f0_ellipticity(cls, f0: float, ellipticity: float) -> "LaserField":
        return cls(elliptical_peak_field(f0, ellipticity), "from_f0_ellipticity")


def builtin_catalog() -> tuple[AtomModel, ...]:
    """Effective-charge parameterizations shipped with the package.

    Both He entries share the same ionization potential; they differ in how
    the screening of the remaining core electron is modeled.
    """
    return (
        AtomModel(name="He", ip=HE_IP_AU, z_eff=1.375, source="Kullie"),
        AtomModel(name="He", ip=HE_IP_AU, z_eff=1.6875, source="Clementi"),
    )


def catalog_lookup(spec: str) -> AtomModel:
    """Resolve a ``NAME[:MODEL]`` string against the built-in catalog.

    Matching is case-insensitive; MODEL matches the entry's source label.
    A bare NAME with several catalog entries is ambiguous and rejected.
    """
    name, _, model = spec.partition(":")
    matches = [a for a in builtin_catalog() if a.name.lower() == name.strip().lower()]
    if model:
        matches = [a for a in matches if a.source.lower() == model.strip().lower()]
    if not matches:
        known = ", ".join(a.label() for a in builtin_catalog())
        raise ValueError(f"unknown atom {spec!r}; catalog: {known}")
    if len(matches) > 1:
        options = ", ".join(a.label() for a in matches)
        raise ValueError(f"ambiguous atom {spec!r}; qualify as one of: {options}")
    return matches[0]
