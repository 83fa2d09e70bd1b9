"""Atom and laser-drive input models plus the built-in effective-charge catalog."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .units import elliptical_peak_field, intensity_to_field

# Default He ionization potential in au (24.587 eV over the Hartree energy).
# Overridable in every constructor and with the CLI's --ip.
HE_IP_AU = 0.90357


class AtomConfigError(ValueError):
    """Raised for malformed or invalid atom configuration input."""


class FieldOrigin(enum.Enum):
    DIRECT = "direct"
    FROM_INTENSITY = "from_intensity"
    FROM_F0_ELLIPTICITY = "from_f0_ellipticity"


@dataclass(frozen=True)
class AtomModel:
    """One-electron model of the bound system: ionization potential plus the
    effective nuclear charge the tunneling electron sees."""

    name: str
    ip: float          # ionization potential, au
    z_eff: float       # effective nuclear charge, dimensionless
    source: str = ""   # provenance of the z_eff parameterization

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ip) and self.ip > 0):
            raise AtomConfigError(f"ip must be finite and > 0, got {self.ip!r}")
        if not (math.isfinite(self.z_eff) and self.z_eff > 0):
            raise AtomConfigError(f"z_eff must be finite and > 0, got {self.z_eff!r}")
        if not math.isfinite(self.ip * self.ip / (4.0 * self.z_eff)):
            raise AtomConfigError("ip^2 / (4 z_eff) overflows; model rejected")

    def label(self) -> str:
        return f"{self.name}:{self.source}" if self.source else self.name


@dataclass(frozen=True)
class LaserField:
    """Peak field strength of the drive, with provenance of how it was set."""

    f_peak: float                        # field strength at pulse maximum, au
    wavelength: float | None = None      # nm
    ellipticity: float | None = None
    f0: float | None = None              # major-axis amplitude when elliptical
    origin: FieldOrigin = FieldOrigin.DIRECT

    def __post_init__(self) -> None:
        if not (math.isfinite(self.f_peak) and self.f_peak > 0):
            raise ValueError(f"f_peak must be finite and > 0, got {self.f_peak!r}")
        if self.wavelength is not None and not self.wavelength > 0:
            raise ValueError(f"wavelength must be > 0, got {self.wavelength!r}")
        if self.ellipticity is not None and not 0.0 <= self.ellipticity <= 1.0:
            raise ValueError(f"ellipticity must be in [0, 1], got {self.ellipticity!r}")
        if self.origin is FieldOrigin.FROM_F0_ELLIPTICITY:
            if self.f0 is None or self.ellipticity is None:
                raise ValueError("elliptical origin requires f0 and ellipticity")
            expected = elliptical_peak_field(self.f0, self.ellipticity)
            if abs(self.f_peak - expected) > 1e-14 * expected:
                raise ValueError("f_peak inconsistent with f0 / sqrt(1 + eps^2)")

    @classmethod
    def direct(cls, f_peak: float, wavelength: float | None = None) -> "LaserField":
        return cls(f_peak=f_peak, wavelength=wavelength, origin=FieldOrigin.DIRECT)

    @classmethod
    def from_intensity(cls, intensity_w_cm2: float,
                       wavelength: float | None = None) -> "LaserField":
        return cls(f_peak=intensity_to_field(intensity_w_cm2),
                   wavelength=wavelength, origin=FieldOrigin.FROM_INTENSITY)

    @classmethod
    def from_f0_ellipticity(cls, f0: float, ellipticity: float,
                            wavelength: float | None = None) -> "LaserField":
        return cls(f_peak=elliptical_peak_field(f0, ellipticity),
                   wavelength=wavelength, ellipticity=ellipticity, f0=f0,
                   origin=FieldOrigin.FROM_F0_ELLIPTICITY)


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
        raise AtomConfigError(f"unknown atom {spec!r}; catalog: {known}")
    if len(matches) > 1:
        options = ", ".join(a.label() for a in matches)
        raise AtomConfigError(f"ambiguous atom {spec!r}; qualify as one of: {options}")
    return matches[0]
