"""Atomic-unit conversions used at the I/O boundaries of the package.

All internal physics is done in Hartree atomic units; attoseconds and
W/cm^2 appear only when reading laser parameters or printing results.
"""

from __future__ import annotations

import collections
import math

# Conversion table (CODATA 2018), the single source of truth for every unit factor
# in the package. speed_of_light is in au (the inverse fine-structure constant).
PhysicalConstants = collections.namedtuple(
    "PhysicalConstants", "au_time_in_attoseconds speed_of_light "
                         "intensity_au_in_w_per_cm2 bohr_radius_nm version",
    defaults=("codata2018",))

CONSTANTS = PhysicalConstants(
    au_time_in_attoseconds=24.188843265857,       # hbar / E_h, in as
    speed_of_light=137.035999084,                 # 1 / alpha
    intensity_au_in_w_per_cm2=3.50944552059e16,   # eps0 c E_au^2 / 2
    bohr_radius_nm=0.0529177210903,
)


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def au_time_to_attoseconds(t: float) -> float:
    """Convert a time from atomic units to attoseconds."""
    return _require_finite("t", t) * CONSTANTS.au_time_in_attoseconds


def intensity_to_field(intensity_w_cm2: float) -> float:
    """Peak field strength in au for a laser intensity in W/cm^2."""
    intensity_w_cm2 = _require_finite("intensity", intensity_w_cm2)
    if intensity_w_cm2 < 0:
        raise ValueError(f"intensity must be >= 0, got {intensity_w_cm2!r}")
    return math.sqrt(intensity_w_cm2 / CONSTANTS.intensity_au_in_w_per_cm2)


def elliptical_peak_field(f0: float, ellipticity: float) -> float:
    """Field strength at maximum of an elliptically polarized pulse,
    F0 / sqrt(1 + eps^2)."""
    f0 = _require_finite("f0", f0)
    ellipticity = _require_finite("ellipticity", ellipticity)
    if f0 < 0:
        raise ValueError(f"f0 must be >= 0, got {f0!r}")
    if not 0.0 <= ellipticity <= 1.0:
        raise ValueError(f"ellipticity must be in [0, 1], got {ellipticity!r}")
    return f0 / math.sqrt(1.0 + ellipticity * ellipticity)


def wavelength_to_angular_frequency(wavelength_nm: float) -> float:
    """Angular frequency in au of light with the given vacuum wavelength."""
    wavelength_nm = _require_finite("wavelength", wavelength_nm)
    if wavelength_nm <= 0:
        raise ValueError(f"wavelength must be > 0, got {wavelength_nm!r}")
    omega = 2.0 * math.pi * CONSTANTS.speed_of_light * CONSTANTS.bohr_radius_nm / wavelength_nm
    if not math.isfinite(omega):
        raise ValueError(f"wavelength {wavelength_nm!r} nm overflows the angular frequency")
    return omega
