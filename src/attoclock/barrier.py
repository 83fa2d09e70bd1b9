"""Static barrier geometry of the combined Coulomb + quasistatic-field potential.

The one-dimensional effective potential -z_eff/x - x*F forms a barrier between
the bound level -ip and the continuum. This module solves where that barrier
starts, peaks and ends, and classifies the field regime relative to the
barrier-suppression field strength.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .atom import AtomModel, LaserField

# Fields within this relative band of the barrier-suppression value are
# treated as exactly critical: the discriminant crosses zero there and an
# exact equality test would be meaningless in floating point.
ATOMIC_BAND = 1e-12


class Regime(enum.Enum):
    SUB_ATOMIC = "sub_atomic"
    ATOMIC = "atomic"
    SUPER_ATOMIC = "super_atomic"


class RegimeError(Exception):
    """Raised when an operation needs a field regime it was not given."""


@dataclass(frozen=True)
class BarrierGeometry:
    """Solved barrier geometry for one (atom, field) pair. Lengths and
    energies in au; entrance/exit/width are None above barrier suppression
    where the crossings move off the real axis."""

    f: float
    delta_z: float
    delta_z_imag: float
    x_entrance: float | None
    x_exit: float | None
    x_classical: float
    x_peak: float
    barrier_width: float | None
    h_max: float
    regime: Regime


def signed_barrier_height(x: float, atom: AtomModel, field: LaserField) -> float:
    """Bound level minus effective potential, -ip - V(x); negative inside the
    barrier, zero at the crossings."""
    if not x > 0:
        raise ValueError(f"x must be > 0, got {x!r}")
    return -atom.ip + atom.z_eff / x + x * field.f_peak


def barrier_peak_position(atom: AtomModel, field: LaserField) -> float:
    """Position of the barrier maximum, sqrt(z_eff / F)."""
    return math.sqrt(atom.z_eff / field.f_peak)


def atomic_field_strength(atom: AtomModel) -> float:
    """Barrier-suppression field strength ip^2 / (4 z_eff)."""
    return atom.ip * atom.ip / (4.0 * atom.z_eff)


def appearance_intensity(atom: AtomModel) -> float:
    """Intensity (au) at which the barrier maximum reaches the bound level."""
    fa = atomic_field_strength(atom)
    return fa * fa


def classify_regime(atom: AtomModel, field: LaserField) -> Regime:
    fa = atomic_field_strength(atom)
    if abs(field.f_peak - fa) <= ATOMIC_BAND * fa:
        return Regime.ATOMIC
    return Regime.SUB_ATOMIC if field.f_peak < fa else Regime.SUPER_ATOMIC


def _bisect(h, lo: float, hi: float, tol: float) -> float:
    h_lo = h(lo)
    if h_lo == 0.0:
        return lo
    if h(hi) == 0.0:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        h_mid = h(mid)
        if h_mid == 0.0:
            return mid
        if (h_mid > 0.0) == (h_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exit_points_oracle(atom: AtomModel, field: LaserField,
                       tol: float = 1e-12) -> tuple[float, float]:
    """Locate both barrier crossings by pure sign-change bisection.

    Verification path for :func:`solve_geometry`: the roots of the signed
    barrier height are bracketed on either side of the barrier peak and
    bisected to ``tol``; the closed-form solution is never consulted.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if classify_regime(atom, field) is not Regime.SUB_ATOMIC:
        raise RegimeError("oracle requires a sub-atomic field with two distinct crossings")

    def h(x: float) -> float:
        return signed_barrier_height(x, atom, field)

    x_peak = barrier_peak_position(atom, field)
    if not h(x_peak) < 0.0:
        raise RuntimeError(
            "internal inconsistency: barrier peak not below the bound level "
            "in a field classified sub-atomic")
    lo = x_peak
    for _ in range(2048):
        lo *= 0.5
        if h(lo) > 0.0:
            break
    else:
        raise RuntimeError("internal inconsistency: failed to bracket the inner crossing")
    hi = 1.5 * atom.ip / field.f_peak   # outer crossing is below ip/F always
    if not h(hi) > 0.0:
        raise RuntimeError("internal inconsistency: failed to bracket the outer crossing")
    return (_bisect(h, lo, x_peak, tol), _bisect(h, x_peak, hi, tol))


def solve_geometry(atom: AtomModel, field: LaserField) -> BarrierGeometry:
    """Full barrier solution for one (atom, field) pair.

    The regime is classified once and the discriminant
    delta_z = sqrt(ip^2 - 4 z_eff F) is taken once: real and positive below
    barrier suppression, zero at it, and purely imaginary above, where the
    crossings leave the real axis and entrance, exit and width are None.
    """
    regime = classify_regime(atom, field)
    f = field.f_peak
    ip = atom.ip
    x_peak = barrier_peak_position(atom, field)
    h_max = abs(-ip + math.sqrt(4.0 * atom.z_eff * f))
    x_c = ip / f                      # classical exit, binding potential neglected
    if regime is Regime.ATOMIC:
        return BarrierGeometry(f=f, delta_z=0.0, delta_z_imag=0.0,
                               x_entrance=x_peak, x_exit=x_peak, x_classical=x_c,
                               x_peak=x_peak, barrier_width=0.0, h_max=h_max,
                               regime=regime)
    disc = ip * ip - 4.0 * atom.z_eff * f
    if regime is Regime.SUPER_ATOMIC:
        return BarrierGeometry(f=f, delta_z=0.0, delta_z_imag=math.sqrt(max(-disc, 0.0)),
                               x_entrance=None, x_exit=None, x_classical=x_c,
                               x_peak=x_peak, barrier_width=None, h_max=h_max,
                               regime=regime)
    dz = math.sqrt(max(disc, 0.0))
    ip_plus = ip + dz
    # The entrance (ip - dz) / (2F), rationalized to 2 z_eff / (ip + dz):
    # the difference form cancels catastrophically at weak fields.
    return BarrierGeometry(f=f, delta_z=dz, delta_z_imag=0.0,
                           x_entrance=2.0 * atom.z_eff / ip_plus,
                           x_exit=ip_plus / (2.0 * f), x_classical=x_c,
                           x_peak=x_peak, barrier_width=dz / f, h_max=h_max,
                           regime=regime)
