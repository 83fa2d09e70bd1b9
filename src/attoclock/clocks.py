"""Tunneling-time estimators built on the time-energy uncertainty relation.

Every estimator is a closed form in the ionization potential and the barrier
discriminant delta_z. Below barrier suppression all times are real; above it
the barrier-crossing and approach times acquire conjugate imaginary parts
while their sum stays real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .atom import AtomModel, LaserField
from .barrier import BarrierGeometry, Regime


@dataclass(frozen=True)
class TunnelClocks:
    """All time estimators for one barrier geometry, in au.

    Real-only entries are None above barrier suppression, where
    ``complex_parts`` holds the (crossing, approach) pair instead.
    """

    tau_i: float | None        # time to reach the barrier entrance
    tau_d: float | None        # time spent under the barrier
    tau_sym: float             # total, tau_i + tau_d = ip / (4 z_eff F)
    tau_unsy: float | None     # single-sided estimate, 2 * tau_d
    tau_c: float               # first-order value at the classical exit, ip / (2F)
    tau_t: float | None        # tau_d plus the critical-field approach term
    tau_a: float               # ionization time at barrier suppression, 1 / ip
    de_plus: float | None      # energy uncertainty at the exit point
    de_minus: float | None     # energy uncertainty at the entrance point
    complex_parts: tuple[complex, complex] | None = None


def keldysh_gamma(atom: AtomModel, field: LaserField, omega: float) -> float:
    """Adiabaticity parameter omega * sqrt(2 ip) / F."""
    if not omega > 0:
        raise ValueError(f"omega must be > 0, got {omega!r}")
    return omega * math.sqrt(2.0 * atom.ip) / field.f_peak


def compute_clocks(geom: BarrierGeometry, atom: AtomModel) -> TunnelClocks:
    """Evaluate every estimator for one solved geometry.

    Below and at barrier suppression the gap ip - delta_z is formed once,
    rationalized to 4 z_eff F / (ip + delta_z) so that weak fields do not
    cancel it away; the estimators and energy uncertainties are closed forms
    in it. Above, the crossing and approach times are the conjugate pair
    1 / (2 (ip -+ i delta_z'')) whose sum is the real tau_sym.
    """
    ip, f = atom.ip, geom.f
    z4f = 4.0 * atom.z_eff * f
    if z4f == 0.0:
        raise ValueError(f"at F={f!r} au 4 z_eff F underflows to 0, so tau_sym is not finite")
    tau_sym = ip / z4f
    # Verbatim first-order term; the weak-field limit of tau_unsy itself
    # carries the effective charge, ip / (2 z_eff F).
    tau_c = ip / (2.0 * f)
    tau_a = 1.0 / ip
    if geom.regime is Regime.SUPER_ATOMIC:
        dzi = geom.delta_z_imag
        den = 2.0 * (ip * ip + dzi * dzi)
        re, im = ip / den, dzi / den
        return TunnelClocks(tau_i=None, tau_d=None, tau_sym=tau_sym,
                            tau_unsy=None, tau_c=tau_c, tau_t=None, tau_a=tau_a,
                            de_plus=None, de_minus=None,
                            complex_parts=(complex(re, im), complex(re, -im)))
    ip_plus = ip + geom.delta_z
    gap = ip if geom.delta_z == 0.0 else z4f / ip_plus
    if gap == 0.0:
        raise ValueError(f"at F={f!r} au the gap 4 z_eff F / (ip + delta_z) "
                         "underflows to 0, so tau_d is not finite")
    return TunnelClocks(
        tau_i=0.5 / ip_plus,
        tau_d=0.5 / gap,
        tau_sym=tau_sym,
        tau_unsy=1.0 / gap,
        tau_c=tau_c,
        tau_t=0.5 * (1.0 / ip + 1.0 / gap),
        tau_a=tau_a,
        de_plus=0.5 * gap,
        de_minus=0.5 * ip_plus,
        complex_parts=None,
    )
