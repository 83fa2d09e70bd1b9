"""One closed-form evaluation per (atom, field) point: the barrier geometry and
every tunneling-time estimator built on the time-energy uncertainty relation.

Every quantity is a closed form in the ionization potential and the barrier
discriminant delta_z. Below barrier suppression all times are real; above it
the barrier-crossing and approach times acquire conjugate imaginary parts
while their sum stays real.
"""

import collections
import math

from .atom import AtomModel
from .barrier import Geometry, solve_geometry

# One point, in au: its Geometry, then the times, all functions of (atom, F)
# alone. None marks what it lacks: above barrier suppression the real-only times
# and energy uncertainties; at or below it the complex crossing time tau_d_re +
# i tau_d_im (the approach time is its conjugate). The drive's gamma_k is an
# output column of harness.COLUMNS, not a field.
Point = collections.namedtuple(
    "Point", Geometry._fields + ("tau_i", "tau_d", "tau_sym", "tau_unsy", "tau_c",
                                 "tau_t", "tau_a", "de_plus", "de_minus", "tau_d_re",
                                 "tau_d_im"))


def evaluate(atom: AtomModel, f: float) -> Point:
    """Every quantity of README's closed-form table at field ``f`` (au)."""
    return compute_clocks(atom, solve_geometry(atom, f))


def compute_clocks(atom: AtomModel, geometry: Geometry) -> Point:
    """The point of a solved geometry: every time estimator. The gap
    ip - delta_z is taken as 4 z_eff F / (ip + delta_z), which weak fields do not
    cancel away; above barrier suppression the crossing time is
    1 / (2 (ip - i |delta_z|)), taken through sqrt(4 z_eff F) where 4 z_eff F
    overflows. 4 z_eff F or the gap underflowing to 0 is an error."""
    f, regime, dz, dzi = geometry[:4]
    ip = atom.ip
    z4f = 4.0 * atom.z_eff * f
    if z4f == 0.0:
        raise ValueError(f"at F={f!r} au 4 z_eff F underflows to 0, so tau_sym is not finite")
    tau_sym = ip / z4f
    # Verbatim first-order term; the weak-field limit of tau_unsy itself
    # carries the effective charge, ip / (2 z_eff F).
    tau_c = ip / f * 0.5              # halved last: 2F can overflow
    tau_a = 1.0 / ip
    if regime == "super_atomic":
        den = 2.0 * (ip * ip + dzi * dzi)
        if den == math.inf:
            # 2 (ip^2 + dzi^2) = 2 (4 z_eff F) overflows, but not s = sqrt(4 z_eff F).
            s = 2.0 * math.sqrt(atom.z_eff) * math.sqrt(f)
            return Point._make(geometry + (None, None, ip / s / s, None, tau_c, None,
                                           tau_a, None, None, 0.5 * (ip / s) / s,
                                           0.5 * (dzi / s) / s))
        return Point._make(geometry + (None, None, tau_sym, None, tau_c, None, tau_a,
                                       None, None, ip / den, dzi / den))
    ip_plus = ip + dz
    gap = ip if dz == 0.0 else z4f / ip_plus
    if gap == 0.0:
        raise ValueError(f"at F={f!r} au the gap 4 z_eff F / (ip + delta_z) "
                         "underflows to 0, so tau_d is not finite")
    return Point._make(geometry + (0.5 / ip_plus, 0.5 / gap, tau_sym, 1.0 / gap, tau_c,
                                   0.5 * (1.0 / ip + 1.0 / gap), tau_a, 0.5 * gap,
                                   0.5 * ip_plus, None, None))
