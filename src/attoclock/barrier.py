"""Static barrier of the combined Coulomb + quasistatic-field potential.

The one-dimensional effective potential -z_eff/x - x*F forms a barrier between
the bound level -ip and the continuum. This module gives the barrier-suppression
field strength, classifies the field regime relative to it and solves the
barrier in closed form.
"""

from __future__ import annotations

import collections
import math

from .atom import AtomModel

# Fields within this relative band of the barrier-suppression value are
# treated as exactly critical: the discriminant crosses zero there and an
# exact equality test would be meaningless in floating point.
ATOMIC_BAND = 1e-12


class RegimeError(Exception):
    """Raised when an operation needs a field regime it was not given."""


# The barrier at one field, in au: the first ten fields of
# :class:`attoclock.clocks.Point`. None marks the crossings and width above
# barrier suppression.
Geometry = collections.namedtuple(
    "Geometry", "f regime delta_z delta_z_imag x_entrance x_peak x_exit x_classical "
                "barrier_width h_max")


def atomic_field_strength(atom: AtomModel) -> float:
    """Barrier-suppression field strength ip^2 / (4 z_eff)."""
    return atom.ip * atom.ip / (4.0 * atom.z_eff)


def classify_regime(atom: AtomModel, f: float) -> str:
    """``"sub_atomic"``, ``"atomic"`` or ``"super_atomic"``: where ``f`` lies
    against the barrier-suppression field, as the ``regime`` column prints it."""
    fa = atomic_field_strength(atom)
    if abs(f - fa) <= ATOMIC_BAND * fa:
        return "atomic"
    return "sub_atomic" if f < fa else "super_atomic"


def solve_geometry(atom: AtomModel, f: float) -> Geometry:
    """The barrier at field ``f`` (au), the first stage of
    :func:`attoclock.clocks.evaluate`. delta_z = sqrt(ip^2 - 4 z_eff F) is real
    below barrier suppression and imaginary above, where the crossings leave the
    real axis. The entrance (ip - delta_z) / (2F) is taken as 2 z_eff / (ip +
    delta_z), which weak fields do not cancel away. Where 4 z_eff F overflows,
    delta_z'' and h_max are taken from its root, which does not."""
    if not (math.isfinite(f) and f > 0):
        raise ValueError(f"f_peak must be finite and > 0, got {f!r}")
    regime = classify_regime(atom, f)
    ip, z_eff = atom.ip, atom.z_eff
    z4f = 4.0 * z_eff * f
    x_peak = math.sqrt(z_eff / f)
    if not 1.5e-154 <= x_peak < math.inf:   # z_eff / F subnormal (bits lost) or overflowed
        x_peak = math.sqrt(z_eff) / math.sqrt(f)
    h_max = abs(-ip + math.sqrt(z4f))
    x_c = ip / f                      # classical exit, binding potential neglected
    # F < F_a = fl(ip^2 / 4 z_eff) gives fl(4 z_eff F) <= ip^2: never the wrong sign.
    disc = ip * ip - z4f
    if regime == "super_atomic":
        if z4f == math.inf:
            # 4 z_eff F overflows, but not its root s: delta_z'' = sqrt((s - ip)(s + ip)).
            s = 2.0 * math.sqrt(z_eff) * math.sqrt(f)
            return Geometry(f, regime, 0.0, math.sqrt(s - ip) * math.sqrt(s + ip), None,
                            x_peak, None, x_c, None, s - ip)
        return Geometry(f, regime, 0.0, math.sqrt(-disc), None, x_peak, None, x_c, None,
                        h_max)
    if regime == "atomic":
        return Geometry(f, regime, 0.0, 0.0, x_peak, x_peak, x_peak, x_c, 0.0, h_max)
    dz = math.sqrt(disc)
    ip_plus = ip + dz
    return Geometry(f, regime, dz, 0.0, 2.0 * z_eff / ip_plus, x_peak, ip_plus / (2.0 * f),
                    x_c, dz / f, h_max)
