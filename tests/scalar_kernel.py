"""The per-point kernel as it was before it evaluated columns, kept as the
bit-for-bit reference for the column stages.

:func:`solve_geometry` and :func:`compute_clocks` are verbatim copies of the
scalar bodies of ``attoclock.barrier.solve_geometry`` and
``attoclock.clocks.compute_clocks`` (one field at a time), with their own
namedtuples and regime test, so nothing here reads the package's kernel.
"""

import collections
import math

ATOMIC_BAND = 1e-12

Geometry = collections.namedtuple(
    "Geometry", "f regime delta_z delta_z_imag x_entrance x_peak x_exit x_classical "
                "barrier_width h_max")
Point = collections.namedtuple(
    "Point", Geometry._fields + ("tau_i", "tau_d", "tau_sym", "tau_unsy", "tau_c",
                                 "tau_t", "tau_a", "de_plus", "de_minus", "tau_d_re",
                                 "tau_d_im"))


def atomic_field_strength(atom):
    return atom.ip * atom.ip / (4.0 * atom.z_eff)


def classify_regime(atom, f):
    fa = atomic_field_strength(atom)
    if abs(f - fa) <= ATOMIC_BAND * fa:
        return "atomic"
    return "sub_atomic" if f < fa else "super_atomic"


def solve_geometry(atom, f):
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


def compute_clocks(atom, geometry):
    f, regime, dz, dzi = geometry[:4]
    ip = atom.ip
    z4f = 4.0 * atom.z_eff * f
    if z4f < 2.2250738585072014e-308:      # sys.float_info.min
        raise ValueError(f"at F={f!r} au 4 z_eff F = {z4f!r} underflows the normal range, "
                         "so tau_sym and tau_d have no accurate finite value")
    tau_sym = ip / z4f
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
    if gap < 2.2250738585072014e-308:
        raise ValueError(f"at F={f!r} au the gap 4 z_eff F / (ip + delta_z) = {gap!r} "
                         "underflows the normal range, so tau_d has no accurate finite value")
    return Point._make(geometry + (0.5 / ip_plus, 0.5 / gap, tau_sym, 1.0 / gap, tau_c,
                                   0.5 * (1.0 / ip + 1.0 / gap), tau_a, 0.5 * gap,
                                   0.5 * ip_plus, None, None))


def evaluate(atom, f):
    """The reference Point at field ``f``, or the ValueError text that refuses it."""
    try:
        return compute_clocks(atom, solve_geometry(atom, f))
    except ValueError as exc:
        return str(exc)
