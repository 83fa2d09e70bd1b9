"""Static barrier of the combined Coulomb + quasistatic-field potential.

The one-dimensional effective potential -z_eff/x - x*F forms a barrier between
the bound level -ip and the continuum. This module gives the barrier-suppression
field strength, classifies the field regime relative to it and solves the
barrier in closed form over ascending chunks of fields.
"""

import functools
import math
from bisect import bisect_left

from .atom import AtomModel

# Fields within this relative band of the barrier-suppression value are
# treated as exactly critical: the discriminant crosses zero there and an
# exact equality test would be meaningless in floating point.
ATOMIC_BAND = 1e-12


class RegimeError(Exception):
    """Raised when an operation needs a field regime it was not given."""


# The barrier's Point fields, in au; None marks the crossings and width above F_a.
GEOMETRY_FIELDS = ("f", "regime", "delta_z", "delta_z_imag", "x_entrance", "x_peak",
                   "x_exit", "x_classical", "barrier_width", "h_max")


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


class Segment(dict):
    """A run of a chunk's fields on which every closed form takes one branch: its
    columns by name, each computed from its recipe when first read and then kept,
    its length n and its branch flags (see GEOMETRY)."""

    def __missing__(self, name: str) -> list:
        self[name] = column = eval(_compiled(self.recipes[name]), self.scope, self)
        return column


_compiled = functools.cache(lambda source: compile(source, source, "eval"))
# Each column of a segment as one expression over its fields f, its other columns
# and solve_geometry's constants: per branch a list comprehension (map where it is
# sqrt alone, which measured faster), in the closed forms' operation order, so every
# value has the bits of a lone point's. The flags mark a segment below F_a, at or
# below it (real), where z_eff / F overflows or is subnormal (xfall) and where 4
# z_eff F overflows (huge); their roots do not. Shared: z4f = 4 z_eff F, disc = ip^2
# - z4f (below F_a = fl(ip^2 / 4 z_eff), fl(4 z_eff F) <= ip^2, so it never has the
# wrong sign) and s = sqrt(z4f). The entrance (ip - delta_z) / (2F) is taken as 2
# z_eff / (ip + delta_z), which weak fields do not cancel away.
GEOMETRY = {
    "zeros": "[0.0] * n", "nones": "[None] * n", "z4f": "[c4 * x for x in f]",
    "disc": "[ip2 - z for z in z4f]", "s": "[s2 * sqrt(x) for x in f]",
    "x_peak": "[rz / sqrt(x) for x in f] if xfall else [sqrt(z_eff / x) for x in f]",
    "x_classical": "[ip / x for x in f]", "ip_plus": "[ip + d for d in delta_z]",
    "h_max": "[t - ip for t in s] if huge else [abs(-ip + sqrt(z)) for z in z4f]",
    "delta_z": "list(map(sqrt, disc)) if below else zeros",
    "delta_z_imag": "zeros if real else [sqrt(t - ip) * sqrt(t + ip) for t in s] if huge "
                    "else [sqrt(-d) for d in disc]",
    "x_entrance": "[z2 / p for p in ip_plus] if below else x_peak if real else nones",
    "x_exit": "[p / (2.0 * x) for p, x in zip(ip_plus, f)] if below else x_peak if real "
              "else nones",
    "barrier_width": "[d / x for d, x in zip(delta_z, f)] if below else zeros if real "
                     "else nones"}


def _branches(atom: AtomModel, f: float) -> tuple:
    """Where ``f`` lies: its regime; whether sqrt(z_eff / F) is infinite, or below
    1.5e-154; and above F_a, whether 4 z_eff F overflows and whether the crossing
    time's denominator 2 (ip^2 + delta_z''^2) does. Each is monotone in F."""
    regime, ip2 = classify_regime(atom, f), atom.ip * atom.ip
    x_peak, z4f = math.sqrt(atom.z_eff / f), 4.0 * atom.z_eff * f
    above = regime == "super_atomic"
    dzi = math.sqrt(-(ip2 - z4f)) if above else 0.0
    return (regime, x_peak == math.inf, x_peak < 1.5e-154, above and z4f == math.inf,
            above and 2.0 * (ip2 + dzi * dzi) == math.inf)


def solve_geometry(atom: AtomModel, fields: list[float]) -> list[Segment]:
    """The barrier over one non-empty, non-decreasing chunk of positive finite fields
    (au), the first of the kernel's two stages: the chunk split with ``bisect`` where
    a branch of the closed forms changes, each segment holding its f, n, regime and
    branch flags."""
    ip, z_eff, rz = atom.ip, atom.z_eff, math.sqrt(atom.z_eff)
    scope = {"__builtins__": {}, "sqrt": math.sqrt, "abs": abs, "zip": zip, "map": map,
             "list": list, "ip": ip, "ip2": ip * ip, "z_eff": z_eff, "c4": 4.0 * z_eff,
             "z2": 2.0 * z_eff, "rz": rz, "s2": 2.0 * rz, "inv_ip": 1.0 / ip}
    segments, lo, last = [], 0, _branches(atom, fields[-1])
    while lo < len(fields):
        kind = _branches(atom, fields[lo])
        hi = len(fields) if kind == last else bisect_left(
            fields, True, lo, key=lambda x: _branches(atom, x) != kind)
        regime, big, small, huge, over = kind
        segment = Segment(f=fields[lo:hi], n=hi - lo, regime=[regime] * (hi - lo),
                          below=regime == "sub_atomic", real=regime != "super_atomic",
                          xfall=big or small, huge=huge, over=over)
        segment.scope, segment.recipes = scope, GEOMETRY
        segments.append(segment)
        lo = hi
    return segments
