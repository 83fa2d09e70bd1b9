"""The time estimators built on the time-energy uncertainty relation, over the
barrier geometry of a chunk of fields, and :func:`evaluate` at one point.

Every quantity is a closed form in the ionization potential and the barrier
discriminant delta_z. Below barrier suppression all times are real; above it
the barrier-crossing and approach times acquire conjugate imaginary parts
while their sum stays real.
"""

import collections
import math
from collections.abc import Iterable

from .atom import AtomModel
from .barrier import GEOMETRY, GEOMETRY_FIELDS, Segment, solve_geometry

CLOCK_FIELDS = ("tau_i", "tau_d", "tau_sym", "tau_unsy", "tau_c", "tau_t", "tau_a",
                "de_plus", "de_minus", "tau_d_re", "tau_d_im")
# One point, in au: the geometry, then the times, all functions of (atom, F)
# alone. None marks what it lacks: above barrier suppression the real-only times
# and energy uncertainties; at or below it the complex crossing time tau_d_re +
# i tau_d_im (the approach time is its conjugate). The drive's gamma_k is an
# output column of tables.COLUMNS, not a field.
Point = collections.namedtuple("Point", GEOMETRY_FIELDS + CLOCK_FIELDS)
# The Point fields ``compare --estimator`` scores against measured times.
ESTIMATORS = ("tau_d", "tau_sym", "tau_unsy", "tau_t")

# Each time as in barrier.GEOMETRY, with one more flag: above F_a, where the crossing
# time's denominator 2 (ip^2 + delta_z''^2) overflows (over), 1 / (2 (ip - i
# delta_z'')) is taken through s. The gap ip - delta_z is taken as 4 z_eff F / (ip +
# delta_z), which weak fields do not cancel away, and is ip where delta_z is 0. tau_c
# is the verbatim first-order term, halved last because 2F can overflow; the
# weak-field limit of tau_unsy itself carries the effective charge, ip / (2 z_eff F).
RECIPES = {
    **GEOMETRY, "tau_a": "[inv_ip] * n", "tau_c": "[ip / x * 0.5 for x in f]",
    "tau_sym": "[ip / t / t for t in s] if over else [ip / z for z in z4f]",
    "gap": "[z / p for z, p in zip(z4f, ip_plus)] if below else [ip] * n",
    "tau_i": "[0.5 / p for p in ip_plus] if real else nones",
    "tau_d": "[0.5 / g for g in gap] if real else nones",
    "tau_unsy": "[1.0 / g for g in gap] if real else nones",
    "tau_t": "[0.5 * (inv_ip + 1.0 / g) for g in gap] if real else nones",
    "de_plus": "[0.5 * g for g in gap] if real else nones",
    "de_minus": "[0.5 * p for p in ip_plus] if real else nones",
    "den": "[2.0 * (ip2 + d * d) for d in delta_z_imag]",
    "tau_d_re": "nones if real else [0.5 * (ip / t) / t for t in s] if over "
                "else [ip / d for d in den]",
    "tau_d_im": "nones if real else [0.5 * (i / t) / t for i, t in zip(delta_z_imag, s)] "
                "if over else [i / d for i, d in zip(delta_z_imag, den)]"}


def evaluate(atom: AtomModel, f: float) -> Point:
    """Every quantity of README's closed-form table at field ``f`` (au): the
    one-field case of the two stages."""
    if not (math.isfinite(f) and f > 0):
        raise ValueError(f"f_peak must be finite and > 0, got {f!r}")
    (segment,) = compute_clocks(atom, solve_geometry(atom, [f]))
    return Point._make(segment[name][0] for name in Point._fields)


def compute_clocks(atom: AtomModel, geometry: list[Segment],
                   wanted: Iterable[str] = CLOCK_FIELDS) -> list[Segment]:
    """Every time estimator over one chunk's geometry: its segments, with the
    ``wanted`` columns of each. 4 z_eff F or the gap below the smallest normal double
    is an error; both rise with F, so the chunk's first field is the lowest refused. Its
    gap is taken alone, by the gap recipe's operations, building no column."""
    for segment in geometry:
        segment.recipes = RECIPES
    first, ip = geometry[0], atom.ip
    f, z4f = first["f"][0], first["z4f"][0]
    if z4f < 2.2250738585072014e-308:      # sys.float_info.min
        raise ValueError(f"at F={f!r} au 4 z_eff F = {z4f!r} underflows the normal range, "
                         "so tau_sym and tau_d have no accurate finite value")
    gap = z4f / (ip + math.sqrt(ip * ip - z4f)) if first["below"] else ip   # recipe's bits
    if first["real"] and gap < 2.2250738585072014e-308:
        raise ValueError(f"at F={f!r} au the gap 4 z_eff F / (ip + delta_z) = {gap!r} "
                         "underflows the normal range, so tau_d has no accurate finite value")
    return [segment.take(wanted) for segment in geometry]
