"""Independent references for the tests.

:func:`point` is README's closed-form table in 60-digit Decimal. Every input
float converts to Decimal exactly, so it is the exact value of each closed
form to about 60 digits, whatever the field: nothing overflows or underflows
in Decimal's exponent range, and the digits that ip - delta_z cancels at weak
fields are carried as extra precision.

:func:`exit_points_oracle` finds the barrier crossings by bisection, without
the closed forms, and :func:`fit_width_relation` fits a line to the fig4 curve.
:func:`load_measurements_oracle` reads a measurement CSV row by row, the
straightforward way, with its own copy of the record checks.
"""

import collections
import csv
import io
import math
import warnings
from decimal import Decimal, localcontext

from attoclock.barrier import RegimeError, classify_regime
from attoclock.clocks import Point
from attoclock.units import CONSTANTS


def point(atom, f: float, omega: float | None = None) -> dict[str, Decimal | None]:
    """Every field of :class:`attoclock.clocks.Point` at field ``f`` (au), by
    its closed form, and the atom's ``f_a`` = ip^2 / (4 z_eff) and ``i_a`` = f_a^2,
    the light-traversal time ``light`` = d_B / c (au), and ``gamma`` (the gamma_k
    cell, None without ``omega``); None where the point's regime lacks the
    quantity. The regime is taken from the sign of the exact discriminant, so
    points inside the critical-field band are not covered."""
    with localcontext() as ctx:
        ctx.prec = 60
        ip, z, big_f = Decimal(atom.ip), Decimal(atom.z_eff), Decimal(f)
        # ip - delta_z cancels about log10(ip^2 / (4 z_eff F)) digits: carry them too
        ctx.prec += max(0, (ip * ip).adjusted() - (4 * z * big_f).adjusted())
        z4f = 4 * z * big_f
        disc = ip * ip - z4f
        f_a = ip * ip / (4 * z)
        values = dict.fromkeys(Point._fields + ("light",))
        values.update(
            f=big_f, f_a=f_a, i_a=f_a * f_a, x_peak=(z / big_f).sqrt(), x_classical=ip / big_f,
            h_max=abs(z4f.sqrt() - ip), tau_sym=ip / z4f, tau_c=ip / (2 * big_f),
            tau_a=1 / ip,
            gamma=None if omega is None else Decimal(omega) * (2 * ip).sqrt() / big_f)
        if disc > 0:
            dz = disc.sqrt()
            values.update(
                delta_z=dz, delta_z_imag=Decimal(0), x_entrance=(ip - dz) / (2 * big_f),
                x_exit=(ip + dz) / (2 * big_f), barrier_width=dz / big_f,
                light=dz / big_f / Decimal(CONSTANTS.speed_of_light),
                tau_i=1 / (2 * (ip + dz)), tau_d=1 / (2 * (ip - dz)),
                tau_unsy=1 / (ip - dz), tau_t=(1 / ip + 1 / (ip - dz)) / 2,
                de_plus=(ip - dz) / 2, de_minus=(ip + dz) / 2)
        else:
            dzi = (-disc).sqrt()
            den = 2 * (ip * ip + dzi * dzi)
            values.update(delta_z=Decimal(0), delta_z_imag=dzi, tau_d_re=ip / den,
                          tau_d_im=dzi / den)
        return values


# Smallest positive subnormal double, the spacing of every subnormal, and the
# smallest normal double.
SUBNORMAL_ULP = Decimal(5e-324)
TINY = Decimal(2.2250738585072014e-308)


def close(value: float | None, reference: Decimal | None, rel: float = 1e-14,
          ulps: float = 2.0) -> bool:
    """Within ``rel`` relative of the reference where it is a normal double,
    or within ``ulps`` subnormal spacings of it below that."""
    if reference is None or value is None:
        return value is None and reference is None
    with localcontext() as ctx:
        ctx.prec = 60
        error = abs(Decimal(value) - reference)
        if abs(reference) >= TINY:
            return error <= Decimal(rel) * abs(reference)
        return error <= Decimal(ulps) * SUBNORMAL_ULP


def signed_barrier_height(x: float, atom, f: float) -> float:
    """Bound level minus effective potential at field ``f``, -ip - V(x);
    negative inside the barrier, zero at the crossings."""
    if not x > 0:
        raise ValueError(f"x must be > 0, got {x!r}")
    return -atom.ip + atom.z_eff / x + x * f


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


def exit_points_oracle(atom, f: float, tol: float = 1e-12) -> tuple[float, float]:
    """Locate both barrier crossings by pure sign-change bisection.

    Verification path for :func:`attoclock.barrier.solve_geometry`: the roots
    of the signed barrier height are bracketed on either side of the barrier
    peak sqrt(z_eff / F) and bisected to ``tol``; the closed forms are never
    consulted.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if classify_regime(atom, f) != "sub_atomic":
        raise RegimeError("oracle requires a sub-atomic field with two distinct crossings")

    def h(x: float) -> float:
        return signed_barrier_height(x, atom, f)

    x_peak = math.sqrt(atom.z_eff / f)
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
    hi = 1.5 * atom.ip / f   # outer crossing is below ip/F always
    if not h(hi) > 0.0:
        raise RuntimeError("internal inconsistency: failed to bracket the outer crossing")
    return (_bisect(h, lo, x_peak, tol), _bisect(h, x_peak, hi, tol))


# Least-squares line through (barrier width, crossing time) points.
WidthFit = collections.namedtuple("WidthFit",
                                  "slope_as_per_au intercept_as r_squared n_points")


def fit_width_relation(points) -> WidthFit:
    """Least-squares line of the barrier-crossing time (as) vs width (au)
    over the sub-atomic points.

    This is a chord fit. On the sub-atomic branch tau_d is strictly convex
    in the width, so the intercept lies below the zero-width limit
    1 / (2 ip) for any window of points, and approaches it linearly in
    1 - F/F_a as the window shrinks toward F_a.
    """
    k = CONSTANTS.au_time_in_attoseconds
    pts = [(p.barrier_width, p.tau_d * k) for p in points if p.regime == "sub_atomic"]
    if len(pts) < 2:
        raise ValueError("need at least two sub-atomic rows for a line fit")
    n = len(pts)
    x_mean = math.fsum(x for x, _ in pts) / n
    y_mean = math.fsum(y for _, y in pts) / n
    sxx = math.fsum((x - x_mean) ** 2 for x, _ in pts)
    syy = math.fsum((y - y_mean) ** 2 for _, y in pts)
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in pts)
    slope = sxy / sxx
    return WidthFit(slope_as_per_au=slope, intercept_as=y_mean - slope * x_mean,
                    r_squared=(sxy * sxy) / (sxx * syy), n_points=n)


def load_measurements_oracle(path: str) -> list[tuple]:
    """:func:`attoclock.harness.load_measurements`, one plain step per row.

    Each row is tested for blankness, then for its width, then converted cell
    by cell and checked; the field order is tested over the finished list,
    which is then sorted stably. Records are ``(f, t, err_lo, err_hi, source)``
    tuples, and the warnings and ValueError texts are the library's."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    four = ["field_au", "time_as", "err_lo_as", "err_hi_as"]
    three = ["field_au", "time_as", "err_as"]
    records = []
    try:
        header = [c.strip() for c in next(reader)]
        if header in (four, four + ["source"]):
            symmetric = False
        elif header in (three, three + ["source"]):
            symmetric = True
        else:
            expected = f"{','.join(four)}[,source] or {','.join(three)}[,source]"
            raise ValueError(f"bad header {','.join(header)!r}; expected {expected}")
        named = header[-1] == "source"
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} columns, got {len(row)}")
            values = [float(c) for c in row[: len(header) - named]]
            if symmetric:
                values.append(values[2])
            f, t, err_lo, err_hi = values
            if not (math.isfinite(f) and f > 0):
                raise ValueError(f"field must be finite and > 0, got {f!r}")
            if not math.isfinite(t):
                raise ValueError(f"time must be finite, got {t!r}")
            if not all(math.isfinite(e) and e >= 0 for e in (err_lo, err_hi)):
                raise ValueError("error bars must be finite and >= 0")
            records.append((f, t, err_lo, err_hi, row[-1].strip() if named else ""))
    except StopIteration:
        raise ValueError(f"{path}: missing header line") from None
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if any(b[0] <= a[0] for a, b in zip(records, records[1:])):
        warnings.warn(f"{path}: field values are not strictly increasing; "
                      "records were re-sorted", stacklevel=2)
    records.sort(key=lambda r: r[0])
    return records
