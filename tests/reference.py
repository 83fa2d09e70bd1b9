"""An independent reference: README's closed-form table in 60-digit Decimal.

Every input float converts to Decimal exactly, so the reference is the exact
value of each closed form to about 60 digits, whatever the field: nothing
overflows or underflows in Decimal's exponent range, and the digits that
ip - delta_z cancels at weak fields are carried as extra precision.
"""

from decimal import Decimal, localcontext

from attoclock.clocks import Point


def point(atom, f: float, omega: float | None = None) -> dict[str, Decimal | None]:
    """Every field of :class:`attoclock.clocks.Point` at field ``f`` (au), by
    its closed form; None where the point's regime lacks the quantity. The
    regime is taken from the sign of the exact discriminant, so points inside
    the critical-field band are not covered."""
    with localcontext() as ctx:
        ctx.prec = 60
        ip, z, big_f = Decimal(atom.ip), Decimal(atom.z_eff), Decimal(f)
        # ip - delta_z cancels about log10(ip^2 / (4 z_eff F)) digits: carry them too
        ctx.prec += max(0, (ip * ip).adjusted() - (4 * z * big_f).adjusted())
        z4f = 4 * z * big_f
        disc = ip * ip - z4f
        values = dict.fromkeys(Point._fields)
        values.update(
            f=big_f, x_peak=(z / big_f).sqrt(), x_classical=ip / big_f,
            h_max=abs(z4f.sqrt() - ip), tau_sym=ip / z4f, tau_c=ip / (2 * big_f),
            tau_a=1 / ip,
            gamma=None if omega is None else Decimal(omega) * (2 * ip).sqrt() / big_f)
        if disc > 0:
            dz = disc.sqrt()
            values.update(
                delta_z=dz, delta_z_imag=Decimal(0), x_entrance=(ip - dz) / (2 * big_f),
                x_exit=(ip + dz) / (2 * big_f), barrier_width=dz / big_f,
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
