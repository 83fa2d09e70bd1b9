"""Independent reference for every number the attoclock CLI prints.

The closed forms are those of the paper's table (PAPER.md), written out here
from scratch; nothing is imported from attoclock. Each ``check_*`` function
parses one op's CSV output and compares every cell with its reference value,
raising :class:`Mismatch` at the first cell that disagrees.

A numeric cell passes when it is the canonical ``%.{p}g`` rendering of some
value within ``REL_TOL`` of the reference. The printed digits must therefore
be right up to the rounding of the last one, so a single altered digit fails,
while last-ulp differences between algebraically equal forms still pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

# CODATA 2018, the constants table the CLI documents.
AU_TIME_AS = 24.188843265857
SPEED_OF_LIGHT_AU = 137.035999084
INTENSITY_AU_W_CM2 = 3.50944552059e16
BOHR_NM = 0.0529177210903
CONSTANTS_VERSION = "codata2018"

# Fields within this relative band of F_a count as exactly critical (the
# CLI's documented regime rule).
ATOMIC_BAND = 1e-12
# Allowed relative gap between the program's float and the reference float
# before printing. The workloads keep every quantity well conditioned
# (F >= 0.05 F_a, nothing within 1e-9 of F_a but F_a itself), where two
# algebraically equal forms differ by far less than this.
REL_TOL = 1e-12

SUB, ATOMIC, SUPER = "sub_atomic", "atomic", "super_atomic"


class Mismatch(Exception):
    """An output that disagrees with the reference."""


ANY = object()      # a cell checked by the caller, not by _check_row


@dataclass(frozen=True)
class Atom:
    name: str
    source: str
    ip: float
    z_eff: float

    @property
    def f_a(self) -> float:
        """Barrier-suppression field ip^2 / (4 z_eff)."""
        return self.ip * self.ip / (4.0 * self.z_eff)

    @property
    def label(self) -> str:
        return f"{self.name}:{self.source}"


ATOMS = {
    "He:kullie": Atom("He", "Kullie", 0.90357, 1.375),
    "He:clementi": Atom("He", "Clementi", 0.90357, 1.6875),
}


def regime(atom: Atom, f: float) -> str:
    fa = atom.f_a
    if abs(f - fa) <= ATOMIC_BAND * fa:
        return ATOMIC
    return SUB if f < fa else SUPER


def point(atom: Atom, f: float) -> dict:
    """Every quantity of the PAPER.md table at one field, in au.

    Quantities that do not exist in the field's regime are None; above F_a
    the crossing and approach times are the complex pair ``tau_d_c``,
    ``tau_i_c``.
    """
    ip, z = atom.ip, atom.z_eff
    reg = regime(atom, f)
    q = {
        "f": f, "regime": reg,
        "x_peak": math.sqrt(z / f),
        "x_classical": ip / f,
        "h_max": abs(2.0 * math.sqrt(z * f) - ip),
        "tau_sym": ip / (4.0 * z * f),
        "tau_c": ip / (2.0 * f),
        "tau_a": 1.0 / ip,
        "tau_d_c": None, "tau_i_c": None,
    }
    if reg == SUPER:
        dzi = math.sqrt(4.0 * z * f - ip * ip)
        q.update(delta_z=0.0, delta_z_imag=dzi, x_entrance=None, x_exit=None,
                 width=None, tau_i=None, tau_d=None, tau_unsy=None, tau_t=None,
                 de_plus=None, de_minus=None,
                 tau_d_c=1.0 / (2.0 * complex(ip, -dzi)),
                 tau_i_c=1.0 / (2.0 * complex(ip, dzi)))
        return q
    dz = math.sqrt(ip * ip - 4.0 * z * f) if reg == SUB else 0.0
    q.update(delta_z=dz, delta_z_imag=0.0,
             x_entrance=(ip - dz) / (2.0 * f), x_exit=(ip + dz) / (2.0 * f),
             width=dz / f,
             tau_i=1.0 / (2.0 * (ip + dz)), tau_d=1.0 / (2.0 * (ip - dz)),
             tau_unsy=1.0 / (ip - dz),
             tau_t=0.5 * (1.0 / ip + 1.0 / (ip - dz)),
             de_plus=0.5 * (ip - dz), de_minus=0.5 * (ip + dz))
    return q


def as_(value: float | None) -> float | None:
    """Atomic units of time to attoseconds."""
    return None if value is None else value * AU_TIME_AS


def light_as(q: dict) -> float | None:
    """Light traversal time of the barrier, defined below F_a only."""
    return as_(q["width"] / SPEED_OF_LIGHT_AU) if q["regime"] == SUB else None


def omega_au(wavelength_nm: float) -> float:
    return 2.0 * math.pi * SPEED_OF_LIGHT_AU * BOHR_NM / wavelength_nm


def gamma_k(atom: Atom, f: float, wavelength_nm: float) -> float:
    """Keldysh parameter omega sqrt(2 ip) / F."""
    return omega_au(wavelength_nm) * math.sqrt(2.0 * atom.ip) / f


def field_from_intensity(w_cm2: float) -> float:
    return math.sqrt(w_cm2 / INTENSITY_AU_W_CM2)


def field_from_f0(f0: float, ellipticity: float) -> float:
    return f0 / math.sqrt(1.0 + ellipticity * ellipticity)


def grid(spec: str) -> list[float]:
    """Field grid of a ``MIN:MAX:STEP`` spec, endpoints inclusive."""
    lo, hi, step = (float(p) for p in spec.split(":"))
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + k * step for k in range(n)]


# --- cell and table checks -------------------------------------------------

def cell_ok(cell: str, ref: object, precision: int,
            scale: float | None = None) -> bool:
    """Whether one printed cell renders ``ref`` at ``precision`` digits.

    ``scale`` widens the float tolerance to ``REL_TOL * scale`` for a value
    formed by cancellation (a residual), whose own magnitude says nothing of
    the rounding in its inputs.
    """
    if ref is None:
        return cell == ""
    if isinstance(ref, str):
        return cell == ref
    if isinstance(ref, (bool, int)):
        return cell == str(int(ref))
    fmt = f".{precision}g"
    if cell == format(ref, fmt):
        return True
    try:
        value = float(cell)
    except ValueError:
        return False
    if not math.isfinite(value) or format(value, fmt) != cell:
        return False        # not the canonical rendering of any float
    tol = REL_TOL * (abs(ref) if scale is None else scale)
    if value == 0.0:
        return abs(ref) <= tol
    half_unit = 0.5 * 10.0 ** (Decimal(cell).adjusted() - precision + 1)
    return abs(value - ref) <= half_unit + tol


def _lines(text: str) -> list[str]:
    if not text.endswith("\n") or "\r" in text:
        raise Mismatch("output must be LF-terminated lines")
    return text[:-1].split("\n")


def _expect_header(line: str, columns) -> None:
    if line != ",".join(columns):
        raise Mismatch(f"header {line[:80]!r} != {','.join(columns)[:80]!r}")


def _check_row(where: str, line: str, refs: list, precision: int,
               scales: list | None = None) -> list[str]:
    cells = line.split(",")
    if len(cells) != len(refs):
        raise Mismatch(f"{where}: {len(cells)} cells, expected {len(refs)}")
    for i, (cell, ref) in enumerate(zip(cells, refs)):
        scale = scales[i] if scales else None
        if ref is not ANY and not cell_ok(cell, ref, precision, scale):
            raise Mismatch(f"{where}, column {i + 1}: {cell!r} does not render "
                           f"reference {ref!r} at {precision} digits")
    return cells


def _record(lines: list[str], pairs: list[tuple[str, object]],
            precision: int, where: str) -> None:
    _expect_header(lines[0], [k for k, _ in pairs])
    _check_row(where, lines[1], [v for _, v in pairs], precision)


DUMP_COLUMNS = (
    "f_au", "regime", "delta_z_au", "delta_z_imag_au", "x_entrance_au",
    "x_peak_au", "x_exit_au", "x_classical_au", "barrier_width_au", "h_max_au",
    "tau_i_as", "tau_d_as", "tau_sym_as", "tau_unsy_as", "tau_c_as", "tau_t_as",
    "tau_a_as", "light_as", "tau_d_re_au", "tau_d_im_au", "gamma_k",
)


def dump_row(atom: Atom, f: float, wavelength: float | None) -> list:
    q = point(atom, f)
    tau_d_c = q["tau_d_c"]
    return [
        f, q["regime"], q["delta_z"], q["delta_z_imag"], q["x_entrance"],
        q["x_peak"], q["x_exit"], q["x_classical"], q["width"], q["h_max"],
        as_(q["tau_i"]), as_(q["tau_d"]), as_(q["tau_sym"]), as_(q["tau_unsy"]),
        as_(q["tau_c"]), as_(q["tau_t"]), as_(q["tau_a"]), light_as(q),
        None if tau_d_c is None else tau_d_c.real,
        None if tau_d_c is None else tau_d_c.imag,
        None if wavelength is None else gamma_k(atom, f, wavelength),
    ]


def check_dump(text: str, atom: Atom, spec: str, wavelength: float | None,
               precision: int) -> dict:
    """Full 21-column sweep dump."""
    lines = _lines(text)
    fields = grid(spec)
    _expect_header(lines[0], DUMP_COLUMNS)
    if len(lines) - 1 != len(fields):
        raise Mismatch(f"{len(lines) - 1} rows, expected {len(fields)}")
    for k, (line, f) in enumerate(zip(lines[1:], fields)):
        _check_row(f"row {k + 1}", line, dump_row(atom, f, wavelength), precision)
    return {}


FIGURE_COLUMNS = {
    "fig2": ("f_au", "tau_unsy_as", "tau_sym_as"),
    "fig3": ("f_au", "tau_d_as", "tau_sym_as"),
    "fig4": ("d_b_au", "tau_d_as", "light_as"),
}


def check_figure(text: str, atom: Atom, spec: str, figure: str,
                 precision: int) -> dict:
    """One figure table with its ``#`` metadata block."""
    lines = _lines(text)
    fields = grid(spec)
    meta = [
        f"# atom={atom.name}", f"# source={atom.source}",
        f"# z_eff={atom.z_eff:.12g}", f"# i_p={atom.ip:.12g}",
        "# grid=" + ",".join(f"{f:.12g}" for f in fields),
        f"# constants={CONSTANTS_VERSION}",
    ]
    if lines[:len(meta)] != meta:
        raise Mismatch("figure metadata block differs")
    lines = lines[len(meta):]
    _expect_header(lines[0], FIGURE_COLUMNS[figure])
    rows = []
    for f in fields:
        q = point(atom, f)
        if figure == "fig4":
            if q["regime"] == SUB:
                rows.append([q["width"], as_(q["tau_d"]), light_as(q)])
        elif q["regime"] != SUPER:
            first = q["tau_unsy"] if figure == "fig2" else q["tau_d"]
            rows.append([f, as_(first), as_(q["tau_sym"])])
    if len(lines) - 1 != len(rows):
        raise Mismatch(f"{len(lines) - 1} rows, expected {len(rows)}")
    for k, (line, refs) in enumerate(zip(lines[1:], rows)):
        _check_row(f"row {k + 1}", line, refs, precision)
    return {}


def _estimator(q: dict, estimator: str) -> float | None:
    return {"tau_d": q["tau_d"], "tau_sym": q["tau_sym"],
            "tau_unsy": q["tau_unsy"], "tau_t": q["tau_t"]}[estimator]


def check_compare(text: str, atom: Atom, estimator: str,
                  records: list[tuple[float, float, float, float]],
                  precision: int) -> dict:
    """Summary record plus the per-point residual table.

    ``records`` are (f, t, err_lo, err_hi) in file order. The CLI sorts them
    by field (stably), skips the ones where the estimator is not real, and
    counts a point within bars when |residual| <= max(err_lo, err_hi).
    """
    lines = _lines(text)
    used = []
    for f, t, lo, hi in sorted(records, key=lambda r: r[0]):
        model = as_(_estimator(point(atom, f), estimator))
        if model is not None:
            used.append((f, model, t, model - t, max(lo, hi)))
    if len(lines) != 3 + len(used):
        raise Mismatch(f"{len(lines)} lines, expected {3 + len(used)}")
    _expect_header(lines[2], ("f_au", "model_as", "measured_as", "residual_as",
                              "within_bars"))
    n_within = 0
    for k, (f, model, t, res, bar) in enumerate(used):
        scale = max(abs(model), abs(t))
        ambiguous = abs(abs(res) - bar) <= REL_TOL * scale
        cells = _check_row(f"residual row {k + 1}", lines[3 + k],
                           [f, model, t, res, ANY], precision,
                           [None, None, None, scale, None])
        within = cells[4]
        if within not in ("0", "1") or (
                not ambiguous and within != str(int(abs(res) <= bar))):
            raise Mismatch(f"residual row {k + 1}: within_bars {within!r}")
        n_within += within == "1"
    # rms and max_abs come from residuals, so they share the residuals'
    # absolute tolerance.
    scale = max(max(abs(m), abs(t)) for _, m, t, _, _ in used)
    residuals = [res for *_, res, _ in used]
    summary = [
        ("model_id", f"{atom.label}/{estimator}"),
        ("estimator", estimator),
        ("n_records", len(records)),
        ("n_used", len(used)),
        ("n_skipped", len(records) - len(used)),
        ("rms_as", math.sqrt(math.fsum(r * r for r in residuals) / len(used))),
        ("max_abs_as", max(abs(r) for r in residuals)),
        ("fraction_within_bars", n_within / len(used)),
    ]
    _expect_header(lines[0], [k for k, _ in summary])
    _check_row("summary", lines[1], [v for _, v in summary], precision,
               [None] * 5 + [scale, scale, None])
    return {"skipped": len(records) - len(used)}


def times_pairs(atom: Atom, f: float, wavelength: float | None) -> list:
    q = point(atom, f)
    pairs: list[tuple[str, object]] = [
        ("atom", atom.name), ("source", atom.source), ("i_p_au", atom.ip),
        ("z_eff", atom.z_eff), ("f_au", f), ("regime", q["regime"]),
    ]
    for name in ("tau_i", "tau_d", "tau_sym", "tau_unsy", "tau_c", "tau_t", "tau_a"):
        pairs += [(f"{name}_au", q[name]), (f"{name}_as", as_(q[name]))]
    pairs += [("de_plus_au", q["de_plus"]), ("de_minus_au", q["de_minus"])]
    d, i = q["tau_d_c"], q["tau_i_c"]
    pairs += [("tau_d_re_au", d and d.real), ("tau_d_im_au", d and d.imag),
              ("tau_i_re_au", i and i.real), ("tau_i_im_au", i and i.imag)]
    if wavelength is not None:
        pairs += [("omega_au", omega_au(wavelength)),
                  ("gamma_k", gamma_k(atom, f, wavelength))]
    return pairs


def check_times(text: str, atom: Atom, f: float, wavelength: float | None,
                precision: int) -> dict:
    lines = _lines(text)
    if len(lines) != 2:
        raise Mismatch(f"{len(lines)} lines, expected 2")
    _record(lines, times_pairs(atom, f, wavelength), precision, "times")
    return {}


def check_geometry(text: str, atom: Atom, f: float, precision: int) -> dict:
    lines = _lines(text)
    if len(lines) != 2:
        raise Mismatch(f"{len(lines)} lines, expected 2")
    q = point(atom, f)
    fa = atom.f_a
    _record(lines, [
        ("atom", atom.name), ("source", atom.source), ("i_p_au", atom.ip),
        ("z_eff", atom.z_eff), ("f_au", f), ("f_a_au", fa), ("i_a_au", fa * fa),
        ("regime", q["regime"]), ("delta_z_au", q["delta_z"]),
        ("delta_z_imag_au", q["delta_z_imag"]), ("x_entrance_au", q["x_entrance"]),
        ("x_peak_au", q["x_peak"]), ("x_exit_au", q["x_exit"]),
        ("x_classical_au", q["x_classical"]), ("barrier_width_au", q["width"]),
        ("h_max_au", q["h_max"]),
    ], precision, "geometry")
    return {}


def check_catalog(text: str, precision: int) -> dict:
    lines = _lines(text)
    atoms = [ATOMS["He:kullie"], ATOMS["He:clementi"]]
    if len(lines) != 1 + len(atoms):
        raise Mismatch(f"{len(lines)} lines, expected {1 + len(atoms)}")
    _expect_header(lines[0], ("name", "source", "i_p_au", "z_eff", "f_a_au", "i_a_au"))
    for k, a in enumerate(atoms):
        _check_row(f"row {k + 1}", lines[1 + k],
                   [a.name, a.source, a.ip, a.z_eff, a.f_a, a.f_a * a.f_a], precision)
    return {}
