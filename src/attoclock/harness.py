"""Field-strength sweeps, reference-data ingestion and figure-ready tables.

The harness turns the closed-form estimators into the three standard views:
times vs field strength (with and without the single-sided estimate), and
the barrier-crossing time vs barrier width with a light-traversal baseline.
It also scores model curves against measured points.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

from .atom import AtomModel, LaserField
from .barrier import BarrierGeometry, Regime, RegimeError, solve_geometry
from .clocks import TunnelClocks, compute_clocks, keldysh_gamma
from .units import CONSTANTS, au_time_to_attoseconds

ESTIMATORS = ("tau_d", "tau_sym", "tau_unsy", "tau_t")

FIGURES = ("fig2", "fig3", "fig4")
_FIGURE_COLUMNS = {
    "fig2": ("f_au", "tau_unsy_as", "tau_sym_as"),
    "fig3": ("f_au", "tau_d_as", "tau_sym_as"),
    "fig4": ("d_b_au", "tau_d_as", "light_as"),
}


@dataclass(frozen=True)
class SweepRow:
    """One field-strength point of a sweep: geometry and clocks in au."""

    f: float
    atom: AtomModel
    geometry: BarrierGeometry
    clocks: TunnelClocks
    gamma: float | None = None


@dataclass(frozen=True)
class MeasurementRecord:
    """One ingested reference data point with asymmetric error bars."""

    f: float          # au
    t: float          # as
    err_lo: float     # as
    err_hi: float     # as
    source: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.f) and self.f > 0):
            raise ValueError(f"field must be finite and > 0, got {self.f!r}")
        if not (math.isfinite(self.t)):
            raise ValueError(f"time must be finite, got {self.t!r}")
        if not all(math.isfinite(e) and e >= 0 for e in (self.err_lo, self.err_hi)):
            raise ValueError("error bars must be finite and >= 0")


@dataclass(frozen=True)
class ResidualPoint:
    f: float
    model_as: float
    measured_as: float
    residual_as: float     # model - measurement
    within_bars: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Residual statistics of a model curve against measured points."""

    model_id: str
    estimator: str
    points: tuple[ResidualPoint, ...]
    rms: float
    max_abs: float
    fraction_within_bars: float
    n_records: int
    n_skipped: int


@dataclass(frozen=True)
class WidthFit:
    """Least-squares line through (barrier width, crossing time) points."""

    slope_as_per_au: float
    intercept_as: float
    r_squared: float
    n_points: int


def format_value(value: object, precision: int) -> str:
    """One output cell: None is empty, a float gets ``precision``
    significant digits, anything else its str()."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def _as(t: float | None) -> float | None:
    return None if t is None else au_time_to_attoseconds(t)


def _light_as(geom: BarrierGeometry) -> float | None:
    """Light-traversal time of the barrier in as; None without a real barrier."""
    if geom.regime is not Regime.SUB_ATOMIC:
        return None
    return au_time_to_attoseconds(geom.barrier_width / CONSTANTS.speed_of_light)


def run_sweep(atom: AtomModel, f_grid: Sequence[float],
              omega: float | None = None) -> list[SweepRow]:
    """Evaluate geometry and every estimator over a field-strength grid.

    The grid must be strictly ascending and positive. Rows above barrier
    suppression carry the complex decomposition and no real crossing data.
    With ``omega`` given, each row also reports the adiabaticity parameter.
    """
    if len(f_grid) == 0:
        raise ValueError("field grid is empty")
    for i, f in enumerate(f_grid):
        if not (math.isfinite(f) and f > 0):
            raise ValueError(f"grid value {f!r} is not a positive finite field")
        if i and not f > f_grid[i - 1]:
            raise ValueError("field grid must be strictly ascending with no duplicates")
    rows = []
    for f in f_grid:
        field = LaserField.direct(f)
        geom = solve_geometry(atom, field)
        gamma = keldysh_gamma(atom, field, omega) if omega is not None else None
        rows.append(SweepRow(f=f, atom=atom, geometry=geom,
                             clocks=compute_clocks(geom, atom), gamma=gamma))
    return rows


class MeasurementFormatError(ValueError):
    """Raised for malformed measurement CSV input."""


_HEADER_4 = ["field_au", "time_as", "err_lo_as", "err_hi_as"]
_HEADER_3 = ["field_au", "time_as", "err_as"]


def load_measurements(path: str) -> list[MeasurementRecord]:
    """Read measurement records from CSV, sorted by field strength.

    Accepted headers: ``field_au,time_as,err_lo_as,err_hi_as[,source]`` or
    the symmetric-bar form ``field_au,time_as,err_as[,source]``. A leading
    UTF-8 byte-order mark is ignored. A file that is empty after the header
    yields an empty list. Rows out of field order are accepted with a
    warning.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [c.strip() for c in next(reader)]
        except StopIteration:
            raise MeasurementFormatError(f"{path}: missing header line") from None
        if header in (_HEADER_4, _HEADER_4 + ["source"]):
            symmetric = False
        elif header in (_HEADER_3, _HEADER_3 + ["source"]):
            symmetric = True
        else:
            expected = f"{','.join(_HEADER_4)}[,source] or {','.join(_HEADER_3)}[,source]"
            raise MeasurementFormatError(
                f"{path}: line 1: bad header {','.join(header)!r}; expected {expected}")
        records = []
        for row in reader:
            line = reader.line_num
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise MeasurementFormatError(
                    f"{path}: line {line}: expected {len(header)} columns, got {len(row)}")
            try:
                values = [float(c) for c in row[: len(header) - (header[-1] == "source")]]
            except ValueError as exc:
                raise MeasurementFormatError(f"{path}: line {line}: {exc}") from None
            source = row[-1].strip() if header[-1] == "source" else ""
            if symmetric:
                f, t, err = values
                err_lo = err_hi = err
            else:
                f, t, err_lo, err_hi = values
            try:
                records.append(MeasurementRecord(f=f, t=t, err_lo=err_lo,
                                                 err_hi=err_hi, source=source))
            except ValueError as exc:
                raise MeasurementFormatError(f"{path}: line {line}: {exc}") from None
    if any(b.f <= a.f for a, b in zip(records, records[1:])):
        warnings.warn(f"{path}: field values are not strictly increasing; "
                      "records were re-sorted", stacklevel=2)
    records.sort(key=lambda r: r.f)
    return records


def compare(atom: AtomModel, estimator: str,
            data: Sequence[MeasurementRecord]) -> ComparisonReport:
    """Score one estimator of the atom's model against measured points.

    The model is evaluated exactly at each record's field strength, never
    interpolated. Records above barrier suppression are skipped with a
    warning when the estimator has no real value there. A point is within
    bars when the absolute residual does not exceed the larger of its two
    bars.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; choose from {ESTIMATORS}")
    if not data:
        raise ValueError("no measurement records given")
    points = []
    n_skipped = 0
    for record in data:
        geom = solve_geometry(atom, LaserField.direct(record.f))
        value = getattr(compute_clocks(geom, atom), estimator)
        if value is None:
            n_skipped += 1
            warnings.warn(
                f"record at F={record.f} is above barrier suppression; "
                f"{estimator} has no real value there; point skipped", stacklevel=2)
            continue
        model = au_time_to_attoseconds(value)
        residual = model - record.t
        points.append(ResidualPoint(
            f=record.f, model_as=model, measured_as=record.t, residual_as=residual,
            within_bars=abs(residual) <= max(record.err_lo, record.err_hi)))
    if not points:
        raise RegimeError(
            f"every record lies above barrier suppression; {estimator} "
            "cannot be compared")
    rms = math.sqrt(math.fsum(p.residual_as ** 2 for p in points) / len(points))
    return ComparisonReport(
        model_id=f"{atom.label()}/{estimator}",
        estimator=estimator,
        points=tuple(points),
        rms=rms,
        max_abs=max(abs(p.residual_as) for p in points),
        fraction_within_bars=sum(p.within_bars for p in points) / len(points),
        n_records=len(data),
        n_skipped=n_skipped,
    )


def figure_table(rows: Sequence[SweepRow], figure: str,
                 ) -> tuple[dict[str, str], tuple[str, ...], list[tuple[float, ...]]]:
    """Select and order the data behind one figure.

    Returns (metadata, column names, value rows). The width-vs-time table
    (fig4) admits only rows below barrier suppression; the time-vs-field
    tables (fig2, fig3) also admit the critical-field row.
    """
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; choose from {FIGURES}")
    if not rows:
        raise ValueError("no sweep rows given")
    if figure == "fig4":
        selected = [r for r in rows if r.geometry.regime is Regime.SUB_ATOMIC]
        if not selected:
            raise RegimeError("no real barrier in any sweep row; the width "
                              "table needs fields below barrier suppression")
    else:
        selected = [r for r in rows if r.geometry.regime is not Regime.SUPER_ATOMIC]
        if not selected:
            raise RegimeError("all sweep rows lie above barrier suppression; "
                              "the single-sided and crossing times are complex there")
    atom = rows[0].atom
    meta = {
        "atom": atom.name,
        "source": atom.source,
        "z_eff": format_value(atom.z_eff, 12),
        "i_p": format_value(atom.ip, 12),
        "grid": ",".join(format_value(r.f, 12) for r in rows),
        "constants": CONSTANTS.version,
    }
    if figure == "fig2":
        values = [(r.f, _as(r.clocks.tau_unsy), _as(r.clocks.tau_sym)) for r in selected]
    elif figure == "fig3":
        values = [(r.f, _as(r.clocks.tau_d), _as(r.clocks.tau_sym)) for r in selected]
    else:
        values = [(r.geometry.barrier_width, _as(r.clocks.tau_d), _light_as(r.geometry))
                  for r in selected]
    return meta, _FIGURE_COLUMNS[figure], values


DUMP_COLUMNS = (
    "f_au", "regime", "delta_z_au", "delta_z_imag_au", "x_entrance_au",
    "x_peak_au", "x_exit_au", "x_classical_au", "barrier_width_au", "h_max_au",
    "tau_i_as", "tau_d_as", "tau_sym_as", "tau_unsy_as", "tau_c_as", "tau_t_as",
    "tau_a_as", "light_as", "tau_d_re_au", "tau_d_im_au", "gamma_k",
)


def dump_table(rows: Sequence[SweepRow]) -> list[list[object]]:
    """Every quantity of every sweep row, one list per row in
    :data:`DUMP_COLUMNS` order; cells that do not exist in a row's regime
    are None."""
    table = []
    for row in rows:
        geom, clocks = row.geometry, row.clocks
        complex_d = clocks.complex_parts[0] if clocks.complex_parts else None
        table.append([
            row.f, geom.regime.value, geom.delta_z, geom.delta_z_imag,
            geom.x_entrance, geom.x_peak, geom.x_exit, geom.x_classical,
            geom.barrier_width, geom.h_max,
            _as(clocks.tau_i), _as(clocks.tau_d), _as(clocks.tau_sym),
            _as(clocks.tau_unsy), _as(clocks.tau_c), _as(clocks.tau_t),
            _as(clocks.tau_a), _light_as(geom),
            None if complex_d is None else complex_d.real,
            None if complex_d is None else complex_d.imag,
            row.gamma,
        ])
    return table


def emit_figure_data(rows: Sequence[SweepRow], figure: str,
                     precision: int = 12) -> str:
    """Render one figure table as CSV text.

    Columns are fixed per figure; metadata lines prefixed with ``#`` record
    the atom, grid and constants-table version.
    """
    meta, columns, values = figure_table(rows, figure)
    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines.append(",".join(columns))
    for cells in values:
        lines.append(",".join(format_value(c, precision) for c in cells))
    return "\n".join(lines) + "\n"


def fit_width_relation(rows: Sequence[SweepRow]) -> WidthFit:
    """Least-squares line of the barrier-crossing time (as) vs width (au)
    over the sub-atomic sweep rows.

    This is a chord fit. On the sub-atomic branch tau_d is strictly convex
    in the width, so the intercept lies below the zero-width limit
    1 / (2 ip) for any window of rows, and approaches it linearly in
    1 - F/F_a as the window shrinks toward F_a.
    """
    pts = [(r.geometry.barrier_width, au_time_to_attoseconds(r.clocks.tau_d))
           for r in rows if r.geometry.regime is Regime.SUB_ATOMIC]
    if len(pts) < 2:
        raise ValueError("need at least two sub-atomic rows for a line fit")
    n = len(pts)
    x_mean = math.fsum(x for x, _ in pts) / n
    y_mean = math.fsum(y for _, y in pts) / n
    sxx = math.fsum((x - x_mean) ** 2 for x, _ in pts)
    syy = math.fsum((y - y_mean) ** 2 for _, y in pts)
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in pts)
    slope = sxy / sxx
    return WidthFit(slope_as_per_au=slope,
                    intercept_as=y_mean - slope * x_mean,
                    r_squared=(sxy * sxy) / (sxx * syy),
                    n_points=n)
