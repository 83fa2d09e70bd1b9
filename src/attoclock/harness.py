"""Field-strength sweeps, reference-data ingestion and figure-ready tables.

The harness turns the closed-form estimators into the three standard views:
times vs field strength (with and without the single-sided estimate), and
the barrier-crossing time vs barrier width with a light-traversal baseline.
It also scores model curves against measured points and renders every table.
"""

import collections
import io
import math
import operator
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, repeat, takewhile

from .atom import AtomModel
from .barrier import RegimeError, atomic_field_strength
from .clocks import Point, evaluate
from .units import CONSTANTS

ESTIMATORS = ("tau_d", "tau_sym", "tau_unsy", "tau_t")

FIGURES = ("fig2", "fig3", "fig4")


class MeasurementRecord(collections.namedtuple("MeasurementRecord",
                                               "f t err_lo err_hi source")):
    """One ingested reference data point: field (au), time and asymmetric error bars (as)."""

    __slots__ = ()

    def __new__(cls, f: float, t: float, err_lo: float, err_hi: float,
                source: str = "") -> "MeasurementRecord":
        # Each chained comparison is false for NaN as well as out of range.
        if not 0.0 < f < math.inf:
            raise ValueError(f"field must be finite and > 0, got {f!r}")
        if not -math.inf < t < math.inf:
            raise ValueError(f"time must be finite, got {t!r}")
        if not (0.0 <= err_lo < math.inf and 0.0 <= err_hi < math.inf):
            raise ValueError("error bars must be finite and >= 0")
        return tuple.__new__(cls, (f, t, err_lo, err_hi, source))

    _make = classmethod(lambda cls, iterable: cls(*iterable))   # _replace validates too


# Residual statistics of a model curve against measured points: compare's
# summary columns in printed order, then one residual row per used record in
# RESIDUAL_COLUMNS order.
ComparisonReport = collections.namedtuple(
    "ComparisonReport", "model_id estimator n_records n_used n_skipped rms_as max_abs_as "
                        "fraction_within_bars residuals")


def _check_finite(cells: Iterable[tuple[str, object]]) -> None:
    """Refuse a float cell that is not finite, naming its column."""
    for column, value in cells:
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{column} is {value!r}, not a finite number")


def render(meta: dict[str, object] | None, columns: Sequence[str],
           rows: Iterable[Sequence[object]] | None, fmt: str, precision: int) -> str:
    """One table as CSV (``# key=value`` metadata lines, header, rows) or
    JSON (a list of row objects, or ``{"meta": ..., "rows": [...]}`` with
    metadata). With ``rows`` None, ``meta`` is one record: a JSON object, or a
    CSV header of its keys and one row of its values. ``rows`` is consumed once,
    so it may be lazy. A float cell or metadata value that is not finite is an
    error naming its column or key."""
    if fmt == "json":
        import json
        records = [] if rows is None else [dict(zip(columns, row)) for row in rows]
        doc = meta if rows is None else {"meta": meta, "rows": records} if meta else records
        text = json.dumps(doc, indent=2)
        # How a non-finite float prints. Searching the text is cheaper than testing
        # every cell, which is done only on a hit (a text cell can hold the word).
        if "Infinity" in text or "NaN" in text:
            _check_finite(chain.from_iterable(map(dict.items, [meta or {}, *records])))
        return text + "\n"
    if rows is None:
        meta, columns, rows = None, meta.keys(), [meta.values()]
    lines = [f"# {key}={value}" for key, value in (meta or {}).items()]
    lines.append(",".join(columns))
    spec = f"%.{precision}g"
    templates: dict[tuple[type, ...], str] = {}   # one per pattern of cell types
    for row in rows:
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(
                "%.0s" if kind is type(None) else spec if issubclass(kind, float) else "%s"
                for kind in kinds)
        line = template % tuple(row)
        # Every non-finite float prints with an "n" (inf, nan), so only such a
        # line has its cells tested (a text cell can hold the letter too).
        if "n" in line:
            _check_finite(zip(columns, row))
        lines.append(line)
    lines.append("")
    return "\n".join(lines)


_AS = "(None if {0} is None else {0} * K)"     # the au time {0} in as

# Every output column, once: its value as an expression over the atom ``a``, the
# evaluated point ``p`` and the drive's omega ``w``, with the names of _NAMESPACE.
# The suffix is the unit: _au as computed, _as converted, none for text and
# counts. None: not in this regime.
COLUMNS = {
    "atom": "a.name",
    "name": "a.name",
    "source": "a.source",
    "i_p_au": "a.ip",
    "z_eff": "a.z_eff",
    "f_a_au": "atomic_field_strength(a)",
    # F_a^2: intensity at which the barrier top reaches -ip (** 2 can round differently).
    "i_a_au": "atomic_field_strength(a) * atomic_field_strength(a)",
    "f_au": "p.f",
    "regime": "p.regime",
    "delta_z_au": "p.delta_z",
    "delta_z_imag_au": "p.delta_z_imag",
    "x_entrance_au": "p.x_entrance",
    "x_peak_au": "p.x_peak",
    "x_exit_au": "p.x_exit",
    "x_classical_au": "p.x_classical",
    "barrier_width_au": "p.barrier_width",
    "d_b_au": "p.barrier_width",
    "h_max_au": "p.h_max",
    "tau_i_au": "p.tau_i",
    "tau_i_as": _AS.format("p.tau_i"),
    "tau_d_au": "p.tau_d",
    "tau_d_as": _AS.format("p.tau_d"),
    "tau_sym_au": "p.tau_sym",
    "tau_sym_as": _AS.format("p.tau_sym"),
    "tau_unsy_au": "p.tau_unsy",
    "tau_unsy_as": _AS.format("p.tau_unsy"),
    "tau_c_au": "p.tau_c",
    "tau_c_as": _AS.format("p.tau_c"),
    "tau_t_au": "p.tau_t",
    "tau_t_as": _AS.format("p.tau_t"),
    "tau_a_au": "p.tau_a",
    "tau_a_as": _AS.format("p.tau_a"),
    "de_plus_au": "p.de_plus",
    "de_minus_au": "p.de_minus",
    # Light-traversal time of the barrier; None without a real barrier.
    "light_as": "(p.barrier_width / C * K if p.regime == 'sub_atomic' else None)",
    "tau_d_re_au": "p.tau_d_re",
    "tau_d_im_au": "p.tau_d_im",
    # The approach time is the conjugate; a zero imaginary part keeps its sign.
    "tau_i_re_au": "p.tau_d_re",
    "tau_i_im_au": "(None if p.tau_d_im is None else -p.tau_d_im)",
    "omega_au": "w",
    # Keldysh's adiabaticity parameter omega sqrt(2 ip) / F; None without a drive.
    "gamma_k": "(None if w is None else w * sqrt(2.0 * a.ip) / p.f)",
}
# Every name a COLUMNS expression reads, bound once; nothing else is in scope.
_NAMESPACE = {
    "__builtins__": {}, "K": CONSTANTS.au_time_in_attoseconds,
    "C": CONSTANTS.speed_of_light, "sqrt": math.sqrt,
    "atomic_field_strength": atomic_field_strength,
}
_ROW_FUNCTIONS: dict[tuple[str, ...], Callable[..., tuple]] = {}

GEOMETRY_COLUMNS = (
    "atom", "source", "i_p_au", "z_eff", "f_au", "f_a_au", "i_a_au", "regime",
    "delta_z_au", "delta_z_imag_au", "x_entrance_au", "x_peak_au", "x_exit_au",
    "x_classical_au", "barrier_width_au", "h_max_au",
)
TIMES_COLUMNS = (
    "atom", "source", "i_p_au", "z_eff", "f_au", "regime", "tau_i_au", "tau_i_as",
    "tau_d_au", "tau_d_as", "tau_sym_au", "tau_sym_as", "tau_unsy_au", "tau_unsy_as",
    "tau_c_au", "tau_c_as", "tau_t_au", "tau_t_as", "tau_a_au", "tau_a_as",
    "de_plus_au", "de_minus_au", "tau_d_re_au", "tau_d_im_au", "tau_i_re_au", "tau_i_im_au",
)
DRIVE_COLUMNS = ("omega_au", "gamma_k")      # times, when a wavelength is given
DUMP_COLUMNS = (
    "f_au", "regime", "delta_z_au", "delta_z_imag_au", "x_entrance_au",
    "x_peak_au", "x_exit_au", "x_classical_au", "barrier_width_au", "h_max_au",
    "tau_i_as", "tau_d_as", "tau_sym_as", "tau_unsy_as", "tau_c_as", "tau_t_as",
    "tau_a_as", "light_as", "tau_d_re_au", "tau_d_im_au", "gamma_k",
)
_FIGURE_COLUMNS = {
    "fig2": ("f_au", "tau_unsy_as", "tau_sym_as"),
    "fig3": ("f_au", "tau_d_as", "tau_sym_as"),
    "fig4": ("d_b_au", "tau_d_as", "light_as"),
}
CATALOG_COLUMNS = ("name", "source", "i_p_au", "z_eff", "f_a_au", "i_a_au")


def table(columns: Sequence[str], atom: AtomModel, points: Iterable[Point | None],
          omega: float | None = None) -> Iterator[tuple]:
    """Lazily, one tuple of cells per point, in ``columns`` order, each from its
    :data:`COLUMNS` entry. Columns that read only the atom take None points.

    The entries are compiled into one row function per column tuple, the way
    :func:`collections.namedtuple` builds its methods, and kept for reuse. Its
    source holds only COLUMNS expressions, so an unknown name is a KeyError."""
    columns = tuple(columns)
    row = _ROW_FUNCTIONS.get(columns)
    if row is None:
        cells = "".join(f"{COLUMNS[name]}, " for name in columns)
        row = _ROW_FUNCTIONS[columns] = eval(f"lambda a, p, w: ({cells})", _NAMESPACE)
    return map(row, repeat(atom), points, repeat(omega))


def iter_sweep(atom: AtomModel, f_grid: Sequence[float]) -> Iterator[Point]:
    """:func:`evaluate` lazily at each field of a grid. The whole grid is
    checked first: it must be strictly ascending and positive."""
    if len(f_grid) == 0:
        raise ValueError("field grid is empty")
    for i, f in enumerate(f_grid):
        if not (math.isfinite(f) and f > 0):
            raise ValueError(f"grid value {f!r} is not a positive finite field")
        if i and not f > f_grid[i - 1]:
            raise ValueError("field grid must be strictly ascending with no duplicates")
    return map(evaluate, repeat(atom), f_grid)


def run_sweep(atom: AtomModel, f_grid: Sequence[float]) -> list[Point]:
    """Every point of :func:`iter_sweep`, as a list."""
    return list(iter_sweep(atom, f_grid))


_HEADER_4 = ["field_au", "time_as", "err_lo_as", "err_hi_as"]
_HEADER_3 = ["field_au", "time_as", "err_as"]


def load_measurements(path: str) -> list[MeasurementRecord]:
    """Read measurement records from CSV, sorted by field strength.

    Accepted headers: ``field_au,time_as,err_lo_as,err_hi_as[,source]`` or
    the symmetric-bar form ``field_au,time_as,err_as[,source]``. A leading
    UTF-8 byte-order mark is ignored. A file that is empty after the header
    yields an empty list, and blank rows are skipped. Rows out of field order
    or with a repeated field are accepted with a warning and stably sorted, so
    equal fields keep file order. A malformed line is a ValueError naming the
    file and the line.
    """
    import csv
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    records = []
    try:
        header = [c.strip() for c in next(reader)]
        if header in (_HEADER_4, _HEADER_4 + ["source"]):
            hi = 3                      # the column of the upper bar
        elif header in (_HEADER_3, _HEADER_3 + ["source"]):
            hi = 2                      # the one bar serves both sides
        else:
            expected = f"{','.join(_HEADER_4)}[,source] or {','.join(_HEADER_3)}[,source]"
            raise ValueError(f"bad header {','.join(header)!r}; expected {expected}")
        width, named = len(header), header[-1] == "source"
        previous, ordered = -math.inf, True
        for row in reader:
            try:
                if len(row) != width:
                    raise ValueError(f"expected {width} columns, got {len(row)}")
                f = float(row[0])
                record = MeasurementRecord(f, float(row[1]), float(row[2]), float(row[hi]),
                                           row[-1].strip() if named else "")
            except ValueError:
                # Any blank cell fails float(), so only a failed row can be blank
                # (no cells, or only blank ones), and a blank row is skipped.
                if "".join(row).strip():
                    raise
                continue
            if f <= previous:
                ordered = False
            previous = f
            records.append(record)
    except StopIteration:
        raise ValueError(f"{path}: missing header line") from None
    # csv.Error: a NUL byte (before Python 3.11) or a cell over the csv field limit
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not ordered:
        warnings.warn(f"{path}: field values are not strictly increasing; "
                      "records were re-sorted", stacklevel=2)
        records.sort(key=operator.itemgetter(0))     # stable: ties keep file order
    return records


def compare(atom: AtomModel, estimator: str,
            data: Sequence[MeasurementRecord]) -> ComparisonReport:
    """Score one estimator of the atom's model against measured points.

    The model is evaluated exactly at each record's field strength, never
    interpolated. Records above barrier suppression are skipped with a
    warning when the estimator has no real value there. A point is within
    bars when the absolute residual (model - measurement) does not exceed
    the larger of its two bars.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; choose from {ESTIMATORS}")
    if not data:
        raise ValueError("no measurement records given")
    value_of, to_as = operator.attrgetter(estimator), CONSTANTS.au_time_in_attoseconds
    residuals = []
    for f, t, err_lo, err_hi, _ in data:
        value = value_of(evaluate(atom, f))
        if value is None:
            warnings.warn(
                f"record at F={f} is above barrier suppression; "
                f"{estimator} has no real value there; point skipped", stacklevel=2)
            continue
        model = value * to_as
        if not math.isfinite(model):
            raise ValueError(f"record at F={f!r}: {estimator} is "
                             f"{model!r} as, not a finite number")
        residual = model - t
        residuals.append((f, model, t, residual,
                          int(abs(residual) <= (err_lo if err_lo > err_hi else err_hi))))
    if not residuals:
        raise RegimeError(
            f"every record lies above barrier suppression; {estimator} "
            "cannot be compared")
    n = len(residuals)
    _, _, _, res, within = zip(*residuals)
    try:
        sum_squares = math.fsum(map(operator.mul, res, res))
    except OverflowError:     # finite squares whose sum is not: render names rms_as
        sum_squares = math.inf
    return ComparisonReport(
        model_id=f"{atom.label()}/{estimator}", estimator=estimator, n_records=len(data),
        n_used=n, n_skipped=len(data) - n, rms_as=math.sqrt(sum_squares / n),
        max_abs_as=max(map(abs, res)), fraction_within_bars=sum(within) / n,
        residuals=tuple(residuals))


RESIDUAL_COLUMNS = ("f_au", "model_as", "measured_as", "residual_as", "within_bars")


def emit_figure_data(atom: AtomModel, f_grid: Sequence[float], figure: str,
                     precision: int = 12, fmt: str = "csv") -> str:
    """The data behind one figure, evaluated lazily over a field grid, as
    :func:`render` text. Columns are fixed per figure; the metadata records the
    atom, grid and constants-table version. The width-vs-time table (fig4)
    admits only points below barrier suppression; the time-vs-field tables
    (fig2, fig3) also admit the critical-field point."""
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; choose from {FIGURES}")
    points = iter_sweep(atom, f_grid)
    if figure == "fig4":
        keep = lambda p: p.regime == "sub_atomic"
        refusal = ("no real barrier in any sweep row; the width table needs "
                   "fields below barrier suppression")
    else:
        keep = lambda p: p.regime != "super_atomic"
        refusal = ("all sweep rows lie above barrier suppression; the single-sided "
                   "and crossing times are complex there")
    # The grid ascends strictly and the regime is monotone in F (sub-atomic, then
    # atomic, then super-atomic), so the admitted points are a prefix of the grid
    # and evaluation stops at the first point left out.
    first = next(points)
    if not keep(first):
        raise RegimeError(refusal)
    meta = {"atom": atom.name, "source": atom.source, "z_eff": f"{atom.z_eff:.12g}",
            "i_p": f"{atom.ip:.12g}", "grid": ",".join(f"{f:.12g}" for f in f_grid),
            "constants": CONSTANTS.version}
    columns = _FIGURE_COLUMNS[figure]
    rows = table(columns, atom, takewhile(keep, chain((first,), points)))
    return render(meta, columns, rows, fmt, precision)
