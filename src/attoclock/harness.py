"""Field-strength sweeps, reference-data ingestion and figure-ready tables.

The harness turns the closed-form estimators into the three standard views:
times vs field strength (with and without the single-sided estimate), and
the barrier-crossing time vs barrier width with a light-traversal baseline.
It also scores model curves against measured points.
"""

import collections
import io
import math
import operator
import warnings
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, compress, islice, repeat, takewhile

from .atom import AtomModel
from .barrier import RegimeError, Segment, solve_geometry
from .clocks import ESTIMATORS, Point, compute_clocks
from .tables import FIGURE_COLUMNS, check_format, reads, render, rows
from .units import CONSTANTS


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
# summary columns in printed order, then the residual columns in
# tables.RESIDUAL_COLUMNS order, each a list with one cell per used record.
ComparisonReport = collections.namedtuple(
    "ComparisonReport", "model_id estimator n_records n_used n_skipped rms_as max_abs_as "
                        "fraction_within_bars residuals")


# Fields per call of each kernel stage: larger chunks raised the sweeps' peak RSS,
# smaller ones their time per point.
KERNEL_CHUNK = 128


def iter_segments(atom: AtomModel, f_grid: Sequence[float],
                  wanted: Iterable[str] = Point._fields) -> Iterator[Segment]:
    """The kernel's segments over a grid, lazily, with the ``wanted`` columns of
    each: one call of each stage per chunk of KERNEL_CHUNK fields. The whole grid is
    checked first: it must be strictly ascending and positive."""
    if len(f_grid) == 0:
        raise ValueError("field grid is empty")
    # Ascending from a positive start to a finite end is valid; else walk it to name the fault.
    if not (f_grid[0] > 0 and math.isfinite(f_grid[-1])
            and all(map(operator.lt, f_grid, f_grid[1:]))):
        for i, f in enumerate(f_grid):
            if not (math.isfinite(f) and f > 0):
                raise ValueError(f"grid value {f!r} is not a positive finite field")
            if i and not f > f_grid[i - 1]:
                raise ValueError("field grid must be strictly ascending with no duplicates")
    return (segment for lo in range(0, len(f_grid), KERNEL_CHUNK) for segment in compute_clocks(
        atom, solve_geometry(atom, f_grid[lo:lo + KERNEL_CHUNK], wanted), wanted))


def iter_sweep(atom: AtomModel, f_grid: Sequence[float]) -> Iterator[Point]:
    """:func:`attoclock.clocks.evaluate`'s point at each field of a grid, lazily;
    the grid is checked as :func:`iter_segments` checks it."""
    return chain.from_iterable(map(Point._make, zip(*map(segment.__getitem__, Point._fields)))
                               for segment in iter_segments(atom, f_grid))


def run_sweep(atom: AtomModel, f_grid: Sequence[float]) -> list[Point]:
    """Every point of :func:`iter_sweep`, as a list."""
    return list(iter_sweep(atom, f_grid))


_HEADER_4 = ["field_au", "time_as", "err_lo_as", "err_hi_as"]
_HEADER_3 = ["field_au", "time_as", "err_as"]
# Rows read and checked at a time. Over the row-by-row reader, compare_ingest's peak RSS
# rose about 10% with the whole body read at once, 3.5% at 512 rows and 2% at 128.
INGEST_CHUNK = 128


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
    try:
        header = [c.strip() for c in next(reader)]
        if header in (_HEADER_4, _HEADER_4 + ["source"]):
            hi = 3                      # the column of the upper bar
        elif header in (_HEADER_3, _HEADER_3 + ["source"]):
            hi = 2                      # the one bar serves both sides
        else:
            expected = f"{','.join(_HEADER_4)}[,source] or {','.join(_HEADER_3)}[,source]"
            raise ValueError(f"bad header {','.join(header)!r}; expected {expected}")
        width, named, records = len(header), header[-1] == "source", []

        def record(row: list[str]) -> MeasurementRecord | None:
            """The row's record, or None if it is blank (no cells, or only blank ones)."""
            try:
                if len(row) != width:
                    raise ValueError(f"expected {width} columns, got {len(row)}")
                return MeasurementRecord(float(row[0]), float(row[1]), float(row[2]),
                                         float(row[hi]), row[-1].strip() if named else "")
            except ValueError:      # a blank cell fails float(), so a blank row comes here
                if "".join(row).strip():
                    raise
        try:    # by chunk and column: sums (not finite for NaN, inf, overflow) and minima
            while rows := list(islice(reader, INGEST_CHUNK)):
                try:
                    if len(cells := list(zip(*rows, strict=True))) != width:
                        raise ValueError("rows of another width")
                    f, t, lo = (list(map(float, column)) for column in cells[:3])
                    bar = lo if hi == 2 else list(map(float, cells[3]))
                    if not (math.isfinite(sum(f) + sum(t) + sum(lo) + sum(bar))
                            and min(f) > 0.0 and min(lo) >= 0.0 and min(bar) >= 0.0):
                        raise ValueError("a cell out of range")
                    source = map(str.strip, cells[-1]) if named else repeat("")
                    records += map(tuple.__new__, repeat(MeasurementRecord),
                                   zip(f, t, lo, bar, source))
                except ValueError:      # a row at a time: blank rows skipped, a fault raised
                    records += filter(None, map(record, rows))
        except (csv.Error, ValueError):     # walk the rows again to name the fault's line
            reader = csv.reader(io.StringIO(text, newline=""))
            records = list(filter(None, map(record, islice(reader, 1, None))))
    except StopIteration:
        raise ValueError(f"{path}: missing header line") from None
    # csv.Error: a NUL byte (before Python 3.11) or a cell over the csv field limit
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    fields = [record[0] for record in records]
    if not all(map(operator.lt, fields, fields[1:])):
        warnings.warn(f"{path}: field values are not strictly increasing; "
                      "records were re-sorted", stacklevel=2)
        records.sort(key=operator.itemgetter(0))     # stable: ties keep file order
    return records


def compare(atom: AtomModel, estimator: str,
            data: Iterable[MeasurementRecord]) -> ComparisonReport:
    """Score one estimator of the atom's model against measured points.

    The model is evaluated exactly at each record's field strength, never
    interpolated. Records above barrier suppression are skipped with a
    warning when the estimator has no real value there. A point is within
    bars when the absolute residual (model - measurement) does not exceed
    the larger of its two bars.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; choose from {ESTIMATORS}")
    if not (data := tuple(data)):      # read once: data may be an iterator
        raise ValueError("no measurement records given")
    # The kernel evaluates each distinct field once, ascending, for the estimator alone:
    # the records' fields if they ascend strictly, else their sorted set, looked up.
    fields, times, err_lo, err_hi, _ = zip(*data)
    grid = fields if all(map(operator.lt, fields, fields[1:])) else sorted(set(fields))
    model_au = [*chain.from_iterable(s[estimator] for s in iter_segments(atom, grid, (estimator,)))]
    if grid is not fields:
        model_au = list(map(dict(zip(grid, model_au)).__getitem__, fields))
    # None: above F_a. Skips are warned of up to the first non-finite model time, if any.
    to_as, end = CONSTANTS.au_time_in_attoseconds, len(data)
    used = list(map(operator.is_not, model_au, repeat(None)))
    model = list(map(operator.mul, compress(model_au, used), repeat(to_as)))
    if not math.isfinite(sum(model)):
        end = next((i for i, (v, ok) in enumerate(zip(model_au, used))
                    if ok and not math.isfinite(v * to_as)), end)
    for f in compress(fields[:end], map(operator.not_, used)):
        warnings.warn(f"record at F={f} is above barrier suppression; "
                      f"{estimator} has no real value there; point skipped", stacklevel=2)
    if end < len(data):
        raise ValueError(f"record at F={fields[end]!r}: {estimator} is "
                         f"{model_au[end] * to_as!r} as, not a finite number")
    if not model:
        raise RegimeError(f"every record lies above barrier suppression; {estimator} "
                          "cannot be compared")
    res = list(map(operator.sub, model, compress(times, used)))
    within = [1 if abs(r) <= (lo if lo > hi else hi) else 0
              for r, lo, hi in zip(res, compress(err_lo, used), compress(err_hi, used))]
    n = len(res)
    try:
        sum_squares = math.fsum(map(operator.mul, res, res))
    except OverflowError:     # finite squares whose sum is not: render names rms_as
        sum_squares = math.inf
    return ComparisonReport(
        model_id=f"{atom.label()}/{estimator}", estimator=estimator, n_records=len(data),
        n_used=n, n_skipped=len(data) - n, rms_as=math.sqrt(sum_squares / n),
        max_abs_as=max(map(abs, res)), fraction_within_bars=sum(within) / n,
        residuals=([*compress(fields, used)], model, [*compress(times, used)], res, within))


def emit_figure_data(atom: AtomModel, f_grid: Sequence[float], figure: str,
                     precision: int = 12, fmt: str = "csv") -> str:
    """The data behind one figure, evaluated lazily over a field grid, as
    :func:`render` text. Columns are fixed per figure; the metadata records the
    atom, grid and constants-table version. The width-vs-time table (fig4)
    admits only points below barrier suppression; the time-vs-field tables (fig2,
    fig3) also admit the critical-field point. Arguments are checked before the grid."""
    columns = FIGURE_COLUMNS.get(figure) if isinstance(figure, str) else None
    if columns is None:
        raise ValueError(f"unknown figure {figure!r}; choose from {tuple(FIGURE_COLUMNS)}")
    check_format(fmt, precision)
    segments = iter_segments(atom, f_grid, reads(columns))
    if figure == "fig4":
        flag, refusal = "below", ("no real barrier in any sweep row; the width table "
                                  "needs fields below barrier suppression")
    else:
        flag, refusal = "real", ("all sweep rows lie above barrier suppression; the "
                                 "single-sided and crossing times are complex there")
    # The grid ascends strictly, so the segments that hold the flag (below F_a; at or
    # below it) are the leading ones, and evaluation stops with the chunk that holds
    # the first point left out.
    segments = takewhile(operator.itemgetter(flag), segments)
    first = next(segments, None)
    if first is None:
        raise RegimeError(refusal)
    meta = {"atom": atom.name, "source": atom.source, "z_eff": f"{atom.z_eff:.12g}",
            "i_p": f"{atom.ip:.12g}", "grid": ",".join(["%.12g"] * len(f_grid)) % tuple(f_grid),
            "constants": CONSTANTS.version}
    return render(meta, columns, rows(columns, atom, chain((first,), segments)), fmt, precision)
