"""Sweeps, CSV ingestion, comparison statistics, figure emission and the
table renderer."""

import csv
import json
import math
import re
import tempfile
import warnings
from itertools import cycle, groupby, islice, zip_longest
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from attoclock.atom import AtomModel, catalog_lookup
from attoclock.barrier import ATOMIC_BAND, RegimeError, atomic_field_strength, classify_regime
from attoclock import harness, tables
from attoclock.clocks import evaluate
from attoclock.harness import (MeasurementRecord, compare, emit_figure_data,
                               load_measurements, run_sweep)
from attoclock.tables import COLUMNS, DUMP_COLUMNS
from attoclock.units import (CONSTANTS, au_time_to_attoseconds,
                             wavelength_to_angular_frequency)
from helpers import iter_sweep, rel_err, render, table
from reference import fit_width_relation, load_measurements_oracle

GRID_9 = [0.03 + 0.01 * k for k in range(9)]   # 0.03 .. 0.11


def tau_d_as(point):
    return au_time_to_attoseconds(point.tau_d)


def figure_json(atom, grid, figure):
    return json.loads(emit_figure_data(atom, grid, figure, fmt="json"))


def light_as(atom, point):
    (row,) = figure_json(atom, [point.f], "fig4")["rows"]
    return row["light_as"]


@pytest.fixture
def rows9(he_clementi):
    return run_sweep(he_clementi, GRID_9)


def write_measurement_csv(path, rows, header="field_au,time_as,err_lo_as,err_hi_as"):
    lines = [header] + [",".join(repr(float(c)) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# render's fmt is csv or json and its precision an int from 1 to 17.
BAD_FORMATS = [("xml", 12), ("CSV", 12), (None, 12), ("csv", 0), ("csv", 18),
               ("json", 40), ("csv", -1), ("csv", True), ("json", 6.0)]


def bad_format(fmt, precision):
    """The one-line refusal of a bad ``fmt`` or ``precision``, as a pattern."""
    return re.escape(f"need fmt csv or json and precision 1..17, got {fmt!r}, {precision!r}")


class TestRunSweep:
    def test_nine_rows_sorted_subatomic(self, rows9):
        assert len(rows9) == 9
        assert all(a.f < b.f for a, b in zip(rows9, rows9[1:]))
        assert all(point.regime == "sub_atomic" for point in rows9)

    def test_delay_endpoints(self, rows9):
        assert rel_err(tau_d_as(rows9[0]), 100.76369931555205) < 1e-12
        assert rel_err(tau_d_as(rows9[-1]), 19.147249772337054) < 1e-12

    def test_light_baseline_below_delay_everywhere(self, he_clementi, rows9):
        for row in rows9:
            assert light_as(he_clementi, row) < tau_d_as(row)

    def test_single_critical_field_row(self, he_clementi):
        fa = atomic_field_strength(he_clementi)
        (point,) = run_sweep(he_clementi, [fa])
        assert point.regime == "atomic"
        assert point.barrier_width == 0.0
        assert rel_err(point.tau_sym, 1 / he_clementi.ip) < 1e-13
        (dump,) = table(DUMP_COLUMNS, he_clementi, [point])
        assert dump[DUMP_COLUMNS.index("light_as")] is None

    def test_superatomic_row_carries_complex_parts(self, he_clementi):
        (point,) = run_sweep(he_clementi, [0.15])
        assert point.regime == "super_atomic"
        assert point.tau_d_re is not None and point.tau_d_im is not None
        assert point.tau_d is None
        assert point.x_exit is None

    def test_gamma_column(self, he_clementi):
        omega = wavelength_to_angular_frequency(735.0)
        ((gamma,),) = table(("gamma_k",), he_clementi, iter_sweep(he_clementi, [0.06]),
                            omega)
        assert rel_err(gamma, 1.3889064083278631) < 1e-12

    @pytest.mark.parametrize("bad_grid", [
        ([], "field grid is empty"),
        ([0.06, 0.05], "strictly ascending with no duplicates"),
        ([0.05, 0.05], "strictly ascending with no duplicates"),
        ([-0.01], "is not a positive finite field"),
        ([0.0], "is not a positive finite field"),
        ([float("nan")], "is not a positive finite field"),
        # one fault inside a longer grid: the message the per-value walk gives
        ([0.04, float("nan"), 0.06], "^grid value nan is not a positive finite field$"),
        ([0.04, float("inf"), 0.06], "^grid value inf is not a positive finite field$"),
        ([0.04, 0.05, float("inf")], "^grid value inf is not a positive finite field$"),
        ([0.04, 0.05, 0.05, 0.06], "^field grid must be strictly ascending with no duplicates$"),
        ([-0.0, 0.05], r"^grid value -0\.0 is not a positive finite field$"),
        ([0.04, 0.06, 0.05, 0.07], "^field grid must be strictly ascending with no duplicates$"),
    ])
    def test_invalid_grids_rejected(self, he_clementi, bad_grid):
        # each (grid, message) pair: the grid check's own message, not the kernel's
        grid, message = bad_grid
        with pytest.raises(ValueError, match=message):
            run_sweep(he_clementi, grid)

    @pytest.mark.parametrize("call", [
        lambda atom: run_sweep(atom, ["0.05"]),
        lambda atom: run_sweep(atom, [None]),
        lambda atom: run_sweep(atom, [0.05, "0.06"]),
        lambda atom: emit_figure_data(atom, ["0.05"], "fig3"),
        lambda atom: evaluate(atom, "0.05"),
    ])
    def test_field_that_is_not_a_real_number_is_a_type_error(self, he_clementi, call):
        # as Python's own arithmetic does; the CLI parses its floats first
        with pytest.raises(TypeError):
            call(he_clementi)


class TestColumnRegistry:
    TUPLES = (tables.GEOMETRY_COLUMNS, tables.TIMES_COLUMNS, tables.DRIVE_COLUMNS,
              DUMP_COLUMNS, *tables.FIGURE_COLUMNS.values(), tables.CATALOG_COLUMNS)

    def test_every_tuple_name_is_registered_and_every_entry_used(self):
        used = {name for columns in self.TUPLES for name in columns}
        assert used == set(COLUMNS)

    @pytest.mark.parametrize("f", [0.06, "f_a", 0.15])
    def test_as_cells_are_au_twins_converted(self, he_clementi, f):
        f = atomic_field_strength(he_clementi) if f == "f_a" else f
        as_names = [n for n in COLUMNS if n.startswith("tau_") and n.endswith("_as")]
        assert len(as_names) == 7
        twins = [n[:-3] + "_au" for n in as_names]
        (cells,) = table(as_names + twins, he_clementi, run_sweep(he_clementi, [f]))
        for as_cell, au_cell in zip(cells, cells[len(as_names):]):
            if au_cell is None:
                assert as_cell is None
            else:
                assert as_cell == au_cell * CONSTANTS.au_time_in_attoseconds

    def test_unknown_column_is_a_key_error(self, he_clementi):
        # the row function's source holds only COLUMNS expressions
        with pytest.raises(KeyError):
            table(("f_au", "__import__('os')"), he_clementi, [])


class TestLightTraversal:
    def test_f006_barrier(self, he_clementi):
        row = figure_json(he_clementi, GRID_9, "fig4")["rows"][3]      # F = 0.06
        light = row["light_as"]
        assert rel_err(light, 1.8870428972824028) < 1e-12


class TestLoadMeasurements:
    def test_four_column_form(self, tmp_path):
        path = write_measurement_csv(tmp_path / "m.csv",
                                     [(0.060, 45.0, 8.0, 8.0), (0.080, 31.0, 6.0, 7.0)])
        records = load_measurements(path)
        assert records == [
            MeasurementRecord(f=0.060, t=45.0, err_lo=8.0, err_hi=8.0),
            MeasurementRecord(f=0.080, t=31.0, err_lo=6.0, err_hi=7.0),
        ]

    def test_symmetric_three_column_form(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("field_au,time_as,err_as\n0.06,45.0,8.0\n", encoding="utf-8")
        (record,) = load_measurements(str(path))
        assert record.err_lo == record.err_hi == 8.0

    def test_source_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("field_au,time_as,err_lo_as,err_hi_as,source\n"
                        "0.06,45.0,8.0,8.0,exp\n", encoding="utf-8")
        (record,) = load_measurements(str(path))
        assert record.source == "exp"

    def test_empty_after_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("field_au,time_as,err_as\n", encoding="utf-8")
        assert load_measurements(str(path)) == []

    def test_blank_and_all_empty_rows_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("field_au,time_as,err_as\n\n0.06,45.0,8.0\n,,\n , ,\n",
                        encoding="utf-8")
        (record,) = load_measurements(str(path))
        assert record == MeasurementRecord(f=0.06, t=45.0, err_lo=8.0, err_hi=8.0)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_measurements(str(path))

    def test_bad_header_names_expected_columns(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("field,time\n0.06,45\n", encoding="utf-8")
        with pytest.raises(ValueError, match="err_lo_as"):
            load_measurements(str(path))

    def test_malformed_row_carries_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("field_au,time_as,err_as\n0.06,45.0,8.0\n0.07,oops,8.0\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="line 3"):
            load_measurements(str(path))

    def test_wrong_column_count_carries_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("field_au,time_as,err_as\n0.06,45.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_measurements(str(path))

    def test_negative_error_bar_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("field_au,time_as,err_as\n0.06,45.0,-1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_measurements(str(path))

    def test_infinite_error_bar_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("field_au,time_as,err_lo_as,err_hi_as\n0.06,45.0,1.0,inf\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_measurements(str(path))

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\ufefffield_au,time_as,err_as\n0.06,45.0,8.0\n",
                        encoding="utf-8")
        (record,) = load_measurements(str(path))
        assert record == MeasurementRecord(f=0.06, t=45.0, err_lo=8.0, err_hi=8.0)

    def test_non_monotonic_warns_and_sorts(self, tmp_path):
        path = write_measurement_csv(tmp_path / "m.csv",
                                     [(0.080, 31.0, 6.0, 6.0), (0.060, 45.0, 8.0, 8.0)])
        with pytest.warns(UserWarning, match="not strictly increasing"):
            records = load_measurements(path)
        assert [r.f for r in records] == [0.060, 0.080]

    def test_non_utf8_file_is_named(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"field_au,time_as,err_as\n0.06,45.0,8.0\xff\n")
        with pytest.raises(ValueError, match=r"m\.csv: not UTF-8"):
            load_measurements(str(path))

    def test_record_replace_validates(self):
        with pytest.raises(ValueError, match="error bars must be finite and >= 0"):
            MeasurementRecord(f=0.06, t=45.0, err_lo=8.0, err_hi=8.0)._replace(err_lo=-1.0)

    @pytest.mark.parametrize("lines", [
        # ascending in file order, with a tie
        ["0.06,45.0,1.0,1.0,first", "0.06,40.0,1.0,1.0,second", "0.08,31.0,1.0,1.0,third"],
        # out of order, with a tie
        ["0.08,31.0,1.0,1.0,third", "0.06,45.0,1.0,1.0,first", "0.06,40.0,1.0,1.0,second"],
    ])
    def test_equal_fields_warn_and_keep_file_order(self, tmp_path, lines):
        # A sort on more than the field would put "second" (t=40) first.
        path = tmp_path / "m.csv"
        path.write_text("\n".join(["field_au,time_as,err_lo_as,err_hi_as,source", *lines]),
                        encoding="utf-8")
        with pytest.warns(UserWarning, match="not strictly increasing"):
            records = load_measurements(str(path))
        assert [r.source for r in records] == ["first", "second", "third"]


_FIELD = "field must be finite and > 0, got {!r}"
_TIME = "time must be finite, got {!r}"
_BARS = "error bars must be finite and >= 0"


class TestMeasurementRecord:
    GOOD = {"f": 0.06, "t": 45.0, "err_lo": 8.0, "err_hi": 8.0}

    # Each check alone, at the library: the CLI's field check and the kernel's
    # would otherwise catch what a broken record check lets through.
    @pytest.mark.parametrize("name, value, message", [
        *[("f", v, _FIELD) for v in (math.nan, math.inf, -math.inf, 0.0, -0.0, -0.06)],
        *[("t", v, _TIME) for v in (math.nan, math.inf, -math.inf)],
        ("t", 0.0, None), ("t", -45.0, None),
        *[(name, v, _BARS) for name in ("err_lo", "err_hi")
          for v in (math.nan, math.inf, -math.inf, -1.0, -5e-324)],
        *[(name, v, None) for name in ("err_lo", "err_hi") for v in (0.0, -0.0, 1e308)],
    ])
    def test_each_check_alone(self, name, value, message):
        builds = (lambda: MeasurementRecord(**{**self.GOOD, name: value}),
                  lambda: MeasurementRecord(**self.GOOD)._replace(**{name: value}))
        for build in builds:
            if message is None:
                record = build()
                assert getattr(record, name) is value
                assert tuple(record) == tuple({**self.GOOD, name: value, "source": ""}.values())
            else:
                with pytest.raises(ValueError, match=f"^{re.escape(message.format(value))}$"):
                    build()


HEADER_FORMS = ("field_au,time_as,err_lo_as,err_hi_as", "field_au,time_as,err_lo_as,err_hi_as,source",
                "field_au,time_as,err_as", "field_au,time_as,err_as,source")
FIELD_CELLS = ("0.03", "0.05", "0.06", "0.08", "1e-3")       # few, so fields repeat
TIME_CELLS = ("45.0", "0", "-3", "1e3")
BAR_CELLS = ("0", "-0", "2.5", "8")
# Cells each column refuses, by position: field, time, then the bars.
BAD_CELLS = (("0", "-0", "-0.06", "nan", "inf", "1e999", "oops", "", "0x1p-3"),
             ("nan", "inf", "-inf", "-1e999", "oops", " "),
             ("-1", "-5e-324", "nan", "inf", "1e999", "oops", ""))
PADS = ("", " ", "\t", "  ")
# The csv field limit while files with extras are read: LONG_CELL, a number, is over it.
FIELD_LIMIT = 40
LONG_CELL = "0." + "0" * 60 + "6"


@st.composite
def measurement_files(draw, max_rows=8, extras=False):
    """A measurement CSV in one of the four header forms: records with padded
    cells and repeated, unordered fields, blank and whitespace-only rows, rows
    of blank cells, and now and then a bad cell or a row of the wrong width.
    With extras, a cell may also be quoted around a line break, so that a row
    spans two or three lines, or be LONG_CELL, a csv.Error under FIELD_LIMIT."""
    form = draw(st.sampled_from(HEADER_FORMS))
    width, named = form.count(",") + 1, form.endswith(",source")
    pad = lambda cell: draw(st.sampled_from(PADS)) + cell + draw(st.sampled_from(PADS))
    lines = [draw(st.sampled_from(("", "\ufeff"))) + form]
    kinds = ("record",) * 6 + ("blank", "spaces", "blank cells", "bad cell", "bad width")
    kinds += ("quoted break", "quoted break", "long cell") if extras else ()
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "spaces":
            lines.append(draw(st.sampled_from((" ", "\t", " \t "))))
            continue
        if kind == "blank cells":
            n = draw(st.integers(width - 1, width + 1))
            lines.append(",".join(draw(st.sampled_from(("", " ", "\t"))) for _ in range(n)))
            continue
        cells = [draw(st.sampled_from(FIELD_CELLS)), draw(st.sampled_from(TIME_CELLS))]
        cells += [draw(st.sampled_from(BAR_CELLS)) for _ in range(width - 2 - named)]
        cells += [draw(st.sampled_from(("", "lab", "lab 2")))] if named else []
        if kind == "bad cell":
            i = draw(st.integers(0, width - 1 - named))
            cells[i] = draw(st.sampled_from(BAD_CELLS[min(i, 2)]))
        elif kind == "bad width":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        cells = list(map(pad, cells))
        if kind in ("quoted break", "long cell"):
            i = draw(st.integers(0, len(cells) - 1))
            brk = draw(st.sampled_from(("\n", "\r\n", "\n\n")))
            # float() strips the break from a number as it strips the pads
            cells[i] = '"' + cells[i] + brk + '"' if kind == "quoted break" else LONG_CELL
        lines.append(",".join(cells))
    end = draw(st.sampled_from(("\n", "\r\n")))
    return end.join(lines) + draw(st.sampled_from(("", end)))


def ingest(load, path):
    """Records as tuples, or the refusal's text; and each warning's text and
    the line it names, which is this function's call line for both loaders."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = [tuple(record) for record in load(path)]
        except ValueError as exc:
            result = str(exc)
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def both_ingests(text):
    """:func:`ingest` of ``text`` by load_measurements, then by the oracle."""
    with tempfile.TemporaryDirectory() as directory:
        path = str(Path(directory) / "m.csv")
        Path(path).write_text(text, encoding="utf-8", newline="")
        return ingest(load_measurements, path), ingest(load_measurements_oracle, path)


HEAD = "field_au,time_as,err_as,source\n"


class TestIngestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(measurement_files())
    def test_same_records_warning_and_refusal(self, text):
        ours, oracle = both_ingests(text)
        assert ours == oracle

    # Many chunks: a fault in any chunk, a row spanning lines (so its line is not
    # its index + 2), and a csv.Error before or after a bad cell, in one chunk or two.
    @settings(max_examples=300, deadline=None)
    @given(measurement_files(max_rows=40, extras=True), st.sampled_from((1, 2, 3, 7, 128)))
    @example(HEAD + f"0.06,45,1,a\n0.07,45,1,{LONG_CELL}\n0.08,oops,1,c\n", 1)
    @example(HEAD + f"0.06,45,1,a\n0.07,45,1,{LONG_CELL}\n0.08,oops,1,c\n", 128)
    @example(HEAD + f"0.06,45,1,a\n0.08,oops,1,c\n0.07,45,1,{LONG_CELL}\n", 2)
    @example(HEAD + f"0.06,45,1,a\n0.08,oops,1,c\n0.07,45,1,{LONG_CELL}\n", 128)
    @example(HEAD + '0.06,45,1,"lab\n2"\n0.05,45,1,b\n\n', 1)
    def test_across_chunks_line_breaks_and_csv_errors(self, text, chunk):
        limit = csv.field_size_limit(FIELD_LIMIT)
        try:
            with mock.patch.object(harness, "INGEST_CHUNK", chunk):
                ours, oracle = both_ingests(text)
        finally:
            csv.field_size_limit(limit)
        assert ours == oracle

    @pytest.mark.parametrize("form", HEADER_FORMS)
    def test_each_refused_cell_amid_clean_rows(self, form):
        # Each column's check alone: every refused cell of every column, in a chunk
        # that holds no other fault.
        width, named = form.count(",") + 1, form.endswith(",source")
        good = ["0.05", "45", "1", "2"][:width - named] + ["lab"] * named
        for i in range(width - named):
            for cell in BAD_CELLS[min(i, 2)]:
                row = [*good[:i], cell, *good[i + 1:]]
                ours, oracle = both_ingests("\n".join([form, *map(",".join, (good, row, good))]))
                assert ours == oracle and ": line 3: " in ours[0], (i, cell)

    @pytest.mark.parametrize("chunk", [1, 2, 128])
    def test_line_of_a_fault_after_a_row_over_two_lines(self, chunk):
        text = HEAD + '0.06,45,1,"lab\n2"\n' + "0.05,45,1,b\n" * 300 + "0.08,oops,1,c\n"
        with mock.patch.object(harness, "INGEST_CHUNK", chunk):
            (ours, _), (oracle, _) = both_ingests(text)
        assert ours == oracle
        assert ours.endswith(": line 304: could not convert string to float: 'oops'")


class TestCompare:
    def test_self_comparison_is_exact(self, he_clementi, rows9, tmp_path):
        data = [(r.f, tau_d_as(r), 0.0, 0.0) for r in rows9]
        path = write_measurement_csv(tmp_path / "self.csv", data)
        report = compare(he_clementi, "tau_d", load_measurements(path))
        assert report.rms_as == 0.0
        assert report.max_abs_as == 0.0
        assert report.fraction_within_bars == 1.0
        assert report.n_skipped == 0

    def test_unit_offset_gives_unit_rms(self, he_clementi, rows9, tmp_path):
        data = [(r.f, tau_d_as(r) + 1.0, 2.0, 2.0) for r in rows9]
        path = write_measurement_csv(tmp_path / "off.csv", data)
        report = compare(he_clementi, "tau_d", load_measurements(path))
        assert abs(report.rms_as - 1.0) < 1e-9
        assert report.fraction_within_bars == 1.0
        # residual is model - measurement, so the offset shows up negative
        assert all(abs(r + 1.0) < 1e-9 for _, _, _, r, _ in zip(*report.residuals))

    def test_offset_beyond_bars(self, he_clementi, rows9, tmp_path):
        data = [(r.f, tau_d_as(r) + 5.0, 2.0, 2.0) for r in rows9]
        path = write_measurement_csv(tmp_path / "far.csv", data)
        report = compare(he_clementi, "tau_d", load_measurements(path))
        assert report.fraction_within_bars == 0.0

    def test_asymmetric_bars_use_larger(self, he_clementi, rows9, tmp_path):
        data = [(rows9[0].f, tau_d_as(rows9[0]) + 3.0, 1.0, 4.0)]
        path = write_measurement_csv(tmp_path / "asym.csv", data)
        report = compare(he_clementi, "tau_d", load_measurements(path))
        assert report.fraction_within_bars == 1.0

    def test_superatomic_record_skipped_with_warning(self, he_clementi, rows9, tmp_path):
        data = [(rows9[0].f, tau_d_as(rows9[0]), 1.0, 1.0),
                (0.15, 10.0, 1.0, 1.0)]
        path = write_measurement_csv(tmp_path / "mix.csv", data)
        with pytest.warns(UserWarning, match="skipped"):
            report = compare(he_clementi, "tau_d", load_measurements(path))
        assert report.n_skipped == 1
        assert report.n_records == 2
        assert len([*zip(*report.residuals)]) == 1

    def test_symmetric_estimator_covers_superatomic_records(self, he_clementi, tmp_path):
        geom_f = 0.15
        data = [(geom_f, 20.0, 2.0, 2.0)]
        path = write_measurement_csv(tmp_path / "sym.csv", data)
        report = compare(he_clementi, "tau_sym", load_measurements(path))
        assert report.n_skipped == 0 and len([*zip(*report.residuals)]) == 1

    def test_all_records_superatomic_raises_regime_error(self, he_clementi, tmp_path):
        path = write_measurement_csv(tmp_path / "sup.csv", [(0.15, 10.0, 1.0, 1.0)])
        records = load_measurements(path)
        with pytest.raises(RegimeError), pytest.warns(UserWarning):
            compare(he_clementi, "tau_d", records)

    def test_unknown_estimator(self, he_clementi, tmp_path):
        path = write_measurement_csv(tmp_path / "m.csv", [(0.06, 45.0, 1.0, 1.0)])
        with pytest.raises(ValueError, match="estimator"):
            compare(he_clementi, "tau_x", load_measurements(path))

    def test_empty_data_rejected(self, he_clementi):
        with pytest.raises(ValueError):
            compare(he_clementi, "tau_d", [])

    @pytest.mark.parametrize("estimator", ["tau_d", "tau_sym"])
    def test_unsorted_and_tied_records_keep_record_order(self, he_clementi, estimator):
        # A library caller's records, out of field order, with ties and with records
        # above barrier suppression in between: residual rows and skip warnings
        # follow the records as given, each row holding its own record's time.
        fields = [0.08, 0.15, 0.05, 0.08, 0.2, 0.05, 0.03, 0.15]
        records = [MeasurementRecord(f, float(i), 1.0, 1.0) for i, f in enumerate(fields)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = compare(he_clementi, estimator, records)
        model = {f: getattr(evaluate(he_clementi, f), estimator) for f in set(fields)}
        used = [r for r in records if model[r.f] is not None]
        assert [(row[0], row[1], row[2]) for row in zip(*report.residuals)] == [
            (r.f, model[r.f] * CONSTANTS.au_time_in_attoseconds, r.t) for r in used]
        skipped = [r.f for r in records if model[r.f] is None]
        assert [str(w.message).split(" is ")[0] for w in caught] == [
            f"record at F={f}" for f in skipped]
        assert report.n_skipped == len(skipped) == (3 if estimator == "tau_d" else 0)
        assert report.n_records == len(records)

    @pytest.mark.parametrize("estimator", ["tau_d", "tau_sym"])
    def test_generator_gives_the_list_report(self, he_clementi, estimator):
        # the records are read once, so an iterator serves as a list does
        records = [MeasurementRecord(f, 50.0, 1.0, 1.0) for f in (0.05, 0.15, 0.08, 0.05)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = compare(he_clementi, estimator, records)
            assert compare(he_clementi, estimator, iter(records)) == expected
        with pytest.raises(ValueError, match="^no measurement records given$"):
            compare(he_clementi, estimator, iter(()))

    def test_model_id_labels_atom_and_estimator(self, he_clementi, tmp_path):
        path = write_measurement_csv(tmp_path / "m.csv", [(0.06, 45.0, 1.0, 1.0)])
        report = compare(he_clementi, "tau_d", load_measurements(path))
        assert report.model_id == "He:Clementi/tau_d"


class TestEmitFigureData:
    def test_int_fields_print_as_float_fields(self):
        # a block's row template comes from its first row: an int field must not
        # make the float fields after it print as text, past --precision
        atom = AtomModel("x", 4.0, 1.0)
        for fmt in ("csv", "json"):
            assert emit_figure_data(atom, [1, 1.123456789], "fig3", 6, fmt) == (
                emit_figure_data(atom, [1.0, 1.123456789], "fig3", 6, fmt))

    def test_fig3_columns_and_rows(self, he_clementi):
        text = emit_figure_data(he_clementi, GRID_9, "fig3")
        lines = text.splitlines()
        meta = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "f_au,tau_d_as,tau_sym_as"
        assert len(body) == 1 + 9
        assert any(l.startswith("# atom=He") for l in meta)
        assert any(l.startswith("# z_eff=1.6875") for l in meta)
        assert any(l.startswith("# i_p=0.90357") for l in meta)
        assert any(l.startswith("# constants=codata2018") for l in meta)
        assert any(l.startswith("# grid=0.03,") for l in meta)

    def test_fig4_row_at_f006(self, he_clementi):
        text = emit_figure_data(he_clementi, GRID_9, "fig4", precision=6)
        row = text.splitlines()[7 + 3]          # 6 meta lines + header, F=0.06 is 4th
        d_b, tau_d, light = (float(c) for c in row.split(","))
        assert abs(d_b - 10.6906) < 5e-4
        assert abs(tau_d - 46.1381) < 5e-4
        assert abs(light - 1.88704) < 5e-5

    def test_fig3_critical_field_row(self, he_clementi):
        fa = atomic_field_strength(he_clementi)
        text = emit_figure_data(he_clementi, [fa], "fig3", precision=6)
        row = text.splitlines()[-1].split(",")
        assert abs(float(row[1]) - 13.3852) < 5e-4
        assert abs(float(row[2]) - 26.7703) < 5e-4

    def test_fig2_and_fig3_share_symmetric_column(self, he_clementi):
        fig2 = [l.split(",") for l in
                emit_figure_data(he_clementi, GRID_9, "fig2").splitlines()
                if not l.startswith("#")][1:]
        fig3 = [l.split(",") for l in
                emit_figure_data(he_clementi, GRID_9, "fig3").splitlines()
                if not l.startswith("#")][1:]
        assert [r[0] for r in fig2] == [r[0] for r in fig3]
        assert [r[2] for r in fig2] == [r[2] for r in fig3]

    def test_emission_is_deterministic(self, he_clementi):
        first = emit_figure_data(he_clementi, GRID_9, "fig4")
        second = emit_figure_data(he_clementi, GRID_9, "fig4")
        assert first.encode() == second.encode()

    def test_fig4_excludes_non_subatomic_rows(self, he_clementi):
        fa = atomic_field_strength(he_clementi)
        assert len(figure_json(he_clementi, [0.06, fa], "fig4")["rows"]) == 1

    def test_fig4_with_no_real_barrier_is_regime_error(self, he_clementi):
        with pytest.raises(RegimeError):
            emit_figure_data(he_clementi, [0.15], "fig4")

    @pytest.mark.parametrize("fmt, precision", BAD_FORMATS)
    def test_bad_format_or_precision_rejected(self, he_clementi, fmt, precision):
        with pytest.raises(ValueError, match=bad_format(fmt, precision)):
            emit_figure_data(he_clementi, GRID_9, "fig3", precision, fmt)

    @pytest.mark.parametrize("fmt, precision", BAD_FORMATS)
    @pytest.mark.parametrize("grid", [GRID_9, [0.15]])     # [0.15]: no row of fig4's
    def test_bad_format_or_precision_refused_before_the_kernel(self, he_clementi, fmt,
                                                              precision, grid):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "solve_geometry", None)      # any evaluation fails
            for figure in ("fig3", "fig4"):
                with pytest.raises(ValueError, match=f"^{bad_format(fmt, precision)}$"):
                    emit_figure_data(he_clementi, grid, figure, precision, fmt)

    def test_empty_rows_rejected(self, he_clementi):
        with pytest.raises(ValueError, match="field grid is empty"):
            emit_figure_data(he_clementi, [], "fig2")

    def test_unknown_figure_rejected(self, he_clementi):
        for figure in ("fig1", ["fig2"]):       # a list is not hashable: no TypeError
            with pytest.raises(ValueError, match=rf"^unknown figure {re.escape(repr(figure))}; "
                                                 r"choose from \('fig2', 'fig3', 'fig4'\)$"):
                emit_figure_data(he_clementi, GRID_9, figure)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
        st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308]),
        st.integers(1, 2 ** 1023)), min_size=1, max_size=40))
    def test_grid_line_prints_each_value_at_12_digits(self, values):
        # every grid point evaluates as F = 0.05, so any ascending positive grid emits
        grid = sorted({float(v): v for v in values}.values(), key=float)
        atom = catalog_lookup("He:clementi")
        solve = harness.solve_geometry
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "solve_geometry", lambda atom, fields:
                          solve(atom, [0.05] * len(fields)))
            text = emit_figure_data(atom, grid, "fig3")
        (line,) = [line for line in text.splitlines() if line.startswith("# grid=")]
        assert line == "# grid=" + ",".join(f"{f:.12g}" for f in grid)

    def test_json_is_meta_and_rows(self, he_clementi, rows9):
        # the CSV's metadata lines and the table of the evaluated points
        meta = dict(line[2:].split("=", 1)
                    for line in emit_figure_data(he_clementi, GRID_9, "fig3").splitlines()
                    if line.startswith("# "))
        columns = tables.FIGURE_COLUMNS["fig3"]
        values = table(columns, he_clementi, rows9)
        assert figure_json(he_clementi, GRID_9, "fig3") == {
            "meta": meta, "rows": [dict(zip(columns, v)) for v in values]}


def old_figure_data(atom, grid, figure, precision, fmt):
    """A figure as it was built before it streamed: evaluate the whole grid,
    then keep the points of the figure's regimes."""
    points = run_sweep(atom, grid)
    keep = ((lambda p: p.regime == "sub_atomic") if figure == "fig4"
            else (lambda p: p.regime != "super_atomic"))
    selected = [p for p in points if keep(p)]
    if not selected:
        raise RegimeError("no point admitted")
    meta = {"atom": atom.name, "source": atom.source, "z_eff": f"{atom.z_eff:.12g}",
            "i_p": f"{atom.ip:.12g}", "grid": ",".join(f"{p.f:.12g}" for p in points),
            "constants": CONSTANTS.version}
    columns = tables.FIGURE_COLUMNS[figure]
    text = render(meta, columns, (columns_of([row]) for row in table(columns, atom, selected)),
                  fmt, precision)
    # the streamed table evaluates whole kernel chunks, up to the one that holds the
    # first point left out
    chunks = -(-(len(selected) + 1) // harness.KERNEL_CHUNK)
    return text, min(chunks * harness.KERNEL_CHUNK, len(points))


def band_edges(atom):
    """The fields one ulp outside and at each edge of the critical band
    |F - F_a| <= ATOMIC_BAND F_a: (below, lowest inside, highest inside, above)."""
    fa = atomic_field_strength(atom)
    edges = []
    for away in (-math.inf, math.inf):
        f = fa + math.copysign(ATOMIC_BAND * fa, away)
        while abs(f - fa) <= ATOMIC_BAND * fa:
            f = math.nextafter(f, away)
        while not abs(f - fa) <= ATOMIC_BAND * fa:
            f = math.nextafter(f, fa)
        edges.append((math.nextafter(f, away), f))
    (lo_out, lo_in), (hi_out, hi_in) = edges
    return lo_out, lo_in, hi_in, hi_out


@st.composite
def grids_across_f_a(draw):
    """A He model and a strictly ascending grid: fields below F_a (maybe
    none), one inside the critical band, and at least one above."""
    atom = catalog_lookup(draw(st.sampled_from(("He:clementi", "He:kullie"))))
    fa = atomic_field_strength(atom)
    below = draw(st.lists(st.floats(0.01, 0.999), max_size=6))
    band = draw(st.floats(-0.5, 0.5))
    above = draw(st.lists(st.floats(1.001, 4.0), min_size=1, max_size=6))
    grid = sorted({fa * frac for frac in below + above} | {fa * (1 + band * ATOMIC_BAND)})
    return atom, grid


class TestFigureStreaming:
    @settings(max_examples=60, deadline=None)
    @given(grids_across_f_a(), st.sampled_from(tuple(tables.FIGURE_COLUMNS)),
           st.integers(1, 17), st.sampled_from(("csv", "json")))
    def test_matches_whole_grid_selection(self, case, figure, precision, fmt):
        atom, grid = case
        calls, solve = [], harness.solve_geometry

        def counted(atom, fields, *args):
            calls.extend(fields)
            return solve(atom, fields, *args)

        try:
            expected, n_evaluated = old_figure_data(atom, grid, figure, precision, fmt)
        except RegimeError:
            expected, n_evaluated = RegimeError, min(harness.KERNEL_CHUNK, len(grid))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "solve_geometry", counted)
            if expected is RegimeError:
                with pytest.raises(RegimeError):
                    emit_figure_data(atom, grid, figure, precision, fmt)
            else:
                assert emit_figure_data(atom, grid, figure, precision, fmt) == expected
        assert len(calls) == n_evaluated


    @pytest.mark.parametrize("spec", ["He:clementi", "He:kullie"])
    @pytest.mark.parametrize("figure", list(tables.FIGURE_COLUMNS))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_band_edges(self, spec, figure, fmt):
        # fig4 drops the fields at either edge of the critical band, fig2 and fig3 keep them
        atom = catalog_lookup(spec)
        lo_out, lo_in, hi_in, hi_out = band_edges(atom)
        assert [classify_regime(atom, f) for f in (lo_out, lo_in, hi_in, hi_out)] == [
            "sub_atomic", "atomic", "atomic", "super_atomic"]
        grid = [0.5 * lo_out, lo_out, lo_in, atomic_field_strength(atom), hi_in, hi_out]
        text = emit_figure_data(atom, grid, figure, 17, fmt)
        assert text == old_figure_data(atom, grid, figure, 17, fmt)[0]
        if fmt == "json":
            assert len(json.loads(text)["rows"]) == (2 if figure == "fig4" else 5)

    @pytest.mark.parametrize("figure", ["fig3", "fig4"])
    def test_stops_with_the_chunk_of_the_first_point_left_out(self, he_clementi, figure):
        fa = atomic_field_strength(he_clementi)
        grid = [fa * (0.5 + k / 1000) for k in range(1000)]      # F_a at k = 500
        keep = ("sub_atomic",) if figure == "fig4" else ("sub_atomic", "atomic")
        admitted = sum(classify_regime(he_clementi, f) in keep for f in grid)
        calls, solve = [], harness.solve_geometry

        def counted(atom, fields, *args):
            calls.extend(fields)
            return solve(atom, fields, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "solve_geometry", counted)
            emit_figure_data(he_clementi, grid, figure)
        chunk = harness.KERNEL_CHUNK
        assert calls == grid[:-(-(admitted + 1) // chunk) * chunk] and len(calls) < len(grid)


def columns_of(rows):
    """A render block: the columns of these rows, one list each."""
    return [list(column) for column in zip(*rows)]


# Each kind of cell render formats its own way; text can hold the letter "n" and "%".
CELLS = {
    "float": st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e308]),
    "none": st.none(),
    "int": st.integers() | st.sampled_from([0, 1]),     # 0 and 1 as within_bars holds them
    "bool": st.booleans(),
    "text": st.text() | st.sampled_from(["n", "nan", "inf", "Infinity", "ñandú", "Ωn",
                                         "%", "100%", "%s", "%%", "%(n)s"]),
}
# A new object equal to a cell, where its type makes one.
EQUAL_COPY = {"float": lambda v: float(repr(v)), "int": lambda v: int(str(v)),
              "text": lambda v: (v + ".")[:-1]}


@st.composite
def column_blocks(draw):
    """Columns and render blocks of 0 to 3 render chunks of rows in all, each column
    of a block of one cell kind: cells drawn apart, one object repeated (``[v] * n``,
    as a kernel segment's constant columns), equal objects that are not one (copies,
    or 0.0 and -0.0 in turn), or a few values cycled. Some cells or whole columns may
    then be made non-finite floats."""
    width = draw(st.integers(1, 4))
    n_rows, blocks, total = draw(st.integers(0, 3 * tables._CHUNK + 2)), [], 0
    while total < n_rows:
        n = draw(st.integers(1, n_rows - total))
        block = []
        for kind in draw(st.lists(st.sampled_from(list(CELLS)), min_size=width,
                                  max_size=width)):
            shape = draw(st.sampled_from(["drawn", "repeated", "equal", "cycled"]))
            value = draw(CELLS[kind])
            if shape == "repeated":
                column = [value] * n
            elif shape == "equal" and kind == "float" and value == 0:
                column = list(islice(cycle([0.0, -0.0]), n))
            elif shape == "equal":
                column = [EQUAL_COPY.get(kind, lambda v: v)(value) for _ in range(n)]
            elif shape == "cycled":
                distinct = draw(st.lists(CELLS[kind], min_size=1, max_size=3))
                column = list(islice(cycle(distinct), n))
            else:
                column = draw(st.lists(CELLS[kind], min_size=n, max_size=n))
            block.append(column)
        blocks.append(block)
        total += n
    for _ in range(draw(st.integers(0, 2)) if blocks else 0):
        block = draw(st.sampled_from(blocks))
        j, bad = draw(st.integers(0, width - 1)), draw(st.sampled_from(
            [math.inf, -math.inf, math.nan]))
        if draw(st.booleans()) or not isinstance(block[j][0], float):
            block[j] = [bad] * len(block[j])    # a column keeps one cell type
        else:
            block[j] = block[j][:]
            block[j][draw(st.integers(0, len(block[j]) - 1))] = bad
    return tuple(f"c{j}" for j in range(width)), blocks


def blocks_of(rows):
    """Rows in render blocks: each run of rows with the same cell types, as columns."""
    return [columns_of(run) for _, run in groupby(rows, key=lambda row: tuple(map(type, row)))]


class TestRender:
    COLUMNS = ("name", "x")
    BLOCKS = [[["a"], [0.5]], [["b"], [None]]]

    def test_csv_table(self):
        assert render(None, self.COLUMNS, self.BLOCKS, "csv", 6) == "name,x\na,0.5\nb,\n"
        assert render({"k": "v"}, self.COLUMNS, self.BLOCKS, "csv", 6) == (
            "# k=v\nname,x\na,0.5\nb,\n")

    def test_json_table(self):
        rows = [{"name": "a", "x": 0.5}, {"name": "b", "x": None}]
        assert json.loads(render(None, self.COLUMNS, self.BLOCKS, "json", 6)) == rows
        assert json.loads(render({"k": "v"}, self.COLUMNS, self.BLOCKS, "json", 6)) == {
            "meta": {"k": "v"}, "rows": rows}

    @pytest.mark.parametrize("fmt, precision", BAD_FORMATS)
    @pytest.mark.parametrize("blocks", [BLOCKS, None])
    def test_bad_format_or_precision_rejected(self, fmt, precision, blocks):
        with pytest.raises(ValueError, match=f"^{bad_format(fmt, precision)}$"):
            render({"k": "v"}, self.COLUMNS, blocks, fmt, precision)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
    def test_non_finite_cell_names_its_column(self, fmt, bad):
        with pytest.raises(ValueError, match="^x is .*finite"):
            render(None, self.COLUMNS, [[["a", "b"], [0.5, bad]]], fmt, 6)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_cell_in_last_lazy_row_is_refused(self, fmt, bad):
        # the blocks are consumed once, so the check cannot go back to them
        blocks = iter([columns_of([("a", 0.5)] * 1000),
                       columns_of([("a", 0.5)] * 40 + [("b", bad)])])
        with pytest.raises(ValueError, match="^x is .*finite"):
            render(None, self.COLUMNS, blocks, fmt, 6)
        assert next(blocks, None) is None

    @pytest.mark.parametrize("n_good", [0, 1, tables._CHUNK - 2, tables._CHUNK, 600])
    def test_bad_row_before_a_failing_pull_wins(self, n_good):
        # as when rows were taken one at a time: the bad row's error, not the pull's
        def blocks():
            yield columns_of([("a", 0.5)] * n_good + [("b", float("inf"))])
            raise RuntimeError("pulled past the bad row")
        with pytest.raises(ValueError, match="^x is inf, not a finite number$"):
            render(None, self.COLUMNS, blocks(), "csv", 6)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n_good", [0, 1, tables._CHUNK, 600])
    def test_failing_pull_after_good_rows_surfaces_unchanged(self, fmt, n_good):
        error = RuntimeError("row source failed")

        def blocks():
            yield columns_of([("a", 0.5)] * n_good)
            raise error
        with pytest.raises(RuntimeError) as info:
            render(None, self.COLUMNS, blocks(), fmt, 6)
        assert info.value is error

    # without the explain phase, which reruns hundreds-of-row examples for minutes
    @settings(max_examples=150, deadline=None, phases=set(Phase) - {Phase.explain})
    @given(column_blocks(), st.integers(1, 17), st.booleans())
    # a block one row short of a chunk, then a block of one row
    @example((("c0", "c1"), blocks_of([("a", 0.5)] * (tables._CHUNK - 1) + [(1, None)])), 6,
             True)
    # a block of exactly one chunk, then one of one row
    @example((("c0", "c1"), blocks_of([("a", 0.5)] * tables._CHUNK + [(1, None)])), 6, False)
    # a block with a partial last chunk, then a shorter block
    @example((("c0", "c1"), blocks_of([("a", 0.5)] * (tables._CHUNK + 5) + [(True, "é")] * 10)),
             17, True)
    # the first bad cell across blocks of one row each, read across rows and columns
    @example((("c0", "c1"), blocks_of([("a", 0.5), (1, None), ("b", math.inf),
                                       (math.nan, "n")])), 3, True)
    # equal cells that are two objects, and one object holding "%"
    @example((("c0", "c1"), [[[0.0, -0.0, 0.0], ["%%d"] * 3]]), 6, False)
    # the first bad cell in row order, in a column of one non-finite object
    @example((("c0", "c1"), [[[1.0, math.nan], [math.inf] * 2]]), 6, True)
    def test_chunked_csv_equals_per_row(self, case, precision, lazy):
        columns, blocks = case
        rows = [row for block in blocks for row in zip(*block)]
        spec = f"%.{precision}g"
        cell = lambda v: "" if v is None else spec % v if isinstance(v, float) else str(v)
        bad = next(((c, v) for row in rows for c, v in zip(columns, row)
                    if isinstance(v, float) and not math.isfinite(v)), None)
        blocks = iter(blocks) if lazy else blocks
        if bad is None:
            expected = "".join(f"{line}\n" for line in [
                ",".join(columns), *(",".join(map(cell, row)) for row in rows)]).split("\n")
            lines = render(None, columns, blocks, "csv", precision).split("\n")
            # only the differing lines, so that a failure shrinks and prints quickly
            assert [pair for pair in zip_longest(lines, expected) if pair[0] != pair[1]] == []
        else:
            with pytest.raises(ValueError) as info:
                render(None, columns, blocks, "csv", precision)
            assert str(info.value) == f"{bad[0]} is {bad[1]!r}, not a finite number"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_words_in_text_cells_are_not_errors(self, fmt):
        rows = [(word, 1.0) for word in ("nano", "inf", "Infinity", "NaN")]
        text = render({"atom": "nan"}, self.COLUMNS, [columns_of(rows)], fmt, 6)
        assert "Infinity" in text and "nano" in text


class TestWidthFit:
    # frozen from the 50-digit evaluation over F = 0.04 .. 0.11 step 0.01
    def test_clementi_fit(self, he_clementi):
        rows = run_sweep(he_clementi, [0.04 + 0.01 * k for k in range(8)])
        fit = fit_width_relation(rows)
        assert fit.n_points == 8
        assert rel_err(fit.slope_as_per_au, 3.418092513) < 1e-8
        assert rel_err(fit.intercept_as, 9.929726642) < 1e-8
        assert rel_err(fit.r_squared, 0.9994491687) < 1e-8

    def test_needs_two_points(self, he_clementi):
        rows = run_sweep(he_clementi, [0.06])
        with pytest.raises(ValueError):
            fit_width_relation(rows[:1])

    def test_perfect_line_on_two_points(self, he_clementi):
        rows = run_sweep(he_clementi, [0.05, 0.09])
        fit = fit_width_relation(rows)
        assert rel_err(fit.r_squared, 1.0) < 1e-12
