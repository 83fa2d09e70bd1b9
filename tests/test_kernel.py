"""The kernel over whole grids against the scalar reference, bit for bit.

Grids straddle every place where a branch of the closed forms changes: the
critical-field band around F_a, the fields where z_eff / F overflows or leaves
the normal range (x_peak's fallback), where 4 z_eff F or twice it overflows,
where 4 z_eff F or the gap 4 z_eff F / (ip + delta_z) leaves the normal range
(the refusals), and the largest double. Their lengths straddle multiples of the
CSV chunk and of the kernel's chunk, so a branch change can fall on any side of
a chunk edge.
"""

import math
import operator
import sys
import warnings
from itertools import chain, repeat

from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_kernel
from attoclock import tables
from attoclock.atom import AtomModel, catalog_lookup
from attoclock.barrier import GEOMETRY_FIELDS, RegimeError, atomic_field_strength, solve_geometry
from attoclock.clocks import ESTIMATORS, Point, compute_clocks, evaluate
from attoclock.harness import KERNEL_CHUNK, MeasurementRecord, compare, iter_segments, run_sweep
from attoclock.units import CONSTANTS
from helpers import table

MAX, MIN = sys.float_info.max, sys.float_info.min
SIZES = (0, 1, 31, 32, 33, KERNEL_CHUNK - 1, KERNEL_CHUNK, KERNEL_CHUNK + 1,
         2 * KERNEL_CHUNK + 1, 1023, 1024, 1025)


@st.composite
def atoms(draw):
    """A catalog atom, or one with ip and F_a log-uniform over most of the range."""
    if draw(st.booleans()):
        return catalog_lookup(draw(st.sampled_from(("He:clementi", "He:kullie"))))
    ip = 10.0 ** draw(st.floats(-150.0, 150.0))
    f_a = 10.0 ** draw(st.floats(-300.0, 300.0))
    try:
        return AtomModel("X", ip, ip * ip / (4.0 * f_a))
    except ValueError:
        return catalog_lookup("He:clementi")


def edges(atom):
    """The fields, in au, where some branch of the kernel changes."""
    ip, z_eff = atom.ip, atom.z_eff
    f_a = ip * ip / (4.0 * z_eff)
    return (f_a * (1.0 - 1e-12), f_a, f_a * (1.0 + 1e-12),   # the critical band
            z_eff / MAX, z_eff / 2.25e-308,      # x_peak = sqrt(z_eff / F) out of range
            MAX / (4.0 * z_eff), MAX / (8.0 * z_eff),        # 4 z_eff F, 8 z_eff F overflow
            MIN / (4.0 * z_eff), ip * MIN / (2.0 * z_eff),   # 4 z_eff F, the gap subnormal
            MAX)


@st.composite
def grids(draw):
    """An atom and a strictly ascending grid: fields a few ulp around some of
    its edges, and a log-spaced fill between two of them."""
    atom = draw(atoms())
    near = draw(st.lists(st.sampled_from(edges(atom)), min_size=1, max_size=3, unique=True))
    anchors = [f * (1.0 + k * 2.0 ** -52) for f in near
               for k in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))]
    f_a = edges(atom)[1]
    anchors += [f_a, f_a * draw(st.floats(0.3, 1.5))]
    anchors = [f for f in anchors if 0.0 < f < math.inf]
    lo, hi = sorted(draw(st.sampled_from(anchors)) for _ in range(2))
    n = draw(st.sampled_from(SIZES))
    step = (math.log(hi) - math.log(lo)) / max(n - 1, 1)
    fill = [math.exp(min(math.log(lo) + k * step, math.log(hi))) for k in range(n)]
    grid = sorted({f for f in anchors + fill if 0.0 < f < math.inf})
    return atom, grid


def reference_sweep(atom, grid):
    """Each point's fields by the scalar kernel, or the refusal of the lowest
    field it refuses."""
    points = [scalar_kernel.evaluate(atom, f) for f in grid]
    return next((p for p in points if isinstance(p, str)), points)


def bits(points):
    """Each field's repr: equal reprs are equal bits (signed zeros and None too)."""
    return points if isinstance(points, str) else [list(map(repr, p)) for p in points]


class TestSweepAgainstScalarKernel:
    @settings(max_examples=80, deadline=None)
    @given(grids())
    def test_every_field_bit_identical(self, case):
        atom, grid = case
        try:
            points = run_sweep(atom, grid)
        except ValueError as exc:
            points = str(exc)
        assert bits(points) == bits(reference_sweep(atom, grid))


class TestBranchFlags:
    def test_x_peak_fallback_at_both_ends_of_a_chunk(self):
        # F_a is about 4.456e307: z_eff / F overflows at the first field, and its root
        # is below 1.5e-154 at the last, both below F_a. One flag for either fallback
        # would be True at both ends of the chunk, so it would cover the middle too.
        atom = AtomModel("X", 1.335e154, 1.0)
        fields = [5e-309, 1.0, 4.45e307]
        segments = solve_geometry(atom, fields)
        assert [(s["n"], s["regime"][0], s["xfall"]) for s in segments] == [
            (1, "sub_atomic", True), (1, "sub_atomic", False), (1, "sub_atomic", True)]
        got = [[repr(s[name][0]) for name in GEOMETRY_FIELDS] for s in segments]
        assert got == [list(map(repr, scalar_kernel.solve_geometry(atom, f))) for f in fields]


class TestProjection:
    """Columns computed for a subset of Point fields, or for a subset of the printed
    columns, carry the bits the scalar kernel gives each point."""

    @settings(max_examples=60, deadline=None)
    @given(grids(), st.lists(st.sampled_from(Point._fields), max_size=6), st.data())
    def test_wanted_fields(self, case, wanted, data):
        atom, grid = case
        expected = reference_sweep(atom, grid)
        read = data.draw(st.lists(st.sampled_from(Point._fields), min_size=1, max_size=6,
                                  unique=True))
        try:
            columns = {name: [] for name in read}
            for segment in iter_segments(atom, grid, wanted):
                for name in read:
                    columns[name] += segment[name]
        except ValueError as exc:
            assert str(exc) == expected
            return
        assert not isinstance(expected, str)
        for name in read:
            assert list(map(repr, columns[name])) == [repr(getattr(p, name)) for p in expected]

    @settings(max_examples=60, deadline=None)
    @given(grids(), st.lists(st.sampled_from(tables.DUMP_COLUMNS + tables.TIMES_COLUMNS
                                             + ("d_b_au", "omega_au")), min_size=1, max_size=8),
           st.one_of(st.none(), st.floats(1e-3, 1.0)))
    def test_printed_columns(self, case, columns, omega):
        atom, grid = case
        expected = reference_sweep(atom, grid)
        try:
            cells = list(chain.from_iterable(zip(*block) for block in tables.rows(
                columns, atom, iter_segments(atom, grid, tables.reads(columns)), omega)))
        except ValueError as exc:
            assert str(exc) == expected
            return
        points = [Point._make(p) for p in expected]
        assert [list(map(repr, row)) for row in cells] == [
            list(map(repr, row)) for row in table(columns, atom, points, omega)]

    @settings(max_examples=60, deadline=None)
    @given(grids())
    def test_tau_sym_alone_builds_no_gap(self, case):
        # the refusal reads the gap of the chunk's first field alone, as a scalar
        atom, grid = case
        chunk = grid[:KERNEL_CHUNK]
        try:
            segments = compute_clocks(atom, solve_geometry(atom, chunk, ("tau_sym",)),
                                      ("tau_sym",))
        except ValueError as exc:
            assert str(exc) == reference_sweep(atom, chunk)
            return
        assert not isinstance(reference_sweep(atom, chunk), str)
        for segment in segments:
            assert "gap" not in segment and "ip_plus" not in segment, sorted(segment)


class TestBlocks:
    """tables.render formats each column of a segment's block by the type of its
    first cell, so every column of a segment must hold one cell type."""

    @settings(max_examples=60, deadline=None)
    @given(grids(), st.one_of(st.none(), st.floats(1e-3, 1.0)))
    def test_one_cell_type_per_column_of_each_segment(self, case, omega):
        atom, grid = case
        columns = tuple(tables.COLUMNS)
        try:
            blocks = list(tables.rows(columns, atom, iter_segments(atom, grid), omega))
        except ValueError as exc:
            assert str(exc) == reference_sweep(atom, grid)
            return
        assert sum(len(block[0]) for block in blocks) == len(grid)
        for block in blocks:
            assert list(map(len, block)) == [len(block[0])] * len(columns)
            for name, cells in zip(columns, block):
                assert len(set(map(type, cells))) == 1, (name, set(map(type, cells)))

    def test_dump_columns_of_one_object(self):
        # render formats such a column once per block: 5 of 21 below F_a, 11 above
        atom, one = catalog_lookup("He:clementi"), operator.is_
        grid = [atomic_field_strength(atom) * (0.3 + k / 100) for k in range(200)]
        constant = {}
        for segment in iter_segments(atom, grid):
            (block,) = tables.rows(tables.DUMP_COLUMNS, atom, [segment], 0.057)
            assert all(map(len, block))
            constant.setdefault(segment["regime"][0], set()).add(tuple(
                name for name, cells in zip(tables.DUMP_COLUMNS, block)
                if all(map(one, cells, repeat(cells[0]))) and len(cells) > 1))
        assert constant == {"sub_atomic": {(
            "regime", "delta_z_imag_au", "tau_a_as", "tau_d_re_au", "tau_d_im_au")},
            "atomic": {()}, "super_atomic": {(
                "regime", "delta_z_au", "x_entrance_au", "x_exit_au", "barrier_width_au",
                "tau_i_as", "tau_d_as", "tau_unsy_as", "tau_t_as", "tau_a_as", "light_as")}}


class TestEvaluate:
    @settings(max_examples=60, deadline=None)
    @given(grids(), st.data())
    def test_one_point_bit_identical(self, case, data):
        # each field alone: a refusal above the grid's lowest field shows here too
        atom, grid = case
        for f in data.draw(st.lists(st.sampled_from(grid), min_size=1, max_size=5)):
            try:
                got = bits([evaluate(atom, f)])
            except ValueError as exc:
                got = str(exc)
            expected = scalar_kernel.evaluate(atom, f)
            assert got == (expected if isinstance(expected, str) else bits([expected]))


def reference_compare(atom, estimator, fields):
    """compare's model column over records at ``fields``, from the scalar kernel:
    (field, model_as) per used record, or the error compare raises."""
    points = reference_sweep(atom, fields)
    if isinstance(points, str):
        return points
    used = []
    for f, point in zip(fields, points):
        value = getattr(point, estimator)
        if value is None:
            continue
        model = value * CONSTANTS.au_time_in_attoseconds
        if not math.isfinite(model):
            return f"record at F={f!r}: {estimator} is {model!r} as, not a finite number"
        used.append((f, repr(model)))
    return used or RegimeError


def reference_compare_records(atom, estimator, records):
    """compare over ``records`` one record at a time, in record order, from the scalar
    kernel: each residual row's cells as reprs, or the error compare raises, and the
    texts of the skip warnings given before it. The kernel refuses the lowest field
    it refuses, before any record is read."""
    grid = sorted({record.f for record in records})
    points = reference_sweep(atom, grid)
    if isinstance(points, str):
        return points, []
    point, rows, skipped = dict(zip(grid, points)), [], []
    for f, t, err_lo, err_hi, _ in records:
        value = getattr(point[f], estimator)
        if value is None:
            skipped.append(f"record at F={f} is above barrier suppression; "
                           f"{estimator} has no real value there; point skipped")
            continue
        model = value * CONSTANTS.au_time_in_attoseconds
        if not math.isfinite(model):
            return f"record at F={f!r}: {estimator} is {model!r} as, not a finite number", skipped
        residual = model - t
        within = 1 if abs(residual) <= max(err_lo, err_hi) else 0
        rows.append(tuple(map(repr, (f, model, t, residual, within))))
    return rows or RegimeError, skipped


def compare_outcome(atom, estimator, records):
    """compare's residual rows as reprs, or its error; and its warnings' texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            report = compare(atom, estimator, records)
            got = [tuple(map(repr, row)) for row in zip(*report.residuals)]
        except RegimeError:
            got = RegimeError
        except ValueError as exc:
            got = str(exc)
    return got, [str(w.message) for w in caught]


class TestCompareAgainstScalarKernel:
    @settings(max_examples=40, deadline=None)
    @given(grids(), st.data())
    def test_shuffled_records_in_record_order(self, case, data):
        # Library records in any order, with ties: the rows, the skip warnings and
        # the first fault follow the records as given, whatever order the kernel ran in.
        atom, grid = case
        picks = data.draw(st.lists(st.integers(0, len(grid) - 1), min_size=1, max_size=80))
        fields = data.draw(st.permutations([grid[i] for i in picks]))
        cells = st.tuples(st.sampled_from((0.0, -3.5, 45.0, 1e300)),
                          st.sampled_from(((0.0, 0.0), (1.0, 50.0), (50.0, 1.0), (1e308, 0.0))))
        records = [MeasurementRecord(f, t, *bars)
                   for f, (t, bars) in zip(fields, data.draw(st.lists(
                       cells, min_size=len(fields), max_size=len(fields))))]
        for estimator in ESTIMATORS:
            assert (compare_outcome(atom, estimator, records)
                    == reference_compare_records(atom, estimator, records)), estimator

    def test_first_fault_in_record_order_after_its_skips(self):
        # 1.2e-308 comes first among the records whose tau_d overflows as, though
        # 1e-308 is the lowest field; only the skip before it is warned of.
        atom = catalog_lookup("He:clementi")
        records = [MeasurementRecord(f, 1.0, 1.0, 1.0) for f in (0.15, 1.2e-308, 0.2, 1e-308)]
        got = compare_outcome(atom, "tau_d", records)
        assert got == reference_compare_records(atom, "tau_d", records)
        assert got == ("record at F=1.2e-308: tau_d is inf as, not a finite number",
                       ["record at F=0.15 is above barrier suppression; tau_d has no real "
                        "value there; point skipped"])

    @settings(max_examples=40, deadline=None)
    @given(grids(), st.data())
    def test_tied_fields_bit_identical(self, case, data):
        atom, grid = case
        picks = data.draw(st.lists(st.integers(0, len(grid) - 1), min_size=1, max_size=80))
        fields = [grid[i] for i in sorted(picks)]          # non-decreasing, with ties
        records = [MeasurementRecord(f, 0.0, 0.0, 0.0) for f in fields]
        for estimator in ESTIMATORS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    report = compare(atom, estimator, records)
                    got = [(row[0], repr(row[1])) for row in zip(*report.residuals)]
                except RegimeError:
                    got = RegimeError
                except ValueError as exc:
                    got = str(exc)
            assert got == reference_compare(atom, estimator, fields), estimator
