"""Sweeps, CSV ingestion, comparison statistics and figure emission."""

import pytest

from attoclock.barrier import Regime, RegimeError, atomic_field_strength
from attoclock.harness import (DUMP_COLUMNS, MeasurementFormatError,
                               MeasurementRecord, compare, dump_table,
                               emit_figure_data, figure_table,
                               fit_width_relation, load_measurements, run_sweep)
from attoclock.units import au_time_to_attoseconds, wavelength_to_angular_frequency
from helpers import rel_err

GRID_9 = [0.03 + 0.01 * k for k in range(9)]   # 0.03 .. 0.11


def tau_d_as(row):
    return au_time_to_attoseconds(row.clocks.tau_d)


def light_as(row):
    _, _, ((_, _, light),) = figure_table([row], "fig4")
    return light


@pytest.fixture
def rows9(he_clementi):
    return run_sweep(he_clementi, GRID_9)


def write_measurement_csv(path, rows, header="field_au,time_as,err_lo_as,err_hi_as"):
    lines = [header] + [",".join(repr(float(c)) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestRunSweep:
    def test_nine_rows_sorted_subatomic(self, rows9):
        assert len(rows9) == 9
        assert all(a.f < b.f for a, b in zip(rows9, rows9[1:]))
        assert all(r.geometry.regime is Regime.SUB_ATOMIC for r in rows9)

    def test_delay_endpoints(self, rows9):
        assert rel_err(tau_d_as(rows9[0]), 100.76369931555205) < 1e-12
        assert rel_err(tau_d_as(rows9[-1]), 19.147249772337054) < 1e-12

    def test_light_baseline_below_delay_everywhere(self, rows9):
        for row in rows9:
            assert light_as(row) < tau_d_as(row)

    def test_single_critical_field_row(self, he_clementi):
        fa = atomic_field_strength(he_clementi)
        (row,) = run_sweep(he_clementi, [fa])
        assert row.geometry.regime is Regime.ATOMIC
        assert row.geometry.barrier_width == 0.0
        assert rel_err(row.clocks.tau_sym, 1 / he_clementi.ip) < 1e-13
        (dump,) = dump_table([row])
        assert dump[DUMP_COLUMNS.index("light_as")] is None

    def test_superatomic_row_carries_complex_parts(self, he_clementi):
        (row,) = run_sweep(he_clementi, [0.15])
        assert row.geometry.regime is Regime.SUPER_ATOMIC
        assert row.clocks.complex_parts is not None
        assert row.clocks.tau_d is None
        assert row.geometry.x_exit is None

    def test_gamma_column(self, he_clementi):
        omega = wavelength_to_angular_frequency(735.0)
        (row,) = run_sweep(he_clementi, [0.06], omega=omega)
        assert rel_err(row.gamma, 1.3889064083278631) < 1e-12

    @pytest.mark.parametrize("bad_grid", [[], [0.06, 0.05], [0.05, 0.05],
                                          [-0.01], [0.0], [float("nan")]])
    def test_invalid_grids_rejected(self, he_clementi, bad_grid):
        with pytest.raises(ValueError):
            run_sweep(he_clementi, bad_grid)


class TestLightTraversal:
    def test_f006_barrier(self, rows9):
        _, _, values = figure_table(rows9, "fig4")
        light = values[3][2]                        # F = 0.06
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

    def test_missing_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(MeasurementFormatError, match="header"):
            load_measurements(str(path))

    def test_bad_header_names_expected_columns(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("field,time\n0.06,45\n", encoding="utf-8")
        with pytest.raises(MeasurementFormatError, match="err_lo_as"):
            load_measurements(str(path))

    def test_malformed_row_carries_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("field_au,time_as,err_as\n0.06,45.0,8.0\n0.07,oops,8.0\n",
                        encoding="utf-8")
        with pytest.raises(MeasurementFormatError, match="line 3"):
            load_measurements(str(path))

    def test_wrong_column_count_carries_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("field_au,time_as,err_as\n0.06,45.0\n", encoding="utf-8")
        with pytest.raises(MeasurementFormatError, match="line 2"):
            load_measurements(str(path))

    def test_negative_error_bar_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("field_au,time_as,err_as\n0.06,45.0,-1.0\n", encoding="utf-8")
        with pytest.raises(MeasurementFormatError, match="line 2"):
            load_measurements(str(path))

    def test_infinite_error_bar_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("field_au,time_as,err_lo_as,err_hi_as\n0.06,45.0,1.0,inf\n",
                        encoding="utf-8")
        with pytest.raises(MeasurementFormatError, match="line 2"):
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


class TestCompare:
    def test_self_comparison_is_exact(self, he_clementi, rows9, tmp_path):
        data = [(r.f, tau_d_as(r), 0.0, 0.0) for r in rows9]
        path = write_measurement_csv(tmp_path / "self.csv", data)
        report = compare(he_clementi, "tau_d", load_measurements(path))
        assert report.rms == 0.0
        assert report.max_abs == 0.0
        assert report.fraction_within_bars == 1.0
        assert report.n_skipped == 0

    def test_unit_offset_gives_unit_rms(self, he_clementi, rows9, tmp_path):
        data = [(r.f, tau_d_as(r) + 1.0, 2.0, 2.0) for r in rows9]
        path = write_measurement_csv(tmp_path / "off.csv", data)
        report = compare(he_clementi, "tau_d", load_measurements(path))
        assert abs(report.rms - 1.0) < 1e-9
        assert report.fraction_within_bars == 1.0
        # residual is model - measurement, so the offset shows up negative
        assert all(abs(p.residual_as + 1.0) < 1e-9 for p in report.points)

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
        assert len(report.points) == 1

    def test_symmetric_estimator_covers_superatomic_records(self, he_clementi, tmp_path):
        geom_f = 0.15
        data = [(geom_f, 20.0, 2.0, 2.0)]
        path = write_measurement_csv(tmp_path / "sym.csv", data)
        report = compare(he_clementi, "tau_sym", load_measurements(path))
        assert report.n_skipped == 0 and len(report.points) == 1

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

    def test_model_id_labels_atom_and_estimator(self, he_clementi, tmp_path):
        path = write_measurement_csv(tmp_path / "m.csv", [(0.06, 45.0, 1.0, 1.0)])
        report = compare(he_clementi, "tau_d", load_measurements(path))
        assert report.model_id == "He:Clementi/tau_d"


class TestEmitFigureData:
    def test_fig3_columns_and_rows(self, rows9):
        text = emit_figure_data(rows9, "fig3")
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

    def test_fig4_row_at_f006(self, rows9):
        text = emit_figure_data(rows9, "fig4", precision=6)
        row = text.splitlines()[7 + 3]          # 6 meta lines + header, F=0.06 is 4th
        d_b, tau_d, light = (float(c) for c in row.split(","))
        assert abs(d_b - 10.6906) < 5e-4
        assert abs(tau_d - 46.1381) < 5e-4
        assert abs(light - 1.88704) < 5e-5

    def test_fig3_critical_field_row(self, he_clementi):
        fa = atomic_field_strength(he_clementi)
        rows = run_sweep(he_clementi, [fa])
        text = emit_figure_data(rows, "fig3", precision=6)
        row = text.splitlines()[-1].split(",")
        assert abs(float(row[1]) - 13.3852) < 5e-4
        assert abs(float(row[2]) - 26.7703) < 5e-4

    def test_fig2_and_fig3_share_symmetric_column(self, rows9):
        fig2 = [l.split(",") for l in emit_figure_data(rows9, "fig2").splitlines()
                if not l.startswith("#")][1:]
        fig3 = [l.split(",") for l in emit_figure_data(rows9, "fig3").splitlines()
                if not l.startswith("#")][1:]
        assert [r[0] for r in fig2] == [r[0] for r in fig3]
        assert [r[2] for r in fig2] == [r[2] for r in fig3]

    def test_emission_is_deterministic(self, he_clementi):
        first = emit_figure_data(run_sweep(he_clementi, GRID_9), "fig4")
        second = emit_figure_data(run_sweep(he_clementi, GRID_9), "fig4")
        assert first.encode() == second.encode()

    def test_fig4_excludes_non_subatomic_rows(self, he_clementi):
        fa = atomic_field_strength(he_clementi)
        rows = run_sweep(he_clementi, [0.06, fa])
        _, _, values = figure_table(rows, "fig4")
        assert len(values) == 1

    def test_fig4_with_no_real_barrier_is_regime_error(self, he_clementi):
        rows = run_sweep(he_clementi, [0.15])
        with pytest.raises(RegimeError):
            emit_figure_data(rows, "fig4")

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            emit_figure_data([], "fig2")

    def test_unknown_figure_rejected(self, rows9):
        with pytest.raises(ValueError, match="fig1"):
            emit_figure_data(rows9, "fig1")


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
