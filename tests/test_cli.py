"""End-to-end CLI behavior: values, formats, exit codes."""

import json
import subprocess
import sys

import pytest

from attoclock.cli import MAX_GRID_POINTS, main
from attoclock.barrier import atomic_field_strength
from attoclock.atom import catalog_lookup


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_record(out):
    header, row = out.strip().splitlines()[:2]
    return dict(zip(header.split(","), row.split(",")))


class TestGeometryCommand:
    def test_exit_point_value(self, capsys):
        code, out, _ = run_cli(capsys, "geometry", "--atom", "He:clementi",
                               "--field", "0.06")
        record = parse_record(out)
        assert code == 0
        assert abs(float(record["x_exit_au"]) - 12.8750) < 5e-4
        assert record["regime"] == "sub_atomic"

    def test_zero_width_at_critical_field(self, capsys):
        fa = atomic_field_strength(catalog_lookup("He:clementi"))
        code, out, _ = run_cli(capsys, "geometry", "--atom", "He:clementi",
                               "--field", repr(fa))
        record = parse_record(out)
        assert code == 0
        assert float(record["barrier_width_au"]) == 0.0
        assert record["regime"] == "atomic"

    def test_negative_field_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "geometry", "--atom", "He:clementi",
                               "--field", "-1")
        assert code == 2
        assert "error" in err

    def test_superatomic_prints_partial_report_and_exits_3(self, capsys):
        code, out, _ = run_cli(capsys, "geometry", "--atom", "He:clementi",
                               "--field", "0.15")
        record = parse_record(out)
        assert code == 3
        assert record["x_exit_au"] == ""
        assert float(record["x_peak_au"]) > 0
        assert float(record["delta_z_imag_au"]) > 0

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "geometry", "--atom", "He:kullie",
                               "--field", "0.06", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["z_eff"] == 1.375
        assert abs(payload["x_classical_au"] - 15.0595) < 1e-3


class TestTimesCommand:
    def test_delay_value(self, capsys):
        code, out, _ = run_cli(capsys, "times", "--atom", "He:clementi",
                               "--field", "0.06")
        record = parse_record(out)
        assert code == 0
        assert abs(float(record["tau_d_as"]) - 46.14) < 5e-3
        assert abs(float(record["tau_sym_as"]) - 53.97) < 5e-3

    def test_field_from_intensity(self, capsys):
        code, out, _ = run_cli(capsys, "times", "--atom", "He:clementi",
                               "--field-from-intensity", "2.0e14")
        record = parse_record(out)
        assert code == 0
        assert abs(float(record["f_au"]) - 0.0754911) < 5e-7

    def test_field_from_f0_and_ellipticity(self, capsys):
        code, out, _ = run_cli(capsys, "times", "--atom", "He:clementi",
                               "--f0", "0.1", "--ellipticity", "0.87")
        record = parse_record(out)
        assert code == 0
        assert abs(float(record["f_au"]) - 0.0754443) < 5e-7

    def test_f0_without_ellipticity_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "times", "--atom", "He:clementi",
                               "--f0", "0.1")
        assert code == 2 and "ellipticity" in err

    def test_gamma_with_wavelength(self, capsys):
        code, out, _ = run_cli(capsys, "times", "--atom", "He:clementi",
                               "--field", "0.06", "--wavelength", "735")
        record = parse_record(out)
        assert code == 0
        assert abs(float(record["gamma_k"]) - 1.3889) < 5e-5

    def test_overflowing_wavelength_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "times", "--atom", "He:clementi",
                                 "--field", "0.06", "--wavelength", "1e-320")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "wavelength 1e-320" in err

    def test_superatomic_prints_complex_parts_and_exits_3(self, capsys):
        code, out, _ = run_cli(capsys, "times", "--atom", "He:clementi",
                               "--field", "0.15")
        record = parse_record(out)
        assert code == 3
        assert record["tau_d_as"] == ""
        assert abs(float(record["tau_d_re_au"]) - 0.446207) < 5e-6
        assert abs(float(record["tau_d_im_au"]) - 0.218661) < 5e-6
        assert float(record["tau_i_im_au"]) == -float(record["tau_d_im_au"])

    def test_exactly_one_field_mode_required(self, capsys):
        code, _, err = run_cli(capsys, "times", "--atom", "He:clementi")
        assert code == 2
        code, _, err = run_cli(capsys, "times", "--atom", "He:clementi",
                               "--field", "0.06", "--field-from-intensity", "1e14")
        assert code == 2

    def test_precision_flag(self, capsys):
        _, out, _ = run_cli(capsys, "times", "--atom", "He:clementi",
                            "--field", "0.06", "--precision", "12")
        record = parse_record(out)
        assert record["tau_sym_au"] == "2.23103703704"


class TestAtomSelection:
    def test_inline_ip_and_z(self, capsys):
        code, out, _ = run_cli(capsys, "geometry", "--ip", "0.5", "--z-eff", "1.0",
                               "--field", "0.01")
        record = parse_record(out)
        assert code == 0
        assert float(record["f_a_au"]) == 0.0625

    def test_bare_ambiguous_name(self, capsys):
        code, _, err = run_cli(capsys, "geometry", "--atom", "He", "--field", "0.06")
        assert code == 2 and "ambiguous" in err

    def test_atom_and_inline_conflict(self, capsys):
        code, _, _ = run_cli(capsys, "geometry", "--atom", "He:kullie",
                             "--ip", "0.5", "--field", "0.06")
        assert code == 2

    def test_missing_atom(self, capsys):
        code, _, _ = run_cli(capsys, "geometry", "--field", "0.06")
        assert code == 2


class TestSweepCommand:
    def test_fig3_nine_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--atom", "He:clementi",
                               "--grid", "0.03:0.11:0.01", "--figure", "fig3")
        lines = out.strip().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert code == 0
        assert body[0] == "f_au,tau_d_as,tau_sym_as"
        assert len(body) == 10

    def test_reruns_byte_identical(self, capsys):
        args = ("sweep", "--atom", "He:clementi", "--grid", "0.03:0.11:0.01",
                "--figure", "fig3")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first.encode() == second.encode()

    def test_fig4_without_real_barrier_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--atom", "He:clementi",
                               "--grid", "0.15", "--figure", "fig4")
        assert code == 3 and "barrier" in err

    def test_full_dump(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--atom", "He:clementi",
                               "--grid", "0.05,0.06")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0].startswith("f_au,regime,")
        assert len(lines) == 3

    def test_full_dump_json(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--atom", "He:clementi",
                               "--grid", "0.06", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and len(payload) == 1
        assert abs(payload[0]["tau_d_as"] - 46.138125474491374) < 1e-9

    def test_figure_json(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--atom", "He:clementi",
                               "--grid", "0.06", "--figure", "fig4",
                               "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["meta"]["constants"] == "codata2018"
        assert abs(payload["rows"][0]["d_b_au"] - 10.690581848056729) < 1e-9

    @pytest.mark.parametrize("grid", ["0.11:0.03:0.01", "0.03:0.11:-0.01",
                                      "0,0.06", "abc", "0.03:0.11", "",
                                      "nan:0.1:0.01", "0.01:1e308:1e-300"])
    def test_bad_grids_exit_2(self, capsys, grid):
        code, _, _ = run_cli(capsys, "sweep", "--atom", "He:clementi",
                             "--grid", grid)
        assert code == 2

    def test_grid_point_cap_checked_before_allocation(self, capsys):
        over = f"1:{MAX_GRID_POINTS + 1}:1"          # one point over the cap
        code, out, err = run_cli(capsys, "sweep", "--atom", "He:clementi",
                                 "--grid", over)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and str(MAX_GRID_POINTS) in err


class TestCompareCommand:
    @pytest.fixture
    def model_csv(self, capsys, tmp_path):
        def build(offset=0.0, err=2.0):
            code, out, _ = run_cli(capsys, "sweep", "--atom", "He:clementi",
                                   "--grid", "0.03:0.11:0.01", "--figure", "fig3",
                                   "--precision", "17")
            assert code == 0
            rows = [l.split(",") for l in out.strip().splitlines()
                    if not l.startswith("#")][1:]
            path = tmp_path / f"data_{offset}.csv"
            lines = ["field_au,time_as,err_as"]
            lines += [f"{f},{float(t) + offset!r},{err!r}" for f, t, _ in rows]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            return str(path)
        return build

    def test_self_comparison(self, capsys, model_csv):
        path = model_csv(offset=0.0)
        code, out, _ = run_cli(capsys, "compare", "--atom", "He:clementi",
                               "--estimator", "tau_d", path)
        record = parse_record(out)
        assert code == 0
        assert float(record["rms_as"]) == 0.0
        assert float(record["fraction_within_bars"]) == 1.0

    def test_offset_comparison(self, capsys, model_csv):
        path = model_csv(offset=1.0)
        code, out, _ = run_cli(capsys, "compare", "--atom", "He:clementi",
                               "--estimator", "tau_d", path)
        record = parse_record(out)
        assert code == 0
        assert abs(float(record["rms_as"]) - 1.0) < 1e-6
        assert float(record["fraction_within_bars"]) == 1.0

    def test_residual_table(self, capsys, model_csv):
        path = model_csv(offset=1.0)
        code, out, _ = run_cli(capsys, "compare", "--atom", "He:clementi",
                               "--estimator", "tau_d", "--residuals", path)
        assert code == 0
        assert "f_au,model_as,measured_as,residual_as,within_bars" in out

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "compare", "--atom", "He:clementi",
                               "--estimator", "tau_d", str(tmp_path / "nope.csv"))
        assert code == 2

    def test_all_superatomic_exits_3(self, capsys, tmp_path):
        path = tmp_path / "sup.csv"
        path.write_text("field_au,time_as,err_as\n0.15,10.0,1.0\n", encoding="utf-8")
        with pytest.warns(UserWarning):
            code, _, err = run_cli(capsys, "compare", "--atom", "He:clementi",
                                   "--estimator", "tau_d", str(path))
        assert code == 3


class TestCatalogCommand:
    def test_lists_both_models(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        assert "Kullie" in out and "Clementi" in out
        assert "1.375" in out and "1.6875" in out


class TestArgparseBehavior:
    def test_unknown_flag_exits_2(self, capsys):
        assert main(["times", "--atom", "He:clementi", "--bogus"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        for sub in ("geometry", "times", "sweep", "compare", "catalog"):
            assert main([sub, "--help"]) == 0

    @pytest.mark.parametrize("precision,code", [("0", 2), ("-1", 2), ("18", 2),
                                                ("1", 0), ("17", 0)])
    def test_precision_range(self, capsys, precision, code):
        assert main(["catalog", "--precision", precision]) == code

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_out_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code = main(["sweep", "--atom", "He:clementi", "--grid", "0.06",
                     "--figure", "fig3", "--out", str(out_path)])
        assert code == 0
        assert out_path.read_text().startswith("# atom=He")


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "attoclock", "catalog"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Clementi" in proc.stdout
