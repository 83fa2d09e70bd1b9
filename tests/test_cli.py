"""End-to-end CLI behavior: values, formats, exit codes."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import attoclock
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

    def test_wavelength_is_not_an_option(self, capsys):
        code, out, err = run_cli(capsys, "geometry", "--atom", "He:clementi",
                                 "--field", "0.06", "--wavelength", "735")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --wavelength 735" in err


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

    def test_ellipticity_without_f0_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "times", "--atom", "He:clementi",
                                 "--field", "0.06", "--ellipticity", "0.5")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "--f0" in err

    def test_negative_f0_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "times", "--atom", "He:clementi",
                                 "--f0", "-1", "--ellipticity", "0.5")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "f0" in err

    def test_gamma_with_wavelength(self, capsys):
        code, out, _ = run_cli(capsys, "times", "--atom", "He:clementi",
                               "--field", "0.06", "--wavelength", "735")
        record = parse_record(out)
        assert code == 0
        assert abs(float(record["gamma_k"]) - 1.3889) < 5e-5

    def test_wavelength_must_be_positive(self, capsys):
        code, out, err = run_cli(capsys, "times", "--atom", "He:clementi",
                                 "--field", "0.06", "--wavelength", "-735")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "wavelength" in err

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
        assert record["atom"] == "custom"            # the label without --name

    def test_empty_name_keeps_its_empty_label(self, capsys):
        code, out, _ = run_cli(capsys, "times", "--ip", "0.5", "--z-eff", "1", "--name", "",
                               "--field", "0.01")
        assert code == 0 and parse_record(out)["atom"] == ""

    def test_name_with_catalog_atom_exits_2(self, capsys):
        # a catalog atom has its own name, so --name would be dropped unread
        code, out, err = run_cli(capsys, "times", "--atom", "He:clementi", "--name", "Foo",
                                 "--field", "0.06")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "--name" in err

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

    @pytest.mark.parametrize("half", [["--ip", "0.9"], ["--z-eff", "1.6875"]])
    def test_half_an_inline_atom_exits_2(self, capsys, half):
        # a TypeError from the atom record would escape main as a traceback
        code, out, err = run_cli(capsys, "times", *half, "--field", "0.05")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: atom not specified")

    @pytest.mark.parametrize("argv", [
        ["times", "--ip", "0.5", "--z-eff", "1", "--name", "a,b", "--field", "0.01"],
        ["sweep", "--ip", "0.5", "--z-eff", "1", "--name", "a\nb",
         "--grid", "0.01,0.02", "--figure", "fig3"],
    ])
    def test_name_that_breaks_csv_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "line break" in err

    @pytest.mark.parametrize("command", [
        ["times", "--field", "0.01"],
        ["sweep", "--grid", "0.01,0.02"],
    ])
    def test_name_that_reads_as_metadata_exits_2(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--ip", "0.5", "--z-eff", "1",
                                 "--name", "#H")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "starts with '#'" in err


class TestSweepCommand:
    @staticmethod
    def sweep_peak(tmp_path, *extra):
        """Lines written and tracemalloc's peak over a 20,000-point sweep to a
        file, as a multiple of the bytes written."""
        out_path = tmp_path / "dump.csv"
        argv = ["sweep", "--atom", "He:clementi", "--grid", "0.01:0.20999:1e-05",
                *extra, "--out", str(out_path)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return len(out_path.read_text().splitlines()), peak / out_path.stat().st_size

    def test_dump_holds_little_more_than_its_text(self, tmp_path):
        # Points go lazily from the kernel into the text, so the peak is a small
        # multiple of the bytes written (about 136 B per row here), not a point list.
        lines, ratio = self.sweep_peak(tmp_path, "--wavelength", "800")
        assert lines == 20001
        assert ratio <= 5

    @pytest.mark.parametrize("figure", ["fig3", "fig4"])
    def test_figure_holds_little_more_than_its_text(self, tmp_path, figure):
        # A figure streams the same way and evaluates no point past its last
        # row: 6 metadata lines, the header and the 11,096 fields below F_a.
        lines, ratio = self.sweep_peak(tmp_path, "--figure", figure)
        assert lines == 6 + 1 + 11096
        assert ratio <= 10

    def test_fig3_nine_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--atom", "He:clementi",
                               "--grid", "0.03:0.11:0.01", "--figure", "fig3")
        lines = out.strip().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert code == 0
        assert body[0] == "f_au,tau_d_as,tau_sym_as"
        assert len(body) == 10

    def test_wavelength_with_figure_exits_2(self, capsys):
        # no figure table has a gamma_k column, so the wavelength would go unread
        code, out, err = run_cli(capsys, "sweep", "--atom", "He:clementi",
                                 "--grid", "0.05,0.06", "--figure", "fig3",
                                 "--wavelength", "800")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "--wavelength" in err

    def test_one_point_range_grid(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--atom", "He:clementi",
                               "--grid", "0.05:0.05:0.01", "--figure", "fig3")
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert code == 0
        assert body[0] == "f_au,tau_d_as,tau_sym_as" and len(body) == 2
        assert body[1].startswith("0.05,")

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

    def test_fig2_all_superatomic_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--atom", "He:clementi",
                                 "--grid", "0.15,0.2", "--figure", "fig2")
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "above barrier suppression" in err

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

    @pytest.mark.parametrize("body,named", [
        ("", "no measurement records"),           # header only
        ("nan,45.0,8.0\n", "line 2"),
        ("0.06,inf,8.0\n", "line 2"),
        # each a csv.Error at the reader, the NUL byte only before Python 3.11
        pytest.param("0.06,45.0," + "8" * 131_073 + "\n", "line 2", id="oversized-cell"),
        pytest.param("0.06,45.0,8.0\x00\n", "line 2", id="nul-byte"),
    ])
    def test_unusable_file_exits_2(self, capsys, tmp_path, body, named):
        path = tmp_path / "m.csv"
        path.write_text("field_au,time_as,err_as\n" + body, encoding="utf-8")
        code, out, err = run_cli(capsys, "compare", "--atom", "He:clementi",
                                 "--estimator", "tau_d", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and str(path) in err and named in err

    @pytest.mark.parametrize("record,estimator,named", [
        ("1e-310,45.0,8.0", "tau_d", ("1e-310", "tau_d")),     # model time overflows
        ("1e-310,45.0,8.0", "tau_sym", ("1e-310", "tau_sym")),
        ("1e-300,1e300,8.0", "tau_d", ("rms_as",)),            # residual squared overflows
        ("0.05,1e154,8.0\n0.06,1e154,8.0", "tau_d", ("rms_as",)),  # the sum of squares does
    ])
    def test_non_finite_result_exits_2(self, capsys, tmp_path, record, estimator, named):
        path = tmp_path / "m.csv"
        path.write_text(f"field_au,time_as,err_as\n{record}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "compare", "--atom", "He:clementi",
                                 "--estimator", estimator, "--residuals", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert all(word in err for word in named) and "finite" in err

    def test_non_finite_summary_exits_2_in_json(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("field_au,time_as,err_as\n0.05,1e154,8.0\n0.06,1e154,8.0\n",
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "compare", "--atom", "He:clementi", "--estimator",
                                 "tau_d", "--residuals", "--format", "json", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "rms_as" in err

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

    def test_empty_out_path_exits_2(self, capsys):
        # an empty PATH names no file; it does not mean stdout
        assert run_cli(capsys, "catalog", "--out", "") == (
            2, "", "error: [Errno 2] No such file or directory: ''\n")


@pytest.mark.parametrize("argv,named", [
    ("times --atom He:clementi --field 1e-300 --wavelength 1e-20", "gamma_k"),
    ("times --atom He:clementi --field 1e-300 --wavelength 1e-20 --format json", "gamma_k"),
    # sqrt(z_eff / F) is about 1.3e160 here; x_exit = (ip + delta_z) / (2F) overflows
    ("geometry --atom He:clementi --field 1e-320", "x_exit_au"),
    ("geometry --atom He:clementi --field 1e-320 --format json", "x_exit_au"),
    ("times --atom He:clementi --field 1e-308", "tau_d_as"),
    ("times --atom He:clementi --field 1e-310", "tau_d_au"),
    ("sweep --atom He:clementi --grid 1e-320,0.05", "x_exit_au"),
    ("sweep --atom He:clementi --grid 1e-320,0.05 --format json", "x_exit_au"),
    ("sweep --atom He:clementi --grid 1e-320,0.05 --figure fig4", "d_b_au"),
    ("sweep --atom He:clementi --grid 1e-310,0.05 --figure fig3 --format json",
     "tau_d_as"),
    # the gap 4 z_eff F / (ip + delta_z) underflows to 0
    ("times --ip 1e150 --z-eff 1e-5 --field 1e-300", "F=1e-300"),
    ("sweep --ip 1e150 --z-eff 1e-5 --grid 1e-300,1e-200", "F=1e-300"),
    # 4 z_eff F underflows to 0
    ("times --ip 1e-12 --z-eff 1e-300 --field 5e-324", "F=5e-324"),
    ("sweep --ip 1e-12 --z-eff 1e-300 --grid 5e-324", "F=5e-324"),
    ("sweep --ip 1e-12 --z-eff 5e-324 --grid 0.02:0.16:0.01", "F=0.02"),
])
def test_non_finite_output_exits_2(capsys, tmp_path, argv, named):
    out_path = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, *argv.split(), "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err.count("\n") == 1 and named in err and "finite" in err
    # an existing --out file survives the refusal byte for byte
    out_path.write_bytes(b"earlier output\r\n")
    assert run_cli(capsys, *argv.split(), "--out", str(out_path)) == (code, out, err)
    assert out_path.read_bytes() == b"earlier output\r\n"


# 4 z_eff F overflows for He:clementi above F = 2.66e307; every cell stays finite.
@pytest.mark.parametrize("argv", [
    "times --atom He:clementi --field 1e308",
    "times --atom He:clementi --f0 1e308 --ellipticity 1",
    "geometry --atom He:clementi --field 1e308",
])
def test_huge_field_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split(), "--precision", "17")
    assert code == 3 and err == ""
    assert "super_atomic" in out and not NON_FINITE.search(out)


@pytest.mark.parametrize("argv, exit_code", [
    ("geometry --ip 1 --z-eff 1e-25 --field 1e-300", 0),          # 4 z_eff F is 0
    ("geometry --ip 1e10 --z-eff 1e-20 --field 1e-298", 0),       # the gap is 0
])
def test_geometry_needs_no_finite_times(capsys, argv, exit_code):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == exit_code and err == ""
    assert len(out.splitlines()) == 2


# ip^2 underflows (to 0, or to a subnormal): the atom is refused before any field
# is read. Accepted, the last case printed barrier_width 0 beside x_exit 7.1e157.
@pytest.mark.parametrize("argv", [
    "geometry --ip 1e-170 --z-eff 1e-300 --field 1e-300",
    "sweep --ip 1e-170 --z-eff 1e-300 --grid 1e-300 --figure fig3",
    "geometry --ip 7.0289803374404635e-161 --z-eff 0.0025 --field 4.94e-319",
])
def test_subnormal_critical_field_atom_exits_2(capsys, argv):
    assert run_cli(capsys, *argv.split()) == (
        2, "", "error: ip^2 underflows; model rejected\n")


def test_warnings_print_one_line_each(tmp_path):
    # In process pytest records warnings, so only a subprocess shows how they print:
    # one "warning:" line each, with no source file, line or code.
    path = tmp_path / "m.csv"
    path.write_text("field_au,time_as,err_as\n0.16,12.0,2.0\n0.06,45.0,4.0\n",
                    encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "attoclock", "compare", "--atom",
                           "He:kullie", "--estimator", "tau_d", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.startswith("model_id,")
    assert proc.stderr == (
        f"warning: {path}: field values are not strictly increasing; records were "
        "re-sorted\nwarning: record at F=0.16 is above barrier suppression; tau_d has "
        "no real value there; point skipped\n")


@pytest.mark.parametrize("flags, extra_env", [(["-W", "error"], {}),
                                              ([], {"PYTHONWARNINGS": "error"})],
                         ids=["W-error", "PYTHONWARNINGS"])
@pytest.mark.parametrize("unsorted", [False, True], ids=["skipped", "unsorted"])
def test_warning_raised_as_error_exits_2_with_one_line(tmp_path, flags, extra_env,
                                                       unsorted):
    # A subprocess again: only there do -W error and PYTHONWARNINGS=error raise.
    path = tmp_path / "m.csv"
    if unsorted:
        path.write_text("field_au,time_as,err_as\n0.08,30.0,4.0\n0.06,45.0,4.0\n",
                        encoding="utf-8")
        expected = (f"error: {path}: field values are not strictly increasing; "
                    "records were re-sorted")
    else:
        path = Path(__file__).resolve().parent / "golden" / "measurements.csv"
        expected = ("error: record at F=0.16 is above barrier suppression; tau_d has "
                    "no real value there; point skipped")
    proc = subprocess.run([sys.executable, *flags, "-m", "attoclock", "compare", "--atom",
                           "He:kullie", "--estimator", "tau_d", str(path)],
                          capture_output=True, text=True, env={**os.environ, **extra_env})
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", expected + "\n")


@pytest.mark.parametrize("data, code", [("measurements.csv", 0), ("missing.csv", 2)])
def test_warning_format_is_restored(capsys, data, code):
    before = warnings.formatwarning
    path = Path(__file__).resolve().parent / "golden" / data
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["compare", "--atom", "He:kullie", "--estimator", "tau_d",
                     str(path)]) == code
    assert warnings.formatwarning is before


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "attoclock", "catalog"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Clementi" in proc.stdout


def test_bare_cli_import_loads_no_typing_and_no_lazy_module():
    # Under -S with only src/ on the path, no site .pth or editable-install hook
    # preloads anything. typing, __future__ and contextlib are not needed at all;
    # json and csv only for JSON output and measurement files.
    code = ("import sys, attoclock.cli; print(sorted({'typing', '__future__', "
            "'contextlib', 'dataclasses', 'inspect', 'json', 'csv'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(attoclock.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0 and proc.stdout == "[]\n"


# CLI fuzz: argv built from the real subcommands and flags. Every value is
# drawn half the time from ordinary inputs, so that runs reach the output, and
# half the time from edge values. Grid ranges draw from a smaller set so that no
# grid holds more than a few hundred points.
EDGES = ("0", "-0", "5e-324", "2.2e-308", "1e-300", "1e300", "1.7e308", "1e309",
         "-1e309", "nan", "inf", "-inf", "-0.5", "x", "")
GRID_EDGES = ("0", "-0", "5e-324", "1e-300", "0.01", "0.02", "0.16", "1e300",
              "1.7e308", "1e309", "nan", "inf", "-1", "x")
MEASUREMENTS = str(Path(__file__).resolve().parent / "golden" / "measurements.csv")
NON_FINITE = re.compile(r"\b(inf|nan|Infinity|NaN)\b")


def _either(ordinary, edges):
    return st.one_of(st.sampled_from(ordinary), st.sampled_from(edges))


NUMBER = _either(("0.06", "0.12095388813333334", "0.15", "0.5", "1", "735", "2e14"), EDGES)


def _flag(name, values):
    return values.map(lambda value: [name, value])


def _pair(first, second):
    return st.tuples(NUMBER, NUMBER).map(lambda p: [first, p[0], second, p[1]])


ATOM = st.one_of(st.sampled_from((["--atom", "He:clementi"], ["--atom", "He:kullie"])),
                 _pair("--ip", "--z-eff"), st.sampled_from((["--atom", "He"], [])))
FIELD = st.one_of(_flag("--field", NUMBER), _flag("--field-from-intensity", NUMBER),
                  _pair("--f0", "--ellipticity"), st.just([]))
GRID = st.one_of(
    st.sampled_from(("0.02:0.16:0.01", "0.06", "0.05,0.12095388813333334,0.15")),
    st.lists(st.sampled_from(GRID_EDGES), min_size=1, max_size=4).map(",".join),
    st.tuples(*[st.sampled_from(GRID_EDGES)] * 3).map(":".join))
NAME = _flag("--name", _either(("H",), ("a,b", "a\nb", 'a"b', "a\rb")))
WAVELENGTH = _flag("--wavelength", NUMBER)
OUTPUT = (_flag("--format", st.sampled_from(("csv", "json"))),
          _flag("--precision", _either(("1", "6", "17"), ("0", "18", "x"))))
# Per command: the parts always drawn, then the optional ones.
COMMANDS = {
    "geometry": ((ATOM, FIELD), (NAME,)),
    "times": ((ATOM, FIELD), (NAME, WAVELENGTH)),
    "sweep": ((ATOM, _flag("--grid", GRID)),
              (NAME, WAVELENGTH, _flag("--figure", _either(("fig2", "fig3", "fig4"),
                                                             ("fig1",))))),
    "compare": ((ATOM, _flag("--estimator", _either(("tau_d", "tau_sym", "tau_unsy",
                                                     "tau_t"), ("x",))),
                 st.sampled_from(([MEASUREMENTS], ["no-such-file.csv"]))),
                (NAME, st.just(["--residuals"]))),
    "catalog": ((), ()),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    always, optional = COMMANDS[command]
    argv = [command]
    for part in always:
        argv += draw(part)
    for part in optional + OUTPUT:
        if draw(st.booleans()):
            argv += draw(part)
    return argv


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(cli_argv())
@example(["times", "--ip", "1e-12", "--z-eff", "1e-300", "--field", "5e-324"])
@example(["sweep", "--ip", "1e-12", "--z-eff", "1e-300", "--grid", "5e-324"])
@example(["sweep", "--ip", "1e-12", "--z-eff", "5e-324", "--grid", "0.02:0.16:0.01"])
@example(["times", "--ip", "0.5", "--z-eff", "1", "--name", "a,b", "--field", "0.01"])
@example(["sweep", "--ip", "0.5", "--z-eff", "1", "--name", "a\nb",
          "--grid", "0.01,0.02", "--figure", "fig3"])
def test_cli_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    text = out.getvalue()
    assert code in (0, 2, 3)
    if code == 2:
        assert text == ""
    assert not NON_FINITE.search(text)
    if text and "json" in argv:
        json.loads(text)            # one document
    elif text:
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        # compare --residuals prints its summary record, then the residual table
        tables = [lines[:2], lines[2:]] if "--residuals" in argv else [lines]
        for lines in tables:
            width = len(lines[0].split(","))
            assert all(len(line.split(",")) == width for line in lines)
