"""Golden CLI outputs: every captured argv replays to the same bytes, exit
code, ``error:`` lines and warnings.

``tests/golden/manifest.json`` maps each case name to its argv, exit code,
the CLI's ``error:`` lines on stderr and the message text of each warning;
``tests/golden/<name>.out`` holds the exact stdout. argparse's usage text is
not pinned: it differs across Python versions. ``{golden}`` in an argv or a
message stands for the golden directory (the measurement fixtures live there:
``measurements.csv``, and ``measurements_shuffled.csv``, 300 records in random
order, 6 above F_a, whose times are He:clementi's tau_sym scaled by 0.85..1.15).

Regenerate after an intended output change with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import warnings
from pathlib import Path

import pytest

from attoclock.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"

F_A_CLEMENTI = "0.12095388813333334"

# (name, field argv): sub-atomic, atomic and super-atomic fields through
# every way of setting the field, plus a very weak field. ``times`` also takes
# the drive of DRIVES; ``geometry`` has no --wavelength.
FIELDS = (
    ("sub_field", ["--atom", "He:clementi", "--field", "0.06"]),
    ("atomic_field", ["--atom", "He:clementi", "--field", F_A_CLEMENTI]),
    ("super_field", ["--atom", "He:clementi", "--field", "0.15"]),
    ("weak_field", ["--atom", "He:clementi", "--field", "1e-12"]),
    ("sub_intensity", ["--atom", "He:kullie", "--field-from-intensity", "2.0e14"]),
    ("super_intensity", ["--atom", "He:kullie", "--field-from-intensity", "1e15"]),
    ("sub_ellipticity", ["--atom", "He:clementi", "--f0", "0.1",
                         "--ellipticity", "0.87"]),
    ("super_ellipticity", ["--ip", "0.5", "--z-eff", "1.0", "--name", "H",
                           "--f0", "0.2", "--ellipticity", "0.3"]),
)
DRIVES = {"sub_ellipticity": ["--wavelength", "735"]}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for command in ("geometry", "times"):
        for field_name, field_argv in FIELDS:
            for fmt in ("csv", "json"):
                for precision in ("6", "17"):
                    drive = DRIVES.get(field_name, []) if command == "times" else []
                    cases[f"{command}_{field_name}_{fmt}_p{precision}"] = [
                        command, *field_argv, *drive, "--format", fmt,
                        "--precision", precision]
    straddle = ["sweep", "--atom", "He:clementi", "--grid", "0.1:0.13:0.005",
                "--wavelength", "735"]
    cases["sweep_dump_csv_p6"] = straddle
    cases["sweep_dump_csv_p17"] = [*straddle, "--precision", "17"]
    cases["sweep_dump_json"] = [*straddle, "--format", "json"]
    for figure in ("fig2", "fig3", "fig4"):
        base = ["sweep", "--atom", "He:kullie", "--grid", "0.02:0.16:0.01",
                "--figure", figure]
        cases[f"sweep_{figure}_csv"] = [*base, "--precision", "9"]
        cases[f"sweep_{figure}_json"] = [*base, "--format", "json"]
    cases["sweep_fig3_critical_csv"] = [
        "sweep", "--atom", "He:clementi", "--grid", f"0.06,{F_A_CLEMENTI},0.15",
        "--figure", "fig3", "--precision", "17"]
    for estimator in ("tau_d", "tau_sym", "tau_unsy", "tau_t"):
        cases[f"compare_{estimator}_csv"] = [
            "compare", "--atom", "He:clementi", "--estimator", estimator,
            "--residuals", "{golden}/measurements.csv"]
    cases["compare_tau_d_json"] = [
        "compare", "--atom", "He:kullie", "--estimator", "tau_d", "--residuals",
        "--format", "json", "--precision", "17", "{golden}/measurements.csv"]
    summary = ["compare", "--atom", "He:clementi", "--estimator", "tau_d",
               "{golden}/measurements.csv"]
    cases["compare_tau_d_summary_csv"] = summary
    cases["compare_tau_d_summary_json"] = [*summary, "--format", "json"]
    # More records than one ingest chunk, shuffled, 6 of 300 above F_a, with sources.
    cases["compare_tau_d_shuffled_csv"] = [
        "compare", "--atom", "He:clementi", "--estimator", "tau_d", "--residuals",
        "--precision", "17", "{golden}/measurements_shuffled.csv"]
    cases["catalog_csv"] = ["catalog"]
    cases["catalog_json"] = ["catalog", "--format", "json"]
    # The drive path's refusals: a bad wavelength, and a gamma_k that overflows.
    cases["times_wavelength_zero"] = ["times", "--atom", "He:clementi", "--field", "0.06",
                                      "--wavelength", "0"]
    cases["sweep_dump_wavelength_overflow"] = ["sweep", "--atom", "He:clementi", "--grid",
                                               "0.1:0.13:0.005", "--wavelength", "1e-310"]
    cases["times_gamma_overflow"] = ["times", "--atom", "He:clementi", "--field", "1e-300",
                                     "--wavelength", "1e-20"]
    return cases


def run(argv: list[str]) -> tuple[int, bytes, list[str], list[str]]:
    """Exit code, stdout, the ``error:`` lines and each warning's message."""
    out, err, here = io.StringIO(), io.StringIO(), str(GOLDEN)
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main([a.replace("{golden}", here) for a in argv])
    errors = [line.replace(here, "{golden}") for line in err.getvalue().splitlines()
              if line.startswith("error:")]
    messages = [str(w.message).replace(here, "{golden}") for w in caught]
    return code, out.getvalue().encode("utf-8"), errors, messages


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(_manifest()))
def test_replay_is_byte_identical(name):
    case = _manifest()[name]
    code, out, errors, messages = run(case["argv"])
    assert (code, errors, messages) == (case["exit"], case["errors"], case["warnings"])
    assert out == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(n for n in _manifest() if "_json" in n))
def test_json_golden_is_one_document(name):
    json.loads((GOLDEN / f"{name}.out").read_text(encoding="utf-8"))


def regenerate() -> None:
    manifest = {}
    for name, argv in _cases().items():
        code, out, errors, messages = run(argv)
        (GOLDEN / f"{name}.out").write_bytes(out)
        manifest[name] = {"argv": argv, "exit": code, "errors": errors,
                          "warnings": messages}
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in manifest.items()]
    MANIFEST.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
