"""The cyclic garbage collector around a CLI command: paused while the command runs,
restored on every exit path, untouched by library calls; and the command's garbage
does not grow with its input."""

import gc
import warnings
from pathlib import Path

import pytest

from attoclock import cli
from attoclock.atom import catalog_lookup
from attoclock.harness import compare, emit_figure_data, load_measurements

GOLDEN = Path(__file__).resolve().parent / "golden"
# Grids of 19 and 19,001 points, every field below barrier suppression for He.
GRIDS = ("0.005:0.095:0.005", "0.005:0.1:0.000005")


def measurements(path: Path, n: int) -> str:
    """``n`` records at strictly ascending fields below barrier suppression."""
    lines = ["field_au,time_as,err_as"]
    lines += [f"{0.02 + 0.08 * k / n!r},{40.0 + k % 7!r},2.0" for k in range(n)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def sweep(*extra):
    return lambda grid, _: ["sweep", "--atom", "He:clementi", "--grid", grid, *extra]


def compare_residuals(fmt):
    return lambda _, data: ["compare", "--atom", "He:kullie", "--estimator", "tau_d",
                            "--residuals", "--format", fmt, data]


# Each command's argv over a grid spec and a measurement file, whichever it reads.
COMMANDS = {
    "dump_csv": sweep(),
    "dump_json": sweep("--format", "json"),
    "fig3": sweep("--figure", "fig3"),
    "compare_csv": compare_residuals("csv"),
    "compare_json": compare_residuals("json"),
    "times": lambda *_: ["times", "--atom", "He:clementi", "--field", "0.06"],
    "catalog": lambda *_: ["catalog"],
}


def garbage_of(argv: list[str]) -> int:
    """The objects ``gc.collect()`` frees after one ``cli.main(argv)`` run with the
    collector paused, so that no automatic pass frees any of them first."""
    gc.collect()
    gc.disable()
    try:
        assert cli.main(argv) == 0
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("command", COMMANDS)
def test_garbage_does_not_grow_with_the_input(tmp_path, command):
    out = ["--out", str(tmp_path / "out.txt")]
    small, large = (COMMANDS[command](grid, measurements(tmp_path / f"{n}.csv", n)) + out
                    for grid, n in zip(GRIDS, (10, 4000)))
    cli.main(small)     # warm: the first run imports what the command needs
    assert garbage_of(small) == garbage_of(large)


def test_collector_is_paused_while_the_command_runs(monkeypatch):
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        return "", cli.EXIT_OK

    monkeypatch.setattr(cli, "cmd_catalog", command)
    assert cli.main(["catalog"]) == 0
    assert seen == [False] and gc.isenabled()


@pytest.mark.parametrize("argv, code", [
    (["catalog"], cli.EXIT_OK),
    (["sweep", "--atom", "He:clementi", "--grid", "0.2,0.3", "--figure", "fig4"], cli.EXIT_REGIME),
    (["geometry", "--atom", "He:clementi", "--field", "-1"], cli.EXIT_USAGE),
    (["catalog", "--out", "{dir}"], cli.EXIT_USAGE),
    (["compare", "--atom", "He:kullie", "--estimator", "tau_d", "{golden}"], cli.EXIT_USAGE),
], ids=["ok", "RegimeError", "ValueError", "OSError", "Warning"])
def test_collector_is_restored_on_every_exit(tmp_path, capsys, argv, code):
    argv = [a.format(dir=tmp_path, golden=GOLDEN / "measurements.csv") for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # compare's skip warning raises, as under -W error
        assert cli.main(argv) == code
    assert gc.isenabled()
    assert capsys.readouterr().err.startswith("error: ") == (code != cli.EXIT_OK)


def test_a_paused_collector_stays_paused(capsys):
    gc.disable()
    try:
        assert cli.main(["catalog"]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("collecting", [True, False])
def test_library_calls_leave_the_collector_as_it_was(collecting):
    he = catalog_lookup("He:kullie")
    records = load_measurements(GOLDEN / "measurements.csv")
    (gc.enable if collecting else gc.disable)()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            compare(he, "tau_d", records)
        assert gc.isenabled() is collecting
        emit_figure_data(he, [0.03, 0.06], "fig3")
        assert gc.isenabled() is collecting
    finally:
        gc.enable()
