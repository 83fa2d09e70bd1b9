"""Tests of the benchmark itself: python -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import attoclock.atom  # noqa: E402
import attoclock.barrier  # noqa: E402
import attoclock.cli  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Workloads shrunk so a test can run every op of a pool."""
    monkeypatch.setattr(workloads, "SWEEP_POINTS", 40)
    monkeypatch.setattr(workloads, "FIGURE_POINTS", 40)
    monkeypatch.setattr(workloads, "COMPARE_RECORDS", 150)


def _invoke(op: workloads.Op, tmp_path: Path) -> tuple[int, str, int]:
    """(exit code, output text, warnings) of one op run in this process."""
    out = tmp_path / "op.out"
    argv = [str(out) if a == workloads.OUT else a for a in op.argv]
    _, code, n_warnings, error, stdout = worker._run_op(attoclock.cli, argv)
    assert code is not None, error
    text = out.read_text(encoding="utf-8") if workloads.OUT in op.argv else stdout
    return code, text, n_warnings


def _inputs(name: str, seed: int, work: Path):
    """Everything the program receives: argv with the work directory
    abstracted, and the bytes of every input file."""
    work.mkdir()
    ops = workloads.build(name, seed, work).ops
    argv = [[a.replace(str(work), "WORK") for a in op.argv] for op in ops]
    return argv, {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name, small, tmp_path):
    first = _inputs(name, 7, tmp_path / "a")
    assert _inputs(name, 7, tmp_path / "b") == first
    assert _inputs(name, 8, tmp_path / "c") != first


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_op_passes_the_reference(name, small, tmp_path):
    wl = workloads.build(name, 3, tmp_path)
    for op in wl.ops:
        code, text, _ = _invoke(op, tmp_path)
        assert code == op.expect_exit, op.label
        op.check(text)


def test_oneshot_mix_covers_every_regime_and_exit_code(tmp_path):
    ops = workloads.build("cli_oneshot", 1, tmp_path).ops
    labels = " ".join(op.label for op in ops)
    for regime in (ref.SUB, ref.ATOMIC, ref.SUPER):
        assert regime in labels
    assert {op.expect_exit for op in ops} == {0, 3}
    flags = {a for op in ops for a in op.argv}
    assert {"--field", "--field-from-intensity", "--f0", "--wavelength",
            "fig2", "fig3", "fig4", "catalog", "geometry"} <= flags


def _dump_output(tmp_path: Path) -> tuple[workloads.Op, str]:
    op = workloads.sweep_dump(5, tmp_path)[0]
    code, text, _ = _invoke(op, tmp_path)
    assert code == 0
    return op, text


def test_any_altered_digit_fails_the_reference_check(small, tmp_path):
    op, text = _dump_output(tmp_path)
    op.check(text)
    digits = [i for i, ch in enumerate(text) if ch.isdigit()]
    for i in digits:
        altered = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
        with pytest.raises(ref.Mismatch):
            op.check(altered)


@pytest.mark.parametrize("byte", [b"x", b",", b"\n", b"-", b" "])
def test_altered_byte_is_a_failed_op(byte, small, tmp_path):
    op, text = _dump_output(tmp_path)
    data = text.encode()
    out = tmp_path / "op-0.out"
    runs = []
    for k, pos in enumerate(range(50, len(data), 97)):
        if data[pos:pos + 1] == byte:
            continue
        path = tmp_path / f"bad-{k}.out"
        path.write_bytes(data[:pos] + byte + data[pos + 1:])
        runs.append(run.OpRun(op, 1, 1.0, 0, 0, "", path))
    assert runs
    out.write_bytes(data)
    checked = run.check([run.OpRun(op, 1, 1.0, 0, 0, "", out)] + runs)
    assert len(checked.failures) == len(runs)


def test_wrong_exit_code_and_exception_are_failed_ops(small, tmp_path):
    op, text = _dump_output(tmp_path)
    paths = []
    for k in range(3):
        paths.append(tmp_path / f"o{k}.out")
        paths[-1].write_text(text, encoding="utf-8")
    checked = run.check([run.OpRun(op, 1, 1.0, 0, 0, "", paths[0]),
                         run.OpRun(op, 1, 1.0, 3, 0, "", paths[1]),
                         run.OpRun(op, 1, 1.0, None, 0, "boom", paths[2])])
    assert len(checked.failures) == 2
    assert "exit 3" in checked.failures[0]
    assert "raised boom" in checked.failures[1]


def test_warning_state_is_isolated_between_ops(small, tmp_path):
    op = workloads.compare_ingest(2, tmp_path)[0]     # tau_d skips records
    counts = [_invoke(op, tmp_path)[2] for _ in range(3)]
    assert counts[0] > 1 and counts == [counts[0]] * 3


def test_tracing_restores_every_wrapped_function():
    cli, barrier = attoclock.cli, attoclock.barrier
    before_cli = cli.solve_geometry
    before_barrier = barrier.solve_geometry
    before_direct = vars(attoclock.atom.LaserField)["direct"]
    before_main = cli.main
    tracer = tracing.Tracer()
    restore, absent = tracing.install(tracer)
    try:
        assert absent == []
        assert cli.solve_geometry is not before_cli
        assert barrier.solve_geometry is cli.solve_geometry
        assert cli.main(["times", "--atom", "He:clementi", "--field", "0.06",
                         "--out", "/dev/null"]) == 0
    finally:
        restore()
    assert cli.solve_geometry is before_cli
    assert barrier.solve_geometry is before_barrier
    assert vars(attoclock.atom.LaserField)["direct"] is before_direct
    assert cli.main is before_main
    assert tracer.spans["barrier.solve_geometry"][0] == 1
    assert tracer.counts["atom.LaserField.direct"] >= 1
    calls, incl, self_ns = tracer.spans["cli.main"]
    assert calls == 1 and 0 < self_ns < incl


def test_removed_function_is_absent_not_zero(tmp_path):
    tracer = tracing.Tracer()
    restore, absent = tracing.install(
        tracer, timed=(("barrier", "no_such_kernel"), ("cli", "main")), counted=())
    restore()
    assert absent == ["barrier.no_such_kernel"]
    # A traced pass that never saw solve_geometry reports no number for it.
    op = workloads.Op("x", ("catalog",), 0, 1, lambda text: {})
    trace = {"spans": {"cli.main": [2, 2000, 1000]}, "counts": {}, "retained": {},
             "gc_ns": 0, "gc_gen2": 0}
    runs = [run.OpRun(op, 1000, 1000.0, 0, 0, "", tmp_path / "x")] * 2
    traced = run.Pass(runs, 0, [1_000_000], 1_000_000, trace, ("barrier.solve_geometry",))
    untraced = run.Pass(runs, 0, [1_000_000], 1_000_000)
    tm = run.Pass(runs, 0, [1_000_000], 1_000_000, {"retained": {}}, ())
    metrics, notes = run.per_layer(untraced, traced, tm, (1.0, 0.0),
                                   run.Checked([], {}, 0, 10))
    assert not [m for m in metrics if "solve_geometry" in m]
    assert "barrier.solve_geometry" in notes["absent"]
    assert metrics["cli.self_us_per_item"][0] == pytest.approx(0.5)


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(1, 45))
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 34 / 44)


def test_parse_importtime_sums_attoclock_subtree():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        40 |         40 |     numpy",
        "import time:         7 |          7 |     org",
        "import time:        50 |         50 |     dataclasses",
        "import time:       300 |        390 |   attoclock",
        "import time:       200 |        590 | attoclock.cli",
    ])
    loaded = {"site", "numpy", "dataclasses", "attoclock", "attoclock.cli"}
    assert run.parse_importtime(text, loaded) == (0.59, 0.04)


def test_benchmark_refuses_a_directory_without_the_program(tmp_path, monkeypatch,
                                                           capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "sweep_dump", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: entry[0] for name, entry in workloads.WORKLOADS.items()}
    assert [m["name"] for m in spec["per_layer"]] == list(run.LAYER_MAP)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "op_p50_ms", "op_tail_ms", "items_per_s", "peak_rss_mb"}


@pytest.mark.parametrize("name", ["cli_oneshot", "sweep_dump"])
def test_peak_rss_is_the_op_process_own(name, small, tmp_path):
    ballast = bytearray(64 << 20)     # a parent far larger than any op
    ballast[::4096] = b"x" * len(ballast[::4096])
    wl = workloads.build(name, 1, tmp_path)
    (tmp_path / "work").mkdir()
    bench = run.Bench(Path(__file__).resolve().parents[1], tmp_path / "work")
    p = bench.run(wl, 0)
    assert 5 << 10 < p.peak_rss_kb < 48 << 10
    assert not run.check(p.runs).failures
