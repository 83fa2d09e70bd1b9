#!/usr/bin/env python3
"""The attoclock benchmark: seeded closed-loop workloads against the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_dump --seed 1 --seconds 10 --trace 0

One client runs one op (one attoclock invocation) at a time and waits for it
to finish: a closed loop. ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` splits the time between an untraced and a traced pass and
reports the per-layer metrics, plus import times and retained memory from
passes of their own. Every op's output is checked against reference.py. The
last line of stdout is the JSON result; the lines before it describe the run.
Timings are single-machine numbers, scaled to a reference host speed by the
calibrations in speed.py; the raw wall-clock figures are printed beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference
import speed
import workloads

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 7
PROBE = "import sys, attoclock.cli; sys.stdout.write('ready\\n'); sys.stdout.flush()"
IMPORT_PROBE = "import sys, attoclock.cli; print(*sys.modules)"
# ``python -m attoclock`` that also writes its own peak RSS (the VmHWM line of
# /proc/self/status) as the last stderr line. wait4's ru_maxrss cannot give
# it: Linux carries the forking parent's peak RSS over into the child's.
ONESHOT_MAIN = """import runpy, sys
try:
    runpy.run_module("attoclock", run_name="__main__", alter_sys=True)
finally:
    try:
        with open("/proc/self/status") as fh:
            sys.stderr.write("\\n" + "".join(l for l in fh if l.startswith("VmHWM")))
    except OSError:
        pass
"""
IMPORTTIME_RUNS = 3
MIN_OPS = 11          # the tail percentile needs ten samples beyond it
TRACEMALLOC_OPS = 2   # in-process ops in the retained-memory pass
CHILD_TIMEOUT_S = 120

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "import.attoclock_ms": "setup_s; op_p50_ms on cli_oneshot",
    "import.non_stdlib_ms": "setup_s; op_p50_ms on cli_oneshot",
    "cli.build_parser_ms": "op_p50_ms on cli_oneshot",
    "cli.parse_grid_us_per_item": "items_per_s on sweep_dump, sweep_figures",
    "cli.self_us_per_item": "items_per_s on sweep_dump, compare_ingest",
    "cli.out_bytes_per_item": "items_per_s on sweep_dump",
    "harness.load_measurements_us_per_item": "items_per_s on compare_ingest",
    "harness.run_sweep_self_us_per_item": "items_per_s on sweep_dump, sweep_figures",
    "harness.run_sweep_retained_bytes_per_item": "peak_rss_mb on sweep_dump",
    "harness.compare_self_us_per_item": "items_per_s on compare_ingest",
    "harness.compare_skipped_per_item": "items_per_s on compare_ingest",
    "harness.emit_figure_data_us_per_item": "items_per_s on sweep_figures",
    "barrier.solve_geometry_us_per_call": "items_per_s on in-process workloads",
    "barrier.solve_geometry_calls_per_item": "items_per_s on compare_ingest",
    "clocks.compute_clocks_us_per_call": "items_per_s on in-process workloads",
    "clocks.compute_clocks_calls_per_item": "items_per_s on compare_ingest",
    "barrier.classify_regime_calls_per_item": "items_per_s on the sweeps",
    "atom.LaserField.direct_calls_per_item": "items_per_s on the sweeps",
    "units.au_time_to_attoseconds_calls_per_item": "items_per_s on the sweeps",
    "py.gc_ms_per_op": "items_per_s, op_tail_ms on the sweeps",
    "py.gc_gen2_per_op": "items_per_s, op_tail_ms on the sweeps",
    "trace.overhead_ratio": "none: traced over untraced op_p50_ms",
}

# Per-layer metrics read off one span or counter of the traced pass:
# (metric, unit, traced name, statistic).
SPAN_METRICS = (
    ("cli.build_parser_ms", "ms", "cli.build_parser", "incl_per_call"),
    ("cli.parse_grid_us_per_item", "us", "cli.parse_grid", "incl_per_item"),
    ("cli.self_us_per_item", "us", "cli.main", "self_per_item"),
    ("harness.load_measurements_us_per_item", "us", "harness.load_measurements",
     "incl_per_item"),
    ("harness.run_sweep_self_us_per_item", "us", "harness.run_sweep", "self_per_item"),
    ("harness.compare_self_us_per_item", "us", "harness.compare", "self_per_item"),
    ("harness.emit_figure_data_us_per_item", "us", "harness.emit_figure_data",
     "incl_per_item"),
    ("barrier.solve_geometry_us_per_call", "us", "barrier.solve_geometry",
     "incl_per_call"),
    ("barrier.solve_geometry_calls_per_item", "count", "barrier.solve_geometry",
     "calls_per_item"),
    ("clocks.compute_clocks_us_per_call", "us", "clocks.compute_clocks",
     "incl_per_call"),
    ("clocks.compute_clocks_calls_per_item", "count", "clocks.compute_clocks",
     "calls_per_item"),
    ("barrier.classify_regime_calls_per_item", "count", "barrier.classify_regime",
     "count_per_item"),
    ("atom.LaserField.direct_calls_per_item", "count", "atom.LaserField.direct",
     "count_per_item"),
    ("units.au_time_to_attoseconds_calls_per_item", "count",
     "units.au_time_to_attoseconds", "count_per_item"),
)
KERNEL = ("barrier.solve_geometry", "clocks.compute_clocks")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class OpRun:
    op: workloads.Op
    wall_ns: int
    scaled_ns: float     # wall_ns at the reference host speed (speed.py)
    exit_code: int | None
    warnings: int
    error: str
    output: Path


@dataclass
class Pass:
    runs: list[OpRun]
    peak_rss_kb: int
    calibration_ns: list[int]
    reference_ns: int
    trace: dict | None = None
    absent: tuple[str, ...] = ()

    @property
    def speed_factor(self) -> float:
        """Reference over measured host speed, for the pass's span times."""
        return self.reference_ns / statistics.median(self.calibration_ns)


class Bench:
    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        paths = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        self._dirs = 0

    def fresh_dir(self, tag: str) -> Path:
        self._dirs += 1
        path = self.work / f"{tag}-{self._dirs}"
        path.mkdir()
        return path

    def spawn(self, cmd: list[str], stdout=None, stderr=None) -> tuple[int, int]:
        """Run cmd to completion: (exit code, wall ns)."""
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=self.env,
                                cwd=self.root)
        with _time_limit(proc):
            proc.wait()
        return proc.returncode, time.perf_counter_ns() - t0

    def start_sample(self) -> int:
        """Nanoseconds a bare interpreter start takes right now."""
        return self.spawn([sys.executable, *speed.START_ARGS])[1]

    # -- set-up and imports -------------------------------------------------

    def setup_seconds(self) -> tuple[float, float]:
        """Median time from a cold interpreter start to ``attoclock.cli``
        imported and ready, scaled and raw, in seconds. One unmeasured start
        first fills byte-code caches."""
        raw, cal = [], [self.start_sample()]
        for probe in range(SETUP_PROBES + 1):
            t0 = time.perf_counter_ns()
            proc = subprocess.Popen([sys.executable, "-c", PROBE], env=self.env,
                                    cwd=self.root, stdout=subprocess.PIPE, text=True)
            with _time_limit(proc):
                line = proc.stdout.readline()
                t1 = time.perf_counter_ns()
                proc.stdout.close()
                code = proc.wait()
            if code != 0 or line != "ready\n":
                raise BenchError("cannot import attoclock.cli from src/")
            raw.append(t1 - t0)
            cal.append(self.start_sample())
        scaled = speed.scale(raw[1:], cal[1:], speed.START_REFERENCE_NS)
        return statistics.median(scaled) / 1e9, statistics.median(raw[1:]) / 1e9

    def import_ms(self) -> tuple[float, float]:
        """Median (attoclock, non-stdlib modules it pulls in) import time, in
        ms, from ``-X importtime``."""
        own, other = [], []
        cal = [self.start_sample()]
        for _ in range(IMPORTTIME_RUNS):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
                env=self.env, cwd=self.root, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise BenchError("cannot import attoclock.cli from src/")
            cal.append(self.start_sample())
            a, b = parse_importtime(proc.stderr, set(proc.stdout.split()))
            own.append(a)
            other.append(b)
        factor = speed.START_REFERENCE_NS / statistics.fmean(cal)
        return statistics.median(own) * factor, statistics.median(other) * factor

    # -- the two ways of running ops ---------------------------------------

    def in_process(self, wl: workloads.Workload, seconds: float, min_ops: int,
                   trace: bool = False, tracemalloc: bool = False) -> Pass:
        """Ops through cli.main in one fresh worker process."""
        out = self.fresh_dir("worker")
        job = {"ops": [list(op.argv) for op in wl.ops], "seconds": seconds,
               "min_ops": min_ops, "out": str(out), "trace": trace,
               "tracemalloc": tracemalloc, "result": str(out / "result.json")}
        (out / "job.json").write_text(json.dumps(job), encoding="utf-8")
        code, _ = self.spawn([sys.executable, str(BENCH / "worker.py"),
                              str(out / "job.json")])
        if code != 0:
            raise BenchError(f"worker exited {code}")
        result = json.loads((out / "result.json").read_text(encoding="utf-8"))
        cal = result["cal"]
        scaled = speed.scale([r[0] for r in result["runs"]], cal,
                             speed.KERNEL_REFERENCE_NS)
        runs = [OpRun(wl.ops[k % len(wl.ops)], wall, scaled[k], exit_code, n_warn,
                      error, out / f"op-{k}.out")
                for k, (wall, exit_code, n_warn, error) in enumerate(result["runs"])]
        return Pass(runs, result["peak_rss_kb"], cal, speed.KERNEL_REFERENCE_NS,
                    result["trace"],
                    tuple(result["absent"]))

    def subprocesses(self, wl: workloads.Workload, seconds: float, min_ops: int,
                     shim: bool = False) -> Pass:
        """Each op a fresh ``python -m attoclock`` process (or the tracing
        shim), run one after another; stdout is the op's output."""
        out = self.fresh_dir("shim" if shim else "oneshot")
        runs, rss, traces, absent = [], 0, [], set()
        cal = [self.start_sample()]
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        while len(runs) < min_ops or time.perf_counter_ns() < deadline:
            k = len(runs)
            op = wl.ops[k % len(wl.ops)]
            trace_path = out / f"op-{k}.trace.json"
            prefix = ([sys.executable, str(BENCH / "worker.py"), "--shim", str(trace_path)]
                      if shim else [sys.executable, "-c", ONESHOT_MAIN])
            with open(out / f"op-{k}.out", "wb") as fo, open(out / f"op-{k}.err", "wb") as fe:
                code, wall = self.spawn(prefix + list(op.argv), fo, fe)
            cal.append(self.start_sample())
            error = (out / f"op-{k}.err").read_text(errors="replace")
            head, _, last = error.rstrip("\n").rpartition("\n")
            if last.startswith("VmHWM"):
                error = head
                rss = max(rss, int(last.split()[1]))
            error = error[-500:]
            runs.append(OpRun(op, wall, 0.0, code, 0, error, out / f"op-{k}.out"))
            if shim and trace_path.exists():
                shimmed = json.loads(trace_path.read_text(encoding="utf-8"))
                traces.append(shimmed["trace"])
                absent.update(shimmed["absent"])
        scaled = speed.scale([r.wall_ns for r in runs], cal, speed.START_REFERENCE_NS)
        for r, ns in zip(runs, scaled):
            r.scaled_ns = ns
        return Pass(runs, rss, cal, speed.START_REFERENCE_NS,
                    merge_traces(traces) if shim else None, tuple(sorted(absent)))

    def run(self, wl: workloads.Workload, seconds: float, trace: bool = False) -> Pass:
        if wl.in_process:
            return self.in_process(wl, seconds, MIN_OPS, trace=trace)
        return self.subprocesses(wl, seconds, MIN_OPS, shim=trace)


@contextlib.contextmanager
def _time_limit(proc: subprocess.Popen):
    """Kill ``proc`` if the block waiting on it runs past CHILD_TIMEOUT_S."""
    def on_alarm(signum, frame):
        raise TimeoutError
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        yield
    except TimeoutError:
        proc.kill()
        proc.wait()
        raise BenchError(f"child {proc.args[:4]} ran past {CHILD_TIMEOUT_S} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def parse_importtime(stderr: str, loaded: set[str]) -> tuple[float, float]:
    """(ms importing attoclock, ms in non-stdlib modules it imports).

    ``-X importtime`` lists modules after their children, indented by depth;
    the lines before a top-level entry back to the previous one are its
    subtree. Only modules in ``loaded`` count as non-stdlib imports, which
    leaves out failed probes such as copy's try of ``org.python.core``.
    """
    own_us = other_us = 0
    subtree: list[tuple[int, str]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        head, cumulative, name = line.split("|")
        self_us = int(head.removeprefix("import time:"))
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        if depth:
            subtree.append((self_us, name))
            continue
        if name.split(".")[0] == "attoclock":
            own_us += int(cumulative)
            other_us += sum(us for us, sub in subtree
                            if sub in loaded
                            and sub.split(".")[0] not in sys.stdlib_module_names
                            and sub.split(".")[0] != "attoclock")
        subtree = []
    return own_us / 1e3, other_us / 1e3


def merge_traces(traces: list[dict]) -> dict:
    merged = {"spans": {}, "counts": {}, "retained": {}, "gc_ns": 0, "gc_gen2": 0}
    for t in traces:
        for key in ("spans", "retained"):
            for name, values in t[key].items():
                acc = merged[key].setdefault(name, [0] * len(values))
                merged[key][name] = [a + b for a, b in zip(acc, values)]
        for name, n in t["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + n
        merged["gc_ns"] += t["gc_ns"]
        merged["gc_gen2"] += t["gc_gen2"]
    return merged


# -- checking ---------------------------------------------------------------

@dataclass
class Checked:
    failures: list[str]
    sha256: dict[str, str]      # op label -> digest of its first output
    skipped: int
    out_bytes: int


def check(runs: list[OpRun], verdicts: dict | None = None) -> Checked:
    """Check every op: it must not raise, must exit as expected, and its
    output must pass the reference check. Outputs of one op label must be
    byte-identical, so each distinct output is checked once; ``verdicts``
    carries those checks from one pass to the next."""
    failures, sha = [], {}
    verdicts = {} if verdicts is None else verdicts
    skipped = out_bytes = 0
    for run in runs:
        op = run.op
        data = run.output.read_bytes() if run.output.exists() else b""
        run.output.unlink(missing_ok=True)
        out_bytes += len(data)
        if run.exit_code is None:
            failures.append(f"{op.label}: raised {run.error}")
            continue
        if run.exit_code != op.expect_exit:
            failures.append(f"{op.label}: exit {run.exit_code}, expected "
                            f"{op.expect_exit}: {run.error.strip()[-200:]}")
            continue
        digest = hashlib.sha256(data).hexdigest()
        first = sha.setdefault(op.label, digest)
        if digest != first:
            failures.append(f"{op.label}: output differs from an identical "
                            "earlier invocation")
            continue
        if digest not in verdicts:
            verdicts[digest] = check_output(op, data)
        reason, stats = verdicts[digest]
        if reason:
            failures.append(f"{op.label}: {reason}")
        skipped += stats.get("skipped", 0)
    return Checked(failures, sha, skipped, out_bytes)


def check_output(op: workloads.Op, data: bytes) -> tuple[str, dict]:
    """(failure reason or "", checker stats) of one op's output bytes."""
    try:
        return "", op.check(data.decode("utf-8"))
    except UnicodeDecodeError:
        return "output is not UTF-8", {}
    except reference.Mismatch as exc:
        return f"reference check: {exc}", {}


# -- metrics ----------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it: the 11th-largest sample."""
    s = sorted(samples)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def end_to_end(p: Pass, setup_s: tuple[float, float]) -> tuple[dict, dict]:
    """Timings scaled to the reference host speed; the notes keep the raw
    wall-clock figures beside them."""
    items = sum(r.op.items for r in p.runs)

    def timings(ns: list[float]) -> tuple[float, float, float, float]:
        tail_ns, tail_pct = tail(ns)
        return (statistics.median(ns) / 1e6, tail_ns / 1e6, tail_pct,
                items / (sum(ns) / 1e9))

    p50, tail_ms, tail_pct, rate = timings([r.scaled_ns for r in p.runs])
    raw_p50, raw_tail, _, raw_rate = timings([r.wall_ns for r in p.runs])
    metrics = {
        "setup_s": (setup_s[0], "s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "items_per_s": (rate, "1/s"),
        "peak_rss_mb": (p.peak_rss_kb / 1024, "MB"),
    }
    notes = {"op_p50_samples": len(p.runs), "op_tail_percentile": round(tail_pct, 1),
             "items": items,
             "warnings_per_op": sum(r.warnings for r in p.runs) / len(p.runs),
             "raw_wall": {"setup_s": setup_s[1], "op_p50_ms": raw_p50,
                          "op_tail_ms": raw_tail, "items_per_s": raw_rate},
             "calibration_ms_median": statistics.median(p.calibration_ns) / 1e6}
    return metrics, notes


def per_layer(untraced: Pass, traced: Pass, tm: Pass, imports: tuple[float, float],
              checked: Checked) -> tuple[dict, dict]:
    t = traced.trace
    runs = traced.runs
    items = sum(r.op.items for r in runs)
    factor = traced.speed_factor
    spans, counts = t["spans"], t["counts"]
    metrics = {"import.attoclock_ms": (imports[0], "ms"),
               "import.non_stdlib_ms": (imports[1], "ms")}
    not_run = []
    for metric, unit, name, stat in SPAN_METRICS:
        if stat == "count_per_item":
            if name in counts:
                metrics[metric] = (counts[name] / items, unit)
            continue
        if name not in spans:
            continue
        calls, incl, self_ns = spans[name]
        scale = (1e6 if unit == "ms" else 1e3) / factor
        if stat == "calls_per_item":
            metrics[metric] = (calls / items, unit)
        elif stat == "incl_per_item":
            metrics[metric] = (incl / items / scale, unit)
        elif stat == "self_per_item":
            metrics[metric] = (self_ns / items / scale, unit)
        elif calls:
            metrics[metric] = (incl / calls / scale, unit)
        else:
            not_run.append(metric)
    metrics["cli.out_bytes_per_item"] = (checked.out_bytes / items, "B")
    metrics["harness.compare_skipped_per_item"] = (checked.skipped / items, "count")
    retained = tm.trace["retained"].get("harness.run_sweep")
    if retained is not None:
        metrics["harness.run_sweep_retained_bytes_per_item"] = (
            retained[1] / sum(r.op.items for r in tm.runs), "B")
    metrics["py.gc_ms_per_op"] = (t["gc_ns"] * factor / 1e6 / len(runs), "ms")
    metrics["py.gc_gen2_per_op"] = (t["gc_gen2"] / len(runs), "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.scaled_ns for r in runs)
        / statistics.median(r.scaled_ns for r in untraced.runs), "ratio")
    op_ns = sum(r.wall_ns for r in runs)
    kernel_ns = sum(spans[name][1] for name in KERNEL if name in spans)
    notes = {"traced_ops": len(runs), "untraced_ops": len(untraced.runs),
             "items": items, "kernel_share_of_op": kernel_ns / op_ns,
             "absent": sorted(set(traced.absent) | set(tm.absent)),
             "not_run": not_run, "layer_map": LAYER_MAP}
    return metrics, notes


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "numpy": numpy_version,
            "note": "single-machine timings on the host that ran this; "
                    "compare runs only from the same host"}


def run_workload(bench: Bench, wl: workloads.Workload, seconds: float,
                 trace: bool) -> tuple[dict, dict, list[OpRun], Checked]:
    if not trace:
        setup_s = bench.setup_seconds()
        p = bench.run(wl, seconds)
        checked = check(p.runs)
        metrics, notes = end_to_end(p, setup_s)
        return metrics, notes, p.runs, checked
    untraced = bench.run(wl, seconds / 2)
    traced = bench.run(wl, seconds / 2, trace=True)
    if wl.in_process:
        tm = bench.in_process(wl, 0, TRACEMALLOC_OPS, tracemalloc=True)
    else:    # one-shot ops are tiny: one in-process pass over the whole pool
        tm = bench.in_process(wl, 0, len(wl.ops), tracemalloc=True)
    imports = bench.import_ms()
    verdicts: dict = {}
    check_untraced = check(untraced.runs, verdicts)
    checked = check(traced.runs, verdicts)
    check_tm = check(tm.runs, verdicts)
    metrics, notes = per_layer(untraced, traced, tm, imports, checked)
    runs = untraced.runs + traced.runs + tm.runs
    checked.failures = (check_untraced.failures + checked.failures
                        + check_tm.failures)
    return metrics, notes, runs, checked


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "attoclock" / "cli.py").is_file():
        print("error: run from the root of an attoclock checkout "
              "(src/attoclock/cli.py not found)", file=sys.stderr)
        return 2
    speed.pin_to_one_cpu()
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.build(args.workload, args.seed, work)
        metrics, notes, runs, checked = run_workload(
            Bench(root, work), wl, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()     # only if no other run is using it
        except OSError:
            pass

    print(json.dumps({"env": environment()}))
    print(json.dumps({
        "workload": wl.name, "why": wl.why, "seed": args.seed, "trace": args.trace,
        "load": "closed loop, 1 client", "item": wl.item, **notes,
        "fail_ratio": len(checked.failures) / len(runs),
        "failures": checked.failures[:10],
        "output_sha256": checked.sha256,
    }))
    print(json.dumps({
        "correct": not checked.failures,
        "attempted": len(runs),
        "failed": len(checked.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
