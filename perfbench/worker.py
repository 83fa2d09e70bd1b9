"""Runs attoclock ops in a fresh interpreter on behalf of run.py.

    python worker.py JOB.json
        Run the job's ops through ``attoclock.cli.main`` in this process, in a
        closed loop, and write the timings to the job's result path, with a
        speed calibration before the first op and after each one.
    python worker.py --shim TRACE.json ARG...
        One traced CLI invocation with ARG... as argv: stdout and the exit
        code are the CLI's own; spans and counts go to TRACE.json.

attoclock is imported from PYTHONPATH, which run.py points at the
checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import sys
import time
import warnings

import speed


def _run_op(cli, argv):
    """One op under fresh warning state: (wall ns, exit code, warnings,
    error text, stdout text).

    Warnings are recorded and counted, not printed, with the ``always``
    filter, so every op pays for its warnings as a fresh process would
    instead of only the first op in the process.
    """
    out, err = io.StringIO(), io.StringIO()
    code = None
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        t0 = time.perf_counter_ns()
        try:
            code = cli.main(argv)
        except Exception as exc:    # an op that raises is a failed op, not a crash
            err.write(f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter_ns()
    return t1 - t0, code, len(caught), err.getvalue()[-500:], out.getvalue()


def _collect(tracer) -> None:
    """Collect the cyclic garbage an op left (argparse parsers, for one),
    outside the timed region and the traced GC figures, so each op starts
    from the clean heap a fresh CLI process would have."""
    saved = (tracer.gc_ns, tracer.gc_gen2) if tracer else None
    gc.collect()
    if tracer:
        tracer.gc_ns, tracer.gc_gen2 = saved


def _peak_rss_kb() -> int:
    """This process's own peak RSS in KiB. ru_maxrss would also count the
    peak of the parent this process was forked from."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(line.split()[1]) for line in fh
                        if line.startswith("VmHWM"))
    except (OSError, StopIteration):
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_job(job: dict) -> dict:
    import attoclock.cli as cli

    tracer = restore = None
    absent: list[str] = []
    if job["trace"] or job["tracemalloc"]:
        import tracemalloc
        import tracing
        tracer = tracing.Tracer()
        if job["tracemalloc"]:
            tracemalloc.start()
            restore, absent = tracing.install(
                tracer, timed=(), counted=(), gc_callbacks=False,
                retaining=(("harness", "run_sweep"),))
        else:
            restore, absent = tracing.install(tracer)
    ops, out = job["ops"], job["out"]
    runs, cal = [], [speed.sample()]
    deadline = time.perf_counter_ns() + int(job["seconds"] * 1e9)
    try:
        while len(runs) < job["min_ops"] or time.perf_counter_ns() < deadline:
            k = len(runs)
            path = os.path.join(out, f"op-{k}.out")
            argv = ops[k % len(ops)]     # "{out}" is workloads.OUT
            wall, code, n_warnings, error, stdout = _run_op(
                cli, [path if a == "{out}" else a for a in argv])
            if "{out}" not in argv:     # the op printed its output
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(stdout)
            runs.append((wall, code, n_warnings, error))
            _collect(tracer)
            cal.append(speed.sample())
    finally:
        if restore is not None:
            restore()
    return {"runs": runs, "cal": cal, "peak_rss_kb": _peak_rss_kb(), "absent": absent,
            "trace": tracer.to_json() if tracer else None}


def shim(trace_path: str, argv: list[str]) -> int:
    import attoclock.cli as cli
    import tracing

    tracer = tracing.Tracer()
    restore, absent = tracing.install(tracer)
    try:
        code = cli.main(argv)
    finally:
        restore()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"trace": tracer.to_json(), "absent": absent}, fh)
    return code


def main(argv: list[str]) -> int:
    if argv[0] == "--shim":
        return shim(argv[1], argv[2:])
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run_job(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
