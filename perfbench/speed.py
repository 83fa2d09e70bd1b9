"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of one core swings with what other tenants run
on it: on a shared 2-vCPU virtual machine the same op took 1.2-1.7x longer
for seconds at a time, which would swamp any regression bound. So a
calibration of the same nature as the ops runs on the same CPU before the
first op and after each one, and each op's time is reported scaled to a
reference host:

    scaled = wall * reference / mean(calibrations near the op)

"Near" is from REACH calibrations before the op to REACH after it: the
host's speed can flip within one op, so the two calibrations that bracket
it alone estimate its speed poorly.

An op run inside a Python process is calibrated by ``sample``: a fixed
pure-Python loop doing attoclock's kind of work (float math, thousands of
small dicts held at once, %g formatting, joins) without calling attoclock;
its working set of a few MB makes it slow down with the host as an op does,
where a cache-resident loop slows down more. An op that starts a fresh
interpreter is calibrated by a bare interpreter start (``START_ARGS``), which
shares its process creation, interpreter start-up and byte-code loading.
Neither calibration runs attoclock code, and neither may change, or scaled
times stop being comparable across commits.
"""

from __future__ import annotations

import math
import os
import statistics
import time

KERNEL_REFERENCE_NS = 20_000_000   # kernel time on the reference host
START_REFERENCE_NS = 60_000_000    # bare interpreter start there
START_ARGS = ("-c", "pass")
REACH = 2


def _kernel() -> int:
    rows = []
    for k in range(4000):
        f = 0.03 + k * 1e-5
        d = math.sqrt(0.8164 - 5.5 * f)
        rows.append((f, {"x": (0.9 - d) / (2.0 * f), "t": 0.5 / (0.9 - d),
                         "w": d / f, "g": 1.0 / f}))
    return len("\n".join(f"{f:.6g}," + ",".join(f"{v:.6g}" for v in r.values())
                         for f, r in rows))


def sample() -> int:
    """Nanoseconds the calibration kernel takes right now, in this process."""
    t0 = time.perf_counter_ns()
    _kernel()
    return time.perf_counter_ns() - t0


def scale(walls_ns: list[int], calibration_ns: list[float],
          reference_ns: int) -> list[float]:
    """Op times scaled to the reference host speed. ``calibration_ns[k]``
    ran just before op k and ``calibration_ns[k + 1]`` just after it."""
    return [wall * reference_ns
            / statistics.fmean(calibration_ns[max(0, k - REACH):k + REACH + 2])
            for k, wall in enumerate(walls_ns)]


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so a calibration and
    the op it brackets see the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
