"""Seeded inputs for the benchmark's workloads.

A workload is a pool of attoclock invocations ("ops"). The seed picks the
values (grid bounds, fields, wavelengths, measurement records); an op's index
in its pool fixes its shape (subcommand, atom, figure, estimator, header
form, regime), so every seed asks the same amount of work of the same layers.
The same seed gives the same argv and the same input-file bytes.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

OUT = "{out}"          # replaced by a fresh output path for each invocation
ATOM_SPECS = ("He:clementi", "He:kullie")
FIGURES = ("fig2", "fig3", "fig4")
ESTIMATORS = ("tau_d", "tau_sym", "tau_unsy", "tau_t")

# Items per op. A run must hold enough ops for a tail percentile with ten
# samples beyond it, and few enough that this tail stays near p80-p90, where
# it is steady from run to run: ops take 0.2-0.4 s. The cost per point is
# flat in the grid size.
SWEEP_POINTS = 4000
FIGURE_POINTS = 10000
COMPARE_RECORDS = 4000
SWEEP_POOL = 12
FIGURE_POOL = 6       # each figure for each atom
COMPARE_POOL = 8
ONESHOT_POOL = 36     # three rounds of ONESHOT_SHAPES


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    expect_exit: int
    items: int
    check: Callable[[str], dict]     # raises reference.Mismatch


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    in_process: bool     # ops run through cli.main in one worker process
    item: str            # what one item of work is
    ops: tuple[Op, ...]


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _sweep_spec(rng: random.Random, atom: ref.Atom, n: int) -> str:
    """``LO:HI:STEP`` with exactly n points from about 0.31 to 1.49 F_a,
    none within 1e-9 of F_a."""
    fa = atom.f_a
    while True:
        lo = float(f"{fa * rng.uniform(0.30, 0.32):.6g}")
        step = float(f"{fa * rng.uniform(1.17, 1.18) / (n - 1):.6g}")
        hi = float(f"{lo + (n - 0.5) * step:.6g}")
        spec = f"{lo!r}:{hi!r}:{step!r}"
        points = ref.grid(spec)
        if len(points) == n and min(abs(f - fa) for f in points) > 1e-9 * fa:
            return spec


def sweep_dump(seed: int, work: Path) -> tuple[Op, ...]:
    ops = []
    for i in range(SWEEP_POOL):
        rng = _rng("sweep_dump", seed, i)
        spec_atom = ATOM_SPECS[i % 2]
        atom = ref.ATOMS[spec_atom]
        spec = _sweep_spec(rng, atom, SWEEP_POINTS)
        wavelength = f"{rng.uniform(700.0, 2000.0):.5g}"
        ops.append(Op(
            label=f"dump-{i}",
            argv=("sweep", "--atom", spec_atom, "--grid", spec,
                  "--wavelength", wavelength, "--out", OUT),
            expect_exit=0, items=SWEEP_POINTS,
            check=functools.partial(ref.check_dump, atom=atom, spec=spec,
                                    wavelength=float(wavelength), precision=6)))
    return tuple(ops)


def sweep_figures(seed: int, work: Path) -> tuple[Op, ...]:
    ops = []
    for i in range(FIGURE_POOL):
        rng = _rng("sweep_figures", seed, i)
        figure = FIGURES[i % 3]
        spec_atom = ATOM_SPECS[(i // 3) % 2]
        atom = ref.ATOMS[spec_atom]
        spec = _sweep_spec(rng, atom, FIGURE_POINTS)
        ops.append(Op(
            label=f"{figure}-{i}",
            argv=("sweep", "--atom", spec_atom, "--grid", spec, "--figure", figure,
                  "--precision", "10", "--out", OUT),
            expect_exit=0, items=FIGURE_POINTS,
            check=functools.partial(ref.check_figure, atom=atom, spec=spec,
                                    figure=figure, precision=10)))
    return tuple(ops)


# (symmetric error bars, source column) for the four accepted header forms.
HEADER_FORMS = ((False, False), (False, True), (True, False), (True, True))


def measurement_csv(rng: random.Random, atom: ref.Atom, n: int, symmetric: bool,
                    with_source: bool) -> tuple[str, list[tuple[float, ...]]]:
    """A shuffled measurement file and its (f, t, err_lo, err_hi) records.

    2% of the records lie above F_a, where every estimator but tau_sym is
    complex, so ``compare`` skips them.
    """
    fa = atom.f_a
    n_above = round(0.02 * n)
    header = ["field_au", "time_as"]
    header += ["err_as"] if symmetric else ["err_lo_as", "err_hi_as"]
    header += ["source"] if with_source else []
    lines, records = [], []
    for k in range(n):
        u = rng.uniform(1.001, 1.5) if k < n_above else rng.uniform(0.3, 0.999)
        f = f"{fa * u:.10g}"
        t = f"{ref.as_(ref.point(atom, float(f))['tau_sym']) * rng.uniform(0.85, 1.15):.6g}"
        lo = f"{rng.uniform(0.5, 5.0):.3g}"
        hi = lo if symmetric else f"{rng.uniform(0.5, 5.0):.3g}"
        cells = [f, t] + ([lo] if symmetric else [lo, hi])
        cells += [f"lab{rng.randrange(10)}"] if with_source else []
        lines.append(",".join(cells))
        records.append((float(f), float(t), float(lo), float(hi)))
    order = list(range(n))
    rng.shuffle(order)
    text = ",".join(header) + "\n" + "".join(lines[k] + "\n" for k in order)
    return text, [records[k] for k in order]


def compare_ingest(seed: int, work: Path) -> tuple[Op, ...]:
    ops = []
    for i in range(COMPARE_POOL):
        rng = _rng("compare_ingest", seed, i)
        estimator = ESTIMATORS[i % 4]
        symmetric, with_source = HEADER_FORMS[(i // 2) % 4]
        spec_atom = ATOM_SPECS[(i // 4) % 2]
        atom = ref.ATOMS[spec_atom]
        text, records = measurement_csv(rng, atom, COMPARE_RECORDS, symmetric,
                                        with_source)
        path = work / f"measurements-{i}.csv"
        path.write_text(text, encoding="utf-8")
        ops.append(Op(
            label=f"compare-{estimator}-{i}",
            argv=("compare", "--atom", spec_atom, "--estimator", estimator,
                  "--residuals", "--precision", "8", "--out", OUT, str(path)),
            expect_exit=0, items=COMPARE_RECORDS,
            check=functools.partial(ref.check_compare, atom=atom,
                                    estimator=estimator, records=records,
                                    precision=8)))
    return tuple(ops)


def _field(rng: random.Random, atom: ref.Atom, regime: str) -> str:
    if regime == ref.ATOMIC:
        return repr(atom.f_a)
    lo, hi = (0.05, 0.95) if regime == ref.SUB else (1.05, 2.0)
    return f"{atom.f_a * rng.uniform(lo, hi):.10g}"


# One-shot op shapes: (subcommand, field mode, regime). Field modes: "field",
# "field_wl" (with --wavelength), "intensity", "f0".
ONESHOT_SHAPES = (
    ("times", "field", ref.SUB), ("times", "field", ref.SUPER),
    ("times", "field", ref.ATOMIC), ("times", "field_wl", ref.SUB),
    ("times", "intensity", ref.SUB), ("times", "f0", ref.SUB),
    ("geometry", "field", ref.SUB), ("geometry", "field", ref.SUPER),
    ("geometry", "field", ref.ATOMIC), ("catalog", None, None),
    ("sweep", None, None), ("times", "intensity", ref.SUPER),
)


def _oneshot_op(i: int, rng: random.Random) -> Op:
    command, mode, regime = ONESHOT_SHAPES[i % len(ONESHOT_SHAPES)]
    round_ = i // len(ONESHOT_SHAPES)
    spec_atom = ATOM_SPECS[round_ % 2]
    atom = ref.ATOMS[spec_atom]
    precision = 6 if (i + round_) % 2 else 9
    prec_args = () if precision == 6 else ("--precision", str(precision))
    if command == "catalog":
        return Op(f"catalog-{i}", ("catalog",) + prec_args, 0, 1,
                  functools.partial(ref.check_catalog, precision=precision))
    if command == "sweep":
        figure = FIGURES[round_ % 3]
        spec = (f"{rng.uniform(0.02, 0.04):.3g}:{rng.uniform(0.10, 0.12):.3g}"
                ":0.01")
        return Op(f"sweep-{figure}-{i}",
                  ("sweep", "--atom", spec_atom, "--grid", spec, "--figure",
                   figure) + prec_args, 0, 1,
                  functools.partial(ref.check_figure, atom=atom, spec=spec,
                                    figure=figure, precision=precision))
    field = _field(rng, atom, regime)
    wavelength = None
    if mode == "intensity":
        value = f"{float(field) ** 2 * ref.INTENSITY_AU_W_CM2:.6g}"
        field_args = ("--field-from-intensity", value)
        f = ref.field_from_intensity(float(value))
    elif mode == "f0":
        eps = f"{rng.uniform(0.0, 1.0):.4g}"
        f0 = f"{float(field) * (1.0 + float(eps) ** 2) ** 0.5:.6g}"
        field_args = ("--f0", f0, "--ellipticity", eps)
        f = ref.field_from_f0(float(f0), float(eps))
    else:
        field_args = ("--field", field)
        f = float(field)
        if mode == "field_wl":
            wavelength = f"{rng.uniform(700.0, 2000.0):.5g}"
            field_args += ("--wavelength", wavelength)
    argv = (command, "--atom", spec_atom) + field_args + prec_args
    expect = 3 if ref.regime(atom, f) == ref.SUPER else 0
    if command == "geometry":
        check = functools.partial(ref.check_geometry, atom=atom, f=f,
                                  precision=precision)
    else:
        check = functools.partial(
            ref.check_times, atom=atom, f=f, precision=precision,
            wavelength=None if wavelength is None else float(wavelength))
    return Op(f"{command}-{mode}-{regime}-{i}", argv, expect, 1, check)


def cli_oneshot(seed: int, work: Path) -> tuple[Op, ...]:
    return tuple(_oneshot_op(i, _rng("cli_oneshot", seed, i))
                 for i in range(ONESHOT_POOL))


WORKLOADS = {
    "sweep_dump": (
        "main path: 4000-point sweeps written as the 21-column dump, so kernel, "
        "sweep assembly and dump rendering all carry weight",
        True, "grid point", sweep_dump),
    "sweep_figures": (
        "same grid family emitted as fig2/fig3/fig4 tables: kernel and run_sweep "
        "dominate and emit is light, so a formatting change should not move it",
        True, "grid point", sweep_figures),
    "compare_ingest": (
        "4000-record shuffled measurement CSVs in all four header forms: the only "
        "workload where CSV parsing and the per-record re-solve carry weight",
        True, "measurement record", compare_ingest),
    "cli_oneshot": (
        "fresh python -m attoclock processes (times, geometry, catalog, small "
        "sweep) in all three regimes: interpreter start, import and argparse "
        "dominate",
        False, "invocation", cli_oneshot),
}


def build(name: str, seed: int, work: Path) -> Workload:
    why, in_process, item, make = WORKLOADS[name]
    return Workload(name, why, in_process, item, make(seed, work))
