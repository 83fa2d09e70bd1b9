"""Command-line front end: geometry, times, sweep, compare, catalog.

Exit codes: 0 success, 2 usage/config/parse error, 3 field-regime error
(requested real quantities do not exist at the given field strength).
"""

import argparse
import math
import sys
import warnings
from collections.abc import Sequence

from .atom import AtomModel, LaserField, builtin_catalog, catalog_lookup
from .barrier import RegimeError, solve_geometry
from .clocks import evaluate
from .harness import (CATALOG_COLUMNS, DRIVE_COLUMNS, DUMP_COLUMNS, ESTIMATORS,
                      FIGURES, GEOMETRY_COLUMNS, RESIDUAL_COLUMNS, TIMES_COLUMNS,
                      compare, emit_figure_data, iter_sweep, load_measurements, render,
                      table)
from .units import wavelength_to_angular_frequency

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REGIME = 3


def _write_output(text: str, args: argparse.Namespace) -> None:
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_atom(args: argparse.Namespace) -> AtomModel:
    inline = args.ip is not None or args.z_eff is not None
    if args.atom and inline:
        raise ValueError("give either --atom or --ip/--z-eff, not both")
    if args.atom:
        if args.name is not None:
            raise ValueError("--name labels an inline --ip/--z-eff atom, not --atom")
        return catalog_lookup(args.atom)
    if args.ip is None or args.z_eff is None:
        raise ValueError("atom not specified: use --atom NAME[:MODEL] "
                         "or both --ip and --z-eff")
    return AtomModel(name="custom" if args.name is None else args.name, ip=args.ip,
                     z_eff=args.z_eff, source="cli")


def _resolve_field(args: argparse.Namespace) -> LaserField:
    modes = [args.field is not None, args.field_from_intensity is not None,
             args.f0 is not None]
    if sum(modes) != 1:
        raise ValueError("choose exactly one of --field, --field-from-intensity, "
                         "--f0 (with --ellipticity)")
    if (args.f0 is None) != (args.ellipticity is None):
        raise ValueError("--f0 and --ellipticity must be given together")
    if args.field is not None:
        return LaserField.direct(args.field)
    if args.field_from_intensity is not None:
        return LaserField.from_intensity(args.field_from_intensity)
    return LaserField.from_f0_ellipticity(args.f0, args.ellipticity)


# Largest MIN:MAX:STEP grid accepted; checked before the grid is built.
MAX_GRID_POINTS = 10**6


def parse_grid(spec: str) -> list[float]:
    """Parse ``MIN:MAX:STEP`` (inclusive endpoints, at most :data:`MAX_GRID_POINTS`
    points) or ``F1,F2,...`` (sorted, deduplicated) into a field grid, whose
    values :func:`attoclock.harness.iter_sweep` checks."""
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError("grid range must be MIN:MAX:STEP")
            lo, hi, step = (float(p) for p in parts)
            if not all(math.isfinite(v) for v in (lo, hi, step)):
                raise ValueError("grid MIN, MAX and STEP must be finite")
            if not step > 0:
                raise ValueError("grid step must be > 0")
            if hi < lo:
                raise ValueError("grid max must be >= min")
            steps = (hi - lo) / step + 1e-9      # may overflow to inf
            if not steps < MAX_GRID_POINTS:
                raise ValueError(f"grid range holds more than {MAX_GRID_POINTS} points")
            values = [lo + k * step for k in range(int(steps) + 1)]
        else:
            values = sorted({float(p) for p in spec.split(",") if p.strip()})
    except ValueError as exc:
        raise ValueError(f"bad grid {spec!r}: {exc}") from None
    return values


def _omega(args: argparse.Namespace) -> float | None:
    if args.wavelength is None:
        return None
    return wavelength_to_angular_frequency(args.wavelength)


def cmd_point(args: argparse.Namespace) -> tuple[str, int]:
    """geometry or times: one record of the stage and columns its subparser set."""
    atom = _resolve_atom(args)
    field = _resolve_field(args)
    omega = _omega(args)
    point = args.stage(atom, field.f_peak)
    columns = args.columns if omega is None else args.columns + DRIVE_COLUMNS
    (values,) = table(columns, atom, [point], omega)
    return (render(dict(zip(columns, values)), (), None, args.format, args.precision),
            EXIT_REGIME if point.regime == "super_atomic" else EXIT_OK)


def cmd_sweep(args: argparse.Namespace) -> tuple[str, int]:
    atom = _resolve_atom(args)
    grid = parse_grid(args.grid)
    omega = _omega(args)          # a bad --wavelength exits 2 on both paths
    if args.figure:
        if omega is not None:
            raise ValueError("--wavelength has no column in a --figure table")
        return (emit_figure_data(atom, grid, args.figure, args.precision, args.format),
                EXIT_OK)
    points = iter_sweep(atom, grid)    # lazy: the dump holds only its text
    return render(None, DUMP_COLUMNS, table(DUMP_COLUMNS, atom, points, omega),
                  args.format, args.precision), EXIT_OK


def cmd_compare(args: argparse.Namespace) -> tuple[str, int]:
    atom = _resolve_atom(args)
    records = load_measurements(args.data)
    if not records:
        raise ValueError(f"{args.data}: no measurement records")
    report = compare(atom, args.estimator, records)
    # The report's fields, residuals aside, are the summary's columns in printed order.
    summary = dict(zip(report._fields[:-1], report))
    if args.residuals and args.format == "json":     # one document, shaped like a figure
        return render(summary, RESIDUAL_COLUMNS, report.residuals, "json",
                      args.precision), EXIT_OK
    text = render(summary, (), None, args.format, args.precision)
    if args.residuals:
        text += render(None, RESIDUAL_COLUMNS, report.residuals, "csv", args.precision)
    return text, EXIT_OK


def cmd_catalog(args: argparse.Namespace) -> tuple[str, int]:
    rows = [next(table(CATALOG_COLUMNS, a, [None])) for a in builtin_catalog()]
    return render(None, CATALOG_COLUMNS, rows, args.format, args.precision), EXIT_OK


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")
    parser.add_argument("--precision", type=int, choices=range(1, 18), default=6,
                        metavar="N",
                        help="significant digits for printed numbers, 1..17 (default 6)")


def _add_atom_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--atom", metavar="NAME[:MODEL]",
                        help="catalog atom, e.g. He:clementi or He:kullie")
    parser.add_argument("--ip", type=float, help="ionization potential in au")
    parser.add_argument("--z-eff", dest="z_eff", type=float,
                        help="effective nuclear charge")
    parser.add_argument("--name", help="label for an inline --ip/--z-eff atom")


def _add_field_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--field", type=float, metavar="AU",
                        help="peak field strength in au")
    parser.add_argument("--field-from-intensity", type=float, metavar="WCM2",
                        help="peak intensity in W/cm^2")
    parser.add_argument("--f0", type=float, metavar="AU",
                        help="major-axis field amplitude in au")
    parser.add_argument("--ellipticity", type=float, metavar="E",
                        help="polarization ellipticity in [0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attoclock",
        description="Barrier geometry and uncertainty-relation tunneling times "
                    "for strong-field ionization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_geo = sub.add_parser("geometry", help="barrier geometry at one field strength")
    _add_atom_flags(p_geo)
    _add_field_flags(p_geo)
    _add_output_flags(p_geo)
    p_geo.set_defaults(func=cmd_point, stage=solve_geometry, columns=GEOMETRY_COLUMNS,
                       wavelength=None)

    p_times = sub.add_parser("times", help="all time estimators at one field strength")
    _add_atom_flags(p_times)
    _add_field_flags(p_times)
    p_times.add_argument("--wavelength", type=float, metavar="NM",
                         help="laser wavelength for the adiabaticity parameter")
    _add_output_flags(p_times)
    p_times.set_defaults(func=cmd_point, stage=evaluate, columns=TIMES_COLUMNS)

    p_sweep = sub.add_parser("sweep", help="evaluate over a field-strength grid")
    _add_atom_flags(p_sweep)
    p_sweep.add_argument("--grid", required=True, metavar="MIN:MAX:STEP|F1,F2,...")
    p_sweep.add_argument("--figure", choices=FIGURES, default=None,
                         help="emit one figure table instead of the full dump")
    p_sweep.add_argument("--wavelength", type=float, metavar="NM")
    _add_output_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="score a model against measured points")
    _add_atom_flags(p_cmp)
    p_cmp.add_argument("--estimator", choices=ESTIMATORS, required=True)
    p_cmp.add_argument("--residuals", action="store_true",
                       help="also print the per-point residual table")
    p_cmp.add_argument("data", metavar="CSV", help="measurement CSV path")
    _add_output_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_cat = sub.add_parser("catalog", help="list built-in atom models")
    _add_output_flags(p_cat)
    p_cat.set_defaults(func=cmd_catalog)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    # A warning prints as one line, like an error: no source file, line or code.
    saved = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        text, code = args.func(args)     # evaluate, then render
        _write_output(text, args)
        return code
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (ValueError, OSError, Warning) as exc:     # Warning: raised under -W error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        warnings.formatwarning = saved
