"""Command-line front end: geometry, times, sweep, compare, catalog.

Exit codes: 0 success, 2 usage/config/parse error, 3 field-regime error
(requested real quantities do not exist at the given field strength).
"""

import argparse
import gc
import math
import sys
import warnings
from collections.abc import Sequence

from .atom import AtomModel, LaserField, builtin_catalog, catalog_lookup
from .barrier import RegimeError, solve_geometry
from .clocks import ESTIMATORS, compute_clocks
from .tables import (CATALOG_COLUMNS, DRIVE_COLUMNS, DUMP_COLUMNS, FIGURE_COLUMNS,
                     GEOMETRY_COLUMNS, RESIDUAL_COLUMNS, TIMES_COLUMNS, reads, render, rows)
from .units import wavelength_to_angular_frequency

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REGIME = 3


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
    values :func:`attoclock.harness.iter_segments` checks."""
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
    """geometry or times: one record of the columns its subparser set. geometry runs
    the geometry stage alone, so the times' refusals do not apply to it."""
    atom = _resolve_atom(args)
    field = _resolve_field(args)
    omega = _omega(args)
    columns = args.columns if omega is None else args.columns + DRIVE_COLUMNS
    segments = solve_geometry(atom, [field.f_peak], reads(columns))
    if args.command == "times":
        segments = compute_clocks(atom, segments, reads(columns))
    ((values,),) = (zip(*block) for block in rows(columns, atom, segments, omega))
    return (render(dict(zip(columns, values)), (), None, args.format, args.precision),
            EXIT_REGIME if not segments[0]["real"] else EXIT_OK)


def cmd_sweep(args: argparse.Namespace) -> tuple[str, int]:
    from .harness import emit_figure_data, iter_segments
    atom = _resolve_atom(args)
    grid = parse_grid(args.grid)
    omega = _omega(args)          # a bad --wavelength exits 2 on both paths
    if args.figure:
        if omega is not None:
            raise ValueError("--wavelength has no column in a --figure table")
        return (emit_figure_data(atom, grid, args.figure, args.precision, args.format),
                EXIT_OK)
    segments = iter_segments(atom, grid, reads(DUMP_COLUMNS))  # lazy: the dump holds its text
    return render(None, DUMP_COLUMNS, rows(DUMP_COLUMNS, atom, segments, omega),
                  args.format, args.precision), EXIT_OK


def cmd_compare(args: argparse.Namespace) -> tuple[str, int]:
    from .harness import compare, load_measurements
    atom = _resolve_atom(args)
    records = load_measurements(args.data)
    if not records:
        raise ValueError(f"{args.data}: no measurement records")
    report = compare(atom, args.estimator, records)
    # The report's fields, residuals aside, are the summary's columns in printed order.
    summary, block = dict(zip(report._fields[:-1], report)), report.residuals
    if args.residuals and args.format == "json":     # one document, shaped like a figure
        return render(summary, RESIDUAL_COLUMNS, [block], "json", args.precision), EXIT_OK
    text = render(summary, (), None, args.format, args.precision)
    if args.residuals:
        text += render(None, RESIDUAL_COLUMNS, [block], "csv", args.precision)
    return text, EXIT_OK


def cmd_catalog(args: argparse.Namespace) -> tuple[str, int]:
    blocks = (block for a in builtin_catalog() for block in rows(CATALOG_COLUMNS, a, [{"n": 1}]))
    return render(None, CATALOG_COLUMNS, blocks, args.format, args.precision), EXIT_OK


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


_COMMANDS = ("geometry", "times", "sweep", "compare", "catalog")


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser with only the subparser ``argv[0]`` names, else with all five."""
    parser = argparse.ArgumentParser(
        prog="attoclock",
        description="Barrier geometry and uncertainty-relation tunneling times "
                    "for strong-field ionization.")
    built = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    # A top-level usage line lists every command. When all are built argparse lists
    # them, and a metavar would change its "required" and "invalid choice" errors.
    metavar = None if built is _COMMANDS else "{%s}" % ",".join(_COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if "geometry" in built:
        p_geo = sub.add_parser("geometry", help="barrier geometry at one field strength")
        _add_atom_flags(p_geo)
        _add_field_flags(p_geo)
        _add_output_flags(p_geo)
        p_geo.set_defaults(func=cmd_point, columns=GEOMETRY_COLUMNS, wavelength=None)
    if "times" in built:
        p_times = sub.add_parser("times", help="all time estimators at one field strength")
        _add_atom_flags(p_times)
        _add_field_flags(p_times)
        p_times.add_argument("--wavelength", type=float, metavar="NM",
                             help="laser wavelength for the adiabaticity parameter")
        _add_output_flags(p_times)
        p_times.set_defaults(func=cmd_point, columns=TIMES_COLUMNS)
    if "sweep" in built:
        p_sweep = sub.add_parser("sweep", help="evaluate over a field-strength grid")
        _add_atom_flags(p_sweep)
        p_sweep.add_argument("--grid", required=True, metavar="MIN:MAX:STEP|F1,F2,...")
        p_sweep.add_argument("--figure", choices=FIGURE_COLUMNS, default=None,
                             help="emit one figure table instead of the full dump")
        p_sweep.add_argument("--wavelength", type=float, metavar="NM")
        _add_output_flags(p_sweep)
        p_sweep.set_defaults(func=cmd_sweep)
    if "compare" in built:
        p_cmp = sub.add_parser("compare", help="score a model against measured points")
        _add_atom_flags(p_cmp)
        p_cmp.add_argument("--estimator", choices=ESTIMATORS, required=True)
        p_cmp.add_argument("--residuals", action="store_true",
                           help="also print the per-point residual table")
        p_cmp.add_argument("data", metavar="CSV", help="measurement CSV path")
        _add_output_flags(p_cmp)
        p_cmp.set_defaults(func=cmd_compare)
    if "catalog" in built:
        p_cat = sub.add_parser("catalog", help="list built-in atom models")
        _add_output_flags(p_cat)
        p_cat.set_defaults(func=cmd_catalog)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser(sys.argv[1:] if argv is None else argv).parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    # A warning prints as one line, like an error: no source file, line or code.
    saved, collecting = warnings.formatwarning, gc.isenabled()
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    # The data path builds no reference cycles, so the collector would only walk it.
    gc.disable()
    try:
        text, code = args.func(args)     # evaluate, then render
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return code
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (ValueError, OSError, Warning) as exc:     # Warning: raised under -W error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        warnings.formatwarning = saved
        if collecting:
            gc.enable()
