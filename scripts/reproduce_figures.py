#!/usr/bin/env python3
"""Regenerate the three figure tables for both built-in He models.

Writes fig2/fig3/fig4 CSVs per effective-charge model into --outdir, plus the
full 21-column sweep dump with the adiabaticity parameter for the default
735 nm drive. Each file is one ``attoclock sweep`` invocation; any plotting
tool can consume the CSVs directly.
"""

import argparse
import sys
from pathlib import Path

from attoclock.cli import EXIT_OK, EXIT_REGIME, main as attoclock


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="output directory")
    parser.add_argument("--grid", default="0.02:0.12:0.0025",
                        metavar="MIN:MAX:STEP|F1,F2,...",
                        help="field-strength grid in au")
    parser.add_argument("--wavelength", default="735", metavar="NM")
    parser.add_argument("--precision", default="9")
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for spec in ("He:kullie", "He:clementi"):
        tag = spec.partition(":")[2]
        for name, extra in (("fig2", ["--figure", "fig2"]),
                            ("fig3", ["--figure", "fig3"]),
                            ("fig4", ["--figure", "fig4"]),
                            ("sweep", ["--wavelength", args.wavelength])):
            path = outdir / f"{name}_{tag}.csv"
            code = attoclock(["sweep", "--atom", spec, "--grid", args.grid, *extra,
                              "--precision", args.precision, "--out", str(path)])
            if code == EXIT_REGIME:
                print(f"skipped {path}")
            elif code != EXIT_OK:
                return code
            else:
                print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
