#!/usr/bin/env python3
"""Regenerate the three figure tables for both built-in He models.

Writes fig2/fig3/fig4 CSVs per effective-charge model into --outdir, plus the
full 21-column sweep dump with the adiabaticity parameter for the 735 nm
drive. Each file is one ``attoclock sweep`` invocation over GRID; any plotting
tool can consume the CSVs directly. For another grid, run ``attoclock sweep``.
"""

import argparse
import sys
from pathlib import Path

from attoclock.cli import EXIT_OK, main as attoclock

# Field strengths in au, all below both catalog values of F_a (0.121 and 0.148).
GRID, WAVELENGTH, PRECISION = "0.02:0.12:0.0025", "735", "9"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="output directory")
    outdir = Path(parser.parse_args(argv).outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for spec in ("He:kullie", "He:clementi"):
        tag = spec.partition(":")[2]
        for name, extra in (("fig2", ["--figure", "fig2"]),
                            ("fig3", ["--figure", "fig3"]),
                            ("fig4", ["--figure", "fig4"]),
                            ("sweep", ["--wavelength", WAVELENGTH])):
            path = outdir / f"{name}_{tag}.csv"
            code = attoclock(["sweep", "--atom", spec, "--grid", GRID, *extra,
                              "--precision", PRECISION, "--out", str(path)])
            if code != EXIT_OK:
                return code
            print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
