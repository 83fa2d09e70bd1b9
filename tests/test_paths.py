"""Differential test across output paths: one quantity prints the same cell
text in every table that carries it.

For an atom, a field F, a --precision and maybe a drive wavelength, the one-
point `geometry` and `times` records, the one-point sweep dump, each figure
table that admits F and `compare --residuals`' model_as column for each
estimator must agree on every column they share.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from attoclock.atom import AtomModel, catalog_lookup
from attoclock.barrier import atomic_field_strength
from attoclock.cli import main
from attoclock.clocks import ESTIMATORS

# The name one column takes in a table that calls it something else.
ALIASES = {"d_b_au": "barrier_width_au"}


def run(argv):
    """stdout's data lines (no '#' metadata) of one invocation, or None when
    it printed nothing."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")     # compare's skipped records
        main(argv)
    lines = [line for line in out.getvalue().splitlines() if not line.startswith("#")]
    return lines or None


def cells(lines):
    """Each header line's columns mapped to the next line's cells."""
    table = {}
    for header, row in zip(lines[::2], lines[1::2]):
        table.update(zip(header.split(","), row.split(",")))
    return {ALIASES.get(name, name): cell for name, cell in table.items()}


@st.composite
def cases(draw):
    if draw(st.booleans()):
        atom = catalog_lookup(draw(st.sampled_from(("He:clementi", "He:kullie"))))
    else:
        atom = AtomModel("X", draw(st.floats(0.3, 2.5)), draw(st.floats(0.6, 2.5)))
    fa = atomic_field_strength(atom)
    f = draw(st.one_of(st.just(fa), st.floats(-3.0, 1.0).map(lambda e: fa * 10.0 ** e)))
    wavelength = draw(st.one_of(st.none(), st.floats(200.0, 4000.0)))
    return atom, f, draw(st.integers(1, 17)), wavelength


@settings(max_examples=60, deadline=None)
@given(cases())
@example((catalog_lookup("He:clementi"), 0.06, 17, 800.0))
@example((catalog_lookup("He:clementi"), atomic_field_strength(catalog_lookup("He:clementi")),
          6, None))
@example((catalog_lookup("He:kullie"), 0.2, 9, None))
def test_each_column_prints_the_same_on_every_path(case):
    atom, f, precision, wavelength = case
    atom_args = ["--ip", repr(atom.ip), "--z-eff", repr(atom.z_eff)]
    common = [*atom_args, "--precision", str(precision)]
    drive = [] if wavelength is None else ["--wavelength", repr(wavelength)]
    outputs = {
        "geometry": run(["geometry", *common, "--field", repr(f)]),
        "times": run(["times", *common, "--field", repr(f), *drive]),
        "dump": run(["sweep", *common, "--grid", repr(f), *drive]),
    }
    for figure in ("fig2", "fig3", "fig4"):
        outputs[figure] = run(["sweep", *common, "--grid", repr(f), "--figure", figure])
    with tempfile.TemporaryDirectory() as directory:
        data = Path(directory) / "m.csv"
        data.write_text(f"field_au,time_as,err_as\n{f!r},0,0\n", encoding="utf-8")
        for estimator in ESTIMATORS:
            lines = run(["compare", *common, "--estimator", estimator, "--residuals",
                         str(data)])
            if lines is not None:
                model = cells(lines[2:])["model_as"]
                outputs[f"compare {estimator}"] = [f"{estimator}_as", model]
    seen = {}
    for path, lines in outputs.items():
        for name, cell in cells(lines or []).items():
            seen.setdefault(name, {})[path] = cell
    assert outputs["times"] is not None and outputs["dump"] is not None
    for name, by_path in seen.items():
        assert len(set(by_path.values())) == 1, (name, by_path)
