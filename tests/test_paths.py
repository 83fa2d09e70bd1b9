"""Differential test across output paths: one quantity prints the same cell
text in every table that carries it.

For an atom, a field F, a --precision, maybe a drive wavelength and a --format,
the one-point `geometry` and `times` records, the one-point sweep dump, each
figure table that admits F and `compare --residuals`' model_as column for each
estimator must agree on every column they share: the same CSV cell text, or the
same JSON value.
"""

import contextlib
import io
import json
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


def run(argv, fmt):
    """Each column one invocation prints mapped to its one cell, or None when it
    printed nothing. In CSV, each header line's columns map to the next line's
    cells ('#' metadata aside); in JSON, the record's or the rows' keys to their
    values, each number as its text (a figure's meta aside)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")     # compare's skipped records
        main([*argv, "--format", fmt])
    if not out.getvalue():
        return None
    table = {}
    if fmt == "json":
        doc = json.loads(out.getvalue(), parse_float=str)
        for row in doc if isinstance(doc, list) else doc.get("rows", [doc]):
            table.update(row)
    else:
        lines = [line for line in out.getvalue().splitlines() if not line.startswith("#")]
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
    return atom, f, draw(st.integers(1, 17)), wavelength, draw(st.sampled_from(("csv", "json")))


@settings(max_examples=60, deadline=None)
@given(cases())
@example((catalog_lookup("He:clementi"), 0.06, 17, 800.0, "csv"))
@example((catalog_lookup("He:clementi"), 0.06, 6, 800.0, "json"))
@example((catalog_lookup("He:clementi"), atomic_field_strength(catalog_lookup("He:clementi")),
          6, None, "csv"))
@example((catalog_lookup("He:clementi"), atomic_field_strength(catalog_lookup("He:clementi")),
          6, None, "json"))
@example((catalog_lookup("He:kullie"), 0.2, 9, None, "csv"))
@example((catalog_lookup("He:kullie"), 0.2, 9, None, "json"))
def test_each_column_prints_the_same_on_every_path(case):
    atom, f, precision, wavelength, fmt = case
    atom_args = ["--ip", repr(atom.ip), "--z-eff", repr(atom.z_eff)]
    common = [*atom_args, "--precision", str(precision)]
    drive = [] if wavelength is None else ["--wavelength", repr(wavelength)]
    outputs = {
        "geometry": run(["geometry", *common, "--field", repr(f)], fmt),
        "times": run(["times", *common, "--field", repr(f), *drive], fmt),
        "dump": run(["sweep", *common, "--grid", repr(f), *drive], fmt),
    }
    for figure in ("fig2", "fig3", "fig4"):
        outputs[figure] = run(["sweep", *common, "--grid", repr(f), "--figure", figure], fmt)
    with tempfile.TemporaryDirectory() as directory:
        data = Path(directory) / "m.csv"
        data.write_text(f"field_au,time_as,err_as\n{f!r},0,0\n", encoding="utf-8")
        for estimator in ESTIMATORS:
            table = run(["compare", *common, "--estimator", estimator, "--residuals",
                         str(data)], fmt)
            if table is not None:
                outputs[f"compare {estimator}"] = {f"{estimator}_as": table["model_as"]}
    seen = {}
    for path, table in outputs.items():
        for name, cell in (table or {}).items():
            seen.setdefault(name, {})[path] = cell
    assert outputs["times"] is not None and outputs["dump"] is not None
    for name, by_path in seen.items():
        assert len(set(by_path.values())) == 1, (name, by_path)
