"""scripts/reproduce_figures.py writes the same eight CSV files, byte for byte."""

import hashlib
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"

# SHA-256 of each file at the script's grid, wavelength and precision.
DIGESTS = {
    "fig2_clementi.csv": "297f6a99b9c60c9c94d4046354270e3834bb299ddecda65592b0a78469bd7fcc",
    "fig2_kullie.csv": "f5493ec6266fa3c544573027261f762fb3bf6aaafa04d676c7c1b20a5427ae4e",
    "fig3_clementi.csv": "bca31f4edba7fa59c2b56ce6efd1e075c5eac393d355f4e755dff02a659595e2",
    "fig3_kullie.csv": "220f4f5c238b1d8c9652f855828367c5c3af4aeed7a816d8523690d153be57e9",
    "fig4_clementi.csv": "2d4391cdbb08f1c7e00e7b5de36ecc344f90059bb70c56f3b774ef400135dcf8",
    "fig4_kullie.csv": "51f40f6dfe12a4ad603f3fdd9cb797415c8a3b04f77d17fd7fb349f726c8594b",
    "sweep_clementi.csv": "893e66f7dda7439b338dab216d8f7237a57f7a1709a7ffea3e5f35abe4424465",
    "sweep_kullie.csv": "be80c070c3acb5b313098fda8e9aeeae95f3130f3462acebb4b5e493789edc50",
}


def test_default_outputs_are_byte_identical(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("reproduce_figures", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == DIGESTS
