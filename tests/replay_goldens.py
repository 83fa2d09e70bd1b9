"""Replay every golden case through a command that runs the CLI.

Usage: ``python3 tests/replay_goldens.py CMD...``, for example
``python3 tests/replay_goldens.py attoclock`` for the installed console script,
or ``PYTHONPATH=src python3.12 tests/replay_goldens.py python3.12 -m attoclock``.

Each case of ``golden/manifest.json`` runs as CMD followed by its argv. Its exit
code must match, stdout must be its ``.out`` file byte for byte, and stderr must
hold exactly its ``warning:`` lines, then its ``error:`` lines. The standard
library suffices, so interpreters without pytest can run it. pytest does not
collect this file; ``test_golden.py`` replays the same cases in process.
"""

import json
import pathlib
import subprocess
import sys

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def differing_cases(command: list[str]) -> tuple[int, list[str]]:
    """(number of cases, names of the cases whose replay differs)."""
    cases = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    bad = []
    for name, case in cases.items():
        argv = [a.replace("{golden}", str(GOLDEN)) for a in case["argv"]]
        proc = subprocess.run([*command, *argv], capture_output=True)
        stderr = proc.stderr.decode("utf-8").replace(str(GOLDEN), "{golden}")
        expected = [f"warning: {m}" for m in case["warnings"]] + case["errors"]
        if (proc.returncode != case["exit"] or stderr.splitlines() != expected
                or proc.stdout != (GOLDEN / f"{name}.out").read_bytes()):
            bad.append(name)
    return len(cases), bad


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    total, bad = differing_cases(sys.argv[1:])
    if bad:
        sys.exit(f"golden cases differ: {bad}")
    print(f"{total} golden cases match")
