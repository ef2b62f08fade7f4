"""The CLI's import path needs numpy only.

``scipy`` and ``networkx`` are test-time references; importing the CLI
must load neither, so a numpy-only install can run every command.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

PROBE = (
    "import sys, repro.cli; "
    "roots = {name.split('.')[0] for name in sys.modules}; "
    "print(' '.join(sorted(roots & {'scipy', 'networkx'})))"
)


def test_cli_import_loads_no_heavy_dependency():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert completed.stdout.split() == []
