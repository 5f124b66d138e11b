"""Importing the package, the CLI and the daemon does not load scipy.

scipy is the slowest import in the dependency set and only the
correlation metrics and the optional capacity-curve refit use it, so
they import it themselves. A fresh interpreter is the only clean way
to observe ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

PROBE = (
    "import sys, repro, repro.cli, repro.serve; "
    "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))"
)


def test_entry_points_do_not_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.split() == []
