"""Pool workers exit when the process that forked them is killed.

A parent killed with SIGKILL never shuts its executor down, and each
worker keeps the call-queue pipe open for its siblings, so without a
parent watch the workers would block on that pipe forever, reparented
to PID 1.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.parallel import fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)

CHILD = textwrap.dedent(
    """
    import os, signal, sys
    from repro.parallel import WorkerPool

    def square_chunk(items):
        return [x * x for x in items]

    pool = WorkerPool(square_chunk, workers=2)
    assert pool.map(list(range(16))) == [x * x for x in range(16)]
    with open(sys.argv[1], "w") as sink:
        sink.write(" ".join(str(pid) for pid in pool._executor._processes))
    os.kill(os.getpid(), signal.SIGKILL)
    """
)


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs; a zombie counts as gone (its new
    parent, PID 1, may never reap it)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:  # no procfs (not Linux), or it exited just now
        return not Path("/proc/self").exists()
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_workers_exit_after_parent_sigkill(tmp_path):
    pids_file = tmp_path / "pids"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    log = tmp_path / "child.log"
    # Output to a file, not a pipe: orphaned workers would hold a pipe open.
    with log.open("w") as sink:
        code = subprocess.run(
            [sys.executable, "-c", CHILD, str(pids_file)],
            env=env, stdout=sink, stderr=sink, timeout=120,
        ).returncode
    assert code == -signal.SIGKILL, log.read_text()
    pids = [int(p) for p in pids_file.read_text().split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and any(_alive(p) for p in pids):
        time.sleep(0.1)
    survivors = [p for p in pids if _alive(p)]
    for pid in survivors:  # do not leak them into the rest of the run
        os.kill(pid, signal.SIGKILL)
    assert survivors == [], f"workers {survivors} outlived their parent"
