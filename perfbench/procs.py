"""Child-process helpers: spawn with output to a file, reap with rusage.

Every child writes stdout and stderr to a file, never to a pipe: an
undrained pipe fills up and blocks the child. Every wait is bounded; a
child that outlives its bound is killed and reported as timed out.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import List, Optional


@dataclass
class Exit:
    """How a child ended, as seen from the benchmark."""

    code: Optional[int]
    start: float
    wall_s: float
    peak_rss_mb: float
    timed_out: bool

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.timed_out


class Child:
    """One child process, timed from spawn to reap.

    A waiter thread blocks in ``wait4`` from the start, so the exit
    time and resource usage are taken the moment the child ends and
    :meth:`reap` may be called more than once.
    """

    def __init__(self, argv: List[str], env: dict, cwd: str, log_path: str):
        self.log = open(log_path, "wb")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        # An Event, not Thread.join: a join interrupted by a signal can
        # leave the thread looking finished while it still runs.
        self._exited = threading.Event()
        threading.Thread(target=self._wait, daemon=True).start()

    def _wait(self) -> None:
        _, status, usage = os.wait4(self.proc.pid, 0)
        self._end, self._status, self._usage = time.perf_counter(), status, usage
        self._exited.set()

    def running(self) -> bool:
        return not self._exited.is_set()

    def signal(self, signum: int) -> None:
        # Not Popen.send_signal: its poll() could reap the child before
        # the waiter does. While the waiter runs the pid is still ours.
        if self.running():
            os.kill(self.proc.pid, signum)

    def reap(self, timeout_s: float) -> Exit:
        """Wait up to ``timeout_s``; kill a child that is still running."""
        timed_out = not self._exited.wait(timeout_s)
        if timed_out:
            self.signal(signal.SIGKILL)
            self._exited.wait()
        code = os.waitstatus_to_exitcode(self._status)
        self.proc.returncode = code
        self.log.close()
        return Exit(
            code=None if timed_out else code,
            start=self.start,
            wall_s=self._end - self.start,
            peak_rss_mb=self._usage.ru_maxrss / 1024.0,
            timed_out=timed_out,
        )
