"""Helpers for the tests that start, kill and watch processes (they read /proc, so Linux only)."""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import planepart


def package_env():
    """``os.environ`` with the planepart that the tests import, and these helpers, on ``PYTHONPATH``."""
    paths = [str(Path(planepart.__file__).parent.parent), str(Path(__file__).parent)]
    return {**os.environ, "PYTHONPATH": os.pathsep.join([*paths, os.environ.get("PYTHONPATH", "")])}


def running(pid):
    """Whether ``pid`` is a process that has not ended (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def ended_within(pids, seconds):
    """Whether every one of ``pids`` has ended (see ``running``) within ``seconds``."""
    deadline = time.monotonic() + seconds
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.01)
    return not any(map(running, pids))


def kill_running(pids):
    """SIGKILL those of ``pids`` still running, so a failed test leaves none behind."""
    for pid in pids:
        if running(pid):
            os.kill(pid, signal.SIGKILL)


def read_pids(path, seconds=60):
    """The pids written to ``path`` once it exists (the writer renames it into place)."""
    deadline = time.monotonic() + seconds
    while not path.exists():
        assert time.monotonic() < deadline, f"{path} was not written"
        time.sleep(0.01)
    return [int(pid) for pid in path.read_text().split()]


def write_pids(path, *pids):
    """Write ``pids`` to ``path`` whole, for ``read_pids``."""
    tmp = f"{path}.tmp"
    Path(tmp).write_text(" ".join(map(str, pids)))
    os.replace(tmp, path)


@contextlib.contextmanager
def session(code, *args):
    """A ``python -c code args...`` process in a session of its own, for a ``with`` block.

    Leaving the block SIGKILLs the session's process group and reaps the process.
    """
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *args], env=package_env(), start_new_session=True
    )
    try:
        yield proc
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
