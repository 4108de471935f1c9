"""Two ways to run one clinch operation.

`ProcessRunner` runs the `clinch` command as its users do: one process per
operation, started the way the console script starts it, one at a time.
`InProcessRunner` calls `clinch.cli.main(argv)` with stdin and stdout
redirected, for the traced run.
"""
from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

# What the `clinch` console script that `pip install` generates runs, plus an
# exit hook that reports the process's own peak resident memory (VmHWM) on
# stderr.  getrusage cannot give that figure: a child that Python starts
# with vfork or fork takes over its parent's high-water mark at exec, so it
# would report the benchmark's own peak.
PEAK_TAG = "perfbench-peak-rss-kb"
ENTRY = f"""\
import atexit, sys
def _report_peak():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                sys.stderr.write("\\n{PEAK_TAG} " + line.split()[1] + "\\n")
atexit.register(_report_peak)
from clinch.cli import main
sys.exit(main())
"""
TIMEOUT_S = 150.0


@dataclass
class Op:
    """One `clinch` invocation and the check its output must pass.

    With `increments` set, the op is a `clinch stream` session: the runner
    writes one increment line at a time and times each reply.
    """

    argv: list[str]
    check: object  # callable: stdout text -> list of error messages
    increments: list[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        """Operations it stands for: the increments of a session, else 1."""
        return len(self.increments) or 1


@dataclass
class Result:
    rc: int
    out: str
    wall: float
    latencies: list[float]  # one per operation
    stderr: str = ""
    peak_kb: int = 0        # the process's peak resident memory, when known

    @property
    def answered(self) -> int:
        return len(self.latencies)


def _result(rc: int, out: bytes, wall: float, latencies: list[float], err: bytes) -> Result:
    """A process's result, with the peak-memory line taken out of stderr."""
    lines, peak = [], 0
    for line in err.decode().splitlines():
        if line.startswith(PEAK_TAG):
            peak = int(line.split()[1])
        else:
            lines.append(line)
    return Result(rc, out.decode(), wall, latencies, "\n".join(lines), peak)


class ProcessRunner:
    def __init__(self, src_dir: str):
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.cmd = [sys.executable, "-c", ENTRY]

    def _spawn(self, op: Op) -> subprocess.Popen:
        return subprocess.Popen(self.cmd + op.argv,
                                stdin=subprocess.PIPE if op.increments else subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env)

    def run(self, op: Op) -> Result:
        if op.increments:
            return self._session(op)
        t0 = time.perf_counter()
        proc = self._spawn(op)
        try:
            out, err = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        wall = time.perf_counter() - t0
        return _result(proc.returncode, out, wall, [wall], err)

    def _session(self, op: Op) -> Result:
        """Closed loop: each increment is written only after the previous
        reply has been read."""
        replies, lat = [], []
        t0 = time.perf_counter()
        proc = self._spawn(op)
        try:
            for line in op.increments:
                t = time.perf_counter()
                proc.stdin.write(line.encode())
                proc.stdin.flush()
                reply = proc.stdout.readline()
                if not reply:
                    break
                lat.append(time.perf_counter() - t)
                replies.append(reply)
        except BrokenPipeError:
            pass
        rest, err = _drain(proc)
        wall = time.perf_counter() - t0
        return _result(proc.returncode, b"".join(replies) + rest, wall, lat, err)

    def first_output(self, op: Op) -> tuple[float, Result]:
        """Seconds from spawning to the first output line, and the result.

        A session gets its first increment only.
        """
        t0 = time.perf_counter()
        proc = self._spawn(op)
        try:
            if op.increments:
                proc.stdin.write(op.increments[0].encode())
                proc.stdin.flush()
        except BrokenPipeError:
            pass
        first = proc.stdout.readline()
        dt = time.perf_counter() - t0
        rest, err = _drain(proc)
        wall = time.perf_counter() - t0
        return dt, _result(proc.returncode, first + rest, wall, [wall], err)


def _drain(proc: subprocess.Popen) -> tuple[bytes, bytes]:
    """Close stdin, read what is left of stdout and stderr, and reap.

    Reads through the same buffered pipes as `readline` did, so nothing
    already buffered is lost; a child still running after TIMEOUT_S is killed.
    """
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    try:
        if proc.stdin:
            try:
                proc.stdin.close()
            except BrokenPipeError:
                pass
        out, err = proc.stdout.read(), proc.stderr.read()
        proc.wait()
    finally:
        timer.cancel()
    return out, err


class InProcessRunner:
    """Runs `clinch.cli.main` in this interpreter; `main` may be wrapped."""

    def __init__(self, main):
        self.main = main

    def run(self, op: Op) -> Result:
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO("".join(op.increments))
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        finally:
            sys.stdin = saved
        wall = time.perf_counter() - t0
        text = out.getvalue()
        answered = text.count("\n") if op.increments else 1
        return Result(rc, text, wall, [wall / max(answered, 1)] * answered,
                      err.getvalue())
