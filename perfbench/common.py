"""Shared helpers: locating the program, statistics, host record and
child-process bookkeeping."""

from __future__ import annotations

import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK = HERE / ".work"


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's source tree."""


def require_program() -> None:
    """Fail unless ``src/repro`` and the golden renders are present."""
    missing = [
        str(path.relative_to(ROOT))
        for path in (SRC / "repro" / "__init__.py", GOLDEN)
        if not path.exists()
    ]
    if missing:
        raise MissingProgram(
            "program source not found (missing: " + ", ".join(missing) + ")"
        )


def program_env(**extra: str) -> dict[str, str]:
    """Environment for a subprocess that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_TELEMETRY", None)
    env.pop("REPRO_FAULTS", None)
    env.update(extra)
    return env


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def self_maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_info() -> dict[str, object]:
    """What a committed result needs to be read on its own."""
    cpu = "?"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "platform": platform.platform(),
    }


def run_child(args: list[str], env: dict[str, str], timeout: float) -> dict:
    """Run ``python <args>`` and parse the JSON of its last stdout line."""
    completed = subprocess.run(
        [sys.executable, *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"child {' '.join(args)} exited {completed.returncode}: "
            + completed.stderr.strip()[-2000:]
        )
    return json.loads(lines[-1])


class Reaped:
    """Exit record of one child reaped with ``os.wait4``."""

    def __init__(self, code: int, at: float, maxrss_mb: float) -> None:
        self.code = code
        self.at = at
        self.maxrss_mb = maxrss_mb


def try_reap(process: subprocess.Popen) -> Reaped | None:
    """Reap ``process`` if it has exited, keeping its resource usage
    (``Popen.wait`` discards it).  Non-blocking."""
    if process.returncode is not None:
        return getattr(process, "reaped", None)
    pid, status, usage = os.wait4(process.pid, os.WNOHANG)
    if pid == 0:
        return None
    process.returncode = os.waitstatus_to_exitcode(status)
    process.reaped = Reaped(
        process.returncode, time.perf_counter(), usage.ru_maxrss / 1024.0
    )
    return process.reaped


def stop(process: subprocess.Popen, grace: float = 5.0) -> Reaped:
    """Terminate ``process`` (SIGTERM, then SIGKILL) and reap it."""
    reaped = try_reap(process)
    if reaped is not None:
        return reaped
    process.terminate()
    deadline = time.perf_counter() + grace
    while time.perf_counter() < deadline:
        reaped = try_reap(process)
        if reaped is not None:
            return reaped
        time.sleep(0.01)
    process.kill()
    while True:
        reaped = try_reap(process)
        if reaped is not None:
            return reaped
        time.sleep(0.01)

