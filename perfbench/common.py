"""Shared plumbing of the benchmark: imports, statistics, fingerprint, output.

Every workload module returns a :class:`Outcome`; :func:`emit` prints a
human-readable table, the machine fingerprint line and, last, the one-line
JSON result the benchmark contract asks for.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs in: the parent of this directory.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores and release directories, removed after a run.
WORK_ROOT = ROOT / ".perfbench-work"

#: Set-up is repeated at least this many times per run, and for at least
#: :data:`SETUP_MIN_S` seconds, so that cheap set-ups span more than one
#: swing of the host's speed; ``setup_s`` is the median.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed set-up)."""


def import_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and import ``repro``.

    Refuses an installed ``repro`` from elsewhere: the benchmark measures
    the program in this checkout or nothing.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")


def make_work_dir() -> Path:
    path = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only when no concurrent run still uses it
    except OSError:
        pass


# --------------------------------------------------------------- processes

#: Prelude of every child process the benchmark starts: the kernel signals
#: the child when the benchmark dies (``PR_SET_PDEATHSIG``), so not even a
#: SIGKILLed benchmark leaves a process behind to skew later runs.
CHILD_PRELUDE = (
    "import ctypes, os, signal, sys\n"
    "try:\n"
    "    ctypes.CDLL(None).prctl(1, signal.SIGTERM)\n"
    "except (OSError, AttributeError):\n"
    "    pass\n"
    "if os.getppid() != int(os.environ['PERFBENCH_PARENT']):\n"
    "    sys.exit(3)\n"
)


def child_env() -> Dict[str, str]:
    """Environment for children: the checkout's program first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PERFBENCH_PARENT"] = str(os.getpid())
    return env


class IdleSpinners:
    """One lowest-priority (``SCHED_IDLE``) busy loop per core.

    On a virtual machine a vCPU that goes idle is halted, and waking it
    again waits on the hypervisor for as long as the host's other guests
    make it wait; the wait counts as steal time.  A ``SCHED_IDLE`` loop
    keeps the vCPUs from halting and yields to any runnable thread of the
    program, so the figures leave out the hypervisor's wake-up latency.
    The program's own thread hand-offs (futex wake-ups, context switches)
    stay in them.  See the README for the runs that chose the workloads
    that use these loops.
    """

    _LOOP = CHILD_PRELUDE + (
        "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
        "while True:\n"
        "    pass\n"
    )

    def __init__(self) -> None:
        self._processes: List[subprocess.Popen] = []

    def __enter__(self) -> "IdleSpinners":
        for _ in range(os.cpu_count() or 1):
            self._processes.append(
                subprocess.Popen(
                    [sys.executable, "-c", self._LOOP],
                    env=child_env(),
                    stdin=subprocess.DEVNULL,
                )
            )
        return self

    def __exit__(self, *exc_info: object) -> None:
        for process in self._processes:
            process.kill()
        for process in self._processes:
            process.wait()
        self._processes.clear()


# --------------------------------------------------------------------- stats


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default) of raw samples.

    Failed operations enter as ``inf`` so they miss every latency limit.
    """
    if not samples:
        raise BenchError("no samples to summarise")
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    if ordered[high] == math.inf:
        return ordered[high] if position > low else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(samples: Sequence[float]) -> float:
    return quantile(samples, 0.5)


def repeat_setup(setup: Callable[[int], float]) -> List[float]:
    """Call ``setup(position)`` as :data:`SETUP_REPEATS` and
    :data:`SETUP_MIN_S` ask; returns the seconds each call reported."""
    seconds: List[float] = []
    stop_at = time.perf_counter() + SETUP_MIN_S
    while len(seconds) < SETUP_REPEATS or time.perf_counter() < stop_at:
        seconds.append(setup(len(seconds)))
    return seconds


def timed_loop(
    seconds: float,
    op: Callable[[], bool],
    after: Optional[Callable[[], None]] = None,
) -> Tuple[List[float], int, float]:
    """Run ``op`` back to back for ``seconds``; a closed loop of one client.

    ``op`` returns whether its output checked out; ``after`` runs untimed
    after each op.  Returns the per-op wall times (``inf`` for a failed op),
    the failure count and the wall time spent inside ops.
    """
    samples: List[float] = []
    failed = 0
    busy = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        if began >= deadline and samples:
            break
        try:
            ok = op()
        except Exception as error:  # noqa: BLE001 - a failed op, not a crash
            print(f"op failed: {type(error).__name__}: {error}", file=sys.stderr)
            ok = False
        elapsed = time.perf_counter() - began
        busy += elapsed
        if ok:
            samples.append(elapsed)
        else:
            failed += 1
            samples.append(math.inf)
        if after is not None:
            after()
    return samples, failed, busy


# ------------------------------------------------------------------- machine


def cpu_times() -> Tuple[int, int]:
    """``(steal, total)`` jiffies of the aggregate ``cpu`` line of /proc/stat."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()[1:]
    except OSError:
        return 0, 0
    values = [int(value) for value in fields]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already counted inside user/nice
    return steal, sum(values[:8])


def peak_rss_mib(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    status = Path(f"/proc/{pid or 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {status}")


def fingerprint(steal_window: Tuple[Tuple[int, int], Tuple[int, int]]) -> Dict[str, object]:
    """What the numbers depend on: cores, interpreter, numeric stack, steal."""
    import numpy
    import scipy

    (steal0, total0), (steal1, total1) = steal_window
    total = total1 - total0
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "steal_share": (steal1 - steal0) / total if total > 0 else 0.0,
    }


# -------------------------------------------------------------------- output


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    steal_window: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None

    def metric(self, name: str, value: float, unit: str, samples: int = 0) -> None:
        self.metrics[name] = (float(value), unit)
        if samples:
            self.samples[name] = samples

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0 and all(self.checks.values())


def emit(workload: str, outcome: Outcome) -> None:
    """Print the report; the last line is the JSON result."""
    print(f"workload {workload}: {outcome.attempted} ops checked, {outcome.failed} failed")
    for name, ok in outcome.checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for name, (value, unit) in outcome.metrics.items():
        count = outcome.samples.get(name)
        suffix = f"  (n={count})" if count else ""
        print(f"  {name:<32} {value:>14.6g} {unit}{suffix}")
    window = outcome.steal_window or (cpu_times(), cpu_times())
    print("fingerprint " + json.dumps(fingerprint(window), sort_keys=True))
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
