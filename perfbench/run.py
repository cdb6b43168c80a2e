"""Run one benchmark workload and print its metrics; see README.md here.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload release-fourier --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys

from common import (
    BenchError,
    IdleSpinners,
    emit,
    import_program,
    make_work_dir,
    remove_work_dir,
)

WORKLOADS = ("release-fourier", "release-wide", "serve-point", "serve-batch")
#: Workloads measured beside :class:`IdleSpinners`: those whose threads
#: wake each other often, where the loops kept host load out of the figures
#: and cost nothing measurable (release-wide) or a known share (serving).
#: release-fourier runs one thread; beside the loops its kernel only got
#: slower and less steady.
SPINNING = ("release-wide", "serve-point", "serve-batch")


def _terminate(signum, _frame) -> None:
    # Turn SIGTERM into SystemExit so every ``finally`` runs and the server
    # subprocess is stopped on this exit path too.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    signal.signal(signal.SIGTERM, _terminate)
    try:
        import_program()
    except (BenchError, ImportError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    work = make_work_dir()
    try:
        spinners = IdleSpinners() if args.workload in SPINNING else contextlib.nullcontext()
        with spinners:
            if args.workload.startswith("serve-"):
                import serve

                phase = args.workload[len("serve-"):]
                outcome = serve.run(phase, args.seed, args.seconds, bool(args.trace), work)
            else:
                import release

                outcome = release.run(
                    args.workload, args.seed, args.seconds, bool(args.trace), work
                )
    finally:
        remove_work_dir(work)
    emit(args.workload, outcome)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
