"""Child process of the benchmark: import the CLI, stamp the time, run it.

    python3 perfbench/launcher.py FD [--trace PATH] [--import-only] -- CLI-ARGS...

The launcher imports ``spinverlinde.cli`` from the checkout's ``src``
directory, then writes one JSON line to the inherited file descriptor FD:
the CLOCK_MONOTONIC time in nanoseconds at which the import finished, the
process's thread count and the versions the run depends on.  It then calls
``spinverlinde.cli.main(CLI-ARGS)`` and exits with its return code.

With ``--trace PATH`` the public functions of every spinverlinde module are
wrapped (see ``spans.py``) around the call to ``main``, unwrapped after it,
and the spans are written to PATH.  With ``--import-only`` ``main`` is not
called; the harness runs that form under ``python -X importtime``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _thread_count() -> int | None:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main(argv: list[str]) -> int:
    fd = int(argv[0])
    split = argv.index("--")
    options, cli_args = argv[1:split], argv[split + 1 :]
    if "--jobs" in cli_args:
        raise SystemExit("launcher: the benchmark passes no --jobs to the CLI")

    sys.path.insert(0, str(SRC))
    import spinverlinde.cli

    imported_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    if Path(spinverlinde.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"launcher: imported {spinverlinde.cli.__file__}, not the checkout's src")
    mpmath = sys.modules.get("mpmath")
    numpy = sys.modules.get("numpy")
    record = {
        "imported_ns": imported_ns,
        "threads": _thread_count(),
        "numpy": getattr(numpy, "__version__", None),
        "mpmath": getattr(mpmath, "__version__", None),
        "mpmath_backend": getattr(getattr(mpmath, "libmp", None), "BACKEND", None),
    }
    with os.fdopen(fd, "w") as stamp:
        stamp.write(json.dumps(record) + "\n")

    if "--import-only" in options:
        return 0
    if "--trace" not in options:
        return spinverlinde.cli.main(cli_args)

    import spans  # the launcher's own directory is first on sys.path

    tracer = spans.Tracer()
    traced_main = tracer.wrap(spinverlinde.cli.main, "cli.main", "cli")
    tracer.install()
    try:
        status = traced_main(cli_args)
    except SystemExit as exc:
        status = exc.code
    finally:
        tracer.remove()
    left = spans.leftover_wrappers()
    if left:
        raise SystemExit(f"launcher: {left} traced wrappers left after the run")
    sys.stdout.flush()
    tracer.write(options[options.index("--trace") + 1])
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
