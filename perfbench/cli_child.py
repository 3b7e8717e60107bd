"""Run one reclens CLI command and report what it cost this process.

    python3 perfbench/cli_child.py REPORT.jsonl {0,1} -- <reclens arguments>

Imports ``reclens.cli`` (timing the import), runs ``main`` and, when the
command ends, writes REPORT.jsonl: a first line ``{"meta": {"import_s",
"hwm_mb"}}`` and, if the second argument is 1, one line per traced span.
``hwm_mb`` is the process's own peak RSS (``VmHWM``).  The peak that
``wait4`` reports for a child also counts the parent's peak, inherited at
``exec``, so the benchmark reads it from here instead.  The exit code is
the command's.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """This process's own peak RSS since exec, in MB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    out, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: cli_child.py REPORT.jsonl {0,1} -- <reclens arguments>")
    t0 = time.perf_counter()
    import reclens.cli
    import_s = time.perf_counter() - t0

    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    code = 1
    try:
        code = reclens.cli.main(argv)
    finally:
        from spans import write_spans

        write_spans(Path(out), tracer.spans if tracer else [],
                    {"import_s": import_s, "hwm_mb": peak_rss_mb()})
    return code


if __name__ == "__main__":
    sys.exit(main())
