"""Run one ridge-relay command in this process, traced or not.

    python perfbench/driver.py [--trace-out FILE] -- ARGS...

``ARGS`` are what ``ridge-relay`` takes on its command line. Untraced, this
imports ``ridge_relay.cli_io`` and calls ``main(ARGS)``, as the installed
``ridge-relay`` script does. Traced, it wraps the package's public
functions first (``spantrace.install``), and at exit writes the spans,
counters and the import time to ``FILE`` as one JSON document. Both modes
share this process model, so the difference in wall time between them is
the tracing overhead.
"""

import sys
import time

_STARTED = time.perf_counter_ns()


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    import_start = time.perf_counter_ns()
    from ridge_relay import cli_io
    imported = time.perf_counter_ns()
    if trace_out is None:
        return cli_io.main(argv)

    import spantrace

    rec = spantrace.Recorder()
    spantrace.install(rec)
    code = 1
    try:
        code = cli_io.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        rec.dump(trace_out, {
            "process": [_STARTED, time.perf_counter_ns()],
            "import_ns": imported - import_start,
        })
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
