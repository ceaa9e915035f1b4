"""Traced child for the cli_cold workload: install the span wrappers, then run
``geojsd.cli.main``, and write the spans out when it returns.

Usage: python bench/cli_child.py SPANS_FILE SPAWN_TIME -- GEOJSD_ARGS...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process.  On Linux perf_counter reads CLOCK_MONOTONIC, which all
processes share, so the difference is the interpreter's start-up time.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402


def main() -> int:
    spans_path, spawned, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS_FILE SPAWN_TIME -- ARGS...")
    begin = time.perf_counter()
    import geojsd.cli
    import_s = time.perf_counter() - begin

    # After the timed import, so that the modules tracing needs and geojsd
    # shares are not counted out of import_s.
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = geojsd.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        header = {"argv": argv, "exit": code, "import_s": import_s,
                  "interpreter_s": STARTED - float(spawned)}
        tracer.dump(spans_path, header)
    return code


if __name__ == "__main__":
    sys.exit(main())
