"""Run one ``rislab`` command in this fresh interpreter and report on it.

    python3 bench/child.py REPORT.json TRACE -- CLI-ARGS...

This does what the ``rislab`` console script does (import ``rislab.cli``
and call ``main``), and also writes REPORT.json with the moment the
import finished (``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so the parent can subtract its spawn time),
the in-process duration of ``main``, its exit code, where ``rislab`` was
imported from and, with TRACE = 1, the spans recorded by
:class:`tracer.Tracer`.  The exit code is that of ``main``.
"""

import json
import sys
import time


def main() -> int:
    report_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py REPORT.json TRACE -- CLI-ARGS...")
    import rislab.cli

    imported = time.perf_counter()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        rc = rislab.cli.main(sys.argv[4:])
    except SystemExit as exc:  # argparse: --version, usage errors
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        if tracer is not None:
            tracer.uninstall()
    main_s = time.perf_counter() - start
    report = {
        "imported": imported,
        "main_s": main_s,
        "rc": rc,
        "rislab_file": rislab.cli.__file__,
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
