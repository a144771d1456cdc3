"""Run one ``alleetanner`` command in this interpreter and report on it.

    python3 child.py REPORT MODE CLI-ARGS...

Writes to REPORT a JSON object with the command's exit code, the monotonic
time of its first numerical call (where set-up ends), its peak resident
memory and, in MODE ``trace``, the per-layer trace.  MODE ``setup`` ends the
process at the first numerical call, to time set-up alone; MODE ``run``
runs the command untraced.  The library is not edited: the probe and the
tracer rebind names from outside it.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from alleetanner import cli

    first_call = []

    def probe(fn):
        def wrapper(*args, **kwargs):
            if not first_call:
                first_call.append(time.monotonic())
                if mode == "setup":
                    with open(report_path, "w") as fh:
                        json.dump({"rc": 0, "first_call": first_call[0]}, fh)
                    os._exit(0)
            return fn(*args, **kwargs)
        return wrapper

    cli.compute_basins = probe(cli.compute_basins)
    cli.compute_diagram = probe(cli.compute_diagram)

    tracer = finish = None
    if mode == "trace":
        from tracing import Tracer, install
        tracer = Tracer()
        finish = install(tracer)
    rc = cli.main(argv)
    report = {"rc": rc, "first_call": first_call[0] if first_call else None,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        finish()
        report["trace"] = tracer.report()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
