"""Run one decint CLI invocation in this process and record its timings.

Usage: python3 perfbench/probe.py SIDECAR TRACE CLI_ARGS...

Always records the monotonic time of the first call into the executor and
the process's peak RSS in ``SIDECAR.json``. With TRACE=1 it also installs
the span tracer and dumps the spans next to SIDECAR. The CLI's exit code
becomes this process's exit code. ``src`` must be on PYTHONPATH.
"""

from __future__ import annotations

import json
import pathlib
import resource
import sys

from tracer import ROOT_SPAN, FirstCall, Tracer


def main() -> int:
    sidecar = pathlib.Path(sys.argv[1])
    traced = sys.argv[2] == "1"
    cli_args = sys.argv[3:]

    from decint import circuit, cli, css, e2e, interface, noise, scheduler, tableau

    modules = {
        "circuit": circuit, "cli": cli, "css": css, "e2e": e2e, "interface": interface,
        "noise": noise, "scheduler": scheduler, "tableau": tableau,
    }
    first = FirstCall()
    first.install(modules)
    entry = cli.main
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(modules)
        entry = tracer.wrap(cli.main, ROOT_SPAN)
    code = entry(cli_args)
    if tracer is not None:
        tracer.dump(sidecar)
    record = {
        "first_exec": first.at,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(sidecar.with_suffix(".json"), "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
