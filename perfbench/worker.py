"""Child process that runs benchmark queries through the tanglekit CLI.

Started by `run.py`, one fresh process per workload run.  It imports the
package from the checkout's `src/`, loads the corpus (and with
`--warm-quotient` the 600-element braid quotient), then prints one
`ready` line.  With `--spans` the tracer is installed before that
set-up, whose spans carry no query id.  After that it reads one JSON query per line from stdin,
runs `tanglekit.cli.main(argv)` in-process with the query's text as
stdin, and answers with one JSON line holding the exit code, the
captured output and the latency (perf_counter around the call).  A
`{"finish": true}` line ends the process; its answer carries the peak
resident memory and, when traced, the number of spans written.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def backends() -> dict:
    from tanglekit import _enumpy, presentation

    jones = sys.modules["tanglekit.jones"]  # the package's `jones` is the function
    return {
        "enum_backend": presentation.kernel_backend(),
        "bracket_backend": "pure" if jones._kernel is _enumpy else "compiled",
    }


def run_query(cli, msg: dict) -> dict:
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(msg.get("stdin") or "")
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        rc = cli.main(msg["argv"])
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = -1
        sys.stderr.write(traceback.format_exc())
    latency = perf_counter() - t0
    out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
    sys.stdin, sys.stdout, sys.stderr = saved
    return {"rc": rc, "stdout": out, "stderr": err[-2000:], "s": latency}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--warm-quotient", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="trace queries and write spans to this file")
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import tanglekit
    from tanglekit import cli

    if not Path(tanglekit.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"tanglekit imported from {tanglekit.__file__}, not src/")
    tracer = None
    if args.spans:  # before the warm-up, so that its spans show set-up work
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    tanglekit.corpus()
    if args.warm_quotient:
        tanglekit.coxeter_quotient()

    reply = os.fdopen(os.dup(sys.stdout.fileno()), "w")

    def send(obj):
        reply.write(json.dumps(obj) + "\n")
        reply.flush()

    send({"ready": True, **backends()})
    if args.setup_only:
        return 0
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("finish"):
            break
        if tracer is None:
            send(run_query(cli, msg))
        else:
            tracer.query = msg["id"]
            send(tracer.span("query", run_query, cli, msg))
            tracer.query = None
    if tracer is not None:
        tracer.write(args.spans)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    send({"peak_rss_kb": peak_kb, "spans": len(tracer.spans) if tracer else 0})
    return 0


if __name__ == "__main__":
    sys.exit(main())
