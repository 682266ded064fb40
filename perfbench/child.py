"""Child processes the benchmark starts and stops.

``child.py --store PATH --tokens PATH`` runs one single-process
:class:`~repro.service.server.CarbonService` and prints ``READY <url>``.
It then answers line commands on stdin, one JSON line each on stdout:

* ``trace`` — install the server-side span wrappers (see
  :mod:`tracer`) and reset the collected spans;
* ``mark``  — the dispatcher, engine and store counters right now;
* ``stop``  — drain and close the service, then the span summary (when
  tracing) and the process's peak RSS; then exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counters(service) -> dict:
    dispatcher = service.dispatcher
    return {
        "dispatcher": dispatcher.stats.as_dict(),
        "engine": dispatcher.evaluator.stats.as_dict(),
        "store": {
            key: value for key, value in service.store.stats().items()
            if isinstance(value, int)
        },
    }


def reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def serve(args) -> None:
    from repro.service.server import make_server

    from tracer import CORE_PATCHES, SERVER_PATCHES, Tracer

    service = make_server(store_path=args.store, tokens_path=args.tokens)
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    print("READY", service.url, flush=True)
    tracer = None
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace":
                if tracer is None:
                    tracer = Tracer()
                    tracer.install(SERVER_PATCHES + CORE_PATCHES)
                tracer.reset()
                reply({"ok": True})
            elif command == "mark":
                reply(counters(service))
            elif command == "stop":
                break
    finally:
        service.close()
        thread.join(timeout=30)
    reply({
        "trace": None if tracer is None else tracer.summary(),
        "peak_rss_mb": peak_rss_mb(),
    })


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--tokens", required=True)
    serve(parser.parse_args())


if __name__ == "__main__":
    main()
