"""Load generator for the wide-tcp workload: every TCP client of a run, as threads.

Started once per benchmark run by ``run.py`` with single-threaded BLAS, so the
two clients do not fight the server for the two cores.  Protocol on
stdin/stdout, one JSON object per line:

* on start, after all imports: ``{"ready": true}``;
* per request ``{"port": P, "config": {...}, "trace": bool}``: run one
  ``flcore.worker.run_client`` thread per client against 127.0.0.1:P, then
  answer ``{"ok": bool, "error": str, "spans": [...]}``; spans are only
  recorded when ``trace`` is true;
* per request ``{"reference": true, "config": {...}}``: run the same config
  in-process here, under the clients' BLAS settings, and answer
  ``{"ok": bool, "error": str, "lines": [metrics lines]}``.  The benchmark
  compares the TCP trajectory with it (carrier invariance).

The process exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import sys
import threading

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from flcore.config import parse_config  # noqa: E402
from flcore.runner import metrics_line, train  # noqa: E402
from flcore.worker import run_client  # noqa: E402

from tracing import Tracer  # noqa: E402


def _client(addr: str, client_id: int, config, errors: list) -> None:
    try:
        run_client(addr, client_id, config)
    except Exception as exc:  # reported to the benchmark, which counts the failed rounds
        errors.append(f"client {client_id}: {exc!r}")


def _reference(config) -> dict:
    try:
        lines = [metrics_line(m) for m in train(config).metrics]
    except Exception as exc:  # reported to the benchmark as a failed check
        return {"ok": False, "error": repr(exc), "lines": []}
    return {"ok": True, "error": "", "lines": lines}


def serve_requests(tracer: Tracer) -> None:
    for line in sys.stdin:
        request = json.loads(line)
        config = parse_config(request["config"])
        if request.get("reference"):
            print(json.dumps(_reference(config)), flush=True)
            continue
        addr = f"127.0.0.1:{request['port']}"
        errors: list[str] = []
        threads = [
            threading.Thread(target=_client, args=(addr, cid, config, errors), name=f"client-{cid}")
            for cid in range(config.clients)
        ]
        if request["trace"]:
            tracer.install()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            tracer.uninstall()
        reply = {"ok": not errors, "error": "; ".join(errors), "spans": tracer.take()}
        print(json.dumps(reply), flush=True)


def main() -> int:
    print(json.dumps({"ready": True}), flush=True)
    serve_requests(Tracer())
    return 0


if __name__ == "__main__":
    sys.exit(main())
