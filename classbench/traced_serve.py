"""``python -m repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 classbench/traced_serve.py DUMP.json SERVE-ARGS...``

Identical to the CLI's ``serve`` command except that every traced entry
point records spans.  SIGUSR2 marks the end of the client's set-up
(spans and parse-cache counters restart from there); on SIGUSR1 the
server writes its span table and the parse cache's counters to
``DUMP.json`` (the client then kills it the way a crash would).
"""

from __future__ import annotations

import json
import os
import signal
import sys

import common


def main(argv: list[str]) -> int:
    dump = argv[0]
    common.require_source()
    import tracing
    from repro.cli import main as cli_main
    from repro.linkgrammar.lexicon import default_dictionary

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.enabled = True

    def write_dump(_signum, _frame) -> None:
        tracer.enabled = False
        info = default_dictionary().shared_cache_store().info()
        payload = {
            "table": tracer.table(),
            "cache_hits": info["hits"] - baseline["hits"],
            "cache_misses": info["misses"] - baseline["misses"],
        }
        tmp = dump + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, dump)

    def start_timing(_signum, _frame) -> None:
        # The client's set-up traffic is over: time only what follows.
        tracer.reset()
        baseline.update(default_dictionary().shared_cache_store().info())

    baseline = {"hits": 0, "misses": 0}
    signal.signal(signal.SIGUSR1, write_dump)
    signal.signal(signal.SIGUSR2, start_timing)
    return cli_main(["serve", *argv[1:]])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
