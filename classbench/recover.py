"""Time ``ELearningSystem.recover`` on a crashed server's data directory.

Usage: ``python3 classbench/recover.py DATA_DIR OUT.json [--traced]``

Runs in a fresh interpreter, so recovery pays for its own dictionary and
ontology construction exactly as a restarted server would.  Writes the
recovery time (scaled to the reference host speed), the report, the recovered state digest and, with
``--traced``, the replay span table.
"""

from __future__ import annotations

import json
import sys
import time

import common


def main(argv: list[str]) -> int:
    data_dir, out = argv[0], argv[1]
    traced = "--traced" in argv[2:]
    common.require_source()
    from repro import ELearningSystem

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.enabled = True
    before = common.quiet_host_speed()
    start = time.perf_counter()
    system, report = ELearningSystem.recover(data_dir)
    elapsed = time.perf_counter() - start
    elapsed *= (before + common.quiet_host_speed()) / 2
    result = {
        "recover_s": elapsed,
        "clean": report.clean,
        "events_replayed": report.events_replayed,
        "events_total": report.events_total,
        "messages": system.server.total_messages(),
        "digest": common.state_digest(system),
        "peak_rss_mb": common.peak_rss_mb(),
        "counters": common.counters(system),
    }
    if tracer is not None:
        tracer.enabled = False
        result["table"] = tracer.table()
    # Inspect only: release the log without writing a compacting snapshot.
    system.durability.close()
    system.runtime.close()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
