"""The serve-tier program under test, as one benchmark-owned process.

Composes only public API — ``AsyncRtrServer``, ``QueryService`` and
``QueryHttpServer`` sharing one ``ServeMetrics`` — over the VRP table in
a CSV file, the way ``repro-roa serve`` does, and adds the one thing
that command lacks: a control channel, so the load generator can say
"refresh the table now" and read the tier's own counters.

Protocol: one JSON object per line.  On start-up the helper prints
``{"ready": ..., "rtr_port": ..., "http_port": ...}``; afterwards every
line read from stdin is a command answered by exactly one line:

* ``{"cmd": "update", "drop": [...], "add": [...], "probe": false}`` —
  drop the VRPs at those positions of the current sorted table, add the
  given ``[prefix, maxLength, asn]`` rows, then ``AsyncRtrServer.update``
  and ``QueryService.reload``; answers the new serial and both call
  times.  With ``"probe": true`` it also times the first diff and
  full-table frame encodes for the new serial (a traced repetition
  sends a few such updates outside its latency samples).
* ``{"cmd": "metrics"}`` — the ``ServeMetrics`` snapshot plus this
  process's CPU seconds.
* ``{"cmd": "quit"}`` — close both servers and exit 0.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time


async def serve(vrp_csv: str) -> None:
    from repro.data import read_vrp_csv
    from repro.netbase import Prefix
    from repro.rpki.vrp import Vrp
    from repro.serve import (
        AsyncRtrServer,
        QueryHttpServer,
        QueryService,
        ServeMetrics,
    )

    table = sorted(read_vrp_csv(vrp_csv))
    metrics = ServeMetrics()
    rtr = AsyncRtrServer(table, metrics=metrics)
    await rtr.start()
    service = QueryService(table, metrics=metrics)
    service.serial = rtr.state.serial
    http = QueryHttpServer(service, metrics=metrics)
    await http.start()

    def reply(document: dict) -> None:
        sys.stdout.write(json.dumps(document) + "\n")
        sys.stdout.flush()

    reply({
        "ready": True,
        "rtr_port": rtr.port,
        "http_port": http.port,
        "serial": rtr.state.serial,
        "vrps": len(table),
    })

    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    clock = time.perf_counter
    while True:
        line = await commands.readline()
        if not line:
            break
        command = json.loads(line)
        if command["cmd"] == "update":
            dropped = set(command["drop"])
            table = sorted(
                [v for i, v in enumerate(table) if i not in dropped]
                + [
                    Vrp(Prefix.parse(prefix), max_length, asn)
                    for prefix, max_length, asn in command["add"]
                ]
            )
            previous = rtr.state.serial
            started = clock()
            await rtr.update(table)
            updated = clock()
            service.reload(table, serial=rtr.state.serial)
            reloaded = clock()
            answer = {
                "serial": rtr.state.serial,
                "vrps": len(table),
                "update_ms": (updated - started) * 1e3,
                "reload_ms": (reloaded - updated) * 1e3,
            }
            if command.get("probe"):
                started = clock()
                rtr.frames.diff(previous)
                answer["diff_encode_ms"] = (clock() - started) * 1e3
                started = clock()
                rtr.frames.full_table()
                answer["full_encode_ms"] = (clock() - started) * 1e3
            reply(answer)
        elif command["cmd"] == "metrics":
            snapshot = metrics.snapshot()
            snapshot["process_time_s"] = time.process_time()
            reply(snapshot)
        elif command["cmd"] == "quit":
            break
        else:
            reply({"error": f"unknown command {command['cmd']!r}"})
    await http.close()
    await rtr.close()
    reply({"bye": True})


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: ledger_server.py VRPS.csv", file=sys.stderr)
        return 2
    asyncio.run(serve(argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
