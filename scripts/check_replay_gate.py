"""Gate a traced ``sweep-replay`` benchmark run on its exact work counts.

    python3 perfbench/run.py --workload sweep-replay --seed 1 --seconds 2 --trace 1 > gate.out
    python3 scripts/check_replay_gate.py gate.out

Reads the benchmark's output and checks its result line (the last line):
every result must match the scalar-engine oracle digests (``correct``,
``failed`` 0), no engine primitive may run (``engine.calls`` 0), and
every phase of every traced pass must replay (``replay.phases_replayed``
== ``PHASES``).  All of these are counts, so host speed cannot move
them.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

#: Phases a traced run replays: 13 jobs x 2 layers x 2 phases = 52 per
#: pass, and a traced run always makes three passes, whatever ``--seconds``.
PHASES = 156


def problems(result: Dict[str, object]) -> List[str]:
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return ["result line has no metrics"]

    def count(name: str) -> object:
        entry = metrics.get(name)
        return entry.get("value") if isinstance(entry, dict) else None

    found = []
    if result.get("correct") is not True or result.get("failed") != 0:
        found.append(
            f"correct={result.get('correct')} failed={result.get('failed')}"
            f"/{result.get('attempted')}: a result missed its oracle digest"
        )
    if count("engine.calls") != 0:
        found.append(f"engine.calls={count('engine.calls')}, expected 0")
    if count("replay.phases_replayed") != PHASES:
        found.append(
            f"replay.phases_replayed={count('replay.phases_replayed')}, "
            f"expected {PHASES}"
        )
    return found


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", help="captured standard output of perfbench/run.py")
    args = parser.parse_args(argv)
    with open(args.output, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("replay gate: no JSON result line in the benchmark output", file=sys.stderr)
        return 1
    found = problems(result)
    for problem in found:
        print(f"replay gate: {problem}", file=sys.stderr)
    if not found:
        print(f"replay gate: ok ({PHASES} phases replayed, 0 engine calls, "
              f"{result['attempted']} results match the oracle)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
