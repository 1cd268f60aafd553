"""Pass or fail a benchmark smoke run from its summary line.

Reads the JSON summary that perfbench/run.py prints last, on stdin.  Exits 0
when the run is correct and its failed share (failed / attempted) is at most
the given fraction; with --traced, every metric must also have a value, so a
traced run fails on a null metric.  Exits 1 otherwise.

    tail -n 1 bench.out | python3 .github/bench_gate.py 1/6 --traced
"""

import argparse
import json
import sys
from fractions import Fraction


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("max_failed", type=Fraction, help="largest allowed failed share, as 0 or 1/6")
    ap.add_argument("--traced", action="store_true", help="also fail on a metric that is null")
    args = ap.parse_args()
    d = json.loads(sys.stdin.read())
    ok = d["correct"] is True and Fraction(d["failed"], d["attempted"]) <= args.max_failed
    if args.traced:
        ok = ok and all(m["value"] is not None for m in d["metrics"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
