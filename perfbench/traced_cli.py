"""A cold ``radial4`` CLI call with the tracer installed, for traced ``cli`` rounds.

    python3 -X importtime perfbench/traced_cli.py --snapshot FILE -- info --n 6 ...

Behaves like ``python -m radial4.cli ...`` (same stdout and exit code) and
writes the tracer's counts and spans to FILE when the call ends.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import radial4.cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    sep = sys.argv.index("--")
    if sep != 3 or sys.argv[1] != "--snapshot":
        sys.stderr.write("usage: traced_cli.py --snapshot FILE -- ARGV...\n")
        return 64
    snapshot_path, argv = sys.argv[2], sys.argv[sep + 1:]
    tracer = Tracer()
    tracer.install()
    try:
        return radial4.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(snapshot_path, "w", encoding="utf-8") as fh:
            json.dump({"snapshot": tracer.snapshot(), "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
