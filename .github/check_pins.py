"""Compare the counters of a traced perfbench run with their pinned values.

Usage: python3 .github/check_pins.py TRACE_FILE NAME=VALUE [NAME=VALUE ...]

TRACE_FILE holds the stdout of ``perfbench/run.py --trace 1``, whose last
line is the run's JSON summary.  The script exits 0 when every named
metric has exactly its pinned value, and otherwise exits 1 with a message
that gives the values found and the values expected.
"""

import json
import sys


def main(argv):
    if len(argv) < 2:
        return "usage: check_pins.py TRACE_FILE NAME=VALUE [NAME=VALUE ...]"
    path, *pins = argv
    with open(path, encoding="utf-8") as handle:
        metrics = json.loads(handle.read().splitlines()[-1])["metrics"]
    want = {}
    for pin in pins:
        name, _, value = pin.partition("=")
        want[name] = int(value)
    got = {name: metrics[name]["value"] for name in want}
    return 0 if got == want else f"pass-0 counters {got}, expected {want}"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
