"""Record the output digests the workloads check against.

    python3 perfbench/record.py

Runs every census, listing and series op and the anchor input of every
maps case once, through the same op code the benchmark times, and writes
``perfbench/digests.json``.  Run it only when an output is meant to change:
the digests pin the enumeration order and the exact answers.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as w  # noqa: E402


def main():
    ops = [w.CensusOp(*case) for case in w.census_cases()]
    ops += [w.ListingOp(*case) for case in w.listing_cases() + [w.LISTING_MEMORY_CASE]]
    ops += [w.MapOp(name, r, length, *w.anchor_input(name, r, length))
            for name, r, length in w.map_cases()]
    ops += [w.SeriesOp(*case) for case in w.series_cases()]
    digests = {}
    for op in ops:
        op.prepare()
        digests[op.key] = op.digest(op.run(0))
    w.clear_caches()
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")


if __name__ == "__main__":
    main()
