#!/usr/bin/env python3
"""Write ``bench/reference.json``: every unit's reference value on the
default seed, from one round of each workload.

    python3 bench/make_reference.py

Run it only when a change is meant to alter the numbers, and say so with the
change; the benchmark compares the default seed against this file.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.pin_threads()
    run.import_package()
    reference = {}
    for name in run.WORKLOAD_NAMES:
        units = run.make_workload(name, run.DEFAULT_SEED).run_round()
        bad = [f"{u.key}: {u.detail}" for u in units if not u.ok]
        if bad:
            print(f"{name}: units failed, no reference written: {bad}", file=sys.stderr)
            return 1
        reference[name] = {u.key: u.ref for u in units}
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
