"""Store the reference outputs the oracle checks every operation against.

    python3 perfbench/make_reference.py [workload ...]

Runs every operation a seed can put into the named workloads (all of them
by default) once, at one thread, and replaces those workloads' entries in
``perfbench/reference.json``.  Regenerate only on purpose, when a change is
meant to alter results, and say in the change which entries moved.
"""

from __future__ import annotations

import json
import os
import sys
import time

import harness
import workloads
from oracle import TOLERANCES, judge, reference_record
from run import source_identity


def main(argv) -> int:
    os.chdir(harness.ROOT)
    names = argv or list(workloads.WORKLOADS)
    cli = harness.load_cli()
    workloads.write_operator_files(harness.WORK)
    doc = {"workloads": {}}
    if harness.REFERENCE.exists():
        doc = json.loads(harness.REFERENCE.read_text())
    doc["tolerances"] = TOLERANCES
    doc["source"] = source_identity()
    bad, mismatches = [], []
    for w in names:
        ops = workloads.universe(w, harness.WORK)
        refs = doc["workloads"][w] = {}
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            _latency, obs = harness.run_op(cli.main, op, harness.WORK / "ops" / f"ref-{w}")
            status, reason = judge(op, obs, None)
            if op.expect == "valid" and obs["exit"] == 1 and obs["error"] is None:
                # the documented exit for a failed registry expectation
                mismatches.append(op.key)
            elif status == "fail":
                bad.append(f"{op.key}: {reason}")
            refs[op.key] = reference_record(obs)
            if i % 50 == 0:
                print(f"{w}: {i}/{len(ops)} ({time.perf_counter() - t0:.0f} s)", flush=True)
    harness.REFERENCE.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    print(f"{len(mismatches)} operations exit 1 (registry expectation not met)")
    for b in bad:
        print(f"UNEXPECTED {b}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
