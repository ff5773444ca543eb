#!/usr/bin/env python3
"""Record bench/reference.json: the expected outputs of every benchmark operation.

Usage (from the root of a checkout): python3 bench/record_reference.py

Runs the set-up and one operation of every workload at both sizes, untimed,
and stores their observations.  Run it only at a commit whose outputs are
known good; the benchmark then checks later commits against it.
Takes about a minute.
"""

import hashlib
import json
import os
import shutil

import check
import workloads as wl


def program_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((wl.SRC / "slowphase").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main():
    os.chdir(wl.ROOT)
    sp = wl.import_program()
    cases = {}
    for size_name, size in wl.SIZES.items():
        for workload in wl.WORKLOADS:
            wl.prepare(sp, workload, size, seed=1)
            base = wl.base_config(sp, workload, size, seed=1)
            config = wl.round_config(sp, workload, size, seed=1, index=0)
            shutil.rmtree(config.out_dir, ignore_errors=True)
            shutil.copytree(base.out_dir, config.out_dir)
            outcome = wl.OPERATIONS[workload](sp, config)
            cases[wl.case_key(workload, size_name)] = wl.observe_pipeline(outcome)
        print("recorded", size_name, flush=True)

    payload = {"program_sha256": program_digest(), "cases": cases}
    with open(check.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
