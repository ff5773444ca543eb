#!/usr/bin/env python3
"""Set-up of one benchmark run, in a fresh interpreter so it can be timed whole.

Usage: python3 bench/setup_probe.py <workload> <size> <seed>

Imports slowphase and runs the cold pipeline that writes the artifacts the
workload's rounds start from (see ``workloads.prepare``), sampling the host's
speed meanwhile; prints the mean probe time as a JSON line.
"""

import json
import os
import sys

import hostspeed
import workloads as wl


def main(workload, size_name, seed):
    os.chdir(wl.ROOT)
    with hostspeed.Sampler() as sampler:
        sp = wl.import_program()
        wl.prepare(sp, workload, wl.SIZES[size_name], seed)
    print(json.dumps({"probe_mean_s": sampler.mean_s()}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
