"""Record the expected output digest of each workload for the given seeds.

    python3 perfbench/record_digests.py SEED [SEED ...]

Each digest comes from a serial run and must equal the digest of a default
(thread-pool) run of the same inputs; the result is merged into
``digests.json``.  Record again only when the program's outputs are meant
to change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

import run
import workloads


def record(seeds: list[int]) -> dict:
    with open(run.DIGESTS) as fh:
        digests = json.load(fh)
    os.makedirs(os.path.join(run.ROOT, ".bench_work"), exist_ok=True)
    for name in workloads.WORKLOADS:
        for seed in seeds:
            work_dir = tempfile.mkdtemp(dir=os.path.join(run.ROOT, ".bench_work"))
            try:
                spec = workloads.generate(name, seed, work_dir)
                session = run.Session(work_dir, spec, time.monotonic() + 600)
                serial = session.worker("serial")["digest"]
                default = session.worker("run")["digest"]
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            if serial != default:
                raise SystemExit(f"{name} seed {seed}: serial and default outputs differ")
            digests.setdefault(name, {})[str(seed)] = serial
            print(name, seed, serial, flush=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return digests


if __name__ == "__main__":
    record([int(s) for s in sys.argv[1:]])
