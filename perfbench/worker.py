"""One measurement of one workload in a fresh interpreter.

    python3 perfbench/worker.py MODE SPEC OUT_DIR

MODE is one of

* ``setup``: import ``chain2sim.harness`` and build the scenario config;
* ``run``: set up, then ``harness.run(config, out_dir=OUT_DIR)`` with its
  default arguments, as the CLI does;
* ``serial``: the same with ``parallel=False``;
* ``trace``: a serial run with every layer wrapped by the span tracer;
* ``heap``: a default run under ``tracemalloc``, for the heap peak.

The worker prints one JSON object on its last stdout line.  Every mode except
``setup`` hashes the output tree and deletes it.  The program is imported
from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def tree_digest(root: str) -> str:
    """SHA-256 over every file under `root`: relative path and bytes, in
    sorted path order."""
    h = hashlib.sha256()
    paths = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            full = os.path.join(dirpath, name)
            paths.append((os.path.relpath(full, root).replace(os.sep, "/"), full))
    for rel, full in sorted(paths):
        with open(full, "rb") as fh:
            data = fh.read()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _build_config(harness, spec: dict):
    if spec["kind"] == "campaign":
        return harness.default_campaign(**spec["args"])
    return harness.load_config(spec["path"])


def main(argv: list[str]) -> dict:
    mode, spec_path, out_dir = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)

    tracer = None
    t0 = time.perf_counter()
    from chain2sim import harness

    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        # Installed before the config is built, so that the CSV checks in
        # load_config count too.
        with tracer.installed():
            config = _build_config(harness, spec)
            t1 = time.perf_counter()
            report = harness.run(config, out_dir=out_dir, parallel=False)
            t2 = time.perf_counter()
    else:
        config = _build_config(harness, spec)
        t1 = time.perf_counter()
        result: dict = {"setup_s": t1 - t0}
        if mode == "setup":
            return result
        if mode == "heap":
            import tracemalloc

            tracemalloc.start()
            t1 = time.perf_counter()
        report = harness.run(config, out_dir=out_dir, parallel=mode != "serial")
        t2 = time.perf_counter()
        if mode == "heap":
            result["heap_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()

    import numpy

    if tracer is not None:
        result = {"trace": tracer.dump(), "layers": tracer.layer_totals()}
    result.update(
        run_s=t2 - t1,
        user_ticks=len(config.users) * (config.duration_s // config.tick_s),
        processed=report.totals.received,
        digest=tree_digest(out_dir),
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    shutil.rmtree(out_dir)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
