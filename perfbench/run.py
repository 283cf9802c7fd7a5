"""chain2sim benchmark: campaign throughput, set-up time and memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``.  Every measurement runs in a fresh interpreter (``worker.py``),
through the public API as the CLI uses it.  All times are host time.

``--trace 0`` measures the end-to-end metrics.  It first makes a handful of
set-up probes, then runs the workload over and over for ``--seconds`` and
reports medians:

* ``user_ticks_per_s``: users x ticks / host seconds in ``harness.run``,
  writing the output tree included;
* ``setup_s``: fresh-interpreter time to import ``chain2sim.harness`` and
  build the ``ScenarioConfig`` (``load_config`` for ``full_feature``);
* ``peak_rss_mb``: high-water resident memory of the worker's process tree,
  the larger of the worker's own ``ru_maxrss`` and the tree's summed RSS
  sampled every 50 ms, so memory moved into child processes still counts.

``--trace 1`` measures the per-layer metrics in four passes of one run each:
a serial run (the single-threaded baseline), a default run (for the pool
speed-up), a serial run with the span tracer installed (layer counts and
times, and the tracing overhead against the serial run), and a default run
under ``tracemalloc`` for the heap peak.

Every run hashes its output tree.  The digest must equal the one recorded in
``digests.json`` for that workload and seed or, for a seed with none, the
digest of a ``parallel=False`` run of the same inputs.  A raised error or a
mismatch counts as a failed run.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record (samples, environment, trace)
goes to ``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")

# A whole invocation must finish well inside three minutes.
BUDGET_S = 175.0
SETUP_PROBES = 6
POLL_S = 0.05

END_TO_END = (
    ("user_ticks_per_s", "user-ticks/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, better)
PER_LAYER = (
    ("profiles.household_profile.calls", "count", "lower"),
    ("profiles.household_profile.ms_per_call", "ms", "lower"),
    ("profiles.profile_from_csv.calls", "count", "lower"),
    ("meter.step.calls", "count", "lower"),
    ("meter.step.self_us_per_call", "us", "lower"),
    ("meter.frames_per_tick", "ratio", "lower"),
    ("meter.self_share", "ratio", "lower"),
    ("frames.encode_frame.us_per_call", "us", "lower"),
    ("frames.decode_frame.us_per_call", "us", "lower"),
    ("frames.crc16.calls", "count", "lower"),
    ("frames.crc16.us_per_call", "us", "lower"),
    ("frames.share", "ratio", "lower"),
    ("channel.transmit.calls", "count", "lower"),
    ("channel.transmit.us_per_call", "us", "lower"),
    ("channel.delivered_ratio", "ratio", "higher"),
    ("portal.admits.calls", "count", "lower"),
    ("portal.admits.us_per_call", "us", "lower"),
    ("portal.admitted_ratio", "ratio", "higher"),
    ("device.on_frame.calls", "count", "lower"),
    ("device.on_frame.us_per_call", "us", "lower"),
    ("device.processed_ratio", "ratio", "higher"),
    ("automation.dr_site_step.us_per_call", "us", "lower"),
    ("automation.peak_shave_step.us_per_call", "us", "lower"),
    ("automation.load_shift_schedule.ms_per_call", "ms", "lower"),
    ("automation.mevu_settle.ms", "ms", "lower"),
    ("automation.self_share", "ratio", "lower"),
    ("harness.run_user.self_share", "ratio", "lower"),
    ("harness.write_outputs_s", "s", "lower"),
    ("harness.report_csv_ms", "ms", "lower"),
    ("harness.pool_speedup", "ratio", "higher"),
    ("harness.heap_peak_mb", "MB", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

AUTOMATION_LAYERS = (
    "automation.dr_site_step",
    "automation.peak_shave_step",
    "automation.load_shift_schedule",
    "automation.mevu_settle",
)


class WorkerFailed(Exception):
    pass


def tree_rss_kb(pid: int) -> int:
    """Summed VmRSS of a process and all its descendants, from /proc."""
    total = 0
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError):
            continue  # the process ended meanwhile, or no /proc here
    return total


class Session:
    """Runs workers for one invocation and keeps its books."""

    def __init__(self, work_dir: str, spec_path: str, deadline: float) -> None:
        self.work_dir = work_dir
        self.spec_path = spec_path
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._n = 0

    def worker(self, mode: str) -> dict:
        """Run one worker; returns its result with ``tree_peak_kb`` added."""
        self._n += 1
        out_dir = os.path.join(self.work_dir, f"out-{self._n}")
        log = os.path.join(self.work_dir, f"worker-{self._n}")
        peak = 0
        with open(log + ".out", "w") as out, open(log + ".err", "w") as err:
            proc = subprocess.Popen(
                [sys.executable, WORKER, mode, self.spec_path, out_dir],
                stdout=out,
                stderr=err,
                cwd=ROOT,
            )
            try:
                while True:
                    try:
                        proc.wait(timeout=POLL_S)
                        break
                    except subprocess.TimeoutExpired:
                        pass
                    peak = max(peak, tree_rss_kb(proc.pid))
                    if time.monotonic() > self.deadline:
                        raise WorkerFailed(f"{mode}: out of time")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        shutil.rmtree(out_dir, ignore_errors=True)
        if proc.returncode != 0:
            with open(log + ".err") as fh:
                tail = fh.read()[-2000:]
            raise WorkerFailed(f"{mode}: exit {proc.returncode}\n{tail}")
        with open(log + ".out") as fh:
            lines = fh.read().splitlines()
        result = json.loads(lines[-1])
        result["tree_peak_kb"] = peak
        return result

    def _fail(self, error: str) -> None:
        self.failed += 1
        self.errors.append(error)

    def operation(self, mode: str, expected: str | None) -> dict | None:
        """One counted run: fails if the worker fails or the digest differs."""
        self.attempted += 1
        try:
            result = self.worker(mode)
        except WorkerFailed as exc:
            self._fail(str(exc))
            return None
        if expected is not None and result["digest"] != expected:
            self._fail(f"{mode}: output digest {result['digest']} != {expected}")
            result["mismatch"] = True
        return result

    def setup_probe(self) -> float | None:
        """Set-up time of a fresh interpreter; only a failure is counted."""
        try:
            return self.worker("setup")["setup_s"]
        except WorkerFailed as exc:
            self.attempted += 1
            self._fail(str(exc))
            return None


def recorded_digest(workload: str, seed: int) -> str | None:
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def _reference(session: Session, expected: str | None) -> tuple[str | None, dict | None]:
    """The expected digest, from the record or from a serial run."""
    serial = session.operation("serial", expected)
    if expected is None and serial is not None:
        expected = serial["digest"]
    return expected, serial


def measure_end_to_end(session: Session, expected: str | None, seconds: float) -> tuple[dict, dict]:
    if expected is None:
        expected, _ = _reference(session, None)
    probes = [session.setup_probe() for _ in range(SETUP_PROBES)]
    setups = [s for s in probes if s is not None]
    runs = []
    start = time.monotonic()
    while time.monotonic() - start < seconds:
        result = session.operation("run", expected)
        if result is not None:
            setups.append(result["setup_s"])
            runs.append(result)
    if not runs or not setups:
        raise WorkerFailed("no run completed:\n" + "\n".join(session.errors))
    samples = {
        "user_ticks_per_s": [r["user_ticks"] / r["run_s"] for r in runs],
        "setup_s": setups,
        "peak_rss_mb": [max(r["maxrss_kb"], r["tree_peak_kb"]) / 1024 for r in runs],
    }
    metrics = {name: statistics.median(samples[name]) for name, _ in END_TO_END}
    return metrics, {"samples": samples, "env": _env(runs[0])}


def measure_layers(session: Session, expected: str | None) -> tuple[dict, dict]:
    expected, serial = _reference(session, expected)
    default = session.operation("run", expected)
    traced = session.operation("trace", expected)
    heap = session.operation("heap", expected)
    if None in (serial, default, traced, heap):
        raise WorkerFailed("a pass failed:\n" + "\n".join(session.errors))
    metrics = layer_metrics(
        traced["layers"],
        processed=traced["processed"],
        pool_speedup=serial["run_s"] / default["run_s"],
        heap_peak_mb=heap["heap_peak_mb"],
        overhead_ratio=traced["run_s"] / serial["run_s"],
    )
    passes = {
        name: {k: v for k, v in r.items() if k not in ("trace", "layers")}
        for name, r in (("serial", serial), ("default", default), ("trace", traced), ("heap", heap))
    }
    return metrics, {"passes": passes, "trace": traced["trace"], "env": _env(serial)}


def layer_metrics(
    layers: dict,
    *,
    processed: int,
    pool_speedup: float,
    heap_peak_mb: float,
    overhead_ratio: float,
) -> dict:
    """Per-layer metrics from the tracer's per-layer totals.

    Shares are of the traced ``harness.run`` span.  Ratios count calls at
    adjacent boundaries: every delivered frame is decoded, and every admitted
    frame reaches ``Device.on_frame``.  A layer with no calls reads 0.
    """
    def get(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0)

    def per_call(layer: str, key: str, scale: float) -> float:
        n = get(layer, "count")
        return get(layer, key) / n * scale if n else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    run_s = get("harness.run", "total_s")
    return {
        "profiles.household_profile.calls": get("profiles.household_profile", "count"),
        "profiles.household_profile.ms_per_call": per_call("profiles.household_profile", "total_s", 1e3),
        "profiles.profile_from_csv.calls": get("profiles.profile_from_csv", "count"),
        "meter.step.calls": get("meter.step", "count"),
        "meter.step.self_us_per_call": per_call("meter.step", "self_s", 1e6),
        "meter.frames_per_tick": ratio(get("frames.encode_frame", "count"), get("meter.step", "count")),
        "meter.self_share": ratio(get("meter.step", "self_s"), run_s),
        "frames.encode_frame.us_per_call": per_call("frames.encode_frame", "total_s", 1e6),
        "frames.decode_frame.us_per_call": per_call("frames.decode_frame", "total_s", 1e6),
        "frames.crc16.calls": get("frames.crc16", "count"),
        "frames.crc16.us_per_call": per_call("frames.crc16", "total_s", 1e6),
        "frames.share": ratio(
            get("frames.encode_frame", "total_s") + get("frames.decode_frame", "total_s"), run_s
        ),
        "channel.transmit.calls": get("channel.transmit", "count"),
        "channel.transmit.us_per_call": per_call("channel.transmit", "total_s", 1e6),
        "channel.delivered_ratio": ratio(
            get("frames.decode_frame", "count"), get("channel.transmit", "count")
        ),
        "portal.admits.calls": get("portal.admits", "count"),
        "portal.admits.us_per_call": per_call("portal.admits", "total_s", 1e6),
        "portal.admitted_ratio": ratio(get("device.on_frame", "count"), get("portal.admits", "count")),
        "device.on_frame.calls": get("device.on_frame", "count"),
        "device.on_frame.us_per_call": per_call("device.on_frame", "total_s", 1e6),
        "device.processed_ratio": ratio(processed, get("device.on_frame", "count")),
        "automation.dr_site_step.us_per_call": per_call("automation.dr_site_step", "total_s", 1e6),
        "automation.peak_shave_step.us_per_call": per_call("automation.peak_shave_step", "total_s", 1e6),
        "automation.load_shift_schedule.ms_per_call": per_call(
            "automation.load_shift_schedule", "total_s", 1e3
        ),
        "automation.mevu_settle.ms": get("automation.mevu_settle", "total_s") * 1e3,
        "automation.self_share": ratio(sum(get(a, "self_s") for a in AUTOMATION_LAYERS), run_s),
        "harness.run_user.self_share": ratio(get("harness.run_user", "self_s"), run_s),
        "harness.write_outputs_s": get("harness.write_outputs", "total_s"),
        "harness.report_csv_ms": get("harness.report_csv", "total_s") * 1e3,
        "harness.pool_speedup": pool_speedup,
        "harness.heap_peak_mb": heap_peak_mb,
        "trace.overhead_ratio": overhead_ratio,
    }


def _env(result: dict) -> dict:
    return {
        "python": result["python"],
        "numpy": result["numpy"],
        "cpu_count": os.cpu_count(),
        "platform": sys.platform,
    }


def run_benchmark(
    workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0
) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, full record).

    Raises WorkerFailed when no measurement could be taken at all.
    """
    deadline = time.monotonic() + BUDGET_S
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        spec_path = workloads.generate(workload, seed, work_dir, scale)
        session = Session(work_dir, spec_path, deadline)
        expected = recorded_digest(workload, seed) if scale == 1.0 else None
        if trace:
            values, record = measure_layers(session, expected)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            values, record = measure_end_to_end(session, expected, seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    line = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        digest=expected,
        digest_source="recorded" if expected is not None else "serial run",
        errors=session.errors,
        result=line,
    )
    return line, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally so the running worker is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "chain2sim", "harness.py")):
        print(f"no chain2sim sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        line, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    results_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as fh:
        json.dump(record, fh, indent=1)
    for err in record["errors"]:
        print(f"error: {err}", file=sys.stderr)
    print(json.dumps({"env": record["env"], "digest_source": record["digest_source"]}))
    for metric, entry in line["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
