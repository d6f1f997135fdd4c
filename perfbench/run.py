"""Benchmark of the whitenoise_transport package, one workload per run.

    python3 perfbench/run.py --workload continuum --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up is timed in fresh interpreters, the workload's calls are
repeated for ``--seconds`` (closed loop: one call at a time, ensembles on
``min(2, nproc)`` worker threads), every call's outputs are checked, and
the last line of standard output is one JSON object with the metrics that
``BENCHMARK.json`` lists: end-to-end ones with ``--trace 0``, per-layer
ones from extra traced passes with ``--trace 1``.  Scratch files go to
``.perfbench_work/`` in the checkout.  See ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy
import scipy

import spans
import workloads

ROOT = workloads.ROOT
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
# ROADMAP item 1's single-thread profile of one continuum batch-step (ms)
ROADMAP_SPLIT_MS = {"rng": 11.9, "filter": 6.8, "phase": 10.9, "kinetic_fft": 7.0}

# Nominal SpeedProbe.measure() time: referred times are raw times scaled to
# a machine on which the probe takes this long.  Between the repeats of 40
# runs on the baseline machine of METRICS.md it took a median of 0.30 s, so
# there referred times read about 0.8 of raw ones.
PROBE_REF_S = 0.24

LIMITS = [
    "working sets stay far below the last-level cache, so no bandwidth or roofline figure is "
    "reported; FFT flops are computed as 5 N log2 N per transform, not counted by hardware",
    "scaling_eff compares 1 and 2 ensemble threads only: the machine has nproc cores",
    "the shared machine's speed drifts by 10-25% over tens of seconds; every time metric is "
    "a median of times referred to the reference speed by a probe kernel timed between them "
    "(raw walls are recorded beside them)",
]


class SpeedProbe:
    """A fixed kernel timed between measurements, to refer wall times to
    the reference machine speed.

    On the shared machine the speed of all work drifts together, pure
    Python and FFTs alike, in phases of tens of seconds.  The kernel is a
    pure-Python loop, a complex FFT pair over a batch the size of one
    continuum batch (250 x 1024, larger than L2) on one thread, and the same
    pair on every worker thread at once.  It uses numpy.fft.fft, which the
    tracer does not wrap.
    """

    def __init__(self, threads):
        rng = numpy.random.default_rng(0)
        self._arrays = [rng.standard_normal((250, 1024)) + 0j for _ in range(threads)]
        self._pool = ThreadPoolExecutor(threads)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._pool.shutdown()

    @staticmethod
    def _loop():
        total = 0
        for i in range(1_000_000):
            total += i * i
        return total

    @staticmethod
    def _ffts(a):
        for _ in range(15):
            numpy.fft.ifft(numpy.fft.fft(a, axis=1), axis=1)

    def measure(self) -> float:
        t0 = time.perf_counter()
        self._loop()
        self._ffts(self._arrays[0])
        list(self._pool.map(self._ffts, self._arrays))
        return time.perf_counter() - t0


def referred(walls, probes):
    """Each wall scaled by PROBE_REF_S over the mean of the probes either
    side of it (``probes`` has one more entry than ``walls``)."""
    return [w * 2.0 * PROBE_REF_S / (a + b) for w, a, b in zip(walls, probes, probes[1:])]


def setup_probe(workload, seed):
    """What every ``wnt`` invocation pays before its first route call (the
    imports above included)."""
    wl = workloads.Workload(workload, seed, WORK)
    wl.write_configs()
    wl.warm_up(workloads.THREADS)


def time_setups(workload, seed, probe):
    """Raw and referred wall times of SETUP_SAMPLES fresh set-ups."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    samples, probes = [], [probe.measure()]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - t0)
        probes.append(probe.measure())
    return samples, referred(samples, probes)


class Ledger:
    """Operations attempted and failed: calls, checks, digest comparisons."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def call(self, wl, res):
        self.op(f"call {res.label}", res.error is None, res.error or "")
        if res.error is None:
            for name, ok, detail in wl.checks(res):
                self.op(name, ok, detail)

    def digests(self, tag, ref, results):
        for res in results:
            if res.error is None:
                self.op(f"digest {res.label} ({tag})", res.digest == ref[res.label],
                        f"{res.digest[:12]} != {ref[res.label][:12]}")


def run_pass(wl, capture, threads, ledger, tracer=None):
    results = []
    for op in wl.ops:
        if tracer is not None:
            tracer.run = op.label
        res = wl.run_op(op, threads, capture)
        ledger.call(wl, res)
        results.append(res)
    return results


def timed_loop(wl, capture, seconds, ledger, probe):
    """Repeat the workload's calls for ``seconds``, at least once, with a
    speed probe before the first repeat and after each."""
    repeats, probes = [], [probe.measure()]
    t_end = time.perf_counter() + seconds
    while not repeats or time.perf_counter() < t_end:
        repeats.append(run_pass(wl, capture, workloads.THREADS, ledger))
        probes.append(probe.measure())
    ref = {r.label: r.digest for r in repeats[0]}
    for results in repeats[1:]:
        ledger.digests("repeat", ref, results)
    return repeats, ref, probes


def end_to_end(wl, repeats, probes, setups):
    """The end-to-end metrics, and the raw and referred wall of each repeat."""
    raw = [sum(r.wall for r in results) for results in repeats]
    walls = referred(raw, probes)
    wall = statistics.median(walls)
    if wl.is_mc:
        to_1pct = statistics.median(
            w / r * workloads.time_to_1pct([e for res in results for e in res.ensembles])
            for w, r, results in zip(walls, raw, repeats))
    else:
        to_1pct = wall  # no sampling error: one pass gives machine precision
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "traj_steps_per_s": sum(op.steps for op in wl.ops) / wall,
        "time_to_1pct_s": to_1pct,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, raw, walls


def traced(wl, capture, ledger, ref, untraced_wall, probe):
    """A traced pass at the workload's thread count and, for ensembles, one
    at 1 thread; per-layer metrics come from the first.  Also returns each
    call's traced wall time by thread count."""
    modules = {k.partition(".")[2] or "package": v for k, v in sys.modules.items()
               if k == "whitenoise_transport" or k.startswith("whitenoise_transport.")}
    passes, probes = {}, [probe.measure()]
    for threads in dict.fromkeys([workloads.THREADS, 1 if wl.is_mc else workloads.THREADS]):
        tracer = spans.Tracer()
        inst = spans.Instrumentation(tracer, modules).install()
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            results = run_pass(wl, capture, threads, ledger, tracer)
        finally:
            inst.restore()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        probes.append(probe.measure())
        ledger.digests(f"traced, {threads} thread(s)", ref, results)
        passes[threads] = (tracer.spans, results, referred([wall], probes[-2:])[0], cpu / wall)

    span_list, results, wall, cpu_per_wall = passes[workloads.THREADS]
    metrics = spans.layer_metrics(span_list)
    one = passes.get(1) if wl.is_mc else None
    split = spans.step_split_ms((one or passes[workloads.THREADS])[0])
    traj_steps = sum(op.steps for op in wl.ops) if wl.is_mc else 0
    metrics.update({
        "rng.generators_per_traj_step": metrics["rng.generators_built"] / traj_steps if traj_steps else 0.0,
        "noise_field.colored_window_mib": wl.colored_window_bytes(workloads.THREADS) / 2**20,
        "mc_simulator.cpu_per_wall": cpu_per_wall,
        "mc_simulator.scaling_eff": one[2] / (workloads.THREADS * wall) if one else 0.0,
        "cli.bytes_written": sum(f.stat().st_size for r in results if r.out_dir
                                 for f in r.out_dir.iterdir() if f.is_file()),
        "trace.overhead_frac": wall / untraced_wall - 1.0,
    })
    metrics.update({f"mc_simulator.split_{k}_ms": v for k, v in split.items()})
    with open(wl.dir / "spans.json", "w") as fh:
        json.dump({f"threads={t}": [s.to_json() for s in p[0]] for t, p in passes.items()}, fh)
    calls = {r.label: {t: p[1][i].wall for t, p in passes.items()} for i, r in enumerate(results)}
    return metrics, calls


def environment(seed):
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: ") and (ROOT / ".git" / commit[5:]).is_file():
            commit = (ROOT / ".git" / commit[5:]).read_text().strip()
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": commit, "threads": workloads.THREADS,
            "seed": seed, "limits": LIMITS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    capture = workloads.Capture().install()
    try:
        with SpeedProbe(workloads.THREADS) as probe:
            if args.trace:
                raw_setups, setups = [], [float("nan")]
            else:
                raw_setups, setups = time_setups(args.workload, args.seed, probe)
            wl = workloads.Workload(args.workload, args.seed, WORK)
            wl.write_configs()
            wl.warm_up(workloads.THREADS)
            ledger = Ledger()
            repeats, ref, probes = timed_loop(wl, capture, args.seconds, ledger, probe)
            values, raw, walls = end_to_end(wl, repeats, probes, setups)
            calls = {r.label: {workloads.THREADS: statistics.median(rs[i].wall for rs in repeats)}
                     for i, r in enumerate(repeats[0])}
            if args.trace:
                values, calls = traced(wl, capture, ledger, ref, values["wall_s"], probe)
    finally:
        capture.restore()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    failed = len(ledger.failures)

    print(f"perfbench {args.workload}: seed {args.seed}, {workloads.THREADS} thread(s), "
          f"{len(repeats)} repeat(s); wall per repeat, raw (referred): "
          + ", ".join(f"{r:.3f} ({w:.3f})" for r, w in zip(raw, walls)) + " s")
    if raw_setups:
        print(f"  set-up samples, raw (referred): "
              + ", ".join(f"{r:.3f} ({w:.3f})" for r, w in zip(raw_setups, setups)) + " s")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"  calls ({'traced' if args.trace else 'median untraced'} raw wall):")
    for label, by_threads in calls.items():
        print(f"    {label:20s} " + ", ".join(f"{w:8.3f} s at {t} thread(s)" for t, w in by_threads.items()))
    if args.trace and args.workload == "continuum":
        print("  per batch-step split, 1 thread (ms): " + ", ".join(
            f"{k} {values[f'mc_simulator.split_{k}_ms']:.1f} (ROADMAP {ref})"
            for k, ref in ROADMAP_SPLIT_MS.items()))
    print(f"  {'failed_ratio':40s} {failed / ledger.attempted:>14.6g} 1"
          f"  ({failed} of {ledger.attempted} operations)")
    for line in ledger.failures:
        print(f"  FAILED {line}")
    env = environment(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "walls_raw": raw, "walls": walls, "probes": probes,
              "setups_raw": raw_setups, "setups": setups, "calls": calls, "metrics": metrics,
              "attempted": ledger.attempted, "failures": ledger.failures}
    (wl.dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
