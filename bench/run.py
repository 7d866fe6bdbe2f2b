#!/usr/bin/env python3
"""Host-time benchmark of meshsim, one workload per invocation.

    python3 bench/run.py --workload office20_mm7 --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all          # every workload, a process each

Runs are sequential in one process.  Each run parses the workload's
documents, calls ``run_experiment`` and ``aggregate``; run i of an
invocation uses simulation seed ``seed*1000 + i``, so the inputs follow from
``--seed`` alone.

--trace 0 repeats runs for --seconds and reports the end-to-end metrics:
median wall time per run, median set-up time (documents parsed until the
event loop starts; every run also times its set-up once more on its own),
median frames aired per second of event loop, and the process's peak RSS.

--trace 1 reports the per-layer metrics: the set-up steps timed as
standalone calls, one untraced run, and two runs under cProfile whose
exclusive time is summed by source module (see layers.py).

Every run's records are checked; the first seed is run again and must give
the same digest, also under cProfile and under two PYTHONHASHSEED values.
An operation is one scheduled (message, destination) pair.  It failed when
its run raised or the run's records failed the output check (which includes
a floor on the delivered share); a pair the simulated radio lost is a
modelled outcome, reported as reliability.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  The
exit code is non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_RUNS = 3        # a --trace 0 invocation makes at least this many runs
STEP_REPEATS = 7    # standalone timings of one set-up step
HASH_SEEDS = ("0", "4242")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def load_program() -> None:
    """Import meshsim from this checkout's src/ or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import meshsim
    except ImportError as exc:
        sys.exit(f"bench: cannot import meshsim from {SRC}: {exc}")
    if not Path(meshsim.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"bench: meshsim imported from {meshsim.__file__}, not {SRC}")


class Tally:
    """Operations attempted and failed, and every failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def fail_run(self, seed: int, pairs: int, problems: list[str]) -> None:
        """Every pair of a run whose output check found problems failed."""
        if problems:
            self.failed += pairs
            self.problems.extend(f"seed {seed}: {p}" for p in problems)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def hash_seed_digests(name: str, seed: int) -> dict[str, str]:
    """Digest of the same short run in child processes with other hash seeds."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
            "print(workloads.short_digest(sys.argv[3], int(sys.argv[4])))")
    out = {}
    for value in HASH_SEEDS:
        proc = subprocess.run(
            [sys.executable, "-c", code, str(BENCH_DIR), str(SRC), name, str(seed)],
            env={**os.environ, "PYTHONHASHSEED": value}, cwd=ROOT,
            capture_output=True, text=True, timeout=120)
        out[value] = proc.stdout.strip() if proc.returncode == 0 \
            else f"error: {proc.stderr.strip()[-200:]}"
    return out


def median_time(fn, repeats: int = STEP_REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def tail_label(n: int) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) >= 1000:
            return f"p{p}"
    return ""


def describe(name: str, values: list[float], unit: str) -> str:
    text = f"{name:<14} {statistics.median(values):12.6g} {unit:<4} " \
           f"median of {len(values)}"
    label = tail_label(len(values))
    if label:
        q = statistics.quantiles(values, n=100, method="inclusive")
        text += f", {label} {q[int(label[1:]) - 1]:.6g}"
    return text


def measure(wl, seed: int, seconds: float, tally: Tally) -> dict:
    """--trace 0: repeat runs for `seconds`; end-to-end metrics."""
    import workloads as W
    from meshsim.metrics import DELIVERED
    from meshsim.scenario import load_scenario

    docs = wl.documents()
    overrides = [f"iterations={wl.iterations}"]
    expected = W.expected_pairs(load_scenario(docs[1], overrides))
    walls, setups, rates = [], [], []
    delivered = 0
    first = None
    with W.Probe() as probe:
        start = time.perf_counter()
        i = 0
        while i < MIN_RUNS or time.perf_counter() - start < seconds:
            s = W.sim_seed(seed, i)
            i += 1
            tally.attempted += expected
            gc.collect()
            try:
                call = W.run_call(docs, overrides, s, probe)
            except Exception:
                traceback.print_exc()
                tally.failed += expected
                continue
            gc.collect()
            setups.append(W.time_setup(docs, overrides, s, probe))
            records = call.result.records
            tally.fail_run(s, expected, W.check_records(records, expected))
            delivered += W.delivered_pairs(records)
            walls.append(call.wall_s)
            setups.append(call.setup_s)
            rates.append(call.result.frames_sent / call.loop_s)
            first = first or call
        if first is not None:
            s = first.result.seed
            first_digest = W.digest(first.result)
            again = W.run_call(docs, overrides, s, probe)
            tally.check(W.digest(again.result) == first_digest,
                        f"seed {s}: digest changed on a repeat run")
    tally.check(bool(walls), "no run completed")
    if not walls:
        return {}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(describe("wall_s", walls, "s"))
    print(describe("setup_s", setups, "s"))
    print(describe("frames_per_s", rates, "1/s"))
    print(f"{'peak_rss_mb':<14} {rss_mb:12.6g} MB")
    one_way = [r.one_way_ms for r in first.result.records
               if r.status == DELIVERED]
    latency = "no delivery" if not one_way else \
        f"one-way p50 {statistics.median(one_way):.3f} ms, " \
        f"p90 {first.summary.p90_ms:.3f} ms"
    print(f"outputs: reliability {100.0 * delivered / (len(walls) * expected):.3f} %"
          f" over {len(walls)} runs; seed {s}: digest {first_digest}, "
          f"reliability {first.summary.reliability_pct:.3f} %, {latency}")
    return {"wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "frames_per_s": statistics.median(rates),
            "peak_rss_mb": rss_mb}


def trace(wl, seed: int, tally: Tally) -> dict:
    """--trace 1: set-up steps, one untraced run and two traced runs."""
    import layers as L
    import workloads as W
    from meshsim.engine import RandomSource
    from meshsim.metrics import aggregate
    from meshsim.runner import choose_relays
    from meshsim.scenario import build_traffic, load_scenario
    from meshsim.topology import load_topology

    docs = wl.documents()
    overrides = [f"iterations={wl.iterations}"]
    cfg = load_scenario(docs[1], overrides)
    topology = load_topology(docs[0])
    expected = W.expected_pairs(cfg)
    s = W.sim_seed(seed, 0)
    metrics = {
        "topology.load_s": median_time(lambda: load_topology(docs[0])),
        "topology.loss_map_s": median_time(topology.loss_map),
        "scenario.load_s": median_time(lambda: load_scenario(docs[1], overrides)),
        "scenario.build_traffic_s": median_time(lambda: build_traffic(
            topology, cfg, RandomSource(s).stream("traffic"))),
        "tuning.choose_relays_s": median_time(lambda: choose_relays(
            topology, cfg, RandomSource(s).stream("relays"))),
    }
    with W.Probe() as probe:
        gc.collect()
        ref = W.run_call(docs, overrides, s, probe)
        traced = []
        for _ in range(2):
            gc.collect()
            traced.append(L.profile(W.run_call, docs, overrides, s, probe))
    ref_digest = W.digest(ref.result)
    runs = [ref] + [call for call, _ in traced]
    for call in runs:
        tally.attempted += expected
        tally.fail_run(s, expected, W.check_records(call.result.records, expected))
        tally.check(W.digest(call.result) == ref_digest,
                    f"seed {s}: traced digest differs from the untraced one")
    per_run = [L.profile_metrics(stats, call) for call, stats in traced]
    for name in L.COUNTS:
        tally.check(per_run[0][name] == per_run[1][name],
                    f"{name} differs between traced runs: "
                    f"{per_run[0][name]} vs {per_run[1][name]}")
    metrics.update(per_run[0])
    metrics["engine.events_per_s"] = ref.result.events_dispatched / ref.loop_s
    metrics["metrics.summary_s"] = median_time(lambda: aggregate(ref.result.records))
    metrics["trace.overhead_ratio"] = \
        statistics.median(call.wall_s for call, _ in traced) / ref.wall_s
    print(f"outputs: digest(seed {s}) {ref_digest}; reliability "
          f"{ref.summary.reliability_pct:.3f} %; untraced wall "
          f"{ref.wall_s:.6g} s")
    return metrics


def run_all(args) -> int:
    """Every workload in its own process; prints one table."""
    import workloads as W

    status = 0
    for name in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed (exit {proc.returncode})")
            status = 1
            continue
        report = json.loads(lines[-1])
        status |= not report["correct"]
        print(f"{name}: correct {report['correct']}, operations attempted "
              f"{report['attempted']}, failed {report['failed']}")
        for metric, v in report["metrics"].items():
            print(f"  {metric:<32} {v['value']:.6g} {v['unit']}")
    return status


def main(argv=None) -> int:
    load_program()
    import layers as L
    import workloads as W

    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    wl = W.WORKLOADS[args.workload]
    tally = Tally()
    short = W.short_digest(wl.name, W.sim_seed(args.seed, 0))  # also warms up
    print(f"workload {wl.name}: {wl.why}")
    if args.trace:
        values = trace(wl, args.seed, tally)
        units = {name: unit for name, unit, _ in L.PER_LAYER}
    else:
        values = measure(wl, args.seed, args.seconds, tally)
        units = dict(END_TO_END)
    hashed = hash_seed_digests(wl.name, W.sim_seed(args.seed, 0))
    for value, d in hashed.items():
        tally.check(d == short, f"PYTHONHASHSEED={value} changes the digest: "
                                f"{d} vs {short}")
    import numpy
    print("manifest: " + json.dumps({
        "workload": wl.name, "iterations": wl.iterations, "seed": args.seed,
        "first_simulation_seed": W.sim_seed(args.seed, 0),
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": git_commit(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "hash_seed_check": {"parent": short, **hashed},
    }, sort_keys=True))
    for p in tally.problems[:20]:
        print(f"CHECK FAILED: {p}")
    if len(tally.problems) > 20:
        print(f"CHECK FAILED: {len(tally.problems) - 20} more problems")
    if args.trace:
        for name, unit, _ in L.PER_LAYER:
            print(f"{name:<32} {values[name]:.6g} {unit}")
    correct = not tally.problems
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units
                    if k in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
