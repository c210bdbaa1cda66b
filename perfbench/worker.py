"""One workload process: set up, then run seeded instances back to back.

Started by run.py, one process per workload and one caller: the next instance
starts only when the previous one has finished.  Prints one JSON object as the
last line of standard output.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --t0 <epoch seconds at spawn> --ref-before <reference pass before spawn, s> \
        --budget <seconds> [--setup-only]
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: the benchmark measures one
# caller on one core, whatever the machine's core count.
THREAD_PINS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
import warnings  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import actionlab  # noqa: E402
import instances  # noqa: E402
from reference import reference_s, scaled  # noqa: E402
import spans  # noqa: E402

# Rounds guaranteed per timed run, whatever --seconds is; the tail percentile
# is fixed from this count (see tail_percentile).
MIN_ROUNDS = {"closed_torus": 3, "boundary_torus": 6, "control_box": 4}
# The memory pass starts no instance after this many seconds, nor with less
# than the margin left of the run's budget.
MEMORY_PASS_S = 45.0
MEMORY_PASS_MARGIN_S = 30.0

_NO_SPAN = nullcontext()


def no_span(_name):
    return _NO_SPAN


def tail_percentile(workload: str) -> int:
    """Highest whole percentile with at least ten instances beyond it at the
    guaranteed instance count.  Rounds are balanced, so at a fixed percentile
    the tail always lands on the same place in the mix."""
    n = MIN_ROUNDS[workload] * len(instances.MIXES[workload])
    return (100 * (n - 10)) // n


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of ``values``.

    A weighted mean of all order statistics: the i-th of n gets the
    Beta(q(n+1), (1-q)(n+1)) probability of [(i-1)/n, i/n].  It reads the
    instances around the quantile, not a single one, so one instance slowed
    by the machine moves it little.  The Beta density is integrated by the
    trapezoid rule, 1000 steps to an interval; both parameters exceed 1 at
    the benchmark's instance counts, so the density vanishes at 0 and 1.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    t = np.linspace(0.0, 1.0, 1000 * n + 1)
    with np.errstate(divide="ignore"):
        log_density = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    density = np.exp(log_density - log_density.max())
    weights = (density[:-1] + density[1:]).reshape(n, 1000).sum(axis=1)
    return float(np.dot(weights, xs) / weights.sum())


def digest_dir(path: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    total = 0
    for f in sorted(path.iterdir()):
        data = f.read_bytes()
        total += len(data)
        h.update(f.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), total


def run_one(inst, span, tracer, scratch: Path) -> dict:
    """Run one instance in a fresh directory, then hash and delete its files."""
    dest = Path(tempfile.mkdtemp(prefix="inst-", dir=scratch))
    if tracer is not None:
        tracer.instance = inst.ident
    error = trace = None
    outcome = None
    try:
        start = time.perf_counter()
        try:
            with span(spans.INSTANCE):
                outcome = instances.run_instance(inst, dest, span)
        except Exception as exc:  # an instance failure is a result, not a crash
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            trace = traceback.format_exc()
        wall = time.perf_counter() - start
        sha, nbytes = digest_dir(dest)
    finally:
        shutil.rmtree(dest, ignore_errors=True)
    rec = {"id": inst.ident, "params": inst.params, "wall_s": wall, "sha256": sha, "bytes": nbytes}
    if outcome is None:
        rec.update(passed=False, value_verified=False, error=error, traceback=trace)
        return rec
    rec.update(
        passed=outcome.passed,
        value_verified=outcome.value_verified,
        error=None,
        failed_criteria=sorted(k for k, ok in outcome.criteria.items() if not ok),
        residuals=outcome.residuals,
        value=outcome.value,
        c0=outcome.c0,
        arcs=outcome.arcs,
        karp_table_bytes=outcome.karp_table_bytes,
        mcf_sources=outcome.mcf_sources,
        support_pairs=outcome.support_pairs,
    )
    return rec


def counts(records: list) -> dict:
    def total(key):
        return sum(r.get(key, 0) for r in records)

    return {
        "grid.arcs": total("arcs"),
        "network.karp.table_mb": total("karp_table_bytes") / spans.MB,
        "network.mcf.sources": total("mcf_sources"),
        "diagnostics.support_pairs": total("support_pairs"),
        "serialize.bytes": total("bytes"),
    }


def timed_run(args, scratch, deadline: float) -> dict:
    """Whole rounds back to back until both the round floor and --seconds are
    met; a round that would end past the deadline is not started.

    The reference loop runs before the first instance of a round and after
    every instance; an instance's time is scaled by the mean of the two
    passes around it.  arcs_per_s is the graph arcs of all instances over
    their summed scaled time; rounds are whole, so every run weighs the mix
    the same."""
    records = []
    rounds = 0
    last_round = 0.0
    start = time.perf_counter()
    floor = MIN_ROUNDS[args.workload]
    while rounds < floor or time.perf_counter() - start < args.seconds:
        round_start = time.perf_counter()
        if round_start + last_round > deadline:
            break
        ref_before = reference_s()
        for inst in instances.round_instances(args.workload, args.seed, rounds):
            rec = run_one(inst, no_span, None, scratch)
            ref_after = reference_s()
            rec["ref_s"] = 0.5 * (ref_before + ref_after)
            rec["scaled_s"] = scaled(rec["wall_s"], rec["ref_s"])
            ref_before = ref_after
            records.append(rec)
        last_round = time.perf_counter() - round_start
        rounds += 1
    window = time.perf_counter() - start
    times = [r["scaled_s"] for r in records]
    walls = [r["wall_s"] for r in records]
    arcs = sum(r.get("arcs", 0) for r in records)
    q = tail_percentile(args.workload)
    rank = max(1, math.ceil(q * len(times) / 100))
    return {
        "records": records,
        "summary": {
            "rounds": rounds,
            "window_s": window,
            "tail_percentile": q,
            "tail_rank": rank,
            "instances_beyond_tail": len(times) - rank,
            "nearest_rank_p50_s": statistics.median(times),
            "nearest_rank_tail_s": sorted(times)[rank - 1],
            "reference_p50_s": statistics.median(r["ref_s"] for r in records),
            "wall_p50_s": harrell_davis(walls, 0.5),
            "wall_tail_s": harrell_davis(walls, q / 100),
            "wall_arcs_per_s": arcs / sum(walls),
        },
        "metrics": {
            "instance_p50_s": harrell_davis(times, 0.5),
            "instance_tail_s": harrell_davis(times, q / 100),
            "arcs_per_s": arcs / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def traced_run(args, scratch, out_dir: Path, deadline: float) -> dict:
    """Round 0 run untraced, traced for time, and traced for memory.

    Untraced and time-traced runs of each instance alternate order, so drift
    in machine speed cancels out of the overhead.  Self times and calls come
    from the time-traced runs, peaks from the memory pass, which runs last.
    """
    batch = instances.round_instances(args.workload, args.seed, 0)
    timer = spans.Tracer()
    plain, timed = [], []
    for i, inst in enumerate(batch):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                with spans.traced_network(timer):
                    timed.append(run_one(inst, timer.span, timer, scratch))
            else:
                plain.append(run_one(inst, no_span, None, scratch))
    # One instance per configuration, slowest first, for at most
    # MEMORY_PASS_S: the largest instances set the peaks, and a repeat adds
    # little to a maximum.
    plain_wall_of = {r["id"]: r["wall_s"] for r in plain}
    configs = []
    for inst in sorted(batch, key=lambda inst: -plain_wall_of[inst.ident]):
        if all(inst.params != c.params for c in configs):
            configs.append(inst)
    sizer = spans.Tracer(memory=True)
    sized = []
    stop = min(time.perf_counter() + MEMORY_PASS_S, deadline - MEMORY_PASS_MARGIN_S)
    tracemalloc.start()
    try:
        with spans.traced_network(sizer):
            for inst in configs:
                if time.perf_counter() > stop:
                    break
                sized.append(run_one(inst, sizer.span, sizer, scratch))
    finally:
        tracemalloc.stop()

    times = timer.layer_totals()
    peaks = sizer.layer_totals()
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = times.get(layer, {}).get("self_s", 0.0)
        metrics[f"{layer}.calls"] = times.get(layer, {}).get("calls", 0)
        metrics[f"{layer}.peak_mb"] = peaks.get(layer, {}).get("peak_mb", 0.0)
    for name in spans.NETWORK_SPANS.values():
        metrics[f"{name}.self_s"] = times.get(name, {}).get("self_s", 0.0)
        metrics[f"{name}.calls"] = times.get(name, {}).get("calls", 0)
    repeat = counts(plain) == counts(timed)
    metrics.update(counts(timed))
    plain_wall = sum(r["wall_s"] for r in plain)
    timed_wall = sum(r["wall_s"] for r in timed)
    metrics["trace.overhead_frac"] = timed_wall / plain_wall - 1.0

    layer_self = sum(t["self_s"] for name, t in times.items() if name != spans.INSTANCE)
    spans_path = out_dir / f"{args.workload}-seed{args.seed}.spans.json"
    spans_path.write_text(json.dumps({"timed": timer.as_records(), "sized": sizer.as_records()}))
    timed_sha = {r["id"]: r["sha256"] for r in timed}
    stable = [r["sha256"] for r in plain] == [r["sha256"] for r in timed] and all(
        r["sha256"] == timed_sha[r["id"]] for r in sized
    )
    return {
        "records": timed,
        "summary": {
            "untraced_instance_wall_s": plain_wall,
            "traced_instance_wall_s": timed_wall,
            "counts_repeat": repeat,
            "untraced_counts": counts(plain),
            "artifacts_byte_stable": stable,
            "memory_pass_instances": [r["id"] for r in sized],
            "layer_self_s": layer_self,
            "unattributed_frac": 1.0 - layer_self / timed_wall,
            "spans_file": str(spans_path.relative_to(ROOT)),
        },
        "metrics": metrics,
        "self_check_ok": repeat,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(instances.MIXES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--ref-before", type=float, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = Path(actionlab.__file__).resolve().parent
    if src != (ROOT / "src" / "actionlab").resolve():
        print(f"actionlab imported from {src}, not from this checkout", file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore", message="optimal trajectories touch the state box edge")
    out_dir = Path(args.out)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        for inst in instances.warmup_instances(args.workload, args.seed):
            rec = run_one(inst, no_span, None, scratch)
            if rec["error"]:
                print(f"warm-up {inst.ident} failed: {rec['error']}", file=sys.stderr)
                return 1
        setup_s = time.time() - args.t0
        deadline = time.perf_counter() + args.budget - setup_s
        ref_s = 0.5 * (args.ref_before + reference_s())
        result = {"setup_s": scaled(setup_s, ref_s), "setup_wall_s": setup_s}
        if not args.setup_only:
            if args.trace:
                part = traced_run(args, scratch, out_dir, deadline)
            else:
                part = timed_run(args, scratch, deadline)
            records = part["records"]
            result.update(part)
            result["attempted"] = len(records)
            result["failed"] = sum(not r["passed"] for r in records)
            result["correct"] = part.get("self_check_ok", True) and all(
                r["value_verified"] for r in records
            )
            result["numpy"] = np.__version__
            result["thread_pinning"] = THREAD_PINS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
