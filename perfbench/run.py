"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload closed_torus --seed 0 --seconds 24 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it reports the end-to-end
metrics, with ``--trace 1`` the per-layer ones.  The workload runs in its own
process (worker.py); set-up is sampled in extra processes started one after
another, never alongside it.  A human-readable summary comes first and the
last line of standard output is the JSON result.  The full run record,
including every instance, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S, reference_s

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("closed_torus", "boundary_torus", "control_box")

# Set-up is measured in this many processes; setup_s is their median.
SETUP_SAMPLES = 3
# A run, set-up samples included, must end well inside three minutes.
RUN_BUDGET_S = 165.0

UNITS = {"arcs_per_s": "arcs/s", "serialize.bytes": "B"}


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
    }


def spawn(args, extra: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    ref_before = reference_s()
    t0 = time.time()
    budget = deadline - time.monotonic()
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--t0", repr(t0),
        "--ref-before", repr(ref_before),
        "--budget", repr(budget),
        "--out", str(OUT),
        *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(budget, 1.0)
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def report(args, res: dict, record_path: Path) -> None:
    summary = res["summary"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {res['attempted']} instances")
    for name, value in res["metrics"].items():
        print(f"  {name:28s} {value:.6g} {unit_of(name)}")
    fail_frac = res["failed"] / res["attempted"]
    print(f"  {'fail_frac':28s} {fail_frac:.6g} ratio ({res['failed']}/{res['attempted']})")
    if args.trace:
        print(
            f"  layer self time {summary['layer_self_s']:.4g} s of "
            f"{summary['traced_instance_wall_s']:.4g} s traced instance wall; "
            f"counts repeat: {summary['counts_repeat']}; "
            f"artifacts byte-stable: {summary['artifacts_byte_stable']}"
        )
    else:
        print(
            f"  tail is p{summary['tail_percentile']} of {res['attempted']} "
            f"({summary['instances_beyond_tail']} beyond); "
            f"{summary['rounds']} rounds in {summary['window_s']:.4g} s"
        )
        print(
            f"  times are scaled to a {1000 * REFERENCE_S:g} ms reference loop, which took "
            f"{1000 * summary['reference_p50_s']:.4g} ms; unscaled: p50 "
            f"{summary['wall_p50_s']:.4g} s, tail {summary['wall_tail_s']:.4g} s, "
            f"{summary['wall_arcs_per_s']:.4g} arcs/s"
        )
    for r in res["records"]:
        if not r["passed"]:
            why = r.get("error") or ", ".join(
                f"{k}={r['residuals'].get(k, False)!r}" for k in r["failed_criteria"]
            )
            params = json.dumps(r["params"], sort_keys=True)
            print(f"  FAIL seed={args.seed} {r['id']} {params}: {why}")
    print(f"  record: {record_path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "actionlab" / "__init__.py").is_file():
        print(f"error: no actionlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    try:
        samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                samples.append(spawn(args, ["--setup-only"], deadline))
        res = spawn(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    samples.append(res)
    setups = [s["setup_s"] for s in samples]
    if not args.trace:
        res["metrics"]["setup_s"] = statistics.median(setups)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine_info(), "numpy": res["numpy"]},
        "thread_pinning": res["thread_pinning"],
        "setup_samples_s": setups,
        "setup_wall_samples_s": [s["setup_wall_s"] for s in samples],
        **{k: res[k] for k in ("correct", "attempted", "failed", "metrics", "summary", "records")},
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    report(args, res, record_path)
    result = {key: res[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = {
        name: {"value": value, "unit": unit_of(name)} for name, value in res["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
