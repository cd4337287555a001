"""recallci benchmark: coverage-study throughput, audit latency, per-layer timings.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload study-legal --seed 1 --seconds 16 --trace 0

Each pass of a workload runs in a fresh process (``perfbench.worker``), so
the library's caches start cold, as for a user of the command line.  With
``--trace 0`` passes repeat until at least three quarters of ``--seconds``
of ops are measured (two passes on the reference machine) and the
end-to-end metrics are reported.  With ``--trace 1`` one untraced
pass and one traced pass (``workers=1``) of the same inputs give the
per-layer metrics and the tracing overhead.

An op is one realization on the study workloads and one audit on
``audit``.  Audit latency and throughput count single-stratum audits with
a defined estimate only; audits that recallci rejects with a documented
error (stratified input, no relevant document sampled) count as attempted
and rejected, and show in ``cli.rejected_ratio``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file with provenance
goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.checks import NINE_METHODS  # noqa: E402
from perfbench.stats import latency_summary  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 20130217
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "intervals.segment_yield_draws.calls": "calls/op",
    "intervals.segment_yield_draws.self_s": "s/op",
    "intervals.posterior_draws": "draws/op",
    "evaluation.evaluate_coverage.self_s": "s/op",
    "evaluation.pairs_per_sample": "ratio",
    **{
        f"intervals.compute_interval.{m}.{k}": u
        for m in NINE_METHODS
        for k, u in (("calls", "calls/op"), ("self_s", "s/op"))
    },
    "streams.generator.calls": "calls/op",
    "streams.generator.self_s": "s/op",
    "intervals.most_conservative_prior.calls": "calls/op",
    "intervals.most_conservative_prior.self_s": "s/op",
    "intervals.mcp_cache_hit_ratio": "ratio",
    "distributions.sample_hypergeom.self_s": "s/op",
    "scenarios.sample_realization.self_s": "s/op",
    "cli.main.self_s": "s/op",
    "io.parse_problem_rows.self_s": "s/op",
    "io.dump_records.self_s": "s/op",
    "cli.rejected_ratio": "ratio",
    "evaluation.pool_busy_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


class WorkerError(RuntimeError):
    pass


def spawn(args, pass_index: int, mode: str, workers: int, reps: int, **extra) -> dict:
    """Run one worker pass in a fresh interpreter and return its result."""
    cmd = [
        sys.executable,
        "-m",
        "perfbench.worker",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--pass-index",
        str(pass_index),
        "--mode",
        mode,
        "--workers",
        str(workers),
        "--realizations-per-truth",
        str(reps),
        "--budget-s",
        str(args.seconds),
    ]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    cmd += ["--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker pass {pass_index} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker pass {pass_index} ({mode}) exited {proc.returncode}")
    return json.loads(lines[-1])


def measured_s(result: dict) -> float:
    return sum(wall for _, wall, _ in result["calls"])


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics over all measured passes, and the tail's details."""
    calls = [c for p in passes for c in p["calls"]]
    if not calls:
        raise WorkerError("no op completed")
    ops = sum(n for n, _, _ in calls)
    latencies = [wall for n, wall, _ in calls for _ in range(int(n))]
    summary = latency_summary(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / sum(wall for _, wall, _ in calls),
        "op_p50_ms": summary["p50"] * 1e3,
        "op_tail_ms": summary["tail"] * 1e3,
        "cpu_s_per_op": sum(cpu for _, _, cpu in calls) / ops,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    return values, {"tail_percentile": summary["tail_percentile"], "latency_samples": summary["n"]}


def run_untraced(args, config: dict) -> tuple[list[dict], dict, dict]:
    """Fresh-process passes until enough ops are measured, then set-up probes."""
    workers = config.get("workers", 1)
    reps = config.get("realizations_per_truth", 1)
    passes: list[dict] = []
    setups: list[float] = []
    while True:
        result = spawn(args, len(passes), "measure", workers, reps)
        passes.append(result)
        setups.append(result["setup_s"])
        # Passes are about half the target long; stopping at three quarters
        # of it keeps a run short on a slowed machine.
        if sum(measured_s(p) for p in passes) >= 0.75 * args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, len(setups), "setup", 1, 1)["setup_s"])
    values, detail = end_to_end(passes, setups)
    detail["setup_samples"] = setups
    return passes, values, detail


def run_traced(args, config: dict) -> tuple[list[dict], dict, dict]:
    """Untraced pass, then a traced workers=1 pass over the same inputs."""
    workers = config.get("workers", 1)
    untraced = spawn(args, 0, "measure", workers, config.get("realizations_per_truth", 1))
    passes = [untraced]
    reference = untraced
    if workers > 1:
        reference = spawn(args, 0, "measure", 1, 1)
        passes.append(reference)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    traced = spawn(args, 0, "trace", 1, 1, limit=reference["items_run"], spans_out=spans)
    passes.append(traced)

    values = dict(traced["layers"])
    busy_wall = measured_s(untraced)
    busy_cpu = sum(cpu for _, _, cpu in untraced["calls"])
    values["evaluation.pool_busy_ratio"] = busy_cpu / (workers * busy_wall) if busy_wall else None
    # The tracer's own cost, from its measured cost per span.  The wall time
    # of the traced pass over that of the untraced one is kept as detail:
    # on a shared machine two passes a few seconds apart differ by up to a
    # fifth, so that ratio swings either side of zero.
    cost = traced["spans"] * traced["span_cost_s"]
    values["trace.overhead_ratio"] = cost / (measured_s(traced) - cost)
    values["cli.rejected_ratio"] = rejected_ratio(passes)
    detail = {
        "absent_layers": traced["absent_layers"],
        "spans_file": spans.name,
        "spans": traced["spans"],
        "span_cost_s": traced["span_cost_s"],
        "wall_ratio_minus_1": measured_s(traced) / measured_s(reference) - 1.0,
    }
    return passes, values, detail


def rejected_ratio(passes: list[dict]) -> float:
    attempted = sum(p["ok"] + p["rejected"] + p["failed"] for p in passes)
    return sum(p["rejected"] for p in passes) / attempted if attempted else 0.0


def git_revision() -> str | None:
    """Commit checked out at the root, read from ``.git`` itself.

    None when the root is not a git working tree, as in an exported
    checkout.
    """
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args, config: dict, passes: list[dict]) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "recallci").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "config": config,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "versions": passes[0]["versions"],
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    config = WORKLOADS[args.workload]

    try:
        if args.trace:
            passes, values, detail = run_traced(args, config)
            units = PER_LAYER
        else:
            passes, values, detail = run_untraced(args, config)
            units = END_TO_END
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = [msg for p in passes for msg in p["problems"]]
    failures = [msg for p in passes for msg in p["failures"]]
    attempted = sum(p["ok"] + p["rejected"] + p["failed"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    absent = [name for name in units if values.get(name) is None]
    metrics = {
        name: {"value": values.get(name) or 0.0, "unit": unit} for name, unit in units.items()
    }

    report = {
        "provenance": provenance(args, config, passes),
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "rejected_by_kind": [p.get("rejected_by_kind") for p in passes],
        "metrics": metrics,
        "absent_metrics": absent,
        "detail": detail,
        "problems": problems,
        "failures": failures,
        "passes": passes,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(passes)} passes, {attempted} ops attempted, {failed} failed, "
        f"{sum(p['rejected'] for p in passes)} rejected by documented errors"
    )
    for name, unit in units.items():
        shown = "absent" if name in absent else f"{metrics[name]['value']:.6g}"
        print(f"  {name:<48} {shown:>12} {unit}")
    if "tail_percentile" in detail:
        print(
            f"  op_tail_ms is the p{detail['tail_percentile']:g} latency of "
            f"{detail['latency_samples']} ops; setup samples {detail['setup_samples']}"
        )
    for msg in (problems + failures)[:10]:
        print(f"  CHECK: {msg}")
    print(f"  result file: {out_path.relative_to(ROOT)}")
    summary = {"correct": not problems, "attempted": attempted, "failed": failed}
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
