"""One pass of a perfbench workload, in a fresh process.

Run by ``run.py`` as ``python3 -m perfbench.worker ...`` from the checkout
root, so recallci's caches start cold in every pass, as they do for a user
of the command line.  The pass reports its set-up time, each measured call
and its checks as one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from .checks import (
    NINE_METHODS,
    check_mc_records,
    check_records,
    check_study_means,
    check_study_row,
    classify_audit,
)
from .stats import OpTally
from .tracing import Tracer, self_times, span_cost
from .workloads import WORKLOADS, build_audits, load_data, pass_seed, pinned_variables

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Layers traced by patching the name in the module that calls them.
LAYER_TARGETS = {
    "scenarios.sample_realization": ["recallci.evaluation:sample_realization"],
    "distributions.sample_hypergeom": ["recallci.evaluation:sample_hypergeom"],
    "streams.generator": ["recallci.streams:RandomStream.generator"],
    "intervals.segment_yield_draws": [
        "recallci.evaluation:segment_yield_draws",
        "recallci.intervals:segment_yield_draws",
    ],
    "intervals.compute_interval": [
        "recallci.evaluation:compute_interval",
        "recallci.cli:compute_interval",
    ],
    "intervals.most_conservative_prior": ["recallci.intervals:most_conservative_prior"],
    "io.parse_problem_rows": [
        "recallci.cli:parse_problem_rows",
        "recallci.io:parse_problem_rows",
    ],
    "io.dump_records": ["recallci.cli:dump_records"],
}


# Spans the benchmark opens around its own calls into the library.
BENCH_SPANS = ("evaluation.evaluate_coverage", "cli.main")


def import_recallci():
    """Import recallci from this checkout's sources, and nowhere else."""
    package = SRC / "recallci"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no recallci sources at {package}")
    sys.path.insert(0, str(SRC))
    import recallci
    import recallci.cli

    if Path(recallci.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: recallci imported from {recallci.__file__}")
    return recallci


def cpu_seconds() -> float:
    """User and system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _method_span(method, *args, **kwargs) -> str:
    return f"intervals.compute_interval.{method}"


def _posterior_draws(segment, family, prior, draws, *args, **kwargs) -> dict[str, int]:
    return {"intervals.posterior_draws": draws * len(segment.strata)}


def install_tracer(tracer) -> set[str]:
    """Patch every layer target that exists; return the layers traced."""
    present = set()
    for layer, targets in LAYER_TARGETS.items():
        name = _method_span if layer == "intervals.compute_interval" else layer
        count = _posterior_draws if layer == "intervals.segment_yield_draws" else None
        for target in targets:
            if tracer.patch(target, name, count):
                present.add(layer)
    return present


class Pass:
    """Inputs, measured calls and check results of one pass."""

    def __init__(self, args, config: dict, data: dict, recallci) -> None:
        self.args = args
        self.config = config
        self.data = data
        self.recallci = recallci
        self.tally = OpTally()
        self.calls: list[list[float]] = []  # [ops, wall_s, cpu_s] per counted call
        self.problems: list[str] = []
        self.extra: dict = {}
        self.tracer = None

    def close(self) -> None:
        """Release what ``build`` created."""

    def problem(self, msg: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(msg)

    def timed(self, fn, *fn_args):
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        result = fn(*fn_args)
        return result, time.perf_counter() - t0, cpu_seconds() - cpu0


class StudyPass(Pass):
    def build(self) -> None:
        rc, cfg, args = self.recallci, self.config, self.args
        scenario = cfg["scenario"]
        panel = self.data["panels"][scenario]
        self.items = []
        for i, variables in enumerate(panel[: args.limit]):
            spec = rc.ScenarioSpec(f"{scenario}-panel-{i}", pinned_variables(variables))
            config = rc.EvalConfig(
                master_seed=pass_seed(args.seed, args.pass_index, i),
                realizations=args.realizations_per_truth,
                samples_per_realization=cfg["samples_per_realization"],
                level=cfg["level"],
                methods=NINE_METHODS,
                mc_draws=cfg["mc_draws"],
                workers=args.workers,
            )
            self.items.append((spec, config))

    def run(self, deadline: float) -> None:
        evaluate = self.recallci.evaluate_coverage
        if self.tracer is not None:
            evaluate = self.tracer.wrap(evaluate, "evaluation.evaluate_coverage")
        reps = self.args.realizations_per_truth
        self.done: list[int] = []
        # (panel index, method, (covered, above, below, undefined, width))
        self.rows: list[tuple[int, str, tuple]] = []
        for i, (spec, config) in enumerate(self.items):
            if time.perf_counter() > deadline:
                break
            self.extra["items_run"] = i + 1
            if self.tracer is not None:
                self.tracer.op_id = i
            try:
                report, wall, cpu = self.timed(evaluate, spec, config)
            except Exception:
                self.tally.record("failed", reps, traceback.format_exc(limit=4))
                continue
            self.tally.record("ok", reps)
            self.calls.append([reps, wall, cpu])
            self.done.append(i)
            for m in config.methods:
                arrays = (
                    report.coverage[m],
                    report.upper_gap[m],
                    report.lower_gap[m],
                    report.undefined[m],
                    report.mean_width[m],
                )
                self.rows += [(i, m, tuple(float(a[j]) for a in arrays)) for j in range(reps)]

    def check(self) -> None:
        for i, method, row in self.rows:
            for msg in check_study_row(method, row):
                self.problem(f"panel {i}: {msg}")
        if not self.done:
            return
        reference = self.data["study_reference"][self.config["scenario"]]

        def pass_mean(method: str, position: int) -> float:
            return _nanmean([row[position] for _, m, row in self.rows if m == method])

        def reference_mean(method: str, key: str) -> float:
            return _nanmean([reference[key][method][i] for i in self.done])

        for msg in check_study_means(
            {m: pass_mean(m, 0) for m in NINE_METHODS},
            {m: pass_mean(m, 4) for m in NINE_METHODS},
            {
                key: {m: reference_mean(m, key) for m in NINE_METHODS}
                for key in ("coverage", "width")
            },
        ):
            self.problem(f"pass mean: {msg}")


def _nanmean(values: list[float]) -> float:
    values = [v for v in values if not math.isnan(v)]
    return sum(values) / len(values) if values else math.nan


class AuditPass(Pass):
    _tmp: tempfile.TemporaryDirectory | None = None

    def build(self) -> None:
        self.audits = build_audits(self.data, self.config, self.args.seed, self.args.pass_index)
        self.audits = self.audits[: self.args.limit]
        OUT_DIR.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=OUT_DIR)
        self.argvs = []
        for k, audit in enumerate(self.audits):
            path = None
            if audit.kind == "stratified":
                path = str(Path(self._tmp.name) / f"audit{k}.csv")
                Path(path).write_text(audit.csv_text(), encoding="utf-8")
            self.argvs.append(audit.argv(path))

    def _call(self, main, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            err.write(traceback.format_exc(limit=4))
        return rc, out.getvalue(), err.getvalue()

    def run(self, deadline: float) -> None:
        main = self.recallci.cli.main
        if self.tracer is not None:
            main = self.tracer.wrap(main, "cli.main")
        self.results = []
        kinds = {"single": 0, "zero": 0, "stratified": 0}
        rejected = dict(kinds)
        for k, (audit, argv) in enumerate(zip(self.audits, self.argvs)):
            if time.perf_counter() > deadline:
                break
            self.extra["items_run"] = k + 1
            if self.tracer is not None:
                self.tracer.op_id = k
            (rc, out, err), wall, cpu = self.timed(self._call, main, argv)
            outcome = classify_audit(audit.kind, rc, out, err)
            self.tally.record(outcome, reason=f"audit {k} ({audit.kind}) exit {rc}: {err[-300:]}")
            kinds[audit.kind] += 1
            if outcome == "rejected":
                rejected[audit.kind] += 1
            if outcome == "ok" and audit.kind == "single":
                self.calls.append([1, wall, cpu])
            self.results.append((audit, outcome, out))
        self.extra["audits_by_kind"] = kinds
        self.extra["rejected_by_kind"] = rejected

    def check(self) -> None:
        cfg = self.config
        rng = np.random.default_rng([self.args.seed, self.args.pass_index, 1])
        mc_left = cfg["mc_reference_audits"]
        for k, (audit, outcome, out) in enumerate(self.results):
            if outcome != "ok":
                continue
            try:
                records = json.loads(out)
            except ValueError:
                self.problem(f"audit {k}: output is not JSON")
                continue
            msgs = check_records(records, audit.problem, cfg["level"], audit.seed, cfg["mc_draws"])
            if not msgs and audit.kind == "single" and mc_left > 0:
                mc_left -= 1
                msgs = check_mc_records(
                    records,
                    audit.problem,
                    cfg["level"],
                    cfg["mc_reference_draws"],
                    rng,
                    self.recallci.most_conservative_prior,
                )
            for msg in msgs:
                self.problem(f"audit {k} ({audit.kind}): {msg}")

    def close(self) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()


def layer_metrics(run: Pass, present: set[str], cache_before) -> dict[str, float | None]:
    """Per-op layer metrics of a traced pass; None marks an absent layer."""
    tracer = run.tracer
    ops = max(run.tally.attempted, 1)
    times = self_times(tracer.spans)
    out: dict[str, float | None] = {}

    def put(span: str, calls: bool = True) -> None:
        if span.startswith("intervals.compute_interval."):
            live = "intervals.compute_interval" in present
        else:
            live = span in present or span in BENCH_SPANS
        n, own = times.get(span, (0, 0.0))
        if calls:
            out[f"{span}.calls"] = n / ops if live else None
        out[f"{span}.self_s"] = own / ops if live else None

    put("intervals.segment_yield_draws")
    out["intervals.posterior_draws"] = (
        tracer.counters["intervals.posterior_draws"] / ops
        if "intervals.segment_yield_draws" in present
        else None
    )
    for m in NINE_METHODS:
        put(f"intervals.compute_interval.{m}")
    put("streams.generator")
    put("intervals.most_conservative_prior")
    for span in (
        "evaluation.evaluate_coverage",
        "distributions.sample_hypergeom",
        "scenarios.sample_realization",
        "cli.main",
        "io.parse_problem_rows",
        "io.dump_records",
    ):
        put(span, calls=False)

    if run.config["kind"] == "study":
        # The harness calls each closed-form kernel once per distinct
        # (r1, r0) pair of a realization.
        pairs = times.get("intervals.compute_interval.naive-binomial", (0, 0.0))[0]
        samples = run.tally.ok * run.config["samples_per_realization"]
        live = "intervals.compute_interval" in present and samples > 0
        out["evaluation.pairs_per_sample"] = pairs / samples if live else None
    else:
        out["evaluation.pairs_per_sample"] = 0.0

    mcp_calls = times.get("intervals.most_conservative_prior", (0, 0.0))[0]
    cache_after = _mcp_cache_misses(run.recallci)
    if cache_before is None or cache_after is None:
        out["intervals.mcp_cache_hit_ratio"] = None
    else:
        misses = cache_after - cache_before
        hits = mcp_calls - misses
        out["intervals.mcp_cache_hit_ratio"] = hits / mcp_calls if mcp_calls else 0.0
    return out


def _mcp_cache_misses(recallci) -> int | None:
    solver = getattr(recallci.intervals, "_solve_most_conservative", None)
    info = getattr(solver, "cache_info", None)
    return info().misses if info is not None else None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--mode", choices=("measure", "trace", "setup"), default="measure")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--realizations-per-truth", type=int, default=1)
    parser.add_argument("--limit", type=int, default=None, help="run only the first N items")
    parser.add_argument("--budget-s", type=float, default=60.0, help="start no op after this")
    parser.add_argument("--spawned-at", type=float, required=True, help="time.time() at spawn")
    parser.add_argument("--spans-out", default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    recallci = import_recallci()
    config = WORKLOADS[args.workload]
    cls = StudyPass if config["kind"] == "study" else AuditPass
    run = cls(args, config, load_data(), recallci)
    try:
        run.build()
        result = measure(args, run, recallci)
    finally:
        run.close()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def measure(args, run: Pass, recallci) -> dict:
    """Time set-up so far, then run and check the pass unless set-up only."""
    setup_s = time.time() - args.spawned_at
    result = {
        "setup_s": setup_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "recallci": getattr(recallci, "__version__", None),
        },
    }
    if args.mode != "setup":
        present: set[str] = set()
        cache_before = None
        if args.mode == "trace":
            run.tracer = Tracer()
            present = install_tracer(run.tracer)
            cache_before = _mcp_cache_misses(recallci)
        run.run(deadline=time.perf_counter() + args.budget_s)
        if run.tracer is not None:
            run.tracer.restore()
            result["layers"] = layer_metrics(run, present, cache_before)
            result["absent_layers"] = sorted(set(LAYER_TARGETS) - present)
            result["spans"] = len(run.tracer.spans)
            result["span_cost_s"] = span_cost()
            if args.spans_out:
                run.tracer.write(args.spans_out)
        run.check()
        result.update(
            calls=run.calls,
            ok=run.tally.ok,
            rejected=run.tally.rejected,
            failed=run.tally.failed,
            failures=run.tally.failures,
            problems=run.problems,
            peak_rss_mb=peak_rss_mb(),
            **run.extra,
        )
    return result


if __name__ == "__main__":
    sys.exit(main())
