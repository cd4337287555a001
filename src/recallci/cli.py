"""Command-line interface.

Subcommands:

* ``interval``  -- recall confidence intervals for an audited sample
* ``coverage``  -- coverage study of interval methods on a scenario
* ``scenario``  -- draw realizations from a scenario
* ``bias``      -- exact sampling distribution and bias of the estimator
* ``design``    -- expected interval width across sample allocations
* ``binom``     -- exact coverage curve of a binomial interval

Every randomized subcommand (``coverage``, ``scenario``, ``design``) requires
an explicit ``--seed`` and echoes it into its outputs, so results can be
reproduced exactly.  ``interval`` is deterministic; its optional ``--seed``
and ``--draws`` (at least 1,000) change no bound and are echoed into the
records of the posterior methods.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import binomial
from .core import (
    RealizationTruth,
    SampleDesign,
    exact_sampling_distribution,
)
from .distributions import check_level
from .evaluation import (
    _NS_REALIZATION,
    EvalConfig,
    _allocation_grid,
    design_width_curve,
    evaluate_coverage,
    format_summary_table,
    write_long_csv,
    write_summary_json,
)
from .intervals import METHODS, POSTERIOR_METHODS, MonteCarloConfig, compute_interval
from .io import (
    ProblemFormatError,
    dump_records,
    interval_record,
    load_problem_csv,
    parse_problem_rows,
)
from .scenarios import (
    BUILTIN_SCENARIOS,
    builtin_scenario,
    load_scenario_config,
    sample_realization,
)
from .streams import RandomStream


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _level(text: str) -> float:
    try:
        value = float(text)
        check_level(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _int_tuple(text: str, arity: int | None, what: str) -> tuple[int, ...]:
    parts = text.split(",")
    if arity is not None and len(parts) != arity:
        raise argparse.ArgumentTypeError(
            f"{what} must be {arity} comma-separated integers, got {text!r}"
        )
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be integers, got {text!r}") from None


def _parse_methods(raw: list[str] | None) -> tuple[str, ...]:
    if not raw:
        return METHODS
    methods: list[str] = []
    for chunk in raw:
        for name in chunk.split(","):
            name = name.strip()
            if not name:
                continue
            if name not in METHODS:
                raise argparse.ArgumentTypeError(
                    f"unknown method {name!r}; choose from {', '.join(METHODS)}"
                )
            if name not in methods:
                methods.append(name)
    return tuple(methods)


def _scenario_from_args(args) -> "ScenarioSpec":
    if args.scenario_config:
        return load_scenario_config(args.scenario_config)
    return builtin_scenario(args.scenario, literal_bounds=args.literal_bounds)


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", choices=BUILTIN_SCENARIOS, help="built-in scenario")
    group.add_argument("--scenario-config", help="path to a custom scenario file")
    parser.add_argument(
        "--literal-bounds",
        action="store_true",
        help="use the published bound formulas verbatim instead of the corrected ones",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recallci",
        description="Recall estimation, confidence intervals, and coverage simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("interval", help="compute recall confidence intervals")
    src = p_int.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="problem CSV (segment,stratum,population,sample,relevant)")
    src.add_argument(
        "--retrieved",
        metavar="N,n,r",
        help="retrieved segment as population,sample,relevant (with --unretrieved)",
    )
    p_int.add_argument("--unretrieved", metavar="N,n,r", help="unretrieved segment counts")
    p_int.add_argument("--method", action="append", help="method tag(s), comma separable")
    p_int.add_argument("--level", type=_level, default=0.95)
    p_int.add_argument("--seed", type=int, default=None, help="echoed; changes no bound")
    p_int.add_argument("--draws", type=_positive_int, default=40_000, help="echoed with --seed")
    p_int.add_argument("--output", help="write JSON records here instead of stdout")
    p_int.set_defaults(func=_cmd_interval)

    p_cov = sub.add_parser("coverage", help="coverage study over a scenario")
    _add_scenario_args(p_cov)
    p_cov.add_argument("--realizations", type=_positive_int, default=1000)
    p_cov.add_argument("--samples", type=_positive_int, default=1000)
    p_cov.add_argument("--level", type=_level, default=0.95)
    p_cov.add_argument("--seed", type=int, required=True)
    p_cov.add_argument("--method", action="append", help="method tag(s); default all nine")
    p_cov.add_argument("--draws", type=_positive_int, default=40_000)
    p_cov.add_argument("--workers", type=_positive_int, default=1)
    p_cov.add_argument("--csv", help="write per-realization long-format CSV here")
    p_cov.add_argument("--json", help="write aggregate JSON summary here")
    p_cov.set_defaults(func=_cmd_coverage)

    p_scen = sub.add_parser("scenario", help="draw scenario realizations")
    _add_scenario_args(p_scen)
    p_scen.add_argument("--count", type=_positive_int, default=10)
    p_scen.add_argument("--seed", type=int, required=True)
    p_scen.add_argument("--output", help="write CSV here instead of stdout")
    p_scen.set_defaults(func=_cmd_scenario)

    p_bias = sub.add_parser("bias", help="exact estimator distribution and bias")
    p_bias.add_argument(
        "--truth",
        required=True,
        metavar="N1,R1,N0,R0",
        help="segment sizes and yields: retrieved size,yield,unretrieved size,yield",
    )
    p_bias.add_argument("--design", required=True, metavar="n1,n0", help="sample sizes")
    p_bias.add_argument("--output", help="write (estimate,probability) CSV here")
    p_bias.set_defaults(func=_cmd_bias)

    p_des = sub.add_parser("design", help="expected width across allocations")
    p_des.add_argument("--truth", required=True, metavar="N1,R1,N0,R0")
    p_des.add_argument("--budget", type=_positive_int, required=True)
    p_des.add_argument("--allocations", help="comma-separated retrieved sample sizes")
    p_des.add_argument("--grid", type=_positive_int, default=20, help="allocation grid size")
    p_des.add_argument("--method", default="betabin-half")
    p_des.add_argument("--level", type=_level, default=0.95)
    p_des.add_argument("--seed", type=int, required=True)
    p_des.add_argument("--samples", type=_positive_int, default=200)
    p_des.add_argument("--output", help="write (n1,width) CSV here instead of stdout")
    p_des.set_defaults(func=_cmd_design)

    p_bin = sub.add_parser("binom", help="exact binomial interval coverage curve")
    p_bin.add_argument("--method", choices=sorted(binomial.RULES), required=True)
    p_bin.add_argument("--n", type=_positive_int, required=True, help="sample size")
    p_bin.add_argument("--level", type=_level, default=0.95)
    p_bin.add_argument("--points", type=_positive_int, default=9999, help="grid size")
    p_bin.add_argument("--output", help="write (pi,coverage) CSV here instead of stdout")
    p_bin.set_defaults(func=_cmd_binom)

    return parser


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_interval(args) -> int:
    methods = _parse_methods(args.method)
    if args.input:
        if args.unretrieved:
            raise SystemExit("error: --unretrieved requires --retrieved, not --input")
        problem = load_problem_csv(args.input)
    else:
        if not args.unretrieved:
            raise SystemExit("error: --retrieved requires --unretrieved")
        n1, s1, r1 = _int_tuple(args.retrieved, 3, "--retrieved")
        n0, s0, r0 = _int_tuple(args.unretrieved, 3, "--unretrieved")
        rows = [
            ["segment", "stratum", "population", "sample", "relevant"],
            ["retrieved", "all", str(n1), str(s1), str(r1)],
            ["unretrieved", "all", str(n0), str(s0), str(r0)],
        ]
        problem = parse_problem_rows(rows, source="<command line>")
    # Checks --draws on every call; echoed with --seed only.  No bound reads it.
    config = MonteCarloConfig(rng=RandomStream(args.seed or 0), draws=args.draws)
    echo = config if args.seed is not None else None
    records = []
    for method in methods:
        interval = compute_interval(method, problem, args.level)
        records.append(interval_record(interval, echo if method in POSTERIOR_METHODS else None))
    _write_or_print(dump_records(records), args.output)
    return 0


def _cmd_coverage(args) -> int:
    spec = _scenario_from_args(args)
    config = EvalConfig(
        master_seed=args.seed,
        realizations=args.realizations,
        samples_per_realization=args.samples,
        level=args.level,
        methods=_parse_methods(args.method),
        mc_draws=args.draws,
        workers=args.workers,
    )
    report = evaluate_coverage(spec, config)
    if args.csv:
        write_long_csv(report, args.csv)
    if args.json:
        write_summary_json(report, args.json)
    print(format_summary_table(report))
    return 0


def _cmd_scenario(args) -> int:
    spec = _scenario_from_args(args)
    lines = [
        f"# scenario={spec.name} count={args.count} seed={args.seed}",
        "realization,retrieved_size,unretrieved_size,retrieved_yield,"
        "unretrieved_yield,n1,n0,recall",
    ]
    base = RandomStream(args.seed)
    for i in range(args.count):
        truth, design = sample_realization(spec, base.substream(_NS_REALIZATION, i))
        lines.append(
            f"{i},{truth.retrieved_size},{truth.unretrieved_size},"
            f"{truth.retrieved_yield},{truth.unretrieved_yield},"
            f"{design.retrieved_sample},{design.unretrieved_sample},"
            f"{truth.recall!r}"
        )
    _write_or_print("\n".join(lines) + "\n", args.output)
    return 0


def _parse_truth(text: str) -> RealizationTruth:
    n1, r1, n0, r0 = _int_tuple(text, 4, "--truth")
    return RealizationTruth(n1, n0, r1, r0)


def _cmd_bias(args) -> int:
    truth = _parse_truth(args.truth)
    s1, s0 = _int_tuple(args.design, 2, "--design")
    design = SampleDesign(s1, s0)
    dist = exact_sampling_distribution(truth, design)
    mean = dist.mean()
    if args.output:
        from .io import write_distribution_csv

        write_distribution_csv(
            dist,
            args.output,
            header_note=f"truth={args.truth} design={args.design}",
        )
    print(
        f"true {truth.recall:.6f}  mean {mean:.6f}  "
        f"bias {mean - truth.recall:+.6f}  undefined_mass {dist.undefined_mass:.6e}"
    )
    return 0


def _cmd_design(args) -> int:
    truth = _parse_truth(args.truth)
    if args.method not in METHODS:
        raise ValueError(f"unknown method {args.method!r}; choose from {', '.join(METHODS)}")
    if args.allocations:
        allocations = list(_int_tuple(args.allocations, None, "--allocations"))
    else:
        allocations = _allocation_grid(truth, args.budget, args.grid)
    curve = design_width_curve(
        truth, args.budget, allocations, args.method, args.level, RandomStream(args.seed),
        args.samples,
    )
    lines = [
        f"# truth={args.truth} budget={args.budget} method={args.method} "
        f"level={args.level} seed={args.seed} samples={args.samples}",
        "n1,width",
    ]
    lines += [f"{n1},{width!r}" for n1, width in curve]
    _write_or_print("\n".join(lines) + "\n", args.output)
    best = min(curve, key=lambda item: item[1])
    print(f"minimal expected width {best[1]:.4f} at n1={best[0]}")
    return 0


def _cmd_binom(args) -> int:
    rule = binomial.RULES[args.method]
    grid = [i / (args.points + 1) for i in range(1, args.points + 1)]
    curve = binomial.coverage_curve(rule, args.n, args.level, grid)
    lines = [
        f"# method={args.method} n={args.n} level={args.level} points={args.points}",
        "pi,coverage",
    ]
    lines += [f"{pi!r},{cov!r}" for pi, cov in curve]
    _write_or_print("\n".join(lines) + "\n", args.output)
    mean = sum(c for _, c in curve) / len(curve)
    print(f"mean coverage {mean:.4f}")
    return 0


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    # Parsing leaves no state in the parser, so one serves every call.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ProblemFormatError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
