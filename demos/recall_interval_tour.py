"""One audited sample, nine confidence intervals.

Runs every interval method on the same audit counts, first for a simple
two-segment sample, then for a stratified one (the kind produced when strata
are defined by the overlap of several retrievals and sampled at different
rates).  Methods disagree most where the unretrieved sample is sparse: the
normal family understates the upper tail, while the posterior-based methods
stretch it.

Run:  python3 demos/recall_interval_tour.py
"""

from recallci import (
    METHODS,
    RecallProblem,
    SegmentData,
    StratumCounts,
    compute_interval,
    estimate_recall,
)


def show(problem: RecallProblem, skip=()) -> None:
    print(f"  point estimate: {estimate_recall(problem):.4f}")
    print(f"  {'method':<16} {'lower':>8} {'upper':>8} {'width':>8}")
    for method in METHODS:
        if method in skip:
            print(f"  {method:<16} {'-':>8} {'-':>8} {'-':>8}  (single stratum only)")
            continue
        interval = compute_interval(method, problem, 0.95)
        print(
            f"  {method:<16} {interval.lower:>8.4f} {interval.upper:>8.4f} "
            f"{interval.width:>8.4f}"
        )


def main() -> None:
    simple = RecallProblem.simple(2_000, 100, 50, 100_000, 100, 3)
    print("simple audit: retrieved 2,000 (sampled 100, 50 relevant);")
    print("unretrieved 100,000 (sampled 100, 3 relevant)\n")
    show(simple)

    stratified = RecallProblem(
        SegmentData(
            (
                StratumCounts(1_500, 150, 90),  # agreed by every system
                StratumCounts(3_500, 100, 25),  # contested
            ),
            "retrieved",
        ),
        SegmentData(
            (
                StratumCounts(20_000, 200, 4),  # near misses
                StratumCounts(180_000, 100, 0),  # bottom stratum, sparse sample
            ),
            "unretrieved",
        ),
    )
    print("\nstratified audit: two strata per segment, uneven sampling rates,")
    print("no relevant documents found in the bottom stratum\n")
    show(stratified, skip=("koopman",))

    print("\nthe zero-count bottom stratum forces no bound here (other strata")
    print("found relevant documents), but it dominates the upper-tail width of")
    print("the posterior methods.")


if __name__ == "__main__":
    main()
