"""Prospective design: where to spend assessments, and how many.

Part 1 fixes a 5,000,000-document corpus with a 500,000-document retrieval
and a budget of 5,000 assessments, then sweeps the retrieved/unretrieved
allocation for nine effectiveness profiles (recall and precision each in
{0.25, 0.5, 0.75}).  Low-precision, high-recall retrievals want most
assessments in the unretrieved segment; a 20%:80% split is near-minimal
width across profiles.

Part 2 fixes recall = precision = 0.5 and sweeps total sample size for
several retrieval sizes, reporting the minimal expected width over a grid of
allocations for the half-prior beta-binomial and the MLE normal interval.
Normal widths are reported unclipped, which keeps their small-sample
pathology (widths beyond 1.0) and large-sample 1/sqrt(n) decay visible.

Run from the repository root:  python3 demos/sampling_design.py [--fast]
"""

import argparse
import os

from recallci import RandomStream, RealizationTruth
from recallci.evaluation import design_width_curve, width_vs_sample_size

OUT_DIR = "demos/out"
SEED = 5


def effectiveness_truth(corpus: int, retrieved: int, recall: float, precision: float):
    yield_ret = round(retrieved * precision)
    yield_unret = round(yield_ret * (1.0 - recall) / recall)
    return RealizationTruth(retrieved, corpus - retrieved, yield_ret, yield_unret)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="fewer samples and sizes")
    args = parser.parse_args()
    os.makedirs(OUT_DIR, exist_ok=True)

    samples = 40 if args.fast else 200
    rng = RandomStream(SEED)

    corpus, retrieved, budget = 5_000_000, 500_000, 5_000
    fractions = (0.1, 0.2, 0.4, 0.6, 0.8)
    allocations = [int(f * budget) for f in fractions]
    print(f"part 1: allocating {budget} assessments, betabin-half width")
    print(f"{'recall':>7} {'prec':>6} " + " ".join(f"n1={a:<5}" for a in allocations))
    rows = []
    for recall in (0.25, 0.5, 0.75):
        for precision in (0.25, 0.5, 0.75):
            truth = effectiveness_truth(corpus, retrieved, recall, precision)
            curve = design_width_curve(
                truth, budget, allocations, "betabin-half", 0.95, rng, samples
            )
            widths = [w for _, w in curve]
            rows.append((recall, precision, widths))
            print(
                f"{recall:>7.2f} {precision:>6.2f} "
                + " ".join(f"{w:<8.3f}" for w in widths)
            )
    path = os.path.join(OUT_DIR, "allocation_widths.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("recall,precision,n1,width\n")
        for recall, precision, widths in rows:
            for n1, width in zip(allocations, widths):
                handle.write(f"{recall},{precision},{n1},{width!r}\n")
    print(f"written to {path}\n")

    print("part 2: minimal width vs total sample size (recall = precision = 0.5)")
    sizes = (200, 800, 3200) if args.fast else (200, 800, 3200, 12800)
    truths = [
        effectiveness_truth(corpus, n_ret, 0.5, 0.5) for n_ret in (50_000, 500_000)
    ]
    table = width_vs_sample_size(
        truths,
        sizes,
        ("betabin-half", "normal-mle"),
        0.95,
        rng,
        allocation_grid=10,
        samples=samples // 2 or 20,
    )
    print(f"{'retrieved':>10} {'n total':>8} {'method':<14} {'best n1':>8} {'width':>8}")
    for row in table:
        print(
            f"{row.retrieved_size:>10} {row.sample_size:>8} {row.method:<14} "
            f"{row.best_retrieved_allocation:>8} {row.min_width:>8.3f}"
        )
    path = os.path.join(OUT_DIR, "width_vs_sample_size.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("retrieved_size,sample_size,method,best_n1,min_width\n")
        for row in table:
            handle.write(
                f"{row.retrieved_size},{row.sample_size},{row.method},"
                f"{row.best_retrieved_allocation},{row.min_width!r}\n"
            )
    print(f"written to {path}")
    print(
        "\ncaution: a deceptively narrow normal-mle figure at small sizes means"
        "\nthe width search favored allocations whose samples usually contain no"
        "\nunretrieved positives, where that interval degenerates to [1, 1]."
        "\nNarrowness is only meaningful alongside adequate coverage (see"
        "\n`recallci coverage`)."
    )


if __name__ == "__main__":
    main()
