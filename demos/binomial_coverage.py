"""Coverage behavior of classical binomial proportion intervals.

Computes, exactly, how often each interval rule covers the true prevalence
across a grid of prevalences for a sample of 20 documents, then contrasts
the rules' mean coverages: the exact interval over-covers, the Wald interval
collapses near the edges, and the score and posterior intervals track the
nominal level.

Run:  python3 demos/binomial_coverage.py [--out-dir demos/out]
"""

import argparse
import os

import recallci.binomial as binomial


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20, help="sample size")
    parser.add_argument("--level", type=float, default=0.95)
    parser.add_argument("--points", type=int, default=199, help="prevalence grid size")
    parser.add_argument("--out-dir", default="demos/out")
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    grid = [i / (args.points + 1) for i in range(1, args.points + 1)]

    print(f"exact coverage of {args.level:.0%} intervals, n = {args.n}\n")
    print(f"{'rule':<16} {'mean':>7} {'min':>7} {'max':>7}")
    for name, rule in binomial.RULES.items():
        curve = binomial.coverage_curve(rule, args.n, args.level, grid)
        coverages = [c for _, c in curve]
        mean = sum(coverages) / len(coverages)
        print(f"{name:<16} {mean:>7.4f} {min(coverages):>7.4f} {max(coverages):>7.4f}")
        path = os.path.join(args.out_dir, f"binomial_coverage_{name}.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("pi,coverage\n")
            for pi, cov in curve:
                handle.write(f"{pi!r},{cov!r}\n")

    print(f"\ncurves written to {args.out_dir}/binomial_coverage_<rule>.csv")
    print("note: only the exact (Clopper-Pearson) rule keeps minimum coverage")
    print("above the nominal level; the others trade guaranteed coverage for")
    print("mean coverage close to nominal.")


if __name__ == "__main__":
    main()
