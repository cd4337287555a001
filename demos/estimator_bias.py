"""Why the recall point estimate cannot be trusted on its own.

Enumerates the exact sampling distribution of the recall estimator for an
audit of a retrieval holding a quarter of the relevant documents: 2,000
retrieved documents with yield 1,000, 100,000 unretrieved with yield 3,000,
and 100 assessments per segment.  The distribution is skewed and multimodal,
a noticeable probability mass sits exactly at an estimate of 1.0 (samples
that found no unretrieved relevant documents), and the estimator mean
overshoots true recall by six points.  Larger unretrieved samples shrink the
bias.

Run:  python3 demos/estimator_bias.py [--out-dir demos/out]
"""

import argparse
import os

from recallci import RealizationTruth, SampleDesign, estimator_bias, exact_sampling_distribution
from recallci.io import write_distribution_csv

TRUTH = RealizationTruth(
    retrieved_size=2_000,
    unretrieved_size=100_000,
    retrieved_yield=1_000,
    unretrieved_yield=3_000,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demos/out")
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    design = SampleDesign(100, 100)
    dist = exact_sampling_distribution(TRUTH, design)
    mean = dist.mean()

    print(f"true recall          {TRUTH.recall:.4f}")
    print(f"estimator mean       {mean:.4f}")
    print(f"bias                 {mean - TRUTH.recall:+.4f}")
    print(f"mass at estimate 1.0 {dist.mass_at(1.0):.4f}  (no relevant unretrieved sampled)")
    print(f"distinct estimates   {len(dist.estimates)}")

    path = os.path.join(args.out_dir, "recall_sampling_distribution.csv")
    write_distribution_csv(dist, path, header_note="audit world, 100+100 assessments")
    print(f"full distribution written to {path}\n")

    print("bias as the unretrieved sample grows:")
    print(f"{'n0':>6} {'mean':>8} {'bias':>8}")
    for n0 in (50, 100, 200, 400, 800, 1600):
        r = estimator_bias(TRUTH, SampleDesign(100, n0))
        print(f"{n0:>6} {r.mean_estimate:>8.4f} {r.bias:>+8.4f}")


if __name__ == "__main__":
    main()
