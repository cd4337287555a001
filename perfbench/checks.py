"""Correctness checks for benchmark outputs, with the benchmark's own references.

A problem is a pair of strata lists, ``(retrieved, unretrieved)``, each
stratum a ``(population, sample, relevant)`` triple.  The references here
are written from the published formulas and share no code with recallci,
except that the most-conservative prior's hyperparameters come from
``recallci.most_conservative_prior``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtri
from scipy.stats import chi2

# recallci's default methods in their output order, written out here so the
# checks do not take their expectation from the library under test.
NINE_METHODS = (
    "naive-binomial",
    "normal-mle",
    "normal-laplace",
    "normal-agresti",
    "koopman",
    "beta-jeffreys",
    "betabin-uniform",
    "betabin-mcp",
    "betabin-half",
)
MONTE_CARLO = ("beta-jeffreys", "betabin-uniform", "betabin-mcp", "betabin-half")
CLOSED_FORM_TOL = 1e-9
# The library bisects the Koopman ratio to a relative width of 1e-8.
KOOPMAN_PHI_TOL = 1e-8
# The library stops widening its Koopman bracket at 1e30 and 1e-300.
_MAX_DOUBLINGS = 1000
# Monte Carlo bounds may sit this many standard errors of the quantile's
# probability level away from the high-draw reference.
MC_SIGMAS = 5.0

# Errors that recallci documents for inputs it does not support.  Audits of
# such inputs count as rejected, not failed.
KNOWN_REJECTIONS = {
    "stratified": "does not extend to stratified sampling",
    "zero": "needs at least one sampled relevant document",
}

Stratum = tuple[int, int, int]
Problem = tuple[list[Stratum], list[Stratum]]

# Study tolerances: the mean over one pass of a method's realization
# coverage and mean width, against the seed code's reference.  They are
# several standard errors of a 500-sample study wide, so a change of random
# streams passes and a changed estimator does not.
STUDY_COVERAGE_TOL = 0.03
STUDY_WIDTH_TOL = 0.02


def relevant_counts(problem: Problem) -> tuple[int, int]:
    return sum(s[2] for s in problem[0]), sum(s[2] for s in problem[1])


def _yield(strata: list[Stratum], add: int = 0) -> tuple[float, float]:
    """Estimated yield and its variance, after adding ``add`` of each class."""
    point = var = 0.0
    for population, sample, relevant in strata:
        n = sample + 2 * add
        p = (relevant + add) / n
        point += population * p
        var += population**2 * p * (1.0 - p) / n * (1.0 - sample / population)
    return point, var


def point_estimate(problem: Problem) -> float | None:
    y1, _ = _yield(problem[0])
    y0, _ = _yield(problem[1])
    return None if y1 + y0 == 0.0 else y1 / (y1 + y0)


def _force(problem: Problem, lower: float, upper: float) -> tuple[float, float]:
    r1, r0 = relevant_counts(problem)
    lower, upper = max(0.0, lower), min(1.0, upper)
    if r1 == 0:
        lower = 0.0
    if r0 == 0:
        upper = 1.0
    return lower, max(lower, upper)


def closed_form_bounds(method: str, problem: Problem, level: float) -> tuple[float, float]:
    """Reference bounds of the naive-binomial and normal-family methods."""
    z = float(ndtri(1.0 - (1.0 - level) / 2.0))
    r1, r0 = relevant_counts(problem)
    if method == "naive-binomial":
        p = point_estimate(problem)
        half = z * math.sqrt(p * (1.0 - p) / (r1 + r0))
        return max(0.0, p - half), min(1.0, p + half)
    add = {"normal-mle": 0, "normal-laplace": 1, "normal-agresti": 2}[method]
    if add == 0 and r1 == 0 and r0 == 0:
        return 0.0, 1.0
    y1, v1 = _yield(problem[0], add)
    y0, v0 = _yield(problem[1], add)
    total = y1 + y0
    mid = y1 / total
    half = z * math.sqrt((v1 * y0**2 + v0 * y1**2) / total**4)
    return _force(problem, mid - half, mid + half)


def _constrained_rates(phi: float, x: int, m: int, y: int, n: int) -> tuple[float, float]:
    """Maximum-likelihood (p_num, p_den) under p_num = phi * p_den.

    The score equation in t = p_den is
    phi (m + n) t^2 - (x + n + phi (m + y)) t + (x + y) = 0; its smaller
    root is taken in the cancellation-free form 2c / (b + sqrt(b^2 - 4ac)).
    """
    a = phi * (m + n)
    b = x + n + phi * (m + y)
    c = x + y
    t = 2.0 * c / (b + math.sqrt(max(b * b - 4.0 * a * c, 0.0)))
    t = min(max(t, 0.0), 1.0)
    return min(phi * t, 1.0), t


def _pearson(obs: int, size: int, rate: float) -> float:
    num = (obs - size * rate) ** 2
    if num == 0.0:
        return 0.0
    den = size * rate * (1.0 - rate)
    return math.inf if den <= 0.0 else num / den


def koopman_bounds(
    problem: Problem, level: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Reference Koopman bounds on recall and the tolerance of each.

    Both roots of the chi-square statistic in the prevalence ratio
    phi = pi_unretrieved / pi_retrieved are found with Brent's method on
    log phi.  Each tolerance is the library's bisection width mapped
    through recall = 1 / (1 + scale * phi).
    """
    (n_ret, n, y), (n_unret, m, x) = problem[0][0], problem[1][0]
    scale = n_unret / n_ret
    crit = float(chi2.ppf(level, 1))

    def excess(log_phi: float) -> float:
        phi = math.exp(log_phi)
        p_num, p_den = _constrained_rates(phi, x, m, y, n)
        return _pearson(x, m, p_num) + _pearson(y, n, p_den) - crit

    def walk(start: float, step: float, accepted: bool) -> float:
        """First point from ``start`` whose acceptance matches ``accepted``."""
        for k in range(_MAX_DOUBLINGS):
            point = start + k * step
            if (excess(point) <= 0.0) == accepted:
                return point
        raise ValueError(f"no Koopman bound within 2**{_MAX_DOUBLINGS} of the estimate")

    def root(inside: float, step: float) -> float:
        outside = walk(inside + step, step, accepted=False)
        return math.exp(brentq(excess, inside, outside, xtol=1e-14, rtol=1e-15))

    def recall(phi: float) -> tuple[float, float]:
        tol = 2.0 * KOOPMAN_PHI_TOL * max(1.0, phi) * scale / (1.0 + scale * phi) ** 2
        return 1.0 / (1.0 + scale * phi), tol + 1e-12

    if x > 0 and y > 0:
        inside = math.log((x / m) / (y / n))
    else:
        inside = walk(0.0, math.log(2.0) if y == 0 else -math.log(2.0), accepted=True)
    lower = recall(root(inside, math.log(2.0))) if y > 0 else (0.0, 0.0)
    upper = recall(root(inside, -math.log(2.0))) if x > 0 else (1.0, 0.0)
    return lower, upper


def posterior_recall_draws(
    method: str, problem: Problem, draws: int, rng: np.random.Generator, mcp_prior
) -> np.ndarray:
    """High-draw sample of the posterior on recall for a Monte Carlo method."""
    totals = []
    for strata in problem:
        total = np.zeros(draws)
        for population, sample, relevant in strata:
            rest = population - sample
            if method == "beta-jeffreys":
                pi = rng.beta(0.5 + relevant, 0.5 + sample - relevant, size=draws)
                total += relevant + pi * rest
                continue
            if method == "betabin-uniform":
                a = b = 1.0
            elif method == "betabin-half":
                a = b = 0.5
            else:
                prior = mcp_prior(population, sample)
                a, b = prior.alpha, prior.beta
            q = rng.beta(a + relevant, b + sample - relevant, size=draws)
            total += relevant + (rng.binomial(rest, q) if rest else 0)
        totals.append(total)
    return totals[0] / (totals[0] + totals[1])


def check_mc_bound(
    bound: float, reference: np.ndarray, prob: float, draws: int
) -> str | None:
    """Check a nearest-rank quantile against a sorted high-draw reference.

    The bound must have at least ``prob`` of the reference mass at or below
    it and at most ``prob`` strictly below it, each up to the combined
    sampling error of the two quantile levels.
    """
    n = len(reference)
    sigma = math.sqrt(prob * (1.0 - prob) * (1.0 / draws + 1.0 / n))
    tol = MC_SIGMAS * sigma
    at_or_below = np.searchsorted(reference, bound, side="right") / n
    below = np.searchsorted(reference, bound, side="left") / n
    if at_or_below < prob - tol or below > prob + tol:
        return (
            f"bound {bound!r} sits at reference mass [{below:.5f}, {at_or_below:.5f}], "
            f"expected {prob} +- {tol:.5f}"
        )
    return None


def check_records(
    records, problem: Problem, level: float, seed: int, draws: int
) -> list[str]:
    """Structural and closed-form checks on the nine records of one audit."""
    problems: list[str] = []
    if not isinstance(records, list) or [r.get("method") for r in records] != list(NINE_METHODS):
        return [f"expected nine records tagged {NINE_METHODS}"]
    r1, r0 = relevant_counts(problem)
    single = len(problem[0]) == 1 and len(problem[1]) == 1
    point = point_estimate(problem)
    for rec in records:
        tag, lower, upper = rec["method"], rec["lower"], rec["upper"]
        if rec["level"] != level:
            problems.append(f"{tag}: level {rec['level']} != {level}")
        if not 0.0 <= lower <= upper <= 1.0:
            problems.append(f"{tag}: bounds [{lower}, {upper}] not ordered in [0, 1]")
            continue
        if r1 == 0 and lower != 0.0:
            problems.append(f"{tag}: lower {lower} not forced to 0 with r1 = 0")
        if r0 == 0 and upper != 1.0:
            problems.append(f"{tag}: upper {upper} not forced to 1 with r0 = 0")
        if point is not None and (
            rec["point"] is None or abs(rec["point"] - point) > CLOSED_FORM_TOL
        ):
            problems.append(f"{tag}: point {rec['point']} != reference {point}")
        if tag in MONTE_CARLO:
            if rec["draws"] != draws or rec["seed"] != seed:
                problems.append(f"{tag}: echoes draws/seed {rec['draws']}/{rec['seed']}")
            continue
        if rec["draws"] is not None or rec["seed"] is not None:
            problems.append(f"{tag}: closed-form record echoes draws or seed")
        if point is None:
            continue
        if tag == "koopman":
            if not single:
                continue
            try:
                (ref_lo, tol_lo), (ref_hi, tol_hi) = koopman_bounds(problem, level)
            except ValueError as exc:
                problems.append(f"koopman: no reference: {exc}")
                continue
        else:
            ref_lo, ref_hi = closed_form_bounds(tag, problem, level)
            tol_lo = tol_hi = CLOSED_FORM_TOL
        if abs(lower - ref_lo) > tol_lo or abs(upper - ref_hi) > tol_hi:
            problems.append(
                f"{tag}: [{lower!r}, {upper!r}] != reference [{ref_lo!r}, {ref_hi!r}]"
            )
    return problems


def check_mc_records(
    records, problem: Problem, level: float, ref_draws: int, rng, mcp_prior
) -> list[str]:
    """Compare every Monte Carlo record with a high-draw reference."""
    problems = []
    r1, r0 = relevant_counts(problem)
    alpha = 1.0 - level
    for rec in records:
        if rec["method"] not in MONTE_CARLO:
            continue
        ref = np.sort(posterior_recall_draws(rec["method"], problem, ref_draws, rng, mcp_prior))
        for bound, prob, forced in (
            (rec["lower"], alpha / 2.0, r1 == 0),
            (rec["upper"], 1.0 - alpha / 2.0, r0 == 0),
        ):
            if forced:
                continue
            msg = check_mc_bound(bound, ref, prob, rec["draws"])
            if msg:
                problems.append(f"{rec['method']}: {msg}")
    return problems


def classify_audit(kind: str, rc, stdout: str, stderr: str) -> str:
    """Outcome of one audit: ``ok``, ``rejected`` (known defect) or ``failed``.

    An audit is rejected only when recallci exits 1 with the error it
    documents for that kind of input; any other exit is a failure.
    """
    if rc == 0:
        return "ok"
    if rc == 1 and kind in KNOWN_REJECTIONS:
        if any(msg in stderr for msg in KNOWN_REJECTIONS.values()):
            return "rejected"
    return "failed"


def check_study_row(method: str, row: tuple) -> list[str]:
    """Per-realization invariants of one method's coverage tallies."""
    covered, above, below, undefined, width = row
    fractions = (covered, above, below, undefined)
    problems = []
    if any(not 0.0 <= f <= 1.0 for f in fractions):
        problems.append(f"{method}: fractions {fractions} outside [0, 1]")
    if abs(sum(fractions) - 1.0) > 1e-9:
        problems.append(f"{method}: fractions sum to {sum(fractions)!r}")
    if undefined == 1.0:
        if not math.isnan(width):
            problems.append(f"{method}: width {width} with no defined sample")
    elif not 0.0 <= width <= 1.0:
        problems.append(f"{method}: mean width {width} outside [0, 1]")
    return problems


def check_study_means(
    coverage: dict[str, float], width: dict[str, float], reference: dict
) -> list[str]:
    """Compare one pass's per-method means with the seed-code reference."""
    problems = []
    for m in NINE_METHODS:
        d_cov = coverage[m] - reference["coverage"][m]
        d_width = width[m] - reference["width"][m]
        if abs(d_cov) > STUDY_COVERAGE_TOL:
            problems.append(f"{m}: mean coverage off reference by {d_cov:+.4f}")
        if abs(d_width) > STUDY_WIDTH_TOL:
            problems.append(f"{m}: mean width off reference by {d_width:+.4f}")
    return problems
