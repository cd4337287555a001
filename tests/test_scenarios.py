"""Scenario specifications, realization sampling, and the config format."""

import math

import numpy as np
import pytest

from recallci.scenarios import (
    BUILTIN_SCENARIOS,
    ScenarioSpec,
    builtin_scenario,
    load_scenario_config,
    sample_realization,
    sample_realization_with_variables,
)
from recallci.streams import RandomStream

DRAWS = 30_000

# Central values the published distribution tables imply.  Three cells of the
# published mean columns (neutral precision 0.64, legal retrieved sample size
# 820, small precision 0.51) cannot be reproduced from the published formulas
# and ranges themselves; for those the reference is a frozen 1e6-draw mean of
# the corrected-bounds implementation (seed 777000001).  The legal population
# mean is likewise checked against its analytic value of 1.0749e7.
EXPECTED = {
    "neutral": {
        "N": (1e3, 4e6, 2_000_500),
        "pi": (0.02, 0.8, 0.41),
        "rec": (0.1, 1.0, 0.55),
        "prec": (0.1, 1.0, 0.6979),
        "n1": (10, 4000, 1935),
        "n0": (10, 4000, 1995),
    },
    "legal": {
        "N": (5e5, 5e7, 1.0749e7),
        "pi": (0.003, 2e-3 * 1.5**10, 0.031),
        "rec": (0.0025, 2.5e-3 * 34**1.65, 0.33),
        "prec": (0.025, 0.92, 0.48),
        "n1": (20, 5120, 1011.5),
        "n0": (100, 12800, 3170),
    },
    "small": {
        "N": (1e3, 1e4, 5500),
        "pi": (0.02, 0.22, 0.12),
        "rec": (0.1, 1.0, 0.55),
        "prec": (0.025, 0.92, 0.5261),
        "n1": (None, None, 290),
        "n0": (None, None, 815),
    },
}


@pytest.fixture(scope="module")
def scenario_draws():
    out = {}
    for name in BUILTIN_SCENARIOS:
        spec = builtin_scenario(name)
        base = RandomStream(861_243)
        vals = {v: np.empty(DRAWS) for v in ("N", "pi", "rec", "prec", "n1", "n0")}
        worlds = []
        for i in range(DRAWS):
            variables, truth, design = sample_realization_with_variables(
                spec, base.substream(0, i)
            )
            for v in ("N", "pi", "rec", "prec"):
                vals[v][i] = variables[v]
            vals["n1"][i] = design.retrieved_sample
            vals["n0"][i] = design.unretrieved_sample
            if i < 2000:
                worlds.append((truth, design))
        out[name] = (vals, worlds)
    return out


def test_builtin_names():
    for name in BUILTIN_SCENARIOS:
        assert builtin_scenario(name).name == name
    with pytest.raises(ValueError, match="unknown scenario"):
        builtin_scenario("industrial")


@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_variable_ranges_within_tables(name, scenario_draws):
    vals, _ = scenario_draws[name]
    for var, (lo, hi, _) in EXPECTED[name].items():
        if lo is None:
            continue
        assert vals[var].min() >= lo - 1e-9, (name, var)
        assert vals[var].max() <= hi + 1e-9, (name, var)


@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_variable_means_within_two_percent(name, scenario_draws):
    vals, _ = scenario_draws[name]
    for var, (_, _, mean) in EXPECTED[name].items():
        observed = vals[var].mean()
        assert observed == pytest.approx(mean, rel=0.02), (name, var, observed)


def test_small_sample_fractions_of_segments(scenario_draws):
    _, worlds = scenario_draws["small"]
    for truth, design in worlds:
        assert design.retrieved_sample <= math.ceil(0.5 * truth.retrieved_size)
        assert design.unretrieved_sample <= math.ceil(0.3 * truth.unretrieved_size)


def test_legal_sample_sizes_are_power_of_two_forms(scenario_draws):
    vals, _ = scenario_draws["legal"]
    for n1 in np.unique(vals["n1"]):
        assert n1 >= 20
        exponent = math.log2(n1 / 20)
        assert exponent == int(exponent)
    for n0 in np.unique(vals["n0"]):
        assert n0 >= 100
        exponent = math.log2(n0 / 100)
        assert exponent == int(exponent)


def test_legal_retrieval_at_most_half_the_corpus(scenario_draws):
    _, worlds = scenario_draws["legal"]
    for truth, _ in worlds:
        corpus = truth.retrieved_size + truth.unretrieved_size
        assert truth.retrieved_size <= corpus / 2 + 1


@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_realization_invariants(name, scenario_draws):
    _, worlds = scenario_draws[name]
    for truth, design in worlds:
        assert 0 <= truth.retrieved_yield <= truth.retrieved_size
        assert 0 <= truth.unretrieved_yield <= truth.unretrieved_size
        assert truth.retrieved_yield + truth.unretrieved_yield >= 1
        assert 1 <= design.retrieved_sample <= truth.retrieved_size
        assert 1 <= design.unretrieved_sample <= truth.unretrieved_size
        assert 0.0 <= truth.recall <= 1.0


def test_sampling_is_deterministic_per_stream():
    spec = builtin_scenario("legal")
    a = [sample_realization(spec, RandomStream(5).substream(i)) for i in range(20)]
    b = [sample_realization(spec, RandomStream(5).substream(i)) for i in range(20)]
    assert a == b


def test_literal_bounds_variant_exists_and_differs():
    corrected = builtin_scenario("neutral")
    literal = builtin_scenario("neutral", literal_bounds=True)
    assert literal.name == "neutral-literal"
    assert corrected.variables["prec"] != literal.variables["prec"]
    # literal bounds still draw (the min() lower bound is simply loose)
    truth, design = sample_realization(literal, RandomStream(2))
    assert truth.retrieved_yield + truth.unretrieved_yield >= 1


def test_custom_config_round_trip(tmp_path):
    path = tmp_path / "tiny.scenario"
    path.write_text(
        """
# a tiny corpus for fast tests
name = tiny
N    = uniform(200, 400)
pi   = uniform(0.2, 0.4)
rec  = uniform(0.3, 0.9)
prec = uniform(max(0.2, 1.1*R1/N), 0.9)
n1   = N1 * uniform(0.2, 0.4)
n0   = N0 * uniform(0.2, 0.4)
"""
    )
    spec = load_scenario_config(path)
    assert spec.name == "tiny"
    truth, design = sample_realization(spec, RandomStream(1))
    corpus = truth.retrieved_size + truth.unretrieved_size
    assert 200 <= corpus <= 400


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("N = uniform(10, 20)\nbogus_line\n")
    with pytest.raises(ValueError, match="line 2"):
        load_scenario_config(bad)
    unknown = tmp_path / "unknown.scenario"
    unknown.write_text("N = uniform(10, 20)\nzeta = uniform(0, 1)\n")
    with pytest.raises(ValueError, match="unknown variable"):
        load_scenario_config(unknown)
    incomplete = tmp_path / "incomplete.scenario"
    incomplete.write_text("N = uniform(10, 20)\n")
    with pytest.raises(ValueError, match="missing"):
        load_scenario_config(incomplete)


def test_expression_safety():
    with pytest.raises(ValueError, match="disallowed|unknown"):
        ScenarioSpec(
            "evil",
            dict(
                N="__import__('os').getpid()",
                pi="uniform(0.1, 0.2)",
                rec="uniform(0.1, 0.2)",
                prec="uniform(0.1, 0.2)",
                n1="uniform(1, 2)",
                n0="uniform(1, 2)",
            ),
        )


def test_infeasible_scenario_fails_loudly():
    spec = ScenarioSpec(
        "impossible",
        dict(
            N="uniform(100, 200)",
            pi="uniform(0.2, 0.4)",
            rec="uniform(0.3, 0.9)",
            prec="uniform(0.5, 0.9)",
            n1="uniform(10, 5)",  # empty range every time
            n0="uniform(1, 2)",
        ),
    )
    with pytest.raises(RuntimeError, match="feasible"):
        sample_realization(spec, RandomStream(3))
