"""One size rule: every count, length, rank and budget a public function
takes is an int, not a bool (nor a numpy integer), of at least its minimum,
checked by errors.check_int before any draw or enumeration."""

from fractions import Fraction

import numpy as np
import pytest

from hallustat import core, shannon
from hallustat.core import Alphabet, count_upto, shortlex_string, strings_of_length
from hallustat.evaluation import check_trial_budget, sweep
from hallustat.flrm import FlrmTrainer, MemorizerModel
from hallustat.limits import (
    NflInstance,
    check_diagonal_budget,
    check_nfl_budget,
    construct_hard_support,
    diagonalize,
    general_lambda_t,
    nfl_brute_force,
    random_table_models,
)
from hallustat.measures import CdfLowerBound, LengthFactored
from hallustat.oracle import Echo, GroundTruth, IndexShift, Labeler
from hallustat.shannon import SourceModel, smallest_high_mass_set

from helpers import assert_rejected_before_any_draw, rank_table, uniform_support

A2 = Alphabet(2)
BOUND = CdfLowerBound((0.5,), 0.5)
README_LAW = LengthFactored(A2, (), 0.5)
ATOMS = uniform_support(shortlex_string(A2, r) for r in range(3))
DOMAIN = tuple(shortlex_string(A2, r) for r in range(4))
MODELS = [MemorizerModel(A2, rank_table({DOMAIN[1]: DOMAIN[2]}), 1)]
SOURCE = SourceModel((0.5, 0.5))


def never(*args, **kwargs):
    raise AssertionError("called before the arguments were checked")


# name -> (minimum, call): call(value, rng) passes value as the named size.
SIZES = {
    "count_upto.n": (0, lambda v, rng: count_upto(A2, v)),
    "shortlex_string.rank": (0, lambda v, rng: shortlex_string(A2, v)),
    "strings_of_length.n": (0, lambda v, rng: strings_of_length(A2, v)),
    "CdfLowerBound.value.n": (0, lambda v, rng: BOUND.value(v)),
    "CdfLowerBound.defect.n": (0, lambda v, rng: BOUND.defect(v)),
    "FiniteSupport.length_cdf.n": (0, lambda v, rng: ATOMS.length_cdf(v)),
    "LengthFactored.defect.n": (0, lambda v, rng: README_LAW.defect(v)),
    "LengthFactored.length_cdf.n": (0, lambda v, rng: README_LAW.length_cdf(v)),
    "MemorizerModel.threshold": (-1, lambda v, rng: MemorizerModel(A2, {}, v)),
    "MemorizerModel.table key rank": (0, lambda v, rng: MemorizerModel(A2, {v: 0}, 1)),
    "MemorizerModel.table output rank": (0, lambda v, rng: MemorizerModel(A2, {0: v}, 1)),
    "IndexShift.shift": (0, lambda v, rng: IndexShift(v)),
    "general_lambda_t.p": (1, lambda v, rng: general_lambda_t(v, Fraction(1, 8))),
    "diagonalize.horizon": (1, lambda v, rng: diagonalize(MODELS, A2, v)),
    "diagonalize.budget": (0, lambda v, rng: diagonalize(MODELS, A2, 3, v)),
    "random_table_models.count": (0, lambda v, rng: random_table_models(A2, v, rng)),
    "random_table_models.table_size":
        (0, lambda v, rng: random_table_models(A2, 2, rng, table_size=v)),
    "random_table_models.max_len": (0, lambda v, rng: random_table_models(A2, 2, rng, max_len=v)),
    "NflInstance.m": (0, lambda v, rng: NflInstance(DOMAIN, DOMAIN[:2], v, never)),
    "nfl_brute_force.budget":
        (0, lambda v, rng: nfl_brute_force(NflInstance(DOMAIN, DOMAIN[:2], 1, never), budget=v)),
    "check_nfl_budget.n": (1, lambda v, rng: check_nfl_budget(v, 2, 1, 10**6)),
    "check_nfl_budget.p": (1, lambda v, rng: check_nfl_budget(4, v, 1, 10**6)),
    "check_nfl_budget.m": (0, lambda v, rng: check_nfl_budget(4, 2, v, 10**6)),
    "check_nfl_budget.budget": (0, lambda v, rng: check_nfl_budget(4, 2, 1, v)),
    "check_diagonal_budget.horizon": (1, lambda v, rng: check_diagonal_budget(v, 1, 10)),
    "check_diagonal_budget.k_models": (0, lambda v, rng: check_diagonal_budget(3, v, 10)),
    "check_diagonal_budget.budget": (0, lambda v, rng: check_diagonal_budget(3, 1, v)),
    "check_trial_budget.budget": (0, lambda v, rng: check_trial_budget([10], 2, v)),
    "sweep.budget": (0, lambda v, rng: sweep(FlrmTrainer(A2, BOUND), README_LAW,
                                             GroundTruth(A2, Echo()), [10], 2,
                                             Labeler.CANONICAL, 5, budget=v)),
    "construct_hard_support.max_size":
        (0, lambda v, rng: construct_hard_support(A2, BOUND, max_size=v)),
    "smallest_high_mass_set.m": (1, lambda v, rng: smallest_high_mass_set(SOURCE, v, 0.1)),
    "smallest_high_mass_set.budget":
        (0, lambda v, rng: smallest_high_mass_set(SOURCE, 3, 0.1, budget=v)),
}

# Each name at a float, a bool, a numpy integer and one below its minimum,
# then the values that gave a silent result before the rule had one owner.
CASES = [(name, value) for name, (minimum, _) in SIZES.items()
         for value in (2.5, True, np.int64(3), minimum - 1)] + [
    ("CdfLowerBound.value.n", 1.5),
    ("LengthFactored.length_cdf.n", 0.5),
    ("shortlex_string.rank", 2.0),
]


@pytest.mark.parametrize("name, value", CASES, ids=[f"{name}={value!r}" for name, value in CASES])
def test_every_size_is_an_int_of_at_least_its_minimum(name, value, monkeypatch):
    _, call = SIZES[name]
    argument = name.rsplit(".", 1)[1]
    monkeypatch.setattr(core, "shortlex_symbols", never)  # no string is enumerated
    monkeypatch.setattr(shannon, "_types", never)  # no block type is enumerated
    assert_rejected_before_any_draw(lambda rng: call(value, rng), monkeypatch,
                                    match=rf"^{argument} must be ")
