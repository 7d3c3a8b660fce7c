import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from hallustat.core import (
    Alphabet, Str, empty_string, shortlex_index, shortlex_string, strings_upto,
)
from hallustat.errors import DomainError
from hallustat.flrm import train
from hallustat.measures import CdfLowerBound, FiniteSupport, LengthFactored
from hallustat.oracle import (
    Constant,
    Echo,
    GroundTruth,
    IndexShift,
    Labeler,
    TrainingSequence,
    generate_qualified,
    is_qualified,
)

from helpers import generate_qualified_per_draw, uniform_support

A2 = Alphabet(2)


def s(*symbols):
    return Str(A2, symbols)


def test_echo_rule():
    gt = GroundTruth(A2, Echo())
    assert gt.accepts(s(0, 1), s(0, 1))
    assert not gt.accepts(s(0, 1), s(1, 0))
    assert gt.canonical(s(0, 1)) == s(0, 1)


def test_constant_rule():
    gt = GroundTruth(A2, Constant(s(1)))
    assert gt.accepts(s(0, 0), s(1))
    assert not gt.accepts(s(0, 0), s(0, 0))
    assert gt.canonical(empty_string(A2)) == s(1)


def test_index_shift_rule():
    gt = GroundTruth(A2, IndexShift(1))
    for rank in range(50):
        x = shortlex_string(A2, rank)
        assert gt.canonical(x) == shortlex_string(A2, rank + 1)
        assert gt.accepts(x, shortlex_string(A2, rank + 1))
        assert not gt.accepts(x, x)
    with pytest.raises(DomainError):
        IndexShift(-1)


def test_shift_zero_is_echo_like():
    gt = GroundTruth(A2, IndexShift(0))
    assert gt.canonical(s(1, 0)) == s(1, 0)


@pytest.mark.parametrize("rule", [
    lambda: "echo", lambda: SimpleNamespace(shift=1), lambda: IndexShift(1.5),
    lambda: IndexShift(True), lambda: Constant(()), lambda: Constant(Str(Alphabet(3), (2,))),
], ids=["string", "shift-attribute", "shift-float", "shift-bool", "constant-tuple",
        "constant-other-alphabet"])
def test_ground_truth_takes_only_the_three_rule_kinds(rule):
    with pytest.raises(DomainError):
        GroundTruth(A2, rule())


@pytest.mark.parametrize("rule", ["echo", "shift-0", "shift-1", "shift-3", "constant-empty",
                                  "constant-1"])
@pytest.mark.parametrize("q", [2, 3])
def test_empty_output_wrong_from_equals_a_scan_of_accepts(q, rule):
    # The default rule rejects the empty output on every string of length
    # >= _empty_wrong_from and on none shorter; override keys are the
    # overrides' to answer, so the scan skips them.
    a = Alphabet(q)
    empty = empty_string(a)
    rule = {"echo": Echo(), "shift-0": IndexShift(0), "shift-1": IndexShift(1),
            "shift-3": IndexShift(3), "constant-empty": Constant(empty),
            "constant-1": Constant(Str(a, (1,)))}[rule]
    overrides = ((Str(a, (1,)), (empty,)), (Str(a, (0, 1)), (Str(a, (1,)),)),
                 (Str(a, (1, 0, 1)), (empty, Str(a, (0,)))))
    for gt in (GroundTruth(a, rule), GroundTruth(a, rule, overrides)):
        keys = {key for key, _ in gt.overrides}
        rejects = {}
        for x in strings_upto(a, 4):
            if x not in keys:
                rejects.setdefault(len(x), set()).add(not gt.accepts(x, empty))
        assert sorted(rejects) == list(range(5))
        brute = next((n for n in range(5) if rejects[n] == {True}), math.inf)
        assert gt._empty_wrong_from == brute
        assert all(rejects[n] == {n >= brute} for n in range(5))


def test_overrides_replace_default():
    gt = GroundTruth(
        A2,
        Echo(),
        overrides=(((s(0)), (s(1, 1), s(1))),),
    )
    assert gt.accepts(s(0), s(1))
    assert gt.accepts(s(0), s(1, 1))
    assert not gt.accepts(s(0), s(0))  # default no longer applies here
    assert gt.accepts(s(1), s(1))  # untouched elsewhere


def test_canonical_is_shortlex_least_acceptable():
    gt = GroundTruth(A2, Echo(), overrides=((s(0), (s(1, 1), s(1), s(0, 0, 1))),))
    assert gt.canonical(s(0)) == s(1)
    assert shortlex_index(s(1)) == min(
        shortlex_index(y) for y in gt.acceptable(s(0))
    )


def test_override_validation():
    with pytest.raises(DomainError):
        GroundTruth(A2, Echo(), overrides=((s(0), ()),))  # empty acceptable set
    with pytest.raises(DomainError):
        GroundTruth(
            A2, Echo(), overrides=((s(0), (s(1),)), (s(0), (s(0),)))
        )  # duplicate key


def test_acceptable_sets_are_deduplicated_and_sorted():
    gt = GroundTruth(A2, Echo(), overrides=((s(0), (s(1), s(1), s(0, 1), s(1))),))
    acc = gt.acceptable(s(0))
    assert acc == (s(1), s(0, 1))
    assert [shortlex_index(y) for y in acc] == sorted(shortlex_index(y) for y in acc)


def test_training_sequence_basics():
    t = TrainingSequence(((s(0), s(0)), (s(1), s(1))))
    assert len(t) == 2
    assert list(t) == [(s(0), s(0)), (s(1), s(1))]


def test_last_outputs_is_a_read_only_dict_of_the_pairs():
    # first place of each input, output of its last pair
    t = TrainingSequence(((s(1), s(1)), (s(0), s(0)), (s(1), s(0, 1)), (s(0), s(1))))
    assert list(t.last_outputs().items()) == [(s(1), s(0, 1)), (s(0), s(1))]
    with pytest.raises(TypeError):
        t.last_outputs()[s(1)] = s(1)
    assert t == TrainingSequence(t.pairs)


def test_generated_pairs_are_qualified():
    mu = LengthFactored(A2, (), 0.5)
    gt = GroundTruth(A2, IndexShift(2), overrides=((s(0), (s(1), s(1, 1))),))
    rng = np.random.default_rng(0)
    for labeler in (Labeler.CANONICAL, Labeler.UNIFORM_ACCEPTABLE):
        t = generate_qualified(mu, gt, 10_000, labeler, rng)
        assert len(t) == 10_000
        assert is_qualified(t, gt)
        assert all(gt.accepts(x, y) for x, y in t)


def test_canonical_labeler_is_deterministic_in_inputs():
    mu = uniform_support(tuple(shortlex_string(A2, r) for r in range(6)))
    gt = GroundTruth(A2, Echo())
    t1 = generate_qualified(mu, gt, 500, Labeler.CANONICAL, np.random.default_rng(1))
    t2 = generate_qualified(mu, gt, 500, Labeler.CANONICAL, np.random.default_rng(1))
    assert t1.pairs == t2.pairs


def test_uniform_labeler_covers_all_acceptable_outputs():
    acc = (s(0), s(1), s(0, 0))
    gt = GroundTruth(A2, Echo(), overrides=((empty_string(A2), acc),))
    mu = uniform_support((empty_string(A2),))
    t = generate_qualified(mu, gt, 30_000, Labeler.UNIFORM_ACCEPTABLE,
                           np.random.default_rng(3))
    counts = {y: 0 for y in acc}
    for _, y in t:
        counts[y] += 1
    for y in acc:
        assert abs(counts[y] / 30_000 - 1 / 3) < 0.02


def test_uniform_labeler_matches_per_draw_loop():
    # one acceptable-set lookup per distinct input, one uniform per draw
    a3 = Alphabet(3)
    mu = LengthFactored(a3, (), 0.5)
    accept = (Str(a3, (1,)), Str(a3, (2,)), Str(a3, ()))
    gt = GroundTruth(a3, IndexShift(1), overrides=((Str(a3, (0,)), accept),))
    t = generate_qualified(mu, gt, 5_000, Labeler.UNIFORM_ACCEPTABLE,
                           np.random.default_rng(11))

    rng = np.random.default_rng(11)
    inputs = mu.sample_batch(rng, 5_000)
    u = rng.random(5_000)
    expected = []
    for i, x in enumerate(inputs):
        acc = gt.acceptable(x)
        expected.append((x, acc[min(int(u[i] * len(acc)), len(acc) - 1)]))
    assert t.pairs == tuple(expected)
    assert len({y for x, y in t if x == Str(a3, (0,))}) == 3


def test_is_qualified_detects_bad_pair():
    gt = GroundTruth(A2, Echo())
    bad = TrainingSequence(((s(0), s(1)),))
    assert not is_qualified(bad, gt)


def test_m_zero_produces_empty_sequence():
    mu = LengthFactored(A2, (), 0.5)
    gt = GroundTruth(A2, Echo())
    t = generate_qualified(mu, gt, 0, Labeler.CANONICAL, np.random.default_rng(0))
    assert len(t) == 0


def _top_level(q):
    """The shortest length whose level q^n reaches 2^62."""
    n = 0
    while q**n < 2**62:
        n += 1
    return n


def _law(kind, alphabet):
    """A law with a zero-mass level or atom and mass at a level >= 2^62."""
    top = _top_level(alphabet.size)
    if kind == "length_factored":
        # no mass at length 1, lengths 4 .. top - 1; 0.25 at top and above
        return LengthFactored(alphabet, (0.3, 0.0, 0.25, 0.2) + (0.0,) * (top - 4) + (0.05,), 0.5)
    strings = [(), (0,), (1,), (0, 0), (1,) * top, (0,) * (top + 1)]
    masses = [Fraction(1, 4), Fraction(0), Fraction(1, 4), Fraction(1, 4), Fraction(1, 8),
              Fraction(1, 8)]
    return FiniteSupport(tuple((Str(alphabet, x), p) for x, p in zip(strings, masses)))


def _ground_truth(rule, alphabet):
    """rule's default with overrides whose acceptable sets hold 1, 2 and 3
    outputs; one override key lies at a level >= 2^62."""
    def t(*symbols):
        return Str(alphabet, symbols)

    default = {"echo": Echo(), "index_shift": IndexShift(3), "constant": Constant(t(1, 0))}[rule]
    long_key = t(*(1,) * _top_level(alphabet.size))
    overrides = ((t(), (t(0), t(1), t(0, 0))), (t(1), (t(), t(1, 1))), (t(0, 0), (t(1),)),
                 (long_key, (t(), t(0))))
    return GroundTruth(alphabet, default, overrides)


@pytest.mark.parametrize("labeler", list(Labeler), ids=lambda lab: lab.value)
@pytest.mark.parametrize("rule", ["echo", "index_shift", "constant"])
@pytest.mark.parametrize("law", ["length_factored", "finite_support"])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_generate_qualified_matches_per_draw_reference(q, law, rule, labeler):
    alphabet = Alphabet(q)
    mu = _law(law, alphabet)
    gt = _ground_truth(rule, alphabet)
    for m in (0, 1, 7, 300, 5000):
        rng = np.random.default_rng(m + q)
        t = generate_qualified(mu, gt, m, labeler, rng)
        ref_rng = np.random.default_rng(m + q)
        assert t.pairs == generate_qualified_per_draw(mu, gt, m, labeler, ref_rng).pairs
        assert rng.random() == ref_rng.random()  # the stream ends where it did


@pytest.mark.parametrize("labeler", list(Labeler), ids=lambda lab: lab.value)
def test_generated_pairs_are_shared_per_distinct_pair(labeler):
    # one pair tuple per (input, output), however often it is drawn
    mu = LengthFactored(Alphabet(3), (), 0.5)
    gt = _ground_truth("index_shift", Alphabet(3))
    t = generate_qualified(mu, gt, 5000, labeler, np.random.default_rng(4))
    distinct = set(t.pairs)
    assert len({id(pair) for pair in t.pairs}) <= len(distinct) < len(t.pairs) // 10
    assert len({y for x, y in distinct if x == empty_string(Alphabet(3))}) == (
        3 if labeler is Labeler.UNIFORM_ACCEPTABLE else 1)


@pytest.mark.parametrize("labeler", list(Labeler), ids=lambda lab: lab.value)
@pytest.mark.parametrize("rule", ["echo", "constant"])
@pytest.mark.parametrize("law", ["length_factored", "finite_support"])
@pytest.mark.parametrize("q", [2, 3])
def test_training_from_distinct_pairs_equals_training_from_every_pair(q, law, rule, labeler):
    # generate_qualified fills last_outputs() from its distinct pairs; it
    # must equal dict(pairs), and training on it must equal training on a
    # hand-built sequence of the same pairs, table order included
    alphabet = Alphabet(q)
    mu = _law(law, alphabet)
    gt = _ground_truth(rule, alphabet)
    bound = CdfLowerBound((0.5,), 0.5)
    for m in (0, 1, 7, 300, 5000):
        t = generate_qualified(mu, gt, m, labeler, np.random.default_rng(m + q))
        ref = generate_qualified_per_draw(mu, gt, m, labeler, np.random.default_rng(m + q))
        assert t.pairs == ref.pairs
        assert list(t.last_outputs().items()) == list(dict(t.pairs).items())
        model, model_ref = train(t, alphabet, bound), train(TrainingSequence(t.pairs), alphabet, bound)
        assert model.threshold == model_ref.threshold
        assert list(model.table.items()) == list(model_ref.table.items())
