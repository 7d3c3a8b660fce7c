import math
import re
import sys

import pytest

from hallustat.core import (Alphabet, Str, empty_string, shortlex_index, shortlex_string,
                            strings_upto)
from hallustat.errors import ConfigError, DomainError
from hallustat.flrm import (
    FlrmTrainer,
    MemorizerModel,
    model_from_json,
    model_to_json,
    sample_size_at,
    threshold_length,
    train,
)
from hallustat.measures import CdfLowerBound
from hallustat.oracle import TrainingSequence

from helpers import rank_table

A2 = Alphabet(2)
HALF_BOUND = CdfLowerBound((0.5,), 0.5)


def s(*symbols):
    return Str(A2, symbols)


def long_keys(a):
    """Strings of lengths 62 to 64 over a's first two symbols; over two
    symbols the last three rank past 2^63."""
    return [Str(a, (1,) * 62), Str(a, (0,) * 63), Str(a, (1, 0) * 31 + (1,)),
            Str(a, (0, 1) * 32), Str(a, (1,) * 64)]


def test_threshold_reference_values():
    # for this bound the cutoff for level n is 4^(n+1) * (2n+1) * ln 2
    assert threshold_length(10**6, A2, HALF_BOUND) == 7
    assert threshold_length(10, A2, HALF_BOUND) == 0
    assert threshold_length(3, A2, HALF_BOUND) == 0
    assert threshold_length(2, A2, HALF_BOUND) == -1
    assert threshold_length(0, A2, HALF_BOUND) == -1


def test_threshold_exact_cutoffs():
    # crossing each 4^(n+1)*(2n+1)*ln2 boundary bumps the threshold by one
    for n in range(6):
        rhs = 4 ** (n + 1) * (2 * n + 1) * math.log(2)
        below, above = math.floor(rhs), math.floor(rhs) + 1
        if below > rhs:  # float floor landed above the cutoff
            below -= 1
            above -= 1
        assert threshold_length(below, A2, HALF_BOUND) == n - 1
        assert threshold_length(above, A2, HALF_BOUND) == n


def test_threshold_monotone_in_m():
    prev = -1
    for m in range(0, 3000, 7):
        cur = threshold_length(m, A2, HALF_BOUND)
        assert cur >= prev
        prev = cur


def test_threshold_with_saturated_bound_is_minus_one():
    # bound value 1 everywhere -> zero defect -> no level ever qualifies
    saturated = CdfLowerBound((1.0,))
    assert threshold_length(10**9, A2, saturated) == -1


def test_sample_size_at_is_the_inline_formula_bit_for_bit():
    for n in range(61):
        d = HALF_BOUND.defect(n)
        x = float(2 ** (n + 1))
        expected = x / d * math.log(x / (2.0 * d))
        assert sample_size_at(n, A2, HALF_BOUND).hex() == expected.hex()


def test_sample_size_at_is_infinite_at_zero_defect_and_past_the_float_range():
    assert sample_size_at(0, A2, CdfLowerBound((1.0,))) == math.inf
    assert sample_size_at(665, A2, HALF_BOUND) == math.inf  # x/d = 2^1332
    assert sample_size_at(1100, A2, HALF_BOUND) == math.inf  # x = 2^1101 is past a float


def test_threshold_rejects_an_m_past_the_float_range():
    # m > +inf would fail at every length, so n̄ would read too small
    with pytest.raises(DomainError, match="must fit a float, got a 1329-bit number"):
        threshold_length(10**400, A2, HALF_BOUND)
    m = int(sys.float_info.max)  # the largest m that fits is scanned to the end
    expected = max(n for n in range(1100) if m > sample_size_at(n, A2, HALF_BOUND))
    assert threshold_length(m, A2, HALF_BOUND) == expected


def test_threshold_negative_m_rejected():
    with pytest.raises(DomainError):
        threshold_length(-1, A2, HALF_BOUND)


def test_train_memorizes_up_to_threshold():
    t = TrainingSequence(tuple((x, x) for x in (s(0), s(1, 1), s(0, 1, 0))))
    model = train(t, A2, HALF_BOUND)
    # |t| = 3 -> threshold 0: nothing of length >= 1 is kept
    assert model.threshold == 0
    assert model.table == {}
    assert model.predict(s(0)) == empty_string(A2)


def test_train_last_write_wins():
    pairs = ((s(0), s(0)), (s(0), s(1, 1)))
    t = TrainingSequence(pairs * 20)  # 40 pairs -> threshold 1
    model = train(t, A2, HALF_BOUND)
    assert model.threshold == 1
    assert model.predict(s(0)) == s(1, 1)


def test_train_length_filter():
    pairs = tuple((s(*([0] * k)), s(1)) for k in range(5))
    t = TrainingSequence(pairs * 10)  # 50 pairs -> threshold 1
    model = train(t, A2, HALF_BOUND)
    assert model.threshold == 1
    assert set(model.table) == {shortlex_index(empty_string(A2)), shortlex_index(s(0))}


def test_unmemorized_prediction_is_empty_string():
    model = train(TrainingSequence(()), A2, HALF_BOUND)
    assert model.threshold == -1
    assert model(s(1, 0, 1)) == empty_string(A2)
    assert model.predict(s(1)) == empty_string(A2)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("threshold", [-1, 0, 3, 64])
def test_predict_is_a_table_lookup(q, threshold):
    # Every other string up to the threshold is a key, or at threshold 64
    # the long keys; strings past it are answered without a lookup, and must
    # get what a lookup in the Str dict of the same entries would give.
    a = Alphabet(q)
    if threshold == 64:
        keys = long_keys(a)
        queried = keys + [Str(a, x.symbols[:-1] + (q - 1,)) for x in keys]
        queried += [Str(a, x.symbols + (0,)) for x in keys]  # past the threshold
    else:
        keys = list(strings_upto(a, threshold))[::2] if threshold >= 0 else []
        queried = list(strings_upto(a, threshold + 2))
    lookup = {x: shortlex_string(a, r + 1) for r, x in enumerate(keys)}
    model = MemorizerModel(a, rank_table(lookup), threshold)
    empty = empty_string(a)
    assert len(set(queried)) > len(keys)
    for x in queried:
        assert model.predict(x) == lookup.get(x, empty)
        # An equal, distinct alphabet finds the same entries; another
        # alphabet finds none.
        twin = Str(Alphabet(q), x.symbols)
        assert model.predict(twin) == lookup.get(twin, empty)
        other = Str(Alphabet(q + 1), x.symbols)
        assert model.predict(other) == lookup.get(other, empty) == empty


def test_predict_answers_a_non_str_with_the_default():
    model = MemorizerModel(A2, rank_table({empty_string(A2): s(1), s(0): s(1)}), 1)
    for x in ((), (0,), (0, 1, 1), "0", 0, None):
        assert model.predict(x) is model.default_output
    # The benchmark's tracer counts queries through one function.
    assert MemorizerModel.__call__ is MemorizerModel.predict


def test_trainer_object_matches_free_function():
    trainer = FlrmTrainer(A2, HALF_BOUND)
    t = TrainingSequence(tuple((s(i % 2), s(i % 2)) for i in range(20)))
    assert trainer(t).table == train(t, A2, HALF_BOUND).table


def test_model_validation():
    with pytest.raises(DomainError):
        MemorizerModel(A2, rank_table({s(0, 1): s(0)}), 0)  # key longer than threshold
    with pytest.raises(DomainError):
        MemorizerModel(A2, rank_table({empty_string(A2): s(0)}), -1)
    # train checks the alphabet of each pair it keeps (40 pairs: threshold 1).
    labeled = Alphabet(2, ("a", "b"))
    for pair in ((Str(labeled, (0,)), s(1)), (s(0), Str(labeled, (1,)))):
        with pytest.raises(DomainError, match="model's alphabet"):
            train(TrainingSequence((pair,) * 40), A2, HALF_BOUND)
    twin = Str(Alphabet(2), (0,))
    assert train(TrainingSequence(((twin, s(1)),) * 40), A2, HALF_BOUND).table == {1: 2}


def test_model_table_is_immutable():
    model = MemorizerModel(A2, rank_table({s(0): s(1)}), 1)
    with pytest.raises(TypeError):
        model.table[2] = 1


def test_json_roundtrip_and_key_order():
    table = {s(1): s(0), empty_string(A2): s(1, 1), s(0, 0): s(0)}
    table |= {x: Str(A2, x.symbols[::-1]) for x in reversed(long_keys(A2))}
    model = MemorizerModel(A2, rank_table(table), 64)
    doc = model_to_json(model)
    assert doc["threshold"] == 64
    listed = [tuple(e["s"]) for e in doc["table"]]
    assert listed == [(), (1,), (0, 0)] + [x.symbols for x in long_keys(A2)]  # shortlex order
    assert [tuple(e["y"]) for e in doc["table"]] == [table[Str(A2, x)].symbols for x in listed]
    back = model_from_json(A2, doc)
    assert back.threshold == model.threshold
    assert back.table == model.table
    assert model_to_json(back) == doc


def test_model_from_json_rejects_malformed():
    with pytest.raises(ConfigError):
        model_from_json(A2, {"table": []})  # missing threshold
    with pytest.raises(ConfigError):
        model_from_json(A2, {"threshold": 1, "table": [{"s": [0]}]})


@pytest.mark.parametrize("threshold", [2.5, "3", True, None])
def test_model_from_json_takes_the_threshold_as_it_is(threshold):
    with pytest.raises(DomainError, match="^threshold must be "):
        model_from_json(A2, {"threshold": threshold, "table": []})


@pytest.mark.parametrize("entry, field", [
    ({"s": [1.5], "y": [1]}, "table[1].s"),
    ({"s": [1], "y": [True]}, "table[1].y"),
    ({"s": ["1"], "y": []}, "table[1].s"),
    ({"s": 1, "y": []}, "table[1].s"),
    ({"s": [0, 2], "y": []}, "table[1].s"),  # a symbol outside the alphabet
])
def test_model_from_json_names_a_bad_table_string(entry, field):
    doc = {"threshold": 2, "table": [{"s": [0], "y": [1]}, entry]}
    with pytest.raises(ConfigError, match=rf"\b{re.escape(field)} "):
        model_from_json(A2, doc)


def test_memorized_strings_score_zero_on_echo():
    # soundness: memorizing qualified echo pairs reproduces the input exactly
    pairs = tuple((shortlex_string(A2, r), shortlex_string(A2, r)) for r in range(31))
    t = TrainingSequence(pairs * 41)  # 1271 pairs -> threshold 3
    model = train(t, A2, HALF_BOUND)
    assert model.threshold == 3
    for r in range(15):  # all strings up to length 3
        x = shortlex_string(A2, r)
        assert model(x) == x
