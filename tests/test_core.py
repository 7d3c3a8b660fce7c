import itertools
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hallustat.cli as cli
from hallustat.core import (
    CODE_LIMIT,
    Alphabet,
    Str,
    code_levels,
    count_upto,
    empty_string,
    shortlex_codes,
    shortlex_index,
    shortlex_string,
    shortlex_strings,
    shortlex_symbols,
    strings_at,
    strings_of_length,
    strings_upto,
)
from hallustat.errors import DomainError
from hallustat.limits import construct_hard_support
from hallustat.measures import CdfLowerBound


def test_alphabet_validation():
    with pytest.raises(DomainError):
        Alphabet(1)
    with pytest.raises(DomainError):
        Alphabet(0)
    with pytest.raises(DomainError):
        Alphabet(3, ("a", "b"))  # label count mismatch
    with pytest.raises(DomainError):
        Alphabet(2, ("a", "a"))  # duplicate labels
    assert Alphabet(2).size == 2
    assert Alphabet(3, ("x", "y", "z")).labels == ("x", "y", "z")


@pytest.mark.parametrize("size", [2.5, 2.0, True, np.int64(2), "2"])
def test_alphabet_size_must_be_an_int(size):
    # Alphabet(2.5) once built, and count_upto over it returned a float.
    with pytest.raises(DomainError, match="alphabet size must be an int"):
        Alphabet(size)


@pytest.mark.parametrize("labels", [("a", 3), ["a", "b"], "ab", (b"a", b"b")])
def test_alphabet_labels_must_be_a_tuple_of_str(labels):
    # Alphabet(2, ("a", 3)) once built and failed only in Str.text().
    with pytest.raises(DomainError, match="labels must be None or a tuple of str"):
        Alphabet(2, labels)


def test_str_validation():
    a = Alphabet(2)
    with pytest.raises(DomainError):
        Str(a, (0, 2))
    with pytest.raises(DomainError):
        Str(a, (-1,))
    assert len(Str(a, (0, 1, 1))) == 3
    assert len(empty_string(a)) == 0


def test_count_upto_small_values():
    a = Alphabet(2)
    assert count_upto(a, 0) == 1
    assert count_upto(a, 1) == 3
    assert count_upto(a, 3) == 15
    assert count_upto(Alphabet(3), 2) == 13
    with pytest.raises(DomainError):
        count_upto(a, -1)


def test_count_upto_matches_enumeration():
    # closed form vs. literal enumeration, exact integers
    for q in (2, 3, 5):
        a = Alphabet(q)
        for n in range(0, 9):
            expected = sum(q**k for k in range(n + 1))
            assert count_upto(a, n) == expected


def test_count_upto_is_exact_at_large_n():
    a = Alphabet(2)
    assert count_upto(a, 99) == 2**100 - 1  # no float could represent this


def test_empty_string_is_rank_zero():
    for q in (2, 3, 5):
        a = Alphabet(q)
        assert shortlex_index(empty_string(a)) == 0
        assert shortlex_string(a, 0) == empty_string(a)


def test_shortlex_rank_roundtrip():
    for q in (2, 3, 5):
        a = Alphabet(q)
        top = min(100_000, count_upto(a, 8))
        for rank in range(top):
            s = shortlex_string(a, rank)
            assert shortlex_index(s) == rank


def test_shortlex_order_is_length_then_lex():
    a = Alphabet(3)
    ranked = [shortlex_string(a, r) for r in range(count_upto(a, 3))]
    keys = [(len(s), s.symbols) for s in ranked]
    assert keys == sorted(keys)
    assert sorted(reversed(ranked), key=shortlex_index) == ranked
    # and ties in length are broken lexicographically on symbols
    for prev, cur in zip(ranked, ranked[1:]):
        if len(prev) == len(cur):
            assert prev.symbols < cur.symbols


def test_shortlex_symbols_follow_the_ranks():
    for q in (2, 3):
        a = Alphabet(q)
        count = count_upto(a, 4)
        ranked = [shortlex_string(a, r) for r in range(count)]
        symbols = itertools.islice(shortlex_symbols(q), count)
        assert [Str(a, syms) for syms in symbols] == ranked


def test_shortlex_symbols_of_a_huge_alphabet_hold_no_symbol_range():
    # length 1 is enumerated lazily: these would otherwise build 10^30 symbols
    first = list(itertools.islice(shortlex_symbols(10**30), 4))
    assert first == [(), (0,), (1,), (2,)]


def test_shortlex_string_rejects_negative_rank():
    with pytest.raises(DomainError):
        shortlex_string(Alphabet(2), -1)


def test_strings_of_length_enumeration():
    a = Alphabet(2)
    assert [s.symbols for s in strings_of_length(a, 0)] == [()]
    assert [s.symbols for s in strings_of_length(a, 2)] == [
        (0, 0), (0, 1), (1, 0), (1, 1)]


def test_every_shortlex_str_builder_keeps_the_order():
    # strings_of_length, strings_upto, the hard support and the CLI's
    # generated domain all build their Strs through shortlex_strings
    up_to_four = CdfLowerBound((0.0, 0.0, 0.0, 0.0, 1.0))  # hard support: every string to length 4
    for q in (2, 3):
        a = Alphabet(q)
        by_length = [[Str(a, syms) for syms in itertools.product(range(q), repeat=n)]
                     for n in range(5)]
        ordered = [s for level in by_length for s in level]
        assert [list(strings_of_length(a, n)) for n in range(5)] == by_length
        assert list(strings_upto(a, 4)) == ordered
        assert construct_hard_support(a, up_to_four) == ordered
        assert cli._nfl_strings(a, {}, "domain", len(ordered)) == tuple(ordered)
        for start in range(len(ordered) + 1):
            assert list(shortlex_strings(a, start, len(ordered))) == ordered[start:]


def test_strings_upto_matches_ranks():
    a = Alphabet(3)
    listed = list(strings_upto(a, 4))
    assert len(listed) == count_upto(a, 4)
    for rank, s in enumerate(listed):
        assert shortlex_index(s) == rank


def test_text_rendering():
    a = Alphabet(2, ("a", "b"))
    assert Str(a, (0, 1, 1)).text() == "abb"
    assert empty_string(a).text() == ""


@given(q=st.sampled_from([2, 3, 5]), n=st.integers(min_value=0, max_value=30))
def test_count_upto_recurrence(q, n):
    a = Alphabet(q)
    if n == 0:
        assert count_upto(a, 0) == 1
    else:
        assert count_upto(a, n) == count_upto(a, n - 1) + q**n


@settings(max_examples=200)
@given(q=st.sampled_from([2, 3, 5]), rank=st.integers(min_value=0, max_value=10**12))
def test_roundtrip_at_random_large_ranks(q, rank):
    a = Alphabet(q)
    assert shortlex_index(shortlex_string(a, rank)) == rank


def test_cross_alphabet_comparison_is_unequal():
    s2 = empty_string(Alphabet(2))
    s3 = empty_string(Alphabet(3))
    assert s2 != s3


def test_brute_force_rank_table():
    # independent ranking: sort all strings up to length 4 by (len, symbols)
    a = Alphabet(2)
    brute = sorted(
        (Str(a, t) for n in range(5) for t in itertools.product(range(2), repeat=n)),
        key=lambda s: (len(s), s.symbols),
    )
    for rank, s in enumerate(brute):
        assert shortlex_index(s) == rank
        assert shortlex_string(a, rank) == s


def test_str_hash_is_tuple_hash():
    a = Alphabet(3, ("x", "y", "z"))
    for syms in ((), (0,), (2, 1, 0)):
        assert hash(Str(a, syms)) == hash((a, syms))


def test_alphabet_hash_is_tuple_hash():
    for size, labels in ((2, None), (3, None), (3, ("x", "y", "z"))):
        assert hash(Alphabet(size, labels)) == hash((size, labels))


def test_pickles_rebuild_alphabet_and_str_hashes():
    a = Alphabet(3, ("x", "y", "z"))
    s = Str(a, (2, 0))
    for value in (a, s):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and hash(back) == hash(value)
    # Label hashes differ between processes, so a pickle made under another
    # hash seed must load with this process's hashes.
    other_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    made = subprocess.run(
        [sys.executable, "-c",
         "import pickle, sys; from hallustat.core import Alphabet, Str; "
         "a = Alphabet(3, ('x', 'y', 'z')); "
         "sys.stdout.buffer.write(pickle.dumps((a, Str(a, (2, 0)))))"],
        capture_output=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": other_seed,
             "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)},
    ).stdout
    a_back, s_back = pickle.loads(made)
    assert (a_back, s_back) == (a, s)
    assert hash(a_back) == hash(a) and hash(s_back) == hash(s)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5]).flatmap(lambda q: st.tuples(st.just(q), st.lists(
    st.one_of(st.integers(0, 6), st.sampled_from({2: (61, 62, 64), 3: (38, 39, 41),
                                                  5: (26, 27, 29)}[q]))
    .flatmap(lambda n: st.lists(st.integers(0, q - 1), min_size=n, max_size=n)),
    min_size=1, max_size=12))))
def test_bulk_codes_equal_shortlex_ranks(case):
    q, strings = case
    a = Alphabet(q)
    lengths = np.array([len(s) for s in strings], dtype=np.int64)
    ranks = shortlex_codes(q, [x for s in strings for x in s], lengths)
    assert ranks == [shortlex_index(Str(a, tuple(s))) for s in strings]
    assert all(type(rank) is int for rank in ranks)
    assert [shortlex_string(a, rank).symbols for rank in ranks] == [tuple(s) for s in strings]
    # decoding the distinct int64 codes in increasing order gives back their strings
    short = [i for i, s in enumerate(strings) if q ** len(s) < CODE_LIMIT]
    keys = np.unique(np.array([ranks[i] for i in short], dtype=np.int64))
    base, _ = code_levels(q, int(lengths.max()))
    assert strings_at(a, base, keys) == [shortlex_string(a, int(k)) for k in keys.tolist()]
