import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hallustat import cli
from hallustat.core import CODE_LIMIT, Alphabet, Str, empty_string, shortlex_string, strings_upto
from hallustat.errors import DomainError
from hallustat.measures import CdfLowerBound, FiniteSupport, LengthFactored, dominates

from helpers import StrKeyedLaw, sample_batch_per_draw, uniform_support

A2 = Alphabet(2)


def half_geometric():
    # P(len = i) = (1/2)^(i+1), uniform symbols within each length
    return LengthFactored(A2, (), 0.5)


# ---------------------------------------------------------------- bounds


def test_bound_validation():
    with pytest.raises(DomainError):
        CdfLowerBound(())
    with pytest.raises(DomainError):
        CdfLowerBound((0.5, 0.4))  # not nondecreasing
    with pytest.raises(DomainError):
        CdfLowerBound((0.5, 1.2))
    with pytest.raises(DomainError):
        CdfLowerBound((0.5,), 0.0)
    with pytest.raises(DomainError):
        CdfLowerBound((0.5,), 1.0)


def test_bound_value_and_defect_geometric():
    b = CdfLowerBound((0.5,), 0.5)
    assert b.value(0) == 0.5
    assert b.value(3) == 1.0 - 0.5**4
    assert b.defect(3) == 0.5**4  # computed without cancellation
    assert b.defect(50) == 0.5**51


def test_bound_value_one_beyond_table():
    b = CdfLowerBound((0.0, 0.0))
    assert b.value(0) == 0.0
    assert b.value(1) == 0.0
    assert b.value(2) == 1.0
    assert b.defect(2) == 0.0


def test_bound_negative_index():
    b = CdfLowerBound((0.5,))
    with pytest.raises(DomainError):
        b.value(-1)


# ---------------------------------------------- finite-support distributions


def test_finite_support_validation():
    s0, s1 = shortlex_string(A2, 0), shortlex_string(A2, 1)
    with pytest.raises(DomainError):
        FiniteSupport(())
    with pytest.raises(DomainError):
        FiniteSupport(((s0, Fraction(1, 2)),))  # mass != 1
    with pytest.raises(DomainError):
        FiniteSupport(((s0, Fraction(1, 2)), (s0, Fraction(1, 2))))  # dup atom
    with pytest.raises(DomainError):
        FiniteSupport(((s0, Fraction(3, 2)), (s1, Fraction(-1, 2))))


def test_finite_support_exact_queries():
    s0, s1, s2 = (shortlex_string(A2, r) for r in (0, 1, 2))
    d = FiniteSupport(((s0, Fraction(1, 2)), (s1, Fraction(1, 3)), (s2, Fraction(1, 6))))
    assert d.pmf(s1) == Fraction(1, 3)
    assert d.pmf(shortlex_string(A2, 5)) == 0
    assert d.length_cdf(0) == Fraction(1, 2)
    assert d.length_cdf(1) == 1
    assert not d.is_support_infinite
    # atoms out of length order, with a gap at length 2
    s3 = shortlex_string(A2, 7)  # length 3
    d = FiniteSupport(((s3, Fraction(1, 4)), (s0, Fraction(1, 4)), (s2, Fraction(1, 2))))
    assert [d.length_cdf(n) for n in range(5)] == [
        Fraction(1, 4), Fraction(3, 4), Fraction(3, 4), 1, 1]
    assert d.max_length == 3


def _finite(masses):
    """Atoms at the first len(masses) binary strings in shortlex order."""
    return FiniteSupport(tuple(zip(strings_upto(A2, len(masses).bit_length()),
                                   map(Fraction, masses))))


_BUCKET_LAWS = {
    "uniform_1023": lambda: _finite([Fraction(1, 1023)] * 1023),
    "skewed": lambda: _finite([Fraction(1, 2)] + [Fraction(1, 20_000)] * 10_000),
    "interior_zeros": lambda: _finite([0, Fraction(1, 4), 0, 0, Fraction(1, 8), Fraction(1, 8), 0,
                                       Fraction(1, 2), 0]),
    "geometric_40": lambda: _finite([Fraction(1, 2**k) for k in range(1, 40)] + [Fraction(1, 2**39)]),
    "one_atom": lambda: _finite([1]),
    "uniform_100000": lambda: _finite([Fraction(1, 100_000)] * 100_000),
}


@pytest.mark.parametrize("law", list(_BUCKET_LAWS))
def test_atom_indices_equal_binary_search(law):
    # the guide table returns exactly what bisection over the cumulative
    # masses returns, at every bucket edge and cumulative entry and their
    # float neighbours, and its bisection is no longer than the widest bucket needs
    mu = _BUCKET_LAWS[law]()
    cum = mu._sampling_cum
    n = len(mu.atoms)
    bits = math.ceil(math.log2(n))
    edges = np.arange(2**bits + 1) * 2.0**-bits
    probes = np.concatenate([edges, cum])
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], probes, np.nextafter(probes, 0.0),
                        np.nextafter(probes, 1.0), np.random.default_rng(5).random(20_000)])
    u = u[(u >= 0.0) & (u < 1.0)]
    expected = np.minimum(np.searchsorted(cum, u, side="right"), n - 1)
    got = mu._atom_indices(u)
    assert got.tolist() == expected.tolist()
    assert all(mu.atoms[i][1] > 0 for i in set(got.tolist()))
    scale, _, steps = mu._guide_table
    assert scale >= n
    widest = int(np.max(np.searchsorted(cum, edges[1:], side="right")
                        - np.searchsorted(cum, edges[:-1], side="right")))
    assert steps <= math.ceil(math.log2(widest + 1))


def test_zero_mass_atom_after_the_last_positive_one_is_never_drawn():
    # ten atoms of 1/10 sum to 1 - 2^-53 in floats, a uniform PCG64 can
    # return: it drew the trailing zero-mass atom when only the last
    # cumulative entry was set to 1
    mu = _finite([Fraction(1, 10)] * 10 + [0])
    top = np.nextafter(1.0, 0.0)
    assert np.cumsum([0.1] * 10)[-1] == top
    assert mu._atom_indices(np.array([0.0, 0.95, top])).tolist() == [0, 9, 9]
    assert mu._sampling_cum[9:].tolist() == [1.0, 1.0]


def test_finite_support_sums_masses_exactly_across_denominators():
    s0, s1, s2, s3 = (shortlex_string(A2, r) for r in range(4))  # lengths 0, 1, 1, 2
    d = FiniteSupport(((s1, Fraction(1, 3)), (s0, Fraction(1, 6)), (s2, Fraction(1, 4)),
                       (s3, Fraction(1, 4))))
    assert [d.length_cdf(n) for n in range(3)] == [Fraction(1, 6), Fraction(3, 4), 1]
    assert [d.defect(n) for n in range(3)] == [Fraction(5, 6), Fraction(1, 4), 0]
    with pytest.raises(DomainError):  # one part in 10^30 short of 1
        FiniteSupport(((s0, Fraction(1, 3)), (s1, Fraction(1, 3)),
                       (s2, Fraction(1, 3) - Fraction(1, 10**30))))
    with pytest.raises(DomainError):
        FiniteSupport(((s0, Fraction(1, 2)), (Str(Alphabet(3), (2,)), Fraction(1, 2))))


@st.composite
def finite_laws_and_masks(draw):
    """A law of 1 to 12 atoms whose masses have mixed denominators and may be
    0, with a mask over its atoms."""
    n = draw(st.integers(1, 12))
    weights = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12),
                            min_size=n, max_size=n))
    weights[draw(st.integers(0, n - 1))] += Fraction(1, draw(st.integers(1, 9)))
    total = sum(weights)
    ranks = draw(st.permutations(range(16)))[:n]
    law = FiniteSupport(tuple((shortlex_string(A2, r), w / total)
                              for r, w in zip(ranks, weights)))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return law, np.asarray(mask, dtype=bool)


@settings(max_examples=300, deadline=None)
@given(finite_laws_and_masks())
def test_finite_support_mass_equals_the_sum_over_the_masked_atoms(law_and_mask):
    law, mask = law_and_mask
    expected = sum((p for (_, p), keep in zip(law.atoms, mask) if keep), Fraction(0))
    assert law._mass(mask) == expected
    assert law._mass(~mask) == 1 - expected
    assert law._mass(np.ones(len(mask), dtype=bool)) == 1


def test_finite_support_mass_of_one_atom_and_of_zero_mass_atoms():
    s0, s1, s2 = (shortlex_string(A2, r) for r in range(3))
    one = FiniteSupport(((s1, Fraction(1)),))
    assert one._mass(np.array([True])) == 1 and one._mass(np.array([False])) == 0
    d = FiniteSupport(((s0, Fraction(0)), (s1, Fraction(1, 3)), (s2, Fraction(2, 3))))
    assert d._mass(np.array([True, False, False])) == 0
    assert d._mass(np.array([True, True, False])) == Fraction(1, 3)


def test_finite_support_pmf_reads_zero_off_the_positive_atoms():
    s0, s1 = shortlex_string(A2, 0), shortlex_string(A2, 1)
    d = FiniteSupport(((s0, Fraction(1)), (s1, Fraction(0))))
    assert d.pmf(s0) == 1
    for x in (s1, shortlex_string(A2, 2), Str(Alphabet(3), (0,))):
        assert d.pmf(x) == 0 and isinstance(d.pmf(x), Fraction)
    assert d.pmf(Str(Alphabet(2), ())) == 1  # an equal alphabet, another instance


def test_finite_support_duplicate_atom_error_names_its_symbols():
    a, b = Str(A2, (0, 1)), Str(Alphabet(2), (0, 1))  # equal, not the same object
    for atoms in (((a, Fraction(1, 2)), (a, Fraction(1, 2))),
                  ((shortlex_string(A2, 0), Fraction(1, 3)), (a, Fraction(1, 3)),
                   (b, Fraction(1, 3)))):
        with pytest.raises(DomainError, match=r"duplicate atom \(0, 1\)"):
            FiniteSupport(atoms)


# Lengths on both sides of the first level of q^n >= 2^62, per alphabet size;
# past int64, every nonempty string is past it and its symbols may be too.
_EXACT_EDGE = {2: (61, 62, 63, 64), 3: (38, 39, 40, 41), 2**70: (1, 2)}


@st.composite
def code_laws(draw):
    """(alphabet, strings, masses, uniform): 1 to 10 distinct strings, short
    ones and ones on both sides of the 2^62 levels, at q = 2, 3 or 2^70, with
    equal masses or mixed denominators (zeros included)."""
    q = draw(st.sampled_from(list(_EXACT_EDGE)))
    length = st.one_of(st.integers(0, 4), st.sampled_from(_EXACT_EDGE[q]))
    strings = draw(st.lists(
        length.flatmap(lambda n: st.lists(st.integers(0, q - 1), min_size=n, max_size=n)),
        min_size=1, max_size=10, unique_by=tuple))
    n = len(strings)
    uniform = draw(st.booleans())
    if uniform:
        masses = [Fraction(1, n)] * n
    else:
        weights = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12),
                                min_size=n, max_size=n))
        weights[draw(st.integers(0, n - 1))] += 1
        masses = [w / sum(weights) for w in weights]
    return Alphabet(q), strings, masses, uniform


def _config_law(alphabet, strings, masses, uniform):
    """The law the CLI parses from a config holding these atoms."""
    if uniform:
        spec = {"kind": "uniform_set", "members": strings}
    else:
        spec = {"kind": "finite", "atoms": [{"s": s, "prob": f"{p.numerator}/{p.denominator}"}
                                             for s, p in zip(strings, masses)]}
    return cli._distribution(alphabet, {"mu": spec})


@settings(max_examples=150, deadline=None)
@given(code_laws(), st.integers(0, 2**32 - 1))
def test_code_keyed_law_matches_a_str_keyed_reference(law, seed):
    alphabet, strings, masses, uniform = law
    atoms = [(Str(alphabet, tuple(s)), p) for s, p in zip(strings, masses)]
    ref = StrKeyedLaw(atoms)
    q, n = alphabet.size, len(atoms)
    probes = [s for s, _ in atoms] + [
        Str(alphabet, (q - 1,) * k) for k in (0, 1, 3, *_EXACT_EDGE[q])] + [
        Str(Alphabet(q + 1), tuple(strings[0])), Str(Alphabet(q + 1), (q,))]
    masks = [np.arange(n) % 2 == 0, np.arange(n) % 3 == 1, np.ones(n, dtype=bool)]
    for mu in (FiniteSupport(atoms), _config_law(alphabet, strings, masses, uniform)):
        assert mu.atoms == tuple(atoms)
        for s in probes:
            assert mu.pmf(s) == ref.pmf(s) and isinstance(mu.pmf(s), Fraction)
        for mask in masks:
            assert mu._mass(mask) == ref.mass(mask)
        for k in range(max(map(len, strings)) + 2):
            assert mu.length_cdf(k) == ref.length_cdf(k)
            assert mu.defect(k) == 1 - ref.length_cdf(k)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, inverse = mu.sample_distinct(rng, 200)
        want, want_inverse = ref.sample_distinct(ref_rng, 200)
        assert got == want and inverse.tolist() == want_inverse
        assert rng.random() == ref_rng.random()


@settings(max_examples=60, deadline=None)
@given(code_laws(), st.data())
def test_a_repeated_atom_is_rejected_by_both_constructors(law, data):
    alphabet, strings, masses, uniform = law
    i = data.draw(st.integers(0, len(strings) - 1))
    j = data.draw(st.integers(0, len(strings)))
    strings = strings[:j] + [strings[i]] + strings[j:]
    # the pair named: the earliest atom that repeats one before it
    later = next(k for k, s in enumerate(strings) if strings.index(s) < k)
    first = strings.index(strings[later])
    masses = [Fraction(1, len(strings))] * len(strings)
    atoms = [(Str(alphabet, tuple(s)), p) for s, p in zip(strings, masses)]
    with pytest.raises(DomainError, match=rf"atoms\[{later}\] repeats atoms\[{first}\]"):
        StrKeyedLaw(atoms)
    with pytest.raises(DomainError, match=rf"^duplicate atom .*: atoms\[{later}\] repeats "
                                           rf"atoms\[{first}\]$"):
        FiniteSupport(atoms)
    name = (r"mu\.members\[{}\]" if uniform else r"mu\.atoms\[{}\]\.s").format
    with pytest.raises(DomainError, match=rf"{name(later)} repeats {name(first)}$"):
        _config_law(alphabet, strings, masses, uniform)


# Lengths of test_core's bulk-code test: short ones, and ones on both sides
# of the first level of q^n >= 2^62.
_RANK_EDGE = {2: (61, 62, 64), 3: (38, 39, 41), 5: (26, 27, 29)}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(_RANK_EDGE)).flatmap(lambda q: st.tuples(st.just(q), st.lists(
    st.one_of(st.integers(0, 6), st.sampled_from(_RANK_EDGE[q]))
    .flatmap(lambda n: st.lists(st.integers(0, q - 1), min_size=n, max_size=n)),
    min_size=1, max_size=12, unique_by=tuple))), st.data())
def test_one_rank_index_keys_atoms_on_both_sides_of_the_int64_levels(case, data):
    q, strings = case
    a, n = Alphabet(q), len(strings)
    atoms = [Str(a, tuple(s)) for s in strings]
    masses = [Fraction(2 * (i + 1), n * (n + 1)) for i in range(n)]  # distinct masses
    symbols = np.array([x for s in strings for x in s], dtype=np.int64)
    lengths = np.array([len(s) for s in strings], dtype=np.int64)
    # the same length with another last or first symbol, where that is no atom
    others = {Str(a, s[:-1] + ((s[-1] + 1) % q,)) for s in map(tuple, strings) if s}
    others |= {Str(a, ((s[0] + 1) % q,) + s[1:]) for s in map(tuple, strings) if s}
    others -= set(atoms)
    for law in (FiniteSupport(zip(atoms, masses)),
                FiniteSupport._from_symbols(a, symbols, lengths, masses, "atoms[{}]".format)):
        assert law.atoms == tuple(zip(atoms, masses))
        for i, s in enumerate(atoms):
            assert law._find(s) == i and law.pmf(s) == masses[i]
            foreign = Str(Alphabet(q + 1), s.symbols)
            assert law._find(foreign) is None and law.pmf(foreign) == 0
        for s in others:
            assert law._find(s) is None and law.pmf(s) == 0
    # a long atom repeated later: the copy at j names the atom i it repeats
    long_atoms = [i for i, s in enumerate(strings) if q ** len(s) >= CODE_LIMIT]
    assume(long_atoms)
    i = data.draw(st.sampled_from(long_atoms))
    j = data.draw(st.integers(i + 1, n))
    strings = strings[:j] + [strings[i]] + strings[j:]
    mass = Fraction(1, n + 1)
    with pytest.raises(DomainError, match=rf"^duplicate atom .*: atoms\[{j}\] repeats "
                                           rf"atoms\[{i}\]$"):
        FiniteSupport((Str(a, tuple(s)), mass) for s in strings)
    symbols = np.array([x for s in strings for x in s], dtype=np.int64)
    lengths = np.array([len(s) for s in strings], dtype=np.int64)
    with pytest.raises(DomainError, match=rf"members\[{j}\] repeats members\[{i}\]$"):
        FiniteSupport._from_symbols(a, symbols, lengths, mass, "members[{}]".format)


def test_one_mass_samples_through_the_floats_of_per_atom_masses():
    # a uniform_set keeps one mass; its cumulative table is the cumsum of n
    # copies of that float, as a law with n equal masses computes it
    for n in (1, 3, 10, 1023):
        members = [list(shortlex_string(A2, r).symbols) for r in range(n)]
        one = cli._distribution(A2, {"mu": {"kind": "uniform_set", "members": members}})
        each = uniform_support(Str(A2, tuple(s)) for s in members)
        assert one._masses is None and one._uniform == Fraction(1, n)
        assert one._sampling_cum.tolist() == each._sampling_cum.tolist()
        assert one._sampling_cum[-1] == 1.0


def test_uniform_over_set_exact_queries():
    members = tuple(shortlex_string(A2, r) for r in range(4))
    d = uniform_support(members)
    assert d.pmf(members[0]) == Fraction(1, 4)
    assert d.pmf(shortlex_string(A2, 9)) == 0
    assert d.length_cdf(0) == Fraction(1, 4)
    assert d.length_cdf(1) == Fraction(3, 4)
    assert d.length_cdf(2) == 1
    with pytest.raises(DomainError):
        uniform_support(members + (members[0],))


def test_uniform_over_set_sampling_frequencies():
    members = tuple(shortlex_string(A2, r) for r in range(4))
    d = uniform_support(members)
    rng = np.random.default_rng(11)
    draws = d.sample_batch(rng, 1_000_000)
    counts = {}
    for s in draws:
        counts[s] = counts.get(s, 0) + 1
    for s in members:
        assert abs(counts[s] / 1_000_000 - 0.25) < 0.002


# ------------------------------------------------------------ length-factored


def test_length_factored_validation():
    with pytest.raises(DomainError):
        LengthFactored(A2, (0.5, 0.6), None)  # sums past 1
    with pytest.raises(DomainError):
        LengthFactored(A2, (0.5,), None)  # no tail but mass missing
    with pytest.raises(DomainError):
        LengthFactored(A2, (-0.1, 1.1), None)
    with pytest.raises(DomainError):
        LengthFactored(A2, (), None)  # nothing at all
    with pytest.raises(DomainError):
        LengthFactored(A2, (), 1.0)
    with pytest.raises(DomainError):
        LengthFactored(A2, (0.5, 0.25, float("nan")), 0.5)  # NaN compares false


def test_half_geometric_length_probabilities():
    d = half_geometric()
    for i in range(20):
        # dyadic values are exact in binary floating point
        assert d.length_cdf(i) == 1.0 - 0.5 ** (i + 1)
    assert d.is_support_infinite


def test_half_geometric_tail_is_exact_power():
    d = half_geometric()
    for m in range(1, 21):
        assert 1.0 - d.length_cdf(m - 1) == 0.5**m
        assert d.defect(m - 1) == 0.5**m
    assert d.length_cdf(0) == 0.5
    assert d.defect(1000) == 0.5**1001 > 0.0  # where 1 - length_cdf reads 0


def test_length_factored_defect_sums_the_table_past_n():
    d = LengthFactored(A2, (1.0 - 1e-12, 1e-12))
    assert d.defect(0) == 1e-12  # 1 - length_cdf(0) cancels to 1.0000889e-12
    assert d.defect(1) == d.defect(7) == 0.0
    d = LengthFactored(A2, (0.1, 0.3, 0.2), 0.5)
    assert d.defect(0) == math.fsum((0.3, 0.2, d.tail_mass))
    assert d.defect(4) == d.tail_mass * 0.5**2
    with pytest.raises(DomainError):
        d.defect(-1)


def test_pmf_splits_length_mass_uniformly():
    d = half_geometric()
    s = Str(A2, (0, 1, 0))
    assert d.pmf(s) == 0.5**4 / 8.0
    # every same-length string has the same mass
    assert d.pmf(Str(A2, (1, 1, 1))) == d.pmf(s)


def test_length_factored_pmf_sums_to_length_cdf():
    d = LengthFactored(A2, (0.4, 0.3, 0.2, 0.1), None)
    total = math.fsum(d.pmf(s) for s in strings_upto(A2, 3))
    assert abs(total - d.length_cdf(3)) < 1e-12
    assert abs(total - 1.0) < 1e-12


def test_length_factored_finite_tail_cdf():
    d = LengthFactored(A2, (0.4, 0.3, 0.2, 0.1), None)
    assert d.length_cdf(50) == 1.0
    assert d.pmf(Str(A2, (0,) * 9)) == 0.0


def test_sampled_length_histogram():
    d = half_geometric()
    rng = np.random.default_rng(5)
    draws = d.sample_batch(rng, 200_000)
    n = len(draws)
    for i in range(6):
        p = 0.5 ** (i + 1)
        freq = sum(1 for s in draws if len(s) == i) / n
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) < 4 * sigma + 1e-9


def test_sampled_symbols_uniform_within_length():
    d = half_geometric()
    rng = np.random.default_rng(6)
    draws = [s for s in d.sample_batch(rng, 400_000) if len(s) == 2]
    counts = {}
    for s in draws:
        counts[s.symbols] = counts.get(s.symbols, 0) + 1
    n = len(draws)
    for sym in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert abs(counts[sym] / n - 0.25) < 0.01


def test_sampling_consumes_two_uniforms_per_draw():
    # replaying the stream reproduces the draws: u_len batch then u_off batch
    d = half_geometric()
    draws = d.sample_batch(np.random.default_rng(123), 50)
    rng = np.random.default_rng(123)
    u_len = rng.random(50)
    u_off = rng.random(50)
    cum = d._sampling_cum
    for k in range(50):
        n = int(np.searchsorted(cum, u_len[k], side="right"))
        assert len(draws[k]) == n
        offset = int(u_off[k] * float(2**n))
        offset = min(offset, 2**n - 1)
        digits = []
        for _ in range(n):
            offset, r = divmod(offset, 2)
            digits.append(r)
        assert draws[k].symbols == tuple(reversed(digits))


def long_levels_26():
    # Mass at lengths 12 and 13 (float q^n inexact, below 2^62) and, through
    # the tail, at lengths >= 14, where 26^14 > 2^62 takes the exact branch.
    return LengthFactored(Alphabet(26), (0.2, 0.2) + (0.0,) * 10 + (0.1, 0.1), 0.5)


def test_sample_batch_zero_is_empty_and_consumes_nothing():
    for d in (half_geometric(), long_levels_26()):
        rng = np.random.default_rng(9)
        assert d.sample_batch(rng, 0) == []
        assert rng.random() == np.random.default_rng(9).random()


@pytest.mark.parametrize("d", [
    half_geometric(),
    LengthFactored(Alphabet(3), (), 0.5),
    LengthFactored(Alphabet(26), (), 0.5),
    long_levels_26(),
], ids=["q2", "q3", "q26", "q26-long-levels"])
def test_sample_batch_matches_per_draw_reference(d):
    draws = d.sample_batch(np.random.default_rng(17), 3000)
    assert draws == sample_batch_per_draw(d, np.random.default_rng(17), 3000)
    # every repeat of a string below the exact branch is the same object
    shared = {}
    for s in draws:
        if len(s) < 14:
            assert shared.setdefault(s, s) is s
    assert len(shared) < len(draws)


class _ScriptedRng:
    """Stands in for a generator: random(size) returns the next scripted
    array of uniforms, so draws repeat at will."""

    def __init__(self, *arrays):
        self.arrays = [np.asarray(a, dtype=np.float64) for a in arrays]

    def random(self, size):
        out = self.arrays.pop(0)
        assert out.size == size
        return out


DISTINCT_LAWS = [
    half_geometric(),
    LengthFactored(Alphabet(3), (), 0.5),
    long_levels_26(),
    FiniteSupport(((Str(A2, ()), Fraction(1, 2)), (Str(A2, (0,)), Fraction(0)),
                   (Str(A2, (1, 1)), Fraction(1, 3)), (Str(A2, (1,) * 70), Fraction(1, 6)))),
]
DISTINCT_IDS = ["q2", "q3", "q26-long-levels", "finite"]


@pytest.mark.parametrize("d", DISTINCT_LAWS, ids=DISTINCT_IDS)
def test_sample_distinct_expands_to_per_draw_reference(d):
    rng = np.random.default_rng(23)
    strings, inverse = d.sample_distinct(rng, 3000)
    assert len(set(strings)) == len(strings) < 3000
    assert [strings[i] for i in inverse.tolist()] == sample_batch_per_draw(
        d, np.random.default_rng(23), 3000)
    assert sorted(set(inverse.tolist())) == list(range(len(strings)))
    ref = np.random.default_rng(23)
    ref.random(3000 if isinstance(d, FiniteSupport) else 6000)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("d", DISTINCT_LAWS, ids=DISTINCT_IDS)
def test_sample_distinct_zero_consumes_nothing(d):
    rng = np.random.default_rng(9)
    strings, inverse = d.sample_distinct(rng, 0)
    assert strings == [] and inverse.size == 0
    assert rng.random() == np.random.default_rng(9).random()


def test_sample_distinct_dedupes_draws_at_exact_levels():
    # u_len 0.85 and 0.97 draw lengths 15 and 17, where 26^n >= 2^62; both
    # repeat with offset 0, and so does the short draw at u_len = 0.1
    d = long_levels_26()
    u_len = [0.1, 0.85, 0.97, 0.85, 0.1, 0.97]
    u_off = [0.4, 0.0, 0.0, 0.0, 0.4, 0.0]
    strings, inverse = d.sample_distinct(_ScriptedRng(u_len, u_off), 6)
    assert inverse.tolist() == [0, 1, 2, 1, 0, 2]
    assert len(strings[0]) < 14
    assert strings[1:] == [Str(Alphabet(26), (0,) * 15), Str(Alphabet(26), (0,) * 17)]
    assert d.sample_batch(_ScriptedRng(u_len, u_off), 6) == sample_batch_per_draw(
        d, _ScriptedRng(u_len, u_off), 6)


def test_sample_batch_long_levels_take_exact_branch():
    d = long_levels_26()
    assert 26**13 < 2**62 < 26**14
    lengths = [len(s) for s in d.sample_batch(np.random.default_rng(17), 3000)]
    assert sum(n >= 14 for n in lengths) > 500
    assert sum(n in (12, 13) for n in lengths) > 300


# ---------------------------------------------------------------- domination


def test_dominates_half_geometric_over_matching_bound():
    d = half_geometric()
    b = CdfLowerBound((0.5,), 0.5)
    assert dominates(d, b)


def test_dominates_fails_when_bound_is_strictly_higher():
    d = half_geometric()
    b = CdfLowerBound((0.9,), 0.5)
    assert not dominates(d, b)


def test_point_mass_far_out_fails_early_bound():
    # all mass on a length-10 string: CDF is 0 below length 10
    d = FiniteSupport(((Str(A2, (0,) * 10), Fraction(1)),))
    b = CdfLowerBound((0.5,), 0.5)
    assert not dominates(d, b)


def test_point_mass_at_empty_dominates_everything():
    d = FiniteSupport(((empty_string(A2), Fraction(1)),))
    b = CdfLowerBound((0.5,), 0.5)
    assert dominates(d, b)
    assert dominates(d, CdfLowerBound((1.0,)))


def test_dominates_boundary_equality_counts():
    # CDF equal to the bound everywhere is still >=
    d = half_geometric()
    table = tuple(1.0 - 0.5 ** (i + 1) for i in range(8))
    b = CdfLowerBound(table, 0.5)
    assert dominates(d, b)


def test_finite_support_vs_geometric_tail_bound():
    # finite support reaches CDF 1; geometric bound never does -> dominated
    members = tuple(shortlex_string(A2, r) for r in range(3))
    d = uniform_support(members)
    b = CdfLowerBound((1.0 / 3.0,), 0.5)
    assert dominates(d, b)


def test_faster_decaying_dist_dominates_slower_bound():
    # dist defect (1/2)^(n+1) <= bound defect (3/4)^(n+1) everywhere
    d = half_geometric()
    b = CdfLowerBound((0.25,), 0.75)
    assert dominates(d, b)


def test_slower_dist_tail_caught_analytically():
    # tiny tail mass but ratio 0.6 > bound ratio 0.5: pointwise fine early;
    # the defects cross near n = 34, so the pointwise window catches it
    d = LengthFactored(A2, (0.999,), 0.6)
    b = CdfLowerBound((0.5,), 0.5)
    assert not dominates(d, b)


def test_slower_dist_tail_crossing_past_the_window_caught_by_ratio():
    # defects 1e-9 * 0.51^n and 0.5 * 0.5^n cross near n = 1000, far past the
    # pointwise window: only the tail-ratio comparison rejects the law
    d = LengthFactored(A2, (1 - 1e-9,), 0.51)
    b = CdfLowerBound((0.5,), 0.5)
    assert all(d.length_cdf(n) >= b.value(n) for n in range(200))
    assert not dominates(d, b)


def test_tail_ratio_without_tail_mass_dominates():
    # the table already sums to 1, so the ratio 0.9 spreads no mass
    d = LengthFactored(A2, (0.5, 0.5), 0.9)
    assert d.tail == (2, None)
    assert dominates(d, CdfLowerBound((0.5,), 0.5))
    assert dominates(d, CdfLowerBound((0.5, 1.0)))


def test_bound_reaching_one_in_its_table_rejects_geometric_law():
    # past n = 53 the law's float CDF rounds to 1.0, so every pointwise check
    # passes; its defect stays positive while the bound's is 0
    d = half_geometric()
    b = CdfLowerBound((0.0,) * 60 + (1.0,), 0.5)
    assert all(d.length_cdf(n) >= b.value(n) for n in range(200))
    assert not dominates(d, b)


def test_law_table_longer_than_the_window_dominates():
    # the law's table runs past the bound's table plus 64 lengths, so its
    # geometric tail starts beyond the window the bound alone would set
    probs = tuple(0.1 * 0.9**i for i in range(100))
    d = LengthFactored(A2, probs, 0.9)
    assert d.tail == (100, 0.9)
    assert dominates(d, CdfLowerBound((0.1,), 0.95))
    assert not dominates(d, CdfLowerBound((0.1,), 0.85))
