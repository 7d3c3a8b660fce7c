import itertools
import math
import operator
import re
import types
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallustat.core import (
    Alphabet,
    Str,
    count_upto,
    empty_string,
    shortlex_index,
    shortlex_string,
    strings_upto,
)
from hallustat.errors import BudgetExceeded, DomainError
from hallustat.flrm import FlrmTrainer, MemorizerModel, threshold_length
import hallustat.limits as limits
from hallustat.limits import (
    NFL_BUDGET,
    TABLE_ENTRY_CAP,
    DiagonalConstruction,
    NflInstance,
    check_diagonal_budget,
    check_nfl_budget,
    construct_hard_support,
    diagonalize,
    general_lambda_t,
    lambda_t,
    learner_on_indices,
    markov_tail_check,
    memorize_constant_trainer,
    nfl_brute_force,
    nfl_sizes,
    nfl_work,
    random_table_models,
    required_sample_size,
    verify_diagonal,
)
from hallustat.measures import (
    CdfLowerBound,
    dominates,
)
from hallustat.oracle import TrainingSequence
from hallustat.shannon import SourceModel, smallest_high_mass_set

from helpers import (
    diagonalize_by_queries,
    memorize_constant_oracle,
    nfl_memorizer_report,
    nfl_per_sequence,
    random_table_models_per_model,
    rank_table,
    uniform_support,
    verify_diagonal_by_pairs,
)

A2 = Alphabet(2)
HALF_BOUND = CdfLowerBound((0.5,), 0.5)


# -------------------------------------------------------------- sufficiency


def test_required_sample_size_reference_values():
    r = required_sample_size(0.2, 0.2, A2, HALF_BOUND)
    assert (r.n_bar, r.m_bar) == (3, 1243)
    r = required_sample_size(0.1, 0.1, A2, HALF_BOUND)
    assert (r.n_bar, r.m_bar) == (4, 6389)


def test_required_sample_size_uses_smaller_epsilon():
    r = required_sample_size(0.9, 0.2, A2, HALF_BOUND)
    assert r == required_sample_size(0.2, 0.9, A2, HALF_BOUND).__class__(
        epsilon_h=0.9, epsilon_t=0.2, n_bar=r.n_bar, m_bar=r.m_bar
    )
    assert r.n_bar == required_sample_size(0.2, 0.2, A2, HALF_BOUND).n_bar


def test_required_sample_size_epsilon_domain():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(DomainError):
            required_sample_size(bad, 0.5, A2, HALF_BOUND)
        with pytest.raises(DomainError):
            required_sample_size(0.5, bad, A2, HALF_BOUND)


def test_required_sample_size_zero_defect_rejected():
    # defect stays at 0.5 through the table, then drops straight to 0:
    # the first length below target has no positive defect to divide by
    saturated = CdfLowerBound((0.5,))
    with pytest.raises(DomainError):
        required_sample_size(0.2, 0.2, A2, saturated)


def test_required_sample_size_past_the_float_range_names_the_length():
    # n̄ = 665, where q^(n̄+1)/d = 2^1332 is past the float range
    with pytest.raises(DomainError, match="at length 665 is past the float range"):
        required_sample_size(1e-200, 0.1, A2, HALF_BOUND)


def test_required_sample_size_scan_stops_where_the_size_leaves_the_float_range():
    # the defect 0.5 * r^n falls below 5e-11 only at n = 23 025 840; the size
    # is past the float range from n = 1023 on, where the scan stops
    slow = CdfLowerBound((0.5,), 0.999999)
    with pytest.raises(DomainError, match="at length 1023 is past the float range"):
        required_sample_size(1e-10, 1e-10, A2, slow)


def test_required_sample_size_rejects_an_epsilon_whose_half_is_zero(monkeypatch):
    # 5e-324 / 2 rounds to 0.0, below every defect: rejected before the scan
    def refuse(self, n):
        raise AssertionError("the bound was scanned")

    monkeypatch.setattr(CdfLowerBound, "defect", refuse)
    with pytest.raises(DomainError, match="5e-324"):
        required_sample_size(0.5, 5e-324, A2, HALF_BOUND)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("bound, epsilons", [
    (HALF_BOUND, (0.8, 0.4, 0.2, 0.1, 0.05, 0.01, 1e-6)),
    (CdfLowerBound((0.1, 0.3), 0.7), (0.9, 0.5, 0.1, 1e-3)),
    # one_at_n: the defect is 0 from length 4 on, so epsilon/2 stays above 0.05
    (CdfLowerBound((0.25, 0.5, 0.9, 0.95)), (1.0, 0.8, 0.4, 0.2)),
], ids=["half", "geometric", "one_at_n"])
def test_threshold_at_m_bar_reaches_n_bar(q, bound, epsilons):
    # both read the one sample-size formula, so m̄ trains a threshold of n̄
    alphabet = Alphabet(q)
    for eps in epsilons:
        r = required_sample_size(eps, eps, alphabet, bound)
        assert threshold_length(r.m_bar, alphabet, bound) >= r.n_bar


def test_m_bar_grows_as_epsilon_shrinks():
    prev = 0
    for eps in (0.8, 0.4, 0.2, 0.1, 0.05):
        m_bar = required_sample_size(eps, eps, A2, HALF_BOUND).m_bar
        assert m_bar >= prev
        prev = m_bar


# ---------------------------------------------------------------- necessity


def test_nfl_sizes_reference_values():
    r = nfl_sizes(A2, HALF_BOUND)
    assert (r.n_lower, r.m_lower) == (0, 2)
    r = nfl_sizes(A2, CdfLowerBound((0.0, 0.0, 1.0)))
    assert (r.n_lower, r.m_lower) == (2, 7)
    r = nfl_sizes(A2, CdfLowerBound((0.0,)))
    assert (r.n_lower, r.m_lower) == (1, 3)


def test_nfl_sizes_exact_argmin_brute():
    # exhaustive argmin over a window comfortably past the formal stop rule
    for q, table, ratio in ((2, (0.3, 0.6), 0.5), (3, (0.1,), 0.7), (5, (0.02,), 0.9)):
        a = Alphabet(q)
        b = CdfLowerBound(table, ratio)
        vals = {}
        for n in range(0, 40):
            c = b.value(n)
            if c > 0.0:
                vals[n] = Fraction(count_upto(a, n)) / Fraction(c)
        best_n = min(vals, key=lambda n: (vals[n], n))
        got = nfl_sizes(a, b)
        assert got.n_lower == best_n
        assert got.m_lower == -(-vals[best_n].numerator // vals[best_n].denominator)


def test_hard_support_size_matches_objective():
    cases = [
        (2, CdfLowerBound((0.5,), 0.5)),
        (2, CdfLowerBound((0.0, 0.0, 1.0))),
        (3, CdfLowerBound((0.25,), 0.5)),
        (5, CdfLowerBound((0.9,), 0.5)),
        (2, CdfLowerBound((0.125, 0.25), 0.75)),
    ]
    for q, b in cases:
        a = Alphabet(q)
        support = construct_hard_support(a, b)
        r = nfl_sizes(a, b)
        objective = Fraction(count_upto(a, r.n_lower)) / Fraction(b.value(r.n_lower))
        assert len(support) == objective.numerator // objective.denominator
        assert len(set(support)) == len(support)
        # shortlex prefix: ranks are exactly 0..size-1
        assert support == [shortlex_string(a, i) for i in range(len(support))]


def test_hard_support_uniform_dominates_bound():
    for q, b in ((2, HALF_BOUND), (3, CdfLowerBound((0.25,), 0.5))):
        a = Alphabet(q)
        support = construct_hard_support(a, b)
        uni = uniform_support(tuple(support))
        assert dominates(uni, b)


def test_hard_support_budget():
    # objective 2048 at n = 0; the table is long enough that no later
    # length undercuts it (count alone is 4095 past the table)
    tiny = CdfLowerBound((1.0 / 2048.0,) * 11)
    with pytest.raises(BudgetExceeded) as err:
        construct_hard_support(A2, tiny, max_size=1000)
    assert err.value.required == 2048


# ------------------------------------------------------------ tail algebra


def test_lambda_t_values():
    assert lambda_t(Fraction(1, 4)) == Fraction(1, 3)
    assert lambda_t(Fraction(1, 2)) == 0
    assert general_lambda_t(2, Fraction(1, 8)) == Fraction(1, 7)
    assert general_lambda_t(2, Fraction(1, 4)) == Fraction(1, 3) - Fraction(1, 3)
    assert general_lambda_t(3, Fraction(1, 8)) == Fraction(5, 21)
    assert general_lambda_t(3, Fraction(1, 4)) == Fraction(1, 9)


def test_lambda_t_monotonicity():
    # decreasing in the hallucination level, increasing in the codomain size
    levels = [Fraction(k, 10) for k in range(1, 10)]
    vals = [lambda_t(lh) for lh in levels]
    assert vals == sorted(vals, reverse=True)
    for lh in (Fraction(1, 8), Fraction(1, 4)):
        by_p = [general_lambda_t(p, lh) for p in (1, 2, 3, 10, 100)]
        assert by_p == sorted(by_p)
        assert all(v < lambda_t(lh) for v in by_p)


def test_general_lambda_t_exact_gap_to_limit():
    # (mu_p - lh)/(1 - lh) differs from the p->inf limit by 1/(2p(1-lh))
    for p in (2, 3, 10, 10**6):
        for lh in (Fraction(1, 8), Fraction(1, 4), Fraction(2, 5)):
            gap = lambda_t(lh) - general_lambda_t(p, lh)
            assert gap == Fraction(1, 2 * p) / (1 - lh)
    assert abs(float(lambda_t(Fraction(1, 4)) - general_lambda_t(10**6, Fraction(1, 4)))) < 1e-5


def test_lambda_domain_errors():
    for bad in (0, 1, Fraction(3, 2), -1):
        with pytest.raises(DomainError):
            lambda_t(bad)
        with pytest.raises(DomainError):
            general_lambda_t(2, bad)
    with pytest.raises(DomainError):
        general_lambda_t(0, Fraction(1, 4))


# -------------------------------------------------------------- markov tail


def test_markov_tail_point_masses():
    r = markov_tail_check([(0, Fraction(1, 2)), (1, Fraction(1, 2))], 1, Fraction(1, 4))
    assert r == (Fraction(1, 2), Fraction(1, 3), True)
    # all mass at the cap: both sides are exactly 1
    r = markov_tail_check([(1, Fraction(1))], 1, Fraction(1, 2))
    assert r.lhs == r.rhs == 1 and r.holds


def test_markov_tail_validation():
    with pytest.raises(DomainError):
        markov_tail_check([(0, Fraction(1))], 1, 0)  # a must be > 0
    with pytest.raises(DomainError):
        markov_tail_check([(0, Fraction(1))], 1, 1)  # a must be < c
    with pytest.raises(DomainError):
        markov_tail_check([(2, Fraction(1))], 1, Fraction(1, 2))  # value beyond c
    with pytest.raises(DomainError):
        markov_tail_check([(0, Fraction(1, 2))], 1, Fraction(1, 2))  # mass != 1


def test_markov_tail_randomized():
    rng = np.random.default_rng(17)
    for _ in range(500):
        k = int(rng.integers(1, 6))
        weights = [int(w) for w in rng.integers(1, 50, size=k)]
        total = sum(weights)
        values = sorted(int(v) for v in rng.integers(0, 101, size=k))
        pmf = [(Fraction(v, 100), Fraction(w, total)) for v, w in zip(values, weights)]
        a = Fraction(int(rng.integers(1, 100)), 100)
        assert markov_tail_check(pmf, 1, a).holds


@settings(max_examples=200)
@given(
    weights=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=5),
    values=st.lists(st.integers(min_value=0, max_value=60), min_size=5, max_size=5),
    a_num=st.integers(min_value=1, max_value=59),
)
def test_markov_tail_property(weights, values, a_num):
    total = sum(weights)
    pmf = [(Fraction(v, 60), Fraction(w, total)) for v, w in zip(values, weights)]
    assert markov_tail_check(pmf, 1, Fraction(a_num, 60)).holds


# ---------------------------------------------------------------------- nfl


def domain_strings(k):
    return tuple(shortlex_string(A2, i) for i in range(k))


def test_nfl_instance_validation():
    dom, cod = domain_strings(4), domain_strings(2)
    learner = memorize_constant_trainer(4)
    with pytest.raises(DomainError):
        NflInstance(domain=dom, codomain=cod, m=3, learner=learner)  # m > n/2
    with pytest.raises(DomainError):
        NflInstance(domain=dom + (dom[0],), codomain=cod, m=1, learner=learner)
    with pytest.raises(DomainError):
        NflInstance(domain=(), codomain=cod, m=0, learner=learner)
    NflInstance(domain=dom, codomain=cod, m=0, learner=learner)  # m = 0 is fine


def test_nfl_4_2_2_memorize_constant():
    dom, cod = domain_strings(4), domain_strings(2)
    inst = NflInstance(domain=dom, codomain=cod, m=2, learner=memorize_constant_trainer(4))
    r = nfl_brute_force(inst)
    assert r.bound_mu == Fraction(1, 4)
    assert r.worst_expected_hp >= r.bound_mu
    assert all(ch.holds for ch in r.tail_check)
    assert r.verified
    assert [ch.lambda_h for ch in r.tail_check] == [Fraction(1, 8), Fraction(1, 4)]


def test_nfl_4_2_2_flrm():
    dom, cod = domain_strings(4), domain_strings(2)
    inst = NflInstance(domain=dom, codomain=cod, m=2,
                       learner=learner_on_indices(dom, cod, FlrmTrainer(A2, HALF_BOUND)))
    r = nfl_brute_force(inst)
    assert r.worst_expected_hp >= Fraction(1, 4)
    assert r.verified


def test_nfl_3_2_1_against_independent_enumeration():
    # frozen from a from-scratch pure-python enumeration (no caching, no numpy)
    dom, cod = domain_strings(3), domain_strings(2)
    inst = NflInstance(domain=dom, codomain=cod, m=1, learner=memorize_constant_trainer(3))
    r = nfl_brute_force(inst)
    assert (r.worst_f_index, r.worst_expected_hp) == (7, Fraction(2, 3))

    learner = memorize_constant_oracle(cod)

    best, best_q = Fraction(-1), None
    for q, f in enumerate(itertools.product(range(2), repeat=3)):
        total = Fraction(0)
        for seq in itertools.product(range(3), repeat=1):
            t = TrainingSequence(tuple((dom[x], cod[f[x]]) for x in seq))
            h = learner(t)
            total += Fraction(sum(1 for j in range(3) if h(dom[j]) != cod[f[j]]), 3)
        e = total / 3
        if e > best:
            best, best_q = e, q
    assert (best_q, best) == (r.worst_f_index, r.worst_expected_hp)


def test_nfl_tail_probabilities_are_exact_counts():
    dom, cod = domain_strings(4), domain_strings(2)
    inst = NflInstance(domain=dom, codomain=cod, m=2, learner=memorize_constant_trainer(4))
    r = nfl_brute_force(inst, lambda_h_grid=(Fraction(1, 8),))
    ch = r.tail_check[0]
    assert 0 <= ch.probability <= 1
    assert ch.probability.denominator in (1, 2, 4, 8, 16)  # divides n^m = 16


def test_nfl_degenerate_single_output():
    # |codomain| = 1: the bound is 0 and the negative tail level always holds
    dom = domain_strings(2)
    cod = domain_strings(1)
    inst = NflInstance(domain=dom, codomain=cod, m=1, learner=memorize_constant_trainer(2))
    r = nfl_brute_force(inst)
    assert r.bound_mu == 0
    assert r.verified


def test_nfl_budget_enforced():
    # order-invariant: one n * p^n mismatch pass per support (41 supports of
    # size 1..3) and n outputs per learner call (C(6, k) * 3^k calls per size k)
    dom, cod = domain_strings(6), domain_strings(3)
    inst = NflInstance(domain=dom, codomain=cod, m=3,
                       learner=memorize_constant_trainer(6), order_invariant=True)
    with pytest.raises(BudgetExceeded) as err:
        nfl_brute_force(inst, budget=1000)
    assert err.value.required == 6 * 3**6 * (6 + 15 + 20) + 6 * (6 * 3 + 15 * 9 + 20 * 27)


def test_nfl_budget_rejects_huge_work_without_forming_it():
    # 2^(10^6) labelings: rejected from the bit-length bound alone
    for order_invariant in (False, True):
        with pytest.raises(BudgetExceeded) as err:
            check_nfl_budget(10**6, 2, 1, 10**8, order_invariant)
        assert err.value.required is None
    # below the cap the exact work is reported; a learner that is not
    # order-invariant takes one pass per sequence (6^3 of them) and is called
    # 3^k times on each of the C(6, k) * k! * S(3, k) sequences with k distinct items
    with pytest.raises(BudgetExceeded) as err:
        check_nfl_budget(6, 3, 3, 1000)
    assert err.value.required == 6 * 3**6 * 6**3 + 6 * (6 * 1 * 3 + 15 * 6 * 9 + 20 * 6 * 27)
    # exactly 4 * 2^4 * 4^2 + 4 * (4 * 2 + 6 * 2 * 4) fits, one less does not
    check_nfl_budget(4, 2, 2, 1248)
    with pytest.raises(BudgetExceeded):
        check_nfl_budget(4, 2, 2, 1247)
    # order-invariant: 4 * 2^4 * (4 + 6) + 4 * (4 * 2 + 6 * 4)
    check_nfl_budget(4, 2, 2, 768, order_invariant=True)
    with pytest.raises(BudgetExceeded):
        check_nfl_budget(4, 2, 2, 767, order_invariant=True)


def test_nfl_overflowing_counts_rejected_before_enumeration(monkeypatch):
    # 32^13 sequences * 32 strings = 2^70 does not fit an int64 count, though
    # the work (p = 1, 2 * 32 evaluations per support) fits the budget
    def never(t):
        raise AssertionError("the learner was called")

    inst = NflInstance(domain=domain_strings(32), codomain=domain_strings(1), m=13,
                       learner=never, order_invariant=True)
    monkeypatch.setattr(limits, "np", None)  # any array built would fail first
    with pytest.raises(DomainError, match="overflow"):
        nfl_brute_force(inst, budget=10**12)


def test_nfl_memory_caps_reject_strings_and_labelings_past_them(monkeypatch):
    # Within a budget that admits them, n + p strings and p^n labelings are
    # each allowed up to their cap and rejected one past it (exit 3).
    budget = 10**5001
    for n, p in ((20, 2), (1, 2**20 - 1), (2**20 - 1, 1), (2, 1024), (4, 32)):
        check_nfl_budget(n, p, 0, budget)
    past = {
        (21, 2): "2^21 labelings are more than the 1048576",
        (2, 1025): "1025^2 labelings",
        (4, 130): "130^4 labelings",
        (1, 2**20): "1 domain and 1048576 codomain strings are more than the 1048576",
        (2**20, 1): "1048576 domain and 1 codomain strings",
        (1, 99_999_999): "99999999 codomain strings",  # its work, p + 1, fits 10^8
        (1, 10**5000): "a 16610-bit number codomain strings",
    }
    for (n, p), message in past.items():
        with pytest.raises(DomainError, match=re.escape(message)):
            check_nfl_budget(n, p, 0, budget)
    with pytest.raises(DomainError, match="99999999 codomain"):
        check_nfl_budget(1, 99_999_999, 0, NFL_BUDGET, order_invariant=True)
    # nfl_brute_force checks before it builds an array.
    inst = NflInstance(domain=domain_strings(21), codomain=domain_strings(2), m=0,
                       learner=memorize_constant_trainer(21), order_invariant=True)
    monkeypatch.setattr(limits, "np", None)
    with pytest.raises(DomainError, match=re.escape("2^21 labelings")):
        nfl_brute_force(inst, budget=10**10)


def test_budget_message_formed_only_when_exceeded():
    # 10^5000 has more digits than int-to-str conversion allows; the work fits
    budget = 10**5000
    check_nfl_budget(2, 2, 1, budget)
    check_diagonal_budget(3, 2, budget)
    assert smallest_high_mass_set(SourceModel((0.9, 0.1)), 3, 0.1, budget=budget).set_size == 4


def test_budget_message_renders_huge_numbers_by_bit_length():
    # The work exceeds a 10^5000 budget, which str() cannot print.
    budget = 10**5000
    calls = (
        lambda: smallest_high_mass_set(SourceModel((0.5, 0.5)), 20000, 0.1, budget=budget),
        lambda: check_nfl_budget(2, 2, 20000, budget),
        lambda: check_diagonal_budget(budget, budget, budget),
    )
    for call in calls:
        with pytest.raises(BudgetExceeded) as err:
            call()
        assert f"a {budget.bit_length()}-bit number" in str(err.value)


def test_nfl_arbitrary_learner_output_counts_as_wrong():
    # a learner that answers outside the codomain hallucinates everywhere:
    # the adapter reads its answer as code -1, as an index learner may answer
    dom, cod = domain_strings(2), domain_strings(2)
    foreign = shortlex_string(A2, 20)

    def weird_learner(t):
        return lambda x: foreign

    for learner in (learner_on_indices(dom, cod, weird_learner), lambda pairs: [-1, -1]):
        inst = NflInstance(domain=dom, codomain=cod, m=1, learner=learner)
        assert nfl_brute_force(inst).worst_expected_hp == 1


@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("learner_kind", ["memorize_constant", "flrm"])
def test_nfl_4_2_m_against_per_labeling_loop(learner_kind, m):
    # no deduplication of training sets: every labeling trains the Str learner
    # on every sequence; nfl_brute_force runs its index form
    dom, cod = domain_strings(4), domain_strings(2)
    if learner_kind == "memorize_constant":
        learner, indexed = memorize_constant_oracle(cod), memorize_constant_trainer(4)
    else:
        learner = FlrmTrainer(A2, HALF_BOUND)
        indexed = learner_on_indices(dom, cod, learner)
    grid = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))
    r = nfl_brute_force(NflInstance(domain=dom, codomain=cod, m=m, learner=indexed), grid)

    sequences = list(itertools.product(range(4), repeat=m))
    hp_counts = []
    for f in itertools.product(range(2), repeat=4):
        counts = []
        for seq in sequences:
            h = learner(TrainingSequence(tuple((dom[x], cod[f[x]]) for x in seq)))
            counts.append(sum(1 for j in range(4) if h(dom[j]) != cod[f[j]]))
        hp_counts.append(counts)
    totals = [sum(c) for c in hp_counts]
    worst = totals.index(max(totals))
    assert r.worst_f_index == worst
    assert r.worst_expected_hp == Fraction(totals[worst], len(sequences) * 4)
    for ch, lh in zip(r.tail_check, grid):
        hits = sum(1 for c in hp_counts[worst] if Fraction(c, 4) >= lh)
        assert ch.probability == Fraction(hits, len(sequences))


def last_pair_trainer(codomain):
    """Not order-invariant: answers the label of the last training pair
    everywhere (the first codomain string when there is none)."""
    def trainer(t):
        y = t.pairs[-1][1] if len(t) else codomain[0]
        return lambda x: y

    return trainer


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("learner_kind, order_invariant", [
    ("memorize_constant", True), ("memorize_constant", False),
    ("flrm", True), ("flrm", False), ("last_pair", False),
])
def test_nfl_supports_match_per_sequence_oracle(learner_kind, order_invariant, m, p):
    dom = domain_strings(max(2 * m, 2))
    cod = tuple(shortlex_string(A2, i + 1) for i in range(p))
    learner = {
        "memorize_constant": lambda: memorize_constant_trainer(len(dom)),
        "flrm": lambda: learner_on_indices(dom, cod, FlrmTrainer(A2, HALF_BOUND)),
        "last_pair": lambda: learner_on_indices(dom, cod, last_pair_trainer(cod)),
    }[learner_kind]()
    inst = NflInstance(domain=dom, codomain=cod, m=m, learner=learner,
                       order_invariant=order_invariant)
    grid = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))
    assert nfl_brute_force(inst, grid) == nfl_per_sequence(inst, grid)


def batch_sizes(monkeypatch, units_per_batch, p, n):
    """Cap nfl_brute_force's batches at units_per_batch units of p^n
    labelings over n domain strings, and record how many units each scores."""
    monkeypatch.setattr(limits, "NFL_BATCH_CELLS", units_per_batch * p**n * n)
    sizes = []
    score = limits._score_batch

    def recording(hist, f_matrix, outputs, supports, *args):
        sizes.append(len(supports))
        score(hist, f_matrix, outputs, supports, *args)

    monkeypatch.setattr(limits, "_score_batch", recording)
    return sizes


@pytest.mark.parametrize("units_per_batch", [1, 2, 5])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("learner_kind, order_invariant", [
    ("memorize_constant", True), ("memorize_constant", False), ("last_pair", False),
])
def test_nfl_batches_match_per_sequence_oracle(monkeypatch, learner_kind, order_invariant, p,
                                               units_per_batch):
    # Every support size splits into several batches, down to one unit each.
    dom = domain_strings(6)
    cod = tuple(shortlex_string(A2, i + 1) for i in range(p))
    learner = (memorize_constant_trainer(6) if learner_kind == "memorize_constant"
               else learner_on_indices(dom, cod, last_pair_trainer(cod)))
    inst = NflInstance(domain=dom, codomain=cod, m=3, learner=learner,
                       order_invariant=order_invariant)
    sizes = batch_sizes(monkeypatch, units_per_batch, p, 6)
    assert nfl_brute_force(inst, NFL_GRID) == nfl_per_sequence(inst, NFL_GRID)
    units = 6 + 15 + 20 if order_invariant else 6 * 1 + 15 * 6 + 20 * 6  # C(6, k) k! S(3, k)
    assert sum(sizes) == units
    assert max(sizes) == units_per_batch
    assert len(sizes) > 3  # more batches than support sizes


@pytest.mark.parametrize("units_per_batch", [1, 3, None])
@pytest.mark.parametrize("m", [0, 1, 3])
@pytest.mark.parametrize("order_invariant", [True, False])
def test_nfl_learner_sees_the_enumeration_order_and_one_query_per_string(
        monkeypatch, order_invariant, m, units_per_batch):
    # The training sequences, in the order of the loop that trains on each
    # support's sequences and, for each, on every restricted labeling in
    # lexicographic order: as index pairs to the learner nfl_brute_force
    # calls, and as Str pairs to the Str learner behind learner_on_indices,
    # whose hypotheses are each asked once per domain string, in domain
    # order, before the next training call.
    n, p = 6, 3
    dom = domain_strings(n)
    cod = tuple(shortlex_string(A2, i + 1) for i in range(p))
    if units_per_batch is not None:
        batch_sizes(monkeypatch, units_per_batch, p, n)
    trainer = memorize_constant_oracle(cod)
    indexed, trained, queries = [], [], []

    def recording(t):
        assert all(len(asked) == n for asked in queries)
        trained.append(t.pairs)
        asked = []
        queries.append(asked)
        h = trainer(t)

        def query(x):
            asked.append(x)
            return h(x)

        return query

    adapted = learner_on_indices(dom, cod, recording)

    def index_recording(pairs):
        indexed.append(pairs)
        return adapted(pairs)

    inst = NflInstance(domain=dom, codomain=cod, m=m, learner=index_recording,
                       order_invariant=order_invariant)
    nfl_brute_force(inst)
    expected = []
    for k in (range(1, m + 1) if m else range(1)):
        for support in itertools.combinations(range(n), k):
            position = {x: i for i, x in enumerate(support)}
            sequences = ([support + support[-1:] * (m - k)] if order_invariant else
                         [seq for seq in itertools.product(support, repeat=m)
                          if len(set(seq)) == k])
            for seq in sequences:
                for labels in itertools.product(range(p), repeat=k):
                    expected.append(tuple((x, labels[position[x]]) for x in seq))
    assert indexed == expected
    assert trained == [tuple((dom[x], cod[y]) for x, y in pairs) for pairs in expected]
    assert queries == [list(dom)] * len(expected)


@pytest.mark.parametrize("p", [128, 129, 130])
def test_nfl_label_codes_past_int8(p):
    # Label codes run from -1 to p - 1: int8 up to p = 128, a wider type past it.
    dom = domain_strings(2)
    cod = tuple(shortlex_string(A2, i) for i in range(p))
    inst = NflInstance(domain=dom, codomain=cod, m=1, learner=memorize_constant_trainer(2))
    assert nfl_brute_force(inst, NFL_GRID) == nfl_per_sequence(inst, NFL_GRID)


@pytest.mark.parametrize("n, m, calls, expected", [
    (8, 4, 1_696, Fraction(2401, 4096)),
    (10, 5, 12_584, Fraction(59049, 100000)),
])
def test_nfl_memorize_constant_closed_form(n, m, calls, expected):
    # the worst labeling answers the fallback nowhere: HP = (1 - 1/n)^m, and an
    # order-invariant learner trains once per (support, restricted labeling),
    # in its index form and as the Str learner behind learner_on_indices
    dom, cod = domain_strings(n), domain_strings(2)
    oracle = memorize_constant_oracle(cod)
    for trainer in (memorize_constant_trainer(n), learner_on_indices(dom, cod, oracle)):
        seen = []

        def counting(pairs):
            seen.append(pairs)
            return trainer(pairs)

        inst = NflInstance(domain=dom, codomain=cod, m=m, learner=counting, order_invariant=True)
        r = nfl_brute_force(inst)  # 10/2/5 fits the default budget
        assert r.worst_expected_hp == expected == (1 - Fraction(1, n)) ** m
        assert r.verified
        assert len(seen) == calls == sum(math.comb(n, k) * 2**k for k in range(1, m + 1))


def logged(learner, log):
    """learner, appending each training sequence and the row it answers to log."""
    def call(pairs):
        row = learner(pairs)
        log.append((pairs, tuple(row)))
        return row

    return call


@pytest.mark.parametrize("n, p, m, order_invariant", [
    (8, 2, 4, True), (10, 2, 5, True),
    *((6, 3, m, inv) for m in range(4) for inv in (True, False)),
    (2, 128, 1, False), (2, 129, 1, False), (2, 130, 1, False),
])
def test_nfl_memorize_constant_matches_its_str_oracle(n, p, m, order_invariant):
    # The index learner and the Str memorizer behind learner_on_indices see
    # the same training pairs, answer the same rows and give the same report,
    # the closed form's.
    dom, cod = domain_strings(n), tuple(shortlex_string(A2, i + 1) for i in range(p))
    str_pairs, memorizer = [], memorize_constant_oracle(cod)

    def oracle(t):
        str_pairs.append(t.pairs)
        return memorizer(t)

    reports, logs = [], []
    for learner in (memorize_constant_trainer(n), learner_on_indices(dom, cod, oracle)):
        logs.append([])
        inst = NflInstance(domain=dom, codomain=cod, m=m, learner=logged(learner, logs[-1]),
                           order_invariant=order_invariant)
        reports.append(nfl_brute_force(inst, NFL_GRID))
    assert reports[0] == reports[1] == nfl_memorizer_report(n, cod, m, n, cod[0], NFL_GRID)
    assert logs[0] == logs[1]
    assert str_pairs == [tuple((dom[x], cod[y]) for x, y in pairs) for pairs, _ in logs[0]]


def short_row(pairs):
    return [0, 0, 0]


def code_below_minus_one(pairs):
    return [0, 0, -2, 0]


def code_past_p(pairs):
    return [0, 200, 0, 0]


def float_code(pairs):
    return [0, 0, 0, 1.0]


def str_learner(t):
    return lambda x: x


@pytest.mark.parametrize("learner, match", [
    (short_row, r"gave \[0, 0, 0\], not a row of 4 codes"),
    (code_below_minus_one, r"not ints in -1\.\.1"),
    (code_past_p, r"not ints in -1\.\.1"),
    (float_code, r"not ints in -1\.\.1"),
    (str_learner, "learner_on_indices"),
])
def test_nfl_row_contract_is_checked_before_any_scoring(monkeypatch, learner, match):
    # Each row holds exactly n ints in -1..p-1; anything else names the
    # learner before a batch is scored. A Str learner passed without its
    # adapter returns a hypothesis, not a row.
    def never(*args):
        raise AssertionError("a batch was scored")

    monkeypatch.setattr(limits, "_score_batch", never)
    inst = NflInstance(domain=domain_strings(4), codomain=domain_strings(2), m=2,
                       learner=learner, order_invariant=True)
    with pytest.raises(DomainError, match=match) as err:
        nfl_brute_force(inst)
    assert learner.__qualname__ in str(err.value)


def memorize_or_minus_one(n):
    """Index learner: memorize the pairs, answer -1 (no codomain string) on
    any unseen index."""
    def trainer(pairs):
        row = [-1] * n
        for x, y in pairs:
            row[x] = y
        return row

    return trainer


def last_pair_or_minus_one(n):
    """Index learner, not order-invariant: answer the label of the last
    training pair everywhere, -1 everywhere when there is none."""
    return lambda pairs: [pairs[-1][1] if pairs else -1] * n


def mismatch_hist(inst):
    """hist[q][c]: how many of the n^m training sequences make the learner,
    trained on labeling q's pairs, get c domain strings wrong, counted in
    pure Python labeling by labeling (q in lexicographic order)."""
    n, p, m = len(inst.domain), len(inst.codomain), inst.m
    hist = [[0] * (n + 1) for _ in range(p**n)]
    for seq in itertools.product(range(n), repeat=m):
        rows = {}
        for q, f in enumerate(itertools.product(range(p), repeat=n)):
            training = tuple((x, f[x]) for x in seq)
            if training not in rows:
                rows[training] = list(inst.learner(training))
            hist[q][sum(map(operator.ne, rows[training], f))] += 1
    return hist


def scored_hist(monkeypatch, inst):
    """nfl_brute_force's histogram of inst, as every batch scored it."""
    hists = []
    score = limits._score_batch

    def recording(hist, *args):
        hists.append(hist)
        score(hist, *args)

    monkeypatch.setattr(limits, "_score_batch", recording)
    nfl_brute_force(inst)
    assert hists and all(hist is hists[0] for hist in hists)
    return np.asarray(hists[0]).reshape(len(inst.codomain) ** len(inst.domain), -1).tolist()


# (n, p, m): n around the 8-column words a scored row is padded to, p = 1,
# 2, 3 and 130 (int16 label codes), and m = 0 where more would be slow.
SCORING_SHAPES = [(1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 130, 0), (2, 130, 1),
                  (7, 1, 3), (7, 2, 3), (7, 3, 1), (8, 1, 4), (8, 2, 2), (8, 3, 1),
                  (9, 1, 4), (9, 2, 2), (9, 3, 0), (16, 1, 3), (16, 2, 0), (17, 1, 3), (17, 2, 0)]


@pytest.mark.parametrize("n, p, m", SCORING_SHAPES, ids=lambda v: str(v))
@pytest.mark.parametrize("learner_kind, order_invariant", [
    ("memorize_constant", True), ("memorize_or_minus_one", True), ("last_pair_or_minus_one", False),
])
def test_nfl_scoring_matches_a_pure_python_mismatch_count(monkeypatch, learner_kind,
                                                          order_invariant, n, p, m):
    # Every (training sequence, labeling) adds one to the count of its
    # hypothesis's wrong domain strings; -1 is always wrong.
    learner = {"memorize_constant": memorize_constant_trainer,
               "memorize_or_minus_one": memorize_or_minus_one,
               "last_pair_or_minus_one": last_pair_or_minus_one}[learner_kind](n)
    cod = tuple(shortlex_string(A2, i) for i in range(p))
    inst = NflInstance(domain=domain_strings(n), codomain=cod, m=m, learner=learner,
                       order_invariant=order_invariant)
    assert scored_hist(monkeypatch, inst) == mismatch_hist(inst)


@pytest.mark.parametrize("bad, match", [
    ([1, 1, 1], r"gave \[1, 1, 1\], not a row of 4 codes"),
    (str_learner, r"gave <function str_learner.*learner_on_indices"),
    ([0, 0, 1.0, 0], r"gave codes that are not ints in -1\.\.1"),
], ids=["short", "callable", "float"])
@pytest.mark.parametrize("batch", [0, 1])
def test_nfl_bad_third_row_of_a_batch_stops_that_batch_unscored(monkeypatch, bad, match, batch):
    # At 4/2/2 the 4 units of support size 1 make one batch of 8 learner
    # calls, and the 6 of size 2 one of 24: the third row of either batch is
    # named, and only the batches before it are scored.
    trainer = memorize_constant_trainer(4)
    calls = []

    def learner(pairs):
        calls.append(pairs)
        return bad if len(calls) == (0, 8)[batch] + 3 else trainer(pairs)

    scored = batch_sizes(monkeypatch, 1024, 2, 4)
    inst = NflInstance(domain=domain_strings(4), codomain=domain_strings(2), m=2,
                       learner=learner, order_invariant=True)
    with pytest.raises(DomainError, match=match) as err:
        nfl_brute_force(inst)
    assert f"learner {learner.__qualname__} gave" in str(err.value)
    assert scored == [4] * batch


def cli_learner(kind, alphabet, domain, codomain, bound, m):
    """(learner, k, fallback) for one of nfl-verify's learner kinds: the
    learner, how many domain strings it memorizes once drawn at training
    size m, and what it answers off its table."""
    if kind == "memorize_constant":
        return memorize_constant_trainer(len(domain)), len(domain), codomain[0]
    n_bar = threshold_length(m, alphabet, bound)
    return (learner_on_indices(domain, codomain, FlrmTrainer(alphabet, bound)),
            sum(len(s) <= n_bar for s in domain), empty_string(alphabet))


@st.composite
def nfl_memorizer_cases(draw):
    # Explicit domains and codomains drawn from the strings of length <= 3,
    # so of mixed lengths and with or without ε. At m <= 4, n̄ reaches 1
    # under the zero bound (q = 2, m >= 3) and stays below 1 under
    # HALF_BOUND, so flrm memorizes some, all or none of a domain.
    q = draw(st.sampled_from([2, 3]))
    a = Alphabet(q)
    pool = list(strings_upto(a, 3))
    n = draw(st.integers(1, 8))
    domain = tuple(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True)))
    p = draw(st.integers(1, 3))
    codomain = tuple(draw(st.lists(st.sampled_from(pool), min_size=p, max_size=p, unique=True)))
    m = draw(st.integers(0, n // 2))
    kind = draw(st.sampled_from(["memorize_constant", "flrm"]))
    bound = draw(st.sampled_from([HALF_BOUND, CdfLowerBound((0.0, 0.0, 0.0), 0.5)]))
    return a, domain, codomain, m, kind, bound


NFL_GRID = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))


@settings(max_examples=80, deadline=None)
@given(nfl_memorizer_cases())
def test_nfl_brute_force_equals_the_memorizer_closed_form(case):
    a, domain, codomain, m, kind, bound = case
    n = len(domain)
    assert nfl_work(n, len(codomain), m, order_invariant=True) <= 10**8  # the default budget
    learner, k, fallback = cli_learner(kind, a, domain, codomain, bound, m)
    inst = NflInstance(domain=domain, codomain=codomain, m=m, learner=learner,
                       order_invariant=True)
    assert nfl_brute_force(inst, NFL_GRID) == nfl_memorizer_report(
        n, codomain, m, k, fallback, NFL_GRID)


# --------------------------------------------------------------- diagonals


def constant_model(rank, max_len):
    """A table model answering the string of the given rank on every string
    of length <= max_len."""
    answer = shortlex_string(A2, rank)
    return MemorizerModel(A2, rank_table({x: answer for x in strings_upto(A2, max_len)}), max_len)


def test_diagonal_single_empty_model():
    always_empty = MemorizerModel(A2)
    c = diagonalize([always_empty], A2, 10)
    assert set(c.psi) == {2}
    assert verify_diagonal(c)
    assert c.f0_of(1) == shortlex_string(A2, 1)


def test_diagonal_no_models():
    c = diagonalize([], A2, 5)
    assert set(c.psi) == {1}
    assert verify_diagonal(c)


def test_diagonal_covers_only_first_i_models():
    # model j answers s_(j+2) on the whole window; at i = 1 only model 0 is in scope
    models = [constant_model(r + 1, 2) for r in range(3)]
    c = diagonalize(models, A2, 6)
    assert verify_diagonal(c)
    # at i = 1 the excluded set is {s_2}: psi = 1 ("" itself is free)
    assert c.psi[0] == 1
    assert c.psi == diagonalize_by_queries(models, A2, 6)


def test_verify_catches_collision_and_nonminimality():
    always_empty = MemorizerModel(A2)
    c = diagonalize([always_empty], A2, 6)
    collided = DiagonalConstruction(models=c.models, alphabet=A2, horizon=6,
                                    psi=(1,) + c.psi[1:])  # rank 1 = "" collides
    assert not verify_diagonal(collided)
    skipped = DiagonalConstruction(models=c.models, alphabet=A2, horizon=6,
                                   psi=(3,) + c.psi[1:])  # rank 2 was available
    assert not verify_diagonal(skipped)


DIAGONAL_INSTANCES = [
    (0, 0, 7, 6),      # no models
    (1, 20, 200, 6),
    (2, 50, 30, 6),    # more models than window strings
    (3, 12, 60, 3),    # window runs past every table key (15 strings of length <= 3)
    (4, 40, 300, 2),   # tables cover their whole universe
    (5, 30, 400, 4),
]


@pytest.mark.parametrize("seed, count, horizon, max_len", DIAGONAL_INSTANCES)
def test_diagonal_table_inversion_matches_queries(seed, count, horizon, max_len):
    models = random_table_models(A2, count, np.random.default_rng(seed), max_len=max_len)
    c = diagonalize(models, A2, horizon)
    assert c.psi == diagonalize_by_queries(models, A2, horizon)
    assert verify_diagonal(c)


def tampered(c: DiagonalConstruction):
    """c with one psi value moved by -1 (where it stays >= 1) or by +1: each
    of the first 40 values, then about 20 spread over the rest, and the last.
    Every recheck queries the models up to the moved value, so moving all of
    the 400 values of the largest instance would take seconds."""
    h = c.horizon
    spread = set(range(min(h, 40))) | set(range(40, h, max(1, h // 20))) | {h - 1}
    for i in sorted(spread):
        p = c.psi[i]
        for moved in (p - 1, p + 1):
            if moved >= 1:
                psi = c.psi[:i] + (moved,) + c.psi[i + 1:]
                yield DiagonalConstruction(c.models, c.alphabet, c.horizon, psi)


def assert_verdicts_match_pairs(c: DiagonalConstruction):
    assert verify_diagonal(c) == verify_diagonal_by_pairs(c)
    for bad in tampered(c):
        assert verify_diagonal(bad) == verify_diagonal_by_pairs(bad), bad.psi


@pytest.mark.parametrize("seed, count, horizon, max_len", DIAGONAL_INSTANCES)
def test_verify_diagonal_matches_pairwise_recheck(seed, count, horizon, max_len):
    models = random_table_models(A2, count, np.random.default_rng(seed), max_len=max_len)
    assert_verdicts_match_pairs(diagonalize(models, A2, horizon))


LABELED = Alphabet(2, ("a", "b"))
BLACK_BOXES = (
    lambda x: x,
    lambda x: shortlex_string(A2, 1),
    lambda x: Str(LABELED, ()),  # over another alphabet: differs from every target
    lambda x: None,
    lambda x: shortlex_string(A2, len(x) + 2),
)


def test_verify_diagonal_matches_pairwise_recheck_on_black_boxes():
    for horizon in (1, 4, 12):
        psi = diagonalize_by_queries(BLACK_BOXES, A2, horizon)
        c = DiagonalConstruction(BLACK_BOXES, A2, horizon, psi)
        assert verify_diagonal(c)
        assert_verdicts_match_pairs(c)
    # The third model's empty answer does not exclude the empty string.
    assert psi[2] == 1


def test_verify_diagonal_accepts_equal_but_distinct_alphabet():
    twin = Alphabet(2)
    assert twin == A2 and twin is not A2
    models = [
        MemorizerModel(twin, rank_table({Str(twin, (0,) * n): Str(twin, ()) for n in range(4)}), 3),
        MemorizerModel(twin, rank_table({Str(twin, ()): Str(twin, (1,))}), 0),
    ]
    c = diagonalize(models, A2, 10)
    assert c.psi == diagonalize_by_queries(models, A2, 10)
    assert verify_diagonal(c)
    assert_verdicts_match_pairs(c)


def test_verify_diagonal_queries_each_covered_pair_once():
    count, horizon = 7, 25
    models = random_table_models(A2, count, np.random.default_rng(11), max_len=3)
    c = diagonalize(models, A2, horizon)
    asked = Counter()

    def counting(j, model):
        def query(s):
            asked[j, s] += 1
            return model(s)
        return query

    wrapped = tuple(counting(j, model) for j, model in enumerate(models))
    assert verify_diagonal(DiagonalConstruction(wrapped, A2, horizon, c.psi))
    expected = {(j, shortlex_string(A2, i - 1)): 1
                for i in range(1, horizon + 1) for j in range(min(i, count))}
    assert asked == expected  # sum_i min(i, K) queries, each pair once
    # psi_2 = 3 puts two candidates below it, but only one model answers on
    # s_2: the recheck fails before asking anything.
    asked.clear()
    for psi_2 in (3, 100):
        assert not verify_diagonal(DiagonalConstruction(wrapped[:1], A2, 2, (2, psi_2)))
    assert not asked


def test_verify_diagonal_never_touches_models_past_the_horizon():
    horizon = 12
    models = random_table_models(A2, horizon, np.random.default_rng(5), max_len=3)
    c = diagonalize(models, A2, horizon)
    # Past the horizon: objects that cannot be called.
    c = DiagonalConstruction(c.models + (None, object(), 42), A2, horizon, c.psi)
    assert verify_diagonal(c)
    assert_verdicts_match_pairs(c)


def test_verify_diagonal_calls_models_as_model_of_s_does():
    # A call operator set on the instance is ignored by model(s), which
    # looks __call__ up on the type; the recheck asks the same.
    class Shifted:
        def __call__(self, s):
            return shortlex_string(A2, shortlex_index(s) + 1)

    model = Shifted()
    model.__call__ = lambda s: shortlex_string(A2, 0)
    psi = diagonalize_by_queries([model], A2, 8)
    assert psi == (1,) * 8  # the instance's constant answer would make it (2,) * 8
    assert verify_diagonal(DiagonalConstruction((model,), A2, 8, psi))
    assert not verify_diagonal(DiagonalConstruction((model,), A2, 8, (2,) * 8))


class AnswersNext(MemorizerModel):
    """A memorizer whose call operator answers the next string in shortlex
    order: model(s) never reads its table."""

    def __call__(self, s):
        return shortlex_string(A2, shortlex_index(s) + 1)


class PredictsNext(MemorizerModel):
    """A memorizer that overrides predict only: model(s) still runs
    MemorizerModel.predict, which __call__ names."""

    def predict(self, s):
        return shortlex_string(A2, shortlex_index(s) + 1)


def test_verify_diagonal_reads_a_table_only_where_model_of_s_does():
    tables = random_table_models(A2, 4, np.random.default_rng(3), max_len=3)
    answers_next = AnswersNext(A2, tables[0].table, 3)
    predicts_next = PredictsNext(A2, tables[1].table, 3)
    labeled = Alphabet(2, ("a", "b"))
    foreign = MemorizerModel(labeled, rank_table({Str(labeled, (0,)): Str(labeled, ())}), 1)
    # Every answer of answers_next has rank >= 1, so "" is free everywhere;
    # its table answers "" on s_4, where diagonalize reads psi_4 = 2.
    psi = diagonalize_by_queries([answers_next], A2, 8)
    assert psi == (1,) * 8 and diagonalize([tables[0]], A2, 8).psi[3] == 2
    assert verify_diagonal(DiagonalConstruction((answers_next,), A2, 8, psi))
    assert not verify_diagonal(DiagonalConstruction((answers_next,), A2, 8, (2,) * 8))
    # predicts_next answers from its table, as diagonalize reads it.
    assert predicts_next(empty_string(A2)) == tables[1](empty_string(A2))
    assert diagonalize([predicts_next], A2, 8).psi == diagonalize_by_queries([predicts_next], A2, 8)
    # No answer of a model over another alphabet counts, not even its "".
    assert diagonalize_by_queries([foreign], A2, 8) == (1,) * 8
    model_lists = [
        (answers_next, predicts_next, *tables[2:]),
        (foreign, *tables),
        (tables[0], lambda x: x, foreign, tables[1], lambda x: shortlex_string(A2, 2),
         answers_next, lambda x: None, tables[2]),
    ]
    for models in model_lists:
        for horizon in (1, 3, 40):  # K > H, then K < H
            psi = diagonalize_by_queries(models, A2, horizon)
            c = DiagonalConstruction(models, A2, horizon, psi)
            assert verify_diagonal(c)
            assert_verdicts_match_pairs(c)


@st.composite
def diagonal_model_mixes(draw):
    """(models, horizon): a list drawn with repeats from a pool of table
    models (empty tables included; over A2, an equal twin of it, or another
    alphabet), AnswersNext / PredictsNext memorizers and black-box lambdas,
    at a horizon above or below the number of models."""

    def table_model(cls, alphabet):
        threshold = draw(st.integers(-1, 4))
        table = {}
        if threshold >= 0:
            keys = st.integers(0, count_upto(alphabet, threshold) - 1)
            outputs = st.integers(0, 40) | st.sampled_from([2**63, 2**70 + 3])
            table = draw(st.dictionaries(keys, outputs, max_size=6))
        return cls(alphabet, table, threshold)

    kinds = {
        "table": lambda: table_model(MemorizerModel, A2),
        "twin": lambda: table_model(MemorizerModel, Alphabet(2)),
        "labeled": lambda: table_model(MemorizerModel, LABELED),
        "ternary": lambda: table_model(MemorizerModel, Alphabet(3)),
        "answers_next": lambda: table_model(AnswersNext, A2),
        "predicts_next": lambda: table_model(PredictsNext, A2),
        "black_box": lambda: draw(st.sampled_from(BLACK_BOXES)),
    }
    pool = [kinds[kind]() for kind in draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1,
                                                    max_size=5))]
    models = draw(st.lists(st.sampled_from(pool), max_size=8))
    return models, draw(st.integers(1, 14))


@settings(max_examples=150, deadline=None)
@given(diagonal_model_mixes())
def test_verify_diagonal_matches_pairwise_recheck_on_model_mixes(mix):
    models, horizon = mix
    psi = diagonalize_by_queries(models, A2, horizon)
    c = DiagonalConstruction(tuple(models), A2, horizon, psi)
    assert verify_diagonal(c)
    assert_verdicts_match_pairs(c)


def test_verify_diagonal_clips_output_ranks_past_int64():
    # Table output ranks are ints of any size: each is clipped to max(psi)
    # before it enters an int64 array.
    huge = MemorizerModel(A2, {0: 2**70}, 0)
    c = diagonalize([huge], A2, 3)
    assert c.psi == diagonalize_by_queries([huge], A2, 3) == (1, 2, 2)
    assert verify_diagonal(c)
    assert_verdicts_match_pairs(c)
    models = [huge, MemorizerModel(A2, {1: 2**64, 2: 1, 4: 2**200}, 2),
              PredictsNext(A2, {0: 2**63}, 0)]
    for horizon in (2, 6):
        c = diagonalize(models, A2, horizon)
        assert c.psi == diagonalize_by_queries(models, A2, horizon)
        assert verify_diagonal(c)
        assert_verdicts_match_pairs(c)


def test_verify_diagonal_builds_no_string_for_plain_memorizers(monkeypatch):
    built = []
    post_init = Str.__post_init__
    monkeypatch.setattr(Str, "__post_init__", lambda self: built.append(self) or post_init(self))
    models = random_table_models(A2, 50, np.random.default_rng(6), max_len=8)
    c = diagonalize(models, A2, 300)
    assert verify_diagonal(c)
    assert not built
    with_echo = DiagonalConstruction(c.models + (lambda x: x,), A2, 300, c.psi)
    # A model asked through the adapter is asked on the window's Strs,
    # built once, and each answer it gives is one of them here.
    verdict = verify_diagonal(with_echo)
    assert [shortlex_index(x) for x in built] == list(range(300))
    assert verdict == verify_diagonal_by_pairs(with_echo)


def test_diagonal_construction_checks_psi():
    with pytest.raises(DomainError, match="psi holds 2 ranks"):
        DiagonalConstruction((), A2, 3, (1, 1))
    with pytest.raises(DomainError, match="psi holds 4 ranks"):
        DiagonalConstruction((), A2, 3, (1, 1, 1, 1))
    with pytest.raises(DomainError, match=">= 1"):
        DiagonalConstruction((), A2, 3, (1, 0, 1))
    assert DiagonalConstruction((), A2, 3, (1, 2, 1)).psi == (1, 2, 1)


def test_diagonal_rejects_models_it_cannot_invert():
    a3 = Alphabet(3)
    with pytest.raises(DomainError, match="alphabet"):
        diagonalize([MemorizerModel(A2), MemorizerModel(a3)], A2, 5)
    with pytest.raises(DomainError, match="MemorizerModel"):
        diagonalize([lambda x: x], A2, 5)


def test_random_table_models_diagonal():
    rng = np.random.default_rng(23)
    models = random_table_models(A2, 6, rng)
    c = diagonalize(models, A2, 40)
    assert verify_diagonal(c)
    for i in range(1, 41):
        s_i = c.input_string(i)
        for j in range(min(i, 6)):
            assert models[j](s_i) != c.f0(s_i)


def test_random_table_models_decode_each_rank_once(monkeypatch):
    # The tables of per-model choice and integers calls; no rank is decoded
    # into a Str.
    q3 = Alphabet(3)
    expected = random_table_models_per_model(q3, 40, np.random.default_rng(8), 5, 2)
    decoded = []
    monkeypatch.setattr(Str, "__post_init__", lambda self: decoded.append(self))
    models = random_table_models(q3, 40, np.random.default_rng(8), table_size=5, max_len=2)
    assert [list(m.table.items()) for m in models] == expected
    assert not decoded


# (alphabet size, max_len, table_size, count): U = 127 with 8 and with all
# 127 keys; U = 3 with 2 keys (repeated draws in Floyd's sample); U = 10 001
# at the edge of choice's shuffle of all U places (200 keys: Floyd; 201: the
# shuffle); U = 16 383 with 400 and 16 383 keys (the shuffle); U = 2^41 - 1
# (64-bit draws); no keys; no models; U = 1.
TABLE_SHAPES = [(2, 6, 8, 5), (2, 6, 127, 4), (2, 1, 2, 30), (10**4, 1, 200, 3),
                (10**4, 1, 201, 3), (2, 13, 400, 3), (2, 13, 16383, 2), (2, 40, 8, 5),
                (2, 6, 0, 3), (2, 6, 8, 0), (2, 0, 8, 4)]
TABLE_SHAPE_IDS = ["127/8", "127/127", "3/2", "10001/200", "10001/201", "16383/400",
                   "16383/16383", "2^41-1/8", "size-0", "count-0", "U-1"]


@pytest.mark.parametrize("pending", [False, True], ids=["whole", "pending-half"])
@pytest.mark.parametrize("q, max_len, table_size, count", TABLE_SHAPES, ids=TABLE_SHAPE_IDS)
@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox, np.random.SFC64],
                         ids=lambda b: b.__name__)
def test_random_table_models_read_the_stream_as_per_model_calls(
        bit_generator, q, max_len, table_size, count, pending):
    # The same tables as per-model choice and integers calls, and the stream
    # left where they leave it, a pending 32-bit half included.
    ours, theirs = np.random.Generator(bit_generator(17)), np.random.Generator(bit_generator(17))
    if pending:
        assert ours.integers(0, 2**32) == theirs.integers(0, 2**32)
    alphabet = Alphabet(q)
    models = random_table_models(alphabet, count, ours, table_size=table_size, max_len=max_len)
    expected = random_table_models_per_model(alphabet, count, theirs, table_size, max_len)
    assert [list(m.table.items()) for m in models] == expected
    assert ours.integers(0, 2**32) == theirs.integers(0, 2**32)
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("q, max_len, table_size, count", TABLE_SHAPES, ids=TABLE_SHAPE_IDS)
def test_random_table_models_equal_the_checked_models(q, max_len, table_size, count):
    # Built without MemorizerModel's checks, each model is the checked model
    # of its own fields: equal, read-only, and answering alike.
    alphabet = Alphabet(q)
    universe = count_upto(alphabet, max_len)
    models = random_table_models(alphabet, count, np.random.default_rng(29),
                                 table_size=table_size, max_len=max_len)
    assert len(models) == count
    for model in models:
        checked = MemorizerModel(model.alphabet, dict(model.table), model.threshold)
        assert model == checked
        assert type(model.table) is types.MappingProxyType
        with pytest.raises(TypeError):
            model.table[0] = 0
        with pytest.raises(FrozenInstanceError):
            model.threshold = max_len + 1
        ranks = [*itertools.islice(model.table, 8), 0, universe - 1, universe]
        probes = [shortlex_string(alphabet, r) for r in ranks]
        probes += [empty_string(Alphabet(q + 1)), "not a Str"]
        assert [model.predict(s) for s in probes] == [checked.predict(s) for s in probes]
        assert [model(s) for s in probes] == [checked(s) for s in probes]
        assert model.default_output == checked.default_output == empty_string(alphabet)


class DrawRefused(Exception):
    pass


class RefusingGenerator(np.random.Generator):
    def integers(self, *args, **kwargs):
        raise DrawRefused


@pytest.mark.parametrize("count, table_size, max_len, admitted", [
    (TABLE_ENTRY_CAP, 1, 6, True),
    (TABLE_ENTRY_CAP + 1, 1, 6, False),
    (TABLE_ENTRY_CAP // 2 + 1, 2, 6, False),
    (TABLE_ENTRY_CAP, 10**9, 0, True),  # min(table_size, U) = 1 entry per table
    (TABLE_ENTRY_CAP + 1, 10**9, 0, False),
    (TABLE_ENTRY_CAP, 0, 6, True),  # an empty table is charged as one entry
    (TABLE_ENTRY_CAP + 1, 0, 6, False),
])
def test_random_table_models_charge_their_entries(monkeypatch, count, table_size, max_len,
                                                  admitted):
    # count * max(min(table_size, U), 1) past TABLE_ENTRY_CAP is refused
    # before any draw or model; at the cap, the first draw is reached, or the
    # first model where the tables draw nothing.
    class Refusing:
        def __getattr__(self, name):
            raise DrawRefused

        def __call__(self, *args):
            raise DrawRefused

    monkeypatch.setattr(limits, "MemorizerModel", Refusing())
    rng = RefusingGenerator(np.random.PCG64(0))
    size = min(table_size, count_upto(A2, max_len))
    entries = f"{size} entries" if size else "no entries (each charged as one)"
    words = f"{count} tables of {entries} are more than the {TABLE_ENTRY_CAP} table entries"
    with pytest.raises(DrawRefused if admitted else DomainError,
                       match=None if admitted else re.escape(words)):
        random_table_models(A2, count, rng, table_size=table_size, max_len=max_len)


def test_random_table_models_reject_a_legacy_random_state():
    rng = np.random.RandomState(4)
    with pytest.raises(DomainError, match="numpy.random.Generator, not RandomState"):
        random_table_models(A2, 3, rng)
    assert rng.random_sample() == np.random.RandomState(4).random_sample()


def test_random_table_models_rejects_bad_sizes():
    rng = np.random.default_rng(0)
    for kwargs in ({"count": -1}, {"table_size": -1}, {"max_len": -1}):
        args = {"count": 2, "table_size": 3, "max_len": 3} | kwargs
        with pytest.raises(DomainError, match=next(iter(kwargs))):
            random_table_models(A2, rng=rng, **args)
    # count_upto(A2, 63) = 2^64 - 1 ranks overflow int64; 62 gives 2^63 - 1.
    with pytest.raises(DomainError, match="2\\^63"):
        random_table_models(A2, 2, rng, max_len=63)
    models = random_table_models(A2, 2, rng, max_len=62)
    assert all(len(m.table) == 8 for m in models)


@pytest.mark.parametrize("alphabet, max_len, words", [
    (A2, 20000, "more than 2^20000 strings over an alphabet of size 2"),
    (A2, 10**400, "more than 2^1" + "0" * 400 + " strings"),
    (Alphabet(10**5000), 6, "of size a 16610-bit number"),
], ids=["max_len-20000", "max_len-10^400", "size-10^5000"])
def test_random_table_models_rejects_huge_universes_without_counting_them(
        alphabet, max_len, words, monkeypatch):
    # q^max_len >= 2^63 fails the rank check whatever its exact value; a
    # number past the int-to-str limit is printed by its bit length
    def refuse(*args):
        raise AssertionError("the strings were counted")

    monkeypatch.setattr(limits, "count_upto", refuse)
    with pytest.raises(DomainError, match=re.escape(words)):
        random_table_models(alphabet, 2, np.random.default_rng(0), max_len=max_len)


def test_f0_outside_window_rejected():
    c = diagonalize([], A2, 3)
    with pytest.raises(DomainError):
        c.f0_of(4)
    with pytest.raises(DomainError):
        c.f0_of(0)


def test_f0_rejects_strings_over_another_alphabet():
    c = diagonalize([], A2, 5)
    with pytest.raises(DomainError, match="f0 takes strings over"):
        c.f0(Str(Alphabet(3), (2,)))  # rank 3, inside the window
    with pytest.raises(DomainError):
        c.f0(Str(Alphabet(2, ("a", "b")), (0,)))
    assert c.f0(Str(Alphabet(2), (0, 0))) == c.f0_of(4)  # an equal, distinct alphabet


def test_diagonal_budget_enforced():
    models = [MemorizerModel(A2) for _ in range(5)]
    with pytest.raises(BudgetExceeded) as err:
        diagonalize(models, A2, 30, budget=139)
    assert err.value.required == 140  # sum_i min(i, 5) over 30 strings
    assert diagonalize(models, A2, 30, budget=140).horizon == 30
