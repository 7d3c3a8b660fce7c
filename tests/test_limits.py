import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallustat.core import Alphabet, count_upto, empty_string, shortlex_string
from hallustat.errors import BudgetExceeded, DomainError
from hallustat.flrm import FlrmTrainer, MemorizerModel
from hallustat.limits import (
    DiagonalConstruction,
    NflInstance,
    check_diagonal_budget,
    check_nfl_budget,
    construct_hard_support,
    diagonalize,
    general_lambda_t,
    lambda_t,
    markov_tail_check,
    memorize_constant_trainer,
    nfl_brute_force,
    nfl_sizes,
    random_table_models,
    required_sample_size,
    verify_diagonal,
)
from hallustat.measures import (
    CdfLowerBound,
    GeometricTail,
    ReachesOne,
    dominates,
)
from hallustat.oracle import TrainingSequence
from hallustat.shannon import SourceModel, smallest_high_mass_set

from helpers import uniform_support

A2 = Alphabet(2)
HALF_BOUND = CdfLowerBound((0.5,), GeometricTail(0.5))


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
    saturated = CdfLowerBound((0.5,), ReachesOne())
    with pytest.raises(DomainError):
        required_sample_size(0.2, 0.2, A2, saturated)


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
    r = nfl_sizes(A2, CdfLowerBound((0.0, 0.0, 1.0), ReachesOne()))
    assert (r.n_lower, r.m_lower) == (2, 7)
    r = nfl_sizes(A2, CdfLowerBound((0.0,), ReachesOne()))
    assert (r.n_lower, r.m_lower) == (1, 3)


def test_nfl_sizes_exact_argmin_brute():
    # exhaustive argmin over a window comfortably past the formal stop rule
    for q, table, ratio in ((2, (0.3, 0.6), 0.5), (3, (0.1,), 0.7), (5, (0.02,), 0.9)):
        a = Alphabet(q)
        b = CdfLowerBound(table, GeometricTail(ratio))
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
        (2, CdfLowerBound((0.5,), GeometricTail(0.5))),
        (2, CdfLowerBound((0.0, 0.0, 1.0), ReachesOne())),
        (3, CdfLowerBound((0.25,), GeometricTail(0.5))),
        (5, CdfLowerBound((0.9,), GeometricTail(0.5))),
        (2, CdfLowerBound((0.125, 0.25), GeometricTail(0.75))),
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
    for q, b in ((2, HALF_BOUND), (3, CdfLowerBound((0.25,), GeometricTail(0.5)))):
        a = Alphabet(q)
        support = construct_hard_support(a, b)
        uni = uniform_support(tuple(support))
        assert dominates(uni, b, 64)


def test_hard_support_budget():
    # objective 2048 at n = 0; the table is long enough that no later
    # length undercuts it (count alone is 4095 past the table)
    tiny = CdfLowerBound((1.0 / 2048.0,) * 11, ReachesOne())
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
    learner = memorize_constant_trainer(cod)
    with pytest.raises(DomainError):
        NflInstance(domain=dom, codomain=cod, m=3, learner=learner)  # m > n/2
    with pytest.raises(DomainError):
        NflInstance(domain=dom + (dom[0],), codomain=cod, m=1, learner=learner)
    with pytest.raises(DomainError):
        NflInstance(domain=(), codomain=cod, m=0, learner=learner)
    NflInstance(domain=dom, codomain=cod, m=0, learner=learner)  # m = 0 is fine


def test_nfl_4_2_2_memorize_constant():
    dom, cod = domain_strings(4), domain_strings(2)
    inst = NflInstance(domain=dom, codomain=cod, m=2,
                       learner=memorize_constant_trainer(cod))
    r = nfl_brute_force(inst)
    assert r.bound_mu == Fraction(1, 4)
    assert r.worst_expected_hp >= r.bound_mu
    assert all(ch.holds for ch in r.tail_check)
    assert r.verified
    assert [ch.lambda_h for ch in r.tail_check] == [Fraction(1, 8), Fraction(1, 4)]


def test_nfl_4_2_2_flrm():
    dom, cod = domain_strings(4), domain_strings(2)
    inst = NflInstance(domain=dom, codomain=cod, m=2,
                       learner=FlrmTrainer(A2, HALF_BOUND))
    r = nfl_brute_force(inst)
    assert r.worst_expected_hp >= Fraction(1, 4)
    assert r.verified


def test_nfl_3_2_1_against_independent_enumeration():
    # frozen from a from-scratch pure-python enumeration (no caching, no numpy)
    dom, cod = domain_strings(3), domain_strings(2)
    learner = memorize_constant_trainer(cod)
    inst = NflInstance(domain=dom, codomain=cod, m=1, learner=learner)
    r = nfl_brute_force(inst)
    assert (r.worst_f_index, r.worst_expected_hp) == (7, Fraction(2, 3))

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
    inst = NflInstance(domain=dom, codomain=cod, m=2,
                       learner=memorize_constant_trainer(cod))
    r = nfl_brute_force(inst, lambda_h_grid=(Fraction(1, 8),))
    ch = r.tail_check[0]
    assert 0 <= ch.probability <= 1
    assert ch.probability.denominator in (1, 2, 4, 8, 16)  # divides n^m = 16


def test_nfl_degenerate_single_output():
    # |codomain| = 1: the bound is 0 and the negative tail level always holds
    dom = domain_strings(2)
    cod = domain_strings(1)
    inst = NflInstance(domain=dom, codomain=cod, m=1,
                       learner=memorize_constant_trainer(cod))
    r = nfl_brute_force(inst)
    assert r.bound_mu == 0
    assert r.verified


def test_nfl_budget_enforced():
    dom, cod = domain_strings(6), domain_strings(3)
    inst = NflInstance(domain=dom, codomain=cod, m=3,
                       learner=memorize_constant_trainer(cod))
    with pytest.raises(BudgetExceeded) as err:
        nfl_brute_force(inst, budget=1000)
    assert err.value.required == 3**6 * 6**3 * 6


def test_nfl_budget_rejects_huge_work_without_forming_it():
    # 2^(10^6) labelings: rejected from the bit-length bound alone
    with pytest.raises(BudgetExceeded) as err:
        check_nfl_budget(10**6, 2, 1, 10**8)
    assert err.value.required is None
    # below the cap the exact work is reported
    with pytest.raises(BudgetExceeded) as err:
        check_nfl_budget(6, 3, 3, 1000)
    assert err.value.required == 3**6 * 6**3 * 6
    check_nfl_budget(4, 2, 2, 4096)  # exactly 2^4 * 4^2 * 4 fits


def test_budget_message_formed_only_when_exceeded():
    # 10^5000 has more digits than int-to-str conversion allows; the work fits
    budget = 10**5000
    check_nfl_budget(2, 2, 1, budget)
    check_diagonal_budget(3, 2, budget)
    assert smallest_high_mass_set(SourceModel((0.9, 0.1)), 3, 0.1, budget=budget).set_size == 4


def test_nfl_arbitrary_learner_output_counts_as_wrong():
    # a learner that answers outside the codomain hallucinates everywhere
    dom, cod = domain_strings(2), domain_strings(2)
    foreign = shortlex_string(A2, 20)

    def weird_learner(t):
        return lambda x: foreign

    inst = NflInstance(domain=dom, codomain=cod, m=1, learner=weird_learner)
    r = nfl_brute_force(inst)
    assert r.worst_expected_hp == 1


@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("learner_kind", ["memorize_constant", "flrm"])
def test_nfl_4_2_m_against_per_labeling_loop(learner_kind, m):
    # no deduplication of training sets: every labeling trains on every sequence
    dom, cod = domain_strings(4), domain_strings(2)
    learner = (memorize_constant_trainer(cod) if learner_kind == "memorize_constant"
               else FlrmTrainer(A2, HALF_BOUND))
    grid = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))
    r = nfl_brute_force(NflInstance(domain=dom, codomain=cod, m=m, learner=learner), grid)

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


# --------------------------------------------------------------- diagonals


def test_diagonal_single_empty_model():
    always_empty = lambda x: empty_string(A2)
    c = diagonalize([always_empty], A2, 10)
    assert set(c.psi) == {2}
    assert verify_diagonal(c)
    assert c.f0_of(1) == shortlex_string(A2, 1)


def test_diagonal_no_models():
    c = diagonalize([], A2, 5)
    assert set(c.psi) == {1}
    assert verify_diagonal(c)


def test_diagonal_covers_only_first_i_models():
    # model j answers s_(j+2); at i = 1 only model 0 is in scope
    models = [lambda x, r=r: shortlex_string(A2, r + 1) for r in range(3)]
    c = diagonalize(models, A2, 6)
    assert verify_diagonal(c)
    # at i = 1 the excluded set is {s_2}: psi = 1 ("" itself is free)
    assert c.psi[0] == 1


def test_verify_catches_collision_and_nonminimality():
    always_empty = lambda x: empty_string(A2)
    c = diagonalize([always_empty], A2, 6)
    collided = DiagonalConstruction(models=c.models, alphabet=A2, horizon=6,
                                    psi=(1,) + c.psi[1:])  # rank 1 = "" collides
    assert not verify_diagonal(collided)
    skipped = DiagonalConstruction(models=c.models, alphabet=A2, horizon=6,
                                   psi=(3,) + c.psi[1:])  # rank 2 was available
    assert not verify_diagonal(skipped)


def test_random_table_models_diagonal():
    rng = np.random.default_rng(23)
    models = random_table_models(A2, 6, rng)
    c = diagonalize(models, A2, 40)
    assert verify_diagonal(c)
    for i in range(1, 41):
        s_i = c.input_string(i)
        for j in range(min(i, 6)):
            assert models[j](s_i) != c.f0(s_i)


def test_f0_outside_window_rejected():
    c = diagonalize([], A2, 3)
    with pytest.raises(DomainError):
        c.f0_of(4)
    with pytest.raises(DomainError):
        c.f0_of(0)


def test_diagonal_budget_enforced():
    models = [MemorizerModel(A2) for _ in range(5)]
    with pytest.raises(BudgetExceeded) as err:
        diagonalize(models, A2, 30, budget=149)
    assert err.value.required == 150
    assert diagonalize(models, A2, 30, budget=150).horizon == 30
