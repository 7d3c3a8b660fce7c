"""End-to-end acceptance: one test per headline property, one printed
PASS/FAIL line each (visible with -s; the verbose test names mirror them).
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

import hallustat as h

from helpers import uniform_support

A2 = h.Alphabet(2)
HALF_BOUND = h.CdfLowerBound((0.5,), h.GeometricTail(0.5))


@contextmanager
def criterion(num, label, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {label}", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion {num}: {label} ({elapsed:.2f}s)", flush=True)
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"


def test_criterion_01_counting_identity():
    with criterion(1, "string counting matches brute enumeration", budget=1.0):
        for q in (2, 3, 5):
            a = h.Alphabet(q)
            for n in range(0, 9):
                brute = sum(
                    1
                    for k in range(n + 1)
                    for _ in itertools.product(range(q), repeat=k)
                )
                assert h.count_upto(a, n) == brute


def test_criterion_02_tail_level_formulas():
    with criterion(2, "exact tail-probability levels"):
        assert h.lambda_t(Fraction(1, 4)) == Fraction(1, 3)
        assert h.general_lambda_t(2, Fraction(1, 8)) == Fraction(1, 7)


def test_criterion_03_sufficiency_at_desk_scale():
    with criterion(3, "negligibility experiment at the sufficient sample size"):
        mu = h.LengthFactored(A2, (), 0.5)  # CDF(n) = 1 - 2^-(n+1), matched
        gt = h.GroundTruth(A2, h.Echo())
        trainer = h.FlrmTrainer(A2, HALF_BOUND)
        suff = h.required_sample_size(0.2, 0.2, A2, HALF_BOUND)
        (row,) = h.sweep(
            trainer, mu, gt, [suff.m_bar], trials=200, labeler=h.Labeler.CANONICAL,
            master_seed=2024, epsilon_h=0.2, mc_samples=10_000,
        )
        sigma = math.sqrt(0.2 * 0.8 / 200)
        assert row.exceed_fraction < 0.2 + 3 * sigma


def test_criterion_04_nfl_exact_verification():
    with criterion(4, "exhaustive worst-labeling lower bound", budget=10.0):
        grid = (Fraction(1, 8), Fraction(1, 4))
        for n, p, m in ((4, 2, 2), (6, 3, 3)):
            domain = tuple(h.shortlex_string(A2, i) for i in range(n))
            codomain = tuple(h.shortlex_string(A2, i) for i in range(p))
            learners = (
                h.memorize_constant_trainer(codomain),
                h.FlrmTrainer(A2, HALF_BOUND),
            )
            for learner in learners:
                inst = h.NflInstance(domain=domain, codomain=codomain, m=m,
                                     learner=learner)
                rep = h.nfl_brute_force(inst, grid)
                assert rep.bound_mu == Fraction(p - 1, 2 * p)
                assert rep.worst_expected_hp >= rep.bound_mu
                assert all(ch.holds for ch in rep.tail_check)
                assert rep.verified


def test_criterion_05_hard_support_construction():
    with criterion(5, "hard-support cardinality and domination"):
        configs = (
            (2, h.CdfLowerBound((0.5,), h.GeometricTail(0.5))),
            (2, h.CdfLowerBound((0.0, 0.0, 1.0), h.ReachesOne())),
            (3, h.CdfLowerBound((0.25,), h.GeometricTail(0.5))),
            (5, h.CdfLowerBound((0.9,), h.GeometricTail(0.5))),
            (2, h.CdfLowerBound((0.125, 0.25), h.GeometricTail(0.75))),
        )
        for q, bound in configs:
            a = h.Alphabet(q)
            support = h.construct_hard_support(a, bound)
            nec = h.nfl_sizes(a, bound)
            objective = Fraction(h.count_upto(a, nec.n_lower)) / Fraction(
                bound.value(nec.n_lower)
            )
            assert len(support) == objective.numerator // objective.denominator
            assert h.dominates(uniform_support(support), bound, 64)


def test_criterion_06_reverse_markov_randomized():
    with criterion(6, "reverse Markov tail bound on 10^4 random cases", budget=10.0):
        rng = np.random.default_rng(1337)
        for _ in range(10_000):
            c = Fraction(int(rng.integers(1, 25)), 12)
            k = int(rng.integers(1, 6))
            weights = [int(w) for w in rng.integers(1, 40, size=k)]
            total = sum(weights)
            values = [c * Fraction(int(v), 100) for v in rng.integers(0, 101, size=k)]
            pmf = list(zip(values, (Fraction(w, total) for w in weights)))
            a = c * Fraction(int(rng.integers(1, 100)), 100)
            assert h.markov_tail_check(pmf, c, a).holds


def test_criterion_07_diagonal_window():
    with criterion(7, "diagonal map avoids 20 models over 200 inputs", budget=1.0):
        rng = np.random.default_rng(77)
        models = h.random_table_models(A2, 20, rng)
        construction = h.diagonalize(models, A2, 200)
        assert h.verify_diagonal(construction)
        for i in range(1, 201):
            s_i = construction.input_string(i)
            f0_i = construction.f0_of(i)
            for k in range(min(i, 20)):
                assert models[k](s_i) != f0_i


def test_criterion_08_smallest_high_mass_set():
    with criterion(8, "block-coding set: high mass, near-entropy rate", budget=30.0):
        report = h.smallest_high_mass_set(h.SourceModel((0.9, 0.1)), 20, 0.1)
        assert report.mass > 0.9
        assert report.entropy_gap < 0.2


def test_criterion_09_coexistence():
    with criterion(9, "vanishing hallucination rate with infinite support"):
        mu = h.LengthFactored(A2, (), 0.5)
        # exact dyadic tail for every cutoff
        for m in range(0, 21):
            tail = 1.0 if m == 0 else 1.0 - mu.length_cdf(m - 1)
            assert tail == 0.5**m
        assert mu.is_support_infinite  # strings beyond any cutoff carry mass
        gt = h.GroundTruth(A2, h.Echo())
        trainer = h.FlrmTrainer(A2, HALF_BOUND)
        rows = h.sweep(trainer, mu, gt, [100, 1000, 10_000], 60,
                       h.Labeler.CANONICAL, 4242, mc_samples=10_000)
        means = [r.mean_hp for r in rows]
        assert means[0] > means[1] > means[2]
        assert means[2] < 0.05
        # diagnostics: the trained memorizer always leaves positive mass out
        rng = h.derive_stream(4242, 0)
        t = h.generate_qualified(mu, gt, 10_000, h.Labeler.CANONICAL, rng)
        model = h.train(t, A2, HALF_BOUND)
        assert model.threshold >= 0
        assert h.unmemorized_mass_lower_bound(model, mu) > 0.0


def test_criterion_10_monte_carlo_calibration():
    with criterion(10, "Hoeffding interval coverage over 200 repetitions",
                   budget=60.0):
        atoms = tuple(
            (h.shortlex_string(A2, r), mass)
            for r, mass in ((0, Fraction(1, 2)), (1, Fraction(1, 5)),
                            (2, Fraction(3, 10)))
        )
        mu = h.FiniteSupport(atoms)
        gt = h.GroundTruth(A2, h.Echo())
        predict = lambda s: h.empty_string(A2)  # exact HP = 1/2
        exact = h.exact_hp(predict, mu, gt).exact_value
        assert exact == Fraction(1, 2)
        covered = 0
        for rep in range(200):
            est = h.mc_hp(predict, mu, gt, 500, 0.95, h.derive_stream(999, rep))
            if abs(est.estimate - float(exact)) <= est.ci_halfwidth:
                covered += 1
        floor = 0.95 * 200 - 3 * math.sqrt(200 * 0.95 * 0.05)
        assert covered >= floor
