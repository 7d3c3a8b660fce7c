import math
from fractions import Fraction

import numpy as np
import pytest

from hallustat import evaluation
from hallustat.core import Alphabet, Str, count_upto, empty_string, shortlex_string
from hallustat.errors import DomainError
from hallustat.evaluation import (
    CSV_COLUMNS,
    build_fast_plan,
    derive_stream,
    evaluate_hp,
    exact_hp,
    hoeffding_halfwidth,
    mc_hp,
    run_trial,
    sweep,
    sweep_csv,
    unmemorized_mass_lower_bound,
)
from hallustat.flrm import FlrmTrainer, MemorizerModel, train
from hallustat.measures import (
    CdfLowerBound,
    FiniteSupport,
    GeometricTail,
    LengthFactored,
)
from hallustat.oracle import (
    Constant,
    Echo,
    GroundTruth,
    IndexShift,
    Labeler,
    TrainingSequence,
    generate_qualified,
)

from helpers import uniform_support

A2 = Alphabet(2)
HALF_BOUND = CdfLowerBound((0.5,), GeometricTail(0.5))
TRAINER = FlrmTrainer(A2, HALF_BOUND)


def s(*symbols):
    return Str(A2, symbols)


def half_geometric():
    return LengthFactored(A2, (), 0.5)


# ------------------------------------------------------------------ streams


def test_derive_stream_reproducible():
    a = derive_stream(7, 0).random(5)
    b = derive_stream(7, 0).random(5)
    assert np.array_equal(a, b)


def test_derive_stream_branches_differ():
    a = derive_stream(7, 0).random(5)
    b = derive_stream(7, 1).random(5)
    c = derive_stream(8, 0).random(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_stream_rejects_negative_seed():
    with pytest.raises(DomainError):
        derive_stream(-1, 0)


def test_hoeffding_halfwidth_value():
    # sqrt(ln(2/0.05) / (2 * 10^4))
    got = hoeffding_halfwidth(10_000, 0.95)
    assert got == pytest.approx(math.sqrt(math.log(40.0) / 20_000.0), rel=1e-12)
    assert hoeffding_halfwidth(100, 0.95) > got


# ----------------------------------------------------------------- exact/mc


def test_exact_hp_simple_fraction():
    members = tuple(shortlex_string(A2, r) for r in range(4))
    mu = uniform_support(members)
    gt = GroundTruth(A2, Echo())
    always_empty = lambda x: empty_string(A2)
    rep = exact_hp(always_empty, mu, gt)
    assert rep.method == "exact"
    assert rep.exact_value == Fraction(3, 4)  # only the empty string echoes right
    assert rep.estimate == 0.75


def test_exact_hp_weighted_atoms():
    mu = FiniteSupport(((s(0), Fraction(2, 3)), (s(1), Fraction(1, 3))))
    gt = GroundTruth(A2, Echo())
    only_zero = lambda x: s(0)
    assert exact_hp(only_zero, mu, gt).exact_value == Fraction(1, 3)


def test_exact_hp_rejects_infinite_support():
    with pytest.raises(DomainError):
        exact_hp(lambda x: x, half_geometric(), GroundTruth(A2, Echo()))


def test_mc_hp_matches_exact_within_halfwidth():
    members = tuple(shortlex_string(A2, r) for r in range(8))
    mu = uniform_support(members)
    gt = GroundTruth(A2, Echo())
    always_empty = lambda x: empty_string(A2)
    exact = exact_hp(always_empty, mu, gt).estimate
    rep = mc_hp(always_empty, mu, gt, 20_000, 0.95, derive_stream(3, 0))
    assert rep.method == "monte_carlo"
    assert rep.sample_count == 20_000
    assert abs(rep.estimate - exact) <= rep.ci_halfwidth


def test_evaluate_hp_exact_on_finite_supports_else_monte_carlo():
    gt = GroundTruth(A2, Echo())
    always_empty = lambda x: empty_string(A2)
    finite = (uniform_support((empty_string(A2), s(0))),
              FiniteSupport(((s(0), Fraction(1, 2)), (s(1), Fraction(1, 2)))))
    for mu in finite:
        rep = evaluate_hp(always_empty, mu, gt, 100, 0.95, derive_stream(0, 0))
        assert rep == exact_hp(always_empty, mu, gt)
    mu = half_geometric()
    rep = evaluate_hp(always_empty, mu, gt, 100, 0.95, derive_stream(0, 0))
    assert rep == mc_hp(always_empty, mu, gt, 100, 0.95, derive_stream(0, 0))
    assert rep.method == "monte_carlo"


# ------------------------------------------------------------------- trials


def test_run_trial_m_zero_exact_on_finite_support():
    members = tuple(shortlex_string(A2, r) for r in range(4))
    mu = uniform_support(members)
    gt = GroundTruth(A2, Echo())
    hp = run_trial(TRAINER, mu, gt, 0, Labeler.CANONICAL, derive_stream(0, 0))
    assert hp == 0.75  # empty model answers "" everywhere


def test_run_trial_full_memorization_reaches_zero():
    mu = uniform_support((empty_string(A2), s(0)))
    gt = GroundTruth(A2, Echo())
    # m = 40 -> threshold 1; both members are drawn with overwhelming probability
    hp = run_trial(TRAINER, mu, gt, 40, Labeler.CANONICAL, derive_stream(1, 0))
    assert hp == 0.0


def test_run_trial_rejects_negative_m():
    with pytest.raises(DomainError):
        run_trial(TRAINER, half_geometric(), GroundTruth(A2, Echo()), -1,
                  Labeler.CANONICAL, derive_stream(0, 0))


def test_fast_plan_active_only_for_length_factored():
    gt = GroundTruth(A2, Echo())
    assert build_fast_plan(TRAINER, half_geometric(), gt) is not None
    mu_fin = uniform_support((empty_string(A2), s(0)))
    assert build_fast_plan(TRAINER, mu_fin, gt) is None
    gt_override = GroundTruth(A2, Echo(), overrides=((s(0), (s(1),)),))
    assert build_fast_plan(TRAINER, half_geometric(), gt_override) is None


@pytest.mark.parametrize("q, length_probs, tail", [
    (2, (), 0.5), (3, (0.5, 0.25, 0.25), None), (2**70, (1.0,), None),
], ids=["q2-geometric", "q3-three-lengths", "q2^70-length-0-only"])
def test_fast_plan_tables_are_exact_powers_and_offsets(q, length_probs, tail):
    a = Alphabet(q)
    mu = LengthFactored(a, length_probs, tail)
    trainer = FlrmTrainer(a, CdfLowerBound((1.0,), GeometricTail(0.5)))
    plan = build_fast_plan(trainer, mu, GroundTruth(a, Echo()))
    top = mu.max_sample_length
    assert plan.pow_i.tolist() == [q**n for n in range(top + 1)]
    assert plan.base.tolist() == [count_upto(a, n - 1) if n else 0 for n in range(top + 1)]
    assert plan.pow_f.tolist() == [float(q**n) for n in range(top + 1)]


@pytest.mark.parametrize("rule", [Echo(), Constant(Str(Alphabet(2), ())),
                                  Constant(Str(Alphabet(2), (1,))), IndexShift(0),
                                  IndexShift(3)])
@pytest.mark.parametrize("labeler", [Labeler.CANONICAL, Labeler.UNIFORM_ACCEPTABLE])
def test_fast_path_equals_general_path(rule, labeler):
    mu = half_geometric()
    gt = GroundTruth(A2, rule)
    assert build_fast_plan(TRAINER, mu, gt) is not None
    for m in (0, 1, 23, 150):
        for seed in (0, 5):
            fast = run_trial(TRAINER, mu, gt, m, labeler, derive_stream(seed, 0),
                             mc_samples=2000)
            # The object path on the same stream: draw, train, Monte Carlo.
            rng = derive_stream(seed, 0)
            model = TRAINER(generate_qualified(mu, gt, m, labeler, rng))
            slow = mc_hp(model, mu, gt, 2000, 0.95, rng).estimate
            assert fast == slow  # bitwise, not approximately


# -------------------------------------------------------------- experiments


def test_negligibility_reproducible_and_parallel_invariant():
    # The negligibility experiment is a one-point sweep.
    mu = half_geometric()
    gt = GroundTruth(A2, Echo())
    kw = dict(epsilon_h=0.2, mc_samples=1000)
    r1 = sweep(TRAINER, mu, gt, [50], 40, Labeler.CANONICAL, 99, **kw)
    r2 = sweep(TRAINER, mu, gt, [50], 40, Labeler.CANONICAL, 99, **kw)
    r4 = sweep(TRAINER, mu, gt, [50], 40, Labeler.CANONICAL, 99, threads=4, **kw)
    assert r1 == r2 == r4
    # seed sensitivity shows up in a continuous statistic
    r5 = sweep(TRAINER, mu, gt, [50], 40, Labeler.CANONICAL, 100, **kw)
    assert r1[0].mean_hp != r5[0].mean_hp


def test_negligibility_single_trial_fraction_is_zero_or_one():
    mu = half_geometric()
    gt = GroundTruth(A2, Echo())
    (row,) = sweep(TRAINER, mu, gt, [10], 1, Labeler.CANONICAL, 5, mc_samples=500)
    assert row.exceed_fraction in (0.0, 1.0)
    assert row.ci_halfwidth == 0.0


@pytest.mark.parametrize("epsilon_h", [-5.0, 7.0, float("nan"), 0.0])
def test_sweep_rejects_epsilon_h_outside_unit_interval(epsilon_h):
    with pytest.raises(DomainError):
        sweep(TRAINER, half_geometric(), GroundTruth(A2, Echo()), [10], 2,
              Labeler.CANONICAL, 5, epsilon_h=epsilon_h, mc_samples=50)


@pytest.mark.parametrize("m_grid, trials, mc_samples", [
    ([10], 0, 50), ([10], 2, 0), ([-1], 2, 50),
], ids=["trials", "mc_samples", "m"])
@pytest.mark.parametrize("q", [2, 3])  # 2 takes the coded path, 3 the object path
def test_sweep_rejects_bad_trial_sizes_on_both_paths(q, m_grid, trials, mc_samples):
    a = Alphabet(q)
    mu = LengthFactored(a, (), 0.5)
    trainer = FlrmTrainer(a, HALF_BOUND)
    gt = GroundTruth(a, Echo())
    assert (build_fast_plan(trainer, mu, gt) is not None) == (q == 2)
    with pytest.raises(DomainError):
        sweep(trainer, mu, gt, m_grid, trials, Labeler.CANONICAL, 5, mc_samples=mc_samples)


def test_sweep_rows_and_determinism():
    mu = half_geometric()
    gt = GroundTruth(A2, Echo())
    rows = sweep(TRAINER, mu, gt, [10, 100, 1000], 8, Labeler.CANONICAL, 42,
                 mc_samples=1000)
    again = sweep(TRAINER, mu, gt, [10, 100, 1000], 8, Labeler.CANONICAL, 42,
                  mc_samples=1000)
    assert rows == again
    assert [r.m for r in rows] == [10, 100, 1000]
    assert all(r.trials == 8 and r.seed == 42 for r in rows)
    # more data, lower hallucination rate on this instance
    assert rows[2].mean_hp < rows[0].mean_hp


def test_sweep_single_point_m_zero():
    mu = half_geometric()
    gt = GroundTruth(A2, Echo())
    rows = sweep(TRAINER, mu, gt, [0], 3, Labeler.CANONICAL, 4, mc_samples=500)
    assert len(rows) == 1 and rows[0].m == 0


def test_sweep_rejects_empty_grid():
    with pytest.raises(DomainError):
        sweep(TRAINER, half_geometric(), GroundTruth(A2, Echo()), [], 3,
              Labeler.CANONICAL, 4)


def test_sweep_csv_shape_and_bytes():
    mu = half_geometric()
    gt = GroundTruth(A2, Echo())
    rows = sweep(TRAINER, mu, gt, [10, 20], 4, Labeler.CANONICAL, 7, mc_samples=500)
    text = sweep_csv(rows, preamble=("tool: x", "seed: 7"))
    lines = text.splitlines()
    assert lines[0] == "# tool: x"
    assert lines[1] == "# seed: 7"
    assert lines[2] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3 + 2
    assert text == sweep_csv(rows, preamble=("tool: x", "seed: 7"))
    # round-trippable floats
    first = lines[3].split(",")
    assert int(first[0]) == 10
    assert float(first[2]) == rows[0].mean_hp


def test_trial_results_do_not_depend_on_thread_count():
    mu = half_geometric()
    gt = GroundTruth(A2, IndexShift(1))
    r1 = sweep(TRAINER, mu, gt, [25, 50], 12, Labeler.CANONICAL, 11,
               mc_samples=400, threads=1)
    r3 = sweep(TRAINER, mu, gt, [25, 50], 12, Labeler.CANONICAL, 11,
               mc_samples=400, threads=3)
    assert r1 == r3


def test_worker_pool_capped_by_trials_and_cores(monkeypatch):
    # A recording stand-in for the executor: no thread is ever started.
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(evaluation, "ThreadPoolExecutor", RecordingPool)
    mu, gt = half_geometric(), GroundTruth(A2, Echo())
    serial = sweep(TRAINER, mu, gt, [10], 6, Labeler.CANONICAL, 1, mc_samples=50)
    for cores, trials, workers in ((8, 3, [3]), (2, 6, [2]), (None, 6, [])):
        monkeypatch.setattr(evaluation.os, "cpu_count", lambda c=cores: c)
        made.clear()
        rows = sweep(TRAINER, mu, gt, [10], trials, Labeler.CANONICAL, 1,
                     mc_samples=50, threads=5000)
        assert made == workers
        if trials == 6:
            assert rows == serial


# ------------------------------------------------------------- diagnostics


def test_unmemorized_mass_lower_bound():
    mu = half_geometric()
    model = MemorizerModel(A2, {}, 3)
    assert unmemorized_mass_lower_bound(model, mu) == 0.5**4
    empty_model = train(TrainingSequence(()), A2, HALF_BOUND)
    assert unmemorized_mass_lower_bound(empty_model, mu) == 1.0
