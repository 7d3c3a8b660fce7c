import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hallustat import evaluation, kernels, streams
from hallustat.cli import main as cli_main
from hallustat.core import (
    Alphabet, Str, count_upto, empty_string, shortlex_index, shortlex_string,
    strings_of_length, strings_upto,
)
from hallustat.errors import DRAW_CAP, BudgetExceeded, DomainError, check_draw_count
from hallustat.evaluation import (
    CSV_COLUMNS,
    MC_FALLBACK,
    HallucinationReport,
    derive_stream,
    derive_streams,
    evaluate_hp,
    exact_hp,
    hoeffding_halfwidth,
    mc_hp,
    run_trial,
    sweep,
    sweep_csv,
    unmemorized_mass_lower_bound,
)
from hallustat.flrm import FlrmTrainer, MemorizerModel, threshold_length, train
from hallustat.measures import (
    CdfLowerBound,
    FiniteSupport,
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

from helpers import (assert_rejected_before_any_draw, rank_table, sample_batch_per_draw,
                     uniform_support)

A2 = Alphabet(2)
A3 = Alphabet(3)
HALF_BOUND = CdfLowerBound((0.5,), 0.5)
TRAINER = FlrmTrainer(A2, HALF_BOUND)
RULES = [Echo(), Constant(Str(A2, ())), Constant(Str(A2, (1,))), IndexShift(0), IndexShift(3)]


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


@pytest.mark.parametrize("seed, branch", [
    (-1, (0,)), (True, (0,)), (1.5, ()), (np.int64(1), ()),
    (7, (True,)), (7, (0, -1)), (7, (0.5,)), (7, (np.int64(0),)),
], ids=["seed-negative", "seed-bool", "seed-float", "seed-numpy", "branch-bool",
        "branch-negative", "branch-float", "branch-numpy"])
def test_derive_stream_rejects_a_seed_or_branch_that_is_not_an_int_ge_0(seed, branch):
    with pytest.raises(DomainError, match="must be"):
        derive_stream(seed, *branch)
    if branch:
        with pytest.raises(DomainError, match="must be"):
            derive_streams(seed, branch[:-1], [0, branch[-1]])


def seed_sequence_state(seed, branch):
    """The oracle: the state numpy's own SeedSequence gives the stream."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=branch)).bit_generator.state


# Ints of one to five 32-bit words, at the word boundaries.
WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64, 2**130]


@pytest.mark.parametrize("seed", WORD_EDGES)
def test_derive_stream_state_equals_seed_sequence(seed):
    assert derive_stream(seed).bit_generator.state == seed_sequence_state(seed, ())
    for row in WORD_EDGES:
        assert derive_stream(seed, row).bit_generator.state == seed_sequence_state(seed, (row,))
        for index in WORD_EDGES:
            branch = (row, 2**40 + 3, index)
            assert derive_stream(seed, *branch).bit_generator.state == \
                seed_sequence_state(seed, branch)


@pytest.mark.parametrize("seed", WORD_EDGES)
@pytest.mark.parametrize("head", [(), (5,), (2**64, 0)])
def test_derive_streams_equal_seed_sequence_across_word_counts(seed, head):
    # One batch whose indices straddle 2^32 and mix every word count, in an
    # order that is not sorted by it.
    indices = [2**32 + 1] + list(range(2**32 - 3, 2**32 + 3)) + WORD_EDGES[::-1] + [7]
    streams = derive_streams(seed, head, indices)
    assert [g.bit_generator.state for g in streams] == \
        [seed_sequence_state(seed, head + (i,)) for i in indices]
    assert [g.random() for g in derive_streams(seed, head, range(3))] == \
        [derive_stream(seed, *head, i).random() for i in range(3)]
    assert derive_streams(seed, head, []) == []


def test_derive_streams_rejects_before_deriving(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a stream was derived before the arguments were checked")

    monkeypatch.setattr(streams, "_pcg64_seeds", refuse)
    for seed, head, indices in [(-1, (0,), [0]), (7, (True,), [0]), (7, (0,), [0, 1, -1]),
                                (7, (0,), [2**40, np.int64(1)]), (7, (), [0.5])]:
        with pytest.raises(DomainError, match="must be"):
            derive_streams(seed, head, indices)


def test_derive_stream_seed_holds_only_the_pcg64_state():
    seed_seq = derive_stream(3, 1).bit_generator.seed_seq
    assert np.array_equal(seed_seq.generate_state(4, np.uint64),
                          np.random.SeedSequence(3, spawn_key=(1,)).generate_state(4, np.uint64))
    with pytest.raises(ValueError):
        seed_seq.generate_state(8)
    assert not hasattr(seed_seq, "spawn")


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


def test_exact_hp_sums_mixed_denominators_exactly():
    masses = (Fraction(1, 3), Fraction(1, 6), Fraction(1, 4), Fraction(1, 4))
    members = [shortlex_string(A2, r) for r in range(4)]
    mu = FiniteSupport(tuple(zip(members, masses)))
    gt = GroundTruth(A2, Echo())
    always_empty = lambda x: empty_string(A2)
    assert exact_hp(always_empty, mu, gt).exact_value == sum(masses[1:], Fraction(0))
    assert exact_hp(lambda x: x, mu, gt).exact_value == 0
    echo_odd = lambda x: x if shortlex_index(x) % 2 else empty_string(A2)
    # "" (rank 0) echoes right anyway; rank 2 is the only miss
    assert exact_hp(echo_odd, mu, gt).exact_value == Fraction(1, 4)


def test_mc_hp_asks_each_distinct_draw_once():
    a3 = Alphabet(3)
    mu = LengthFactored(a3, (), 0.5)
    gt = GroundTruth(a3, Echo())
    model = train(generate_qualified(mu, gt, 200, Labeler.CANONICAL, derive_stream(4, 0)),
                  a3, CdfLowerBound((0.5,), 0.5))
    asked = []

    def predict(x):
        asked.append(x)
        return model.predict(x)

    rep = mc_hp(predict, mu, gt, 5000, 0.95, derive_stream(4, 1))
    draws = sample_batch_per_draw(mu, derive_stream(4, 1), 5000)
    assert len(asked) == len(set(asked)) == len(set(draws)) < len(draws)
    wrong = sum(1 for x in draws if not gt.accepts(x, model.predict(x)))
    assert 0 < wrong < 5000
    assert rep.estimate == wrong / 5000


def test_exact_hp_rejects_infinite_support():
    with pytest.raises(DomainError):
        exact_hp(lambda x: x, half_geometric(), GroundTruth(A2, Echo()))


@pytest.mark.parametrize("mu", [
    LengthFactored(A3, (0.2, 0.0, 0.3), 0.5),
    FiniteSupport(tuple((shortlex_string(A3, r), Fraction(r + 1, 55)) for r in range(10))),
], ids=["length_factored", "finite_support"])
def test_mc_hp_matches_per_draw_counter(mu):
    # counting by index over distinct draws, as a Counter over every draw would
    gt = GroundTruth(A3, Echo(), overrides=((Str(A3, (2,)), (Str(A3, ()), Str(A3, (1,)))),))
    model = train(generate_qualified(mu, gt, 40, Labeler.UNIFORM_ACCEPTABLE, derive_stream(6, 0)),
                  A3, CdfLowerBound((0.2,), 0.5))
    rng = derive_stream(6, 1)
    rep = mc_hp(model, mu, gt, 4000, 0.95, rng)
    ref = derive_stream(6, 1)
    counts = Counter(sample_batch_per_draw(mu, ref, 4000))
    wrong = sum(c for x, c in counts.items() if not gt.accepts(x, model(x)))
    assert 0 < wrong < 4000
    assert rep.estimate == wrong / 4000
    assert rng.random() == ref.random()


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
        rep = evaluate_hp(always_empty, mu, gt, derive_stream(0, 0))
        assert rep == exact_hp(always_empty, mu, gt)
    mu = half_geometric()
    rep = evaluate_hp(always_empty, mu, gt, derive_stream(0, 0))
    assert rep == mc_hp(always_empty, mu, gt, *MC_FALLBACK, derive_stream(0, 0))
    assert rep.method == "monte_carlo"
    assert rep.sample_count == 10_000


# -------------------------------------------------------------- closed form


def brute_force_hp(model, mu, gt):
    """fsum of pmf(x) * [model(x) not acceptable] over every string of length
    <= top, two past the threshold and no shorter than any override key, plus
    the mass of the longer lengths when the default rule rejects the empty
    output there."""
    top = max([model.threshold + 2] + [len(key) for key, _ in gt.overrides])
    terms = [mu.pmf(x) for x in strings_upto(mu.alphabet, top)
             if not gt.accepts(x, model(x))]
    rule, empty = gt.default_rule, empty_string(mu.alphabet)
    if not (isinstance(rule, Constant) and rule.output == empty):
        terms.append(mu.defect(top))
    return math.fsum(terms)


def closed_form(model, mu, gt):
    rep = evaluate_hp(model, mu, gt, derive_stream(0, 0))
    assert rep == HallucinationReport(estimate=rep.estimate, method="exact")
    return rep.estimate


def overrides(a):
    # One acceptable set holds the empty output; the keys have lengths 1, 3
    # and 4, so the m grid below puts each on both sides of n̄.
    return (
        (Str(a, (1,)), (empty_string(a), Str(a, (0,)))),
        (Str(a, (0, 1, 1)), (Str(a, (1,)),)),
        (Str(a, (1, 0, 0, 1)), (empty_string(a),)),
    )


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("q", [2, 3])
def test_memorizer_hp_closed_form_equals_brute_force(q, rule):
    a = Alphabet(q)
    trainer = FlrmTrainer(a, HALF_BOUND)
    if isinstance(rule, Constant):
        rule = Constant(Str(a, rule.output.symbols))
    laws = (LengthFactored(a, (), 0.5), LengthFactored(a, (0.1, 0.3, 0.2), 0.5))
    for gt in (GroundTruth(a, rule), GroundTruth(a, rule, overrides(a))):
        for mu in laws:
            for labeler in Labeler:
                for m in (0, 1, 23, 300, 2000):  # n̄ from -1 to 3 (q=2) or 2 (q=3)
                    model = trainer(generate_qualified(mu, gt, m, labeler, derive_stream(m, q)))
                    assert closed_form(model, mu, gt) == pytest.approx(
                        brute_force_hp(model, mu, gt), rel=1e-13, abs=1e-300)
        # Built directly: wrong table entries and an entry for an override
        # key; no threshold at all; every override key at or below the
        # threshold but none in the table.
        wrong = MemorizerModel(a, rank_table({
            empty_string(a): Str(a, (1, 1)), Str(a, (0,)): Str(a, (1,)),
            Str(a, (1,)): Str(a, (0, 0)), Str(a, (0, 1)): Str(a, (0, 1))}), 2)
        for model in (wrong, MemorizerModel(a, {}, -1), MemorizerModel(a, {}, 4)):
            for mu in laws:
                assert closed_form(model, mu, gt) == pytest.approx(
                    brute_force_hp(model, mu, gt), rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("q", [2, 3])
def test_memorizer_hp_closed_form_within_hoeffding_of_monte_carlo(q):
    a = Alphabet(q)
    mu = LengthFactored(a, (0.1, 0.3, 0.2), 0.5)
    gt = GroundTruth(a, IndexShift(1), overrides(a))
    model = FlrmTrainer(a, HALF_BOUND)(
        generate_qualified(mu, gt, 300, Labeler.UNIFORM_ACCEPTABLE, derive_stream(1, q)))
    assert model.threshold >= 1
    mc = mc_hp(model, mu, gt, 10**6, 0.95, derive_stream(2, q))
    assert abs(closed_form(model, mu, gt) - mc.estimate) <= mc.ci_halfwidth


def test_memorizer_off_its_alphabet_gets_monte_carlo():
    a3 = Alphabet(3)
    mu, gt = LengthFactored(a3, (), 0.5), GroundTruth(a3, Echo())
    model = MemorizerModel(A2, {}, 1)
    rep = evaluate_hp(model, mu, gt, derive_stream(0, 0))
    assert rep == mc_hp(model, mu, gt, *MC_FALLBACK, derive_stream(0, 0))


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


def takes_coded_trial(trainer, mu, gt):
    """Whether run_trial sends the instance to the coded trial, as a spy on
    evaluation._fast_trial sees in one trial at m = 0."""
    calls = []
    fast_trial = evaluation._fast_trial

    def spy(*args):
        calls.append(args)
        return fast_trial(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "_fast_trial", spy)
        run_trial(trainer, mu, gt, 0, Labeler.CANONICAL, derive_stream(0, 0))
    return bool(calls)


def test_fast_plan_active_only_for_length_factored():
    gt = GroundTruth(A2, Echo())
    assert takes_coded_trial(TRAINER, half_geometric(), gt)
    mu_fin = uniform_support((empty_string(A2), s(0)))
    assert not takes_coded_trial(TRAINER, mu_fin, gt)
    gt_override = GroundTruth(A2, Echo(), overrides=((s(0), (s(1),)),))
    assert not takes_coded_trial(TRAINER, half_geometric(), gt_override)


@pytest.mark.parametrize("q, length_probs, tail", [
    (2, (), 0.5), (3, (0.5, 0.25, 0.25), None), (2**70, (1.0,), None),
], ids=["q2-geometric", "q3-three-lengths", "q2^70-length-0-only"])
def test_fast_plan_tables_are_exact_powers_and_offsets(q, length_probs, tail):
    a = Alphabet(q)
    mu = LengthFactored(a, length_probs, tail)
    trainer = FlrmTrainer(a, CdfLowerBound((1.0,), 0.5))
    assert takes_coded_trial(trainer, mu, GroundTruth(a, Echo()))
    base, level = mu._code_tables
    top = mu.max_sample_length
    assert level.tolist() == [q**n for n in range(top + 1)]
    assert base.tolist() == [count_upto(a, n - 1) if n else 0 for n in range(top + 1)]
    assert level.astype(np.float64).tolist() == [float(q**n) for n in range(top + 1)]


def assert_trial_equals_object_pipeline(trainer, mu, gt, m, labeler, seed):
    """run_trial's HP equals, bit for bit, that of the object-path composition
    on the same stream (draw, train, exact evaluation: exact_hp on a finite
    support, the closed form on a length-factored law), and both leave the
    stream at the same place. Returns the HP."""
    trial_rng = derive_stream(seed, 0)
    hp = run_trial(trainer, mu, gt, m, labeler, trial_rng)
    rng = derive_stream(seed, 0)
    model = trainer(generate_qualified(mu, gt, m, labeler, rng))
    reference = evaluate_hp(model, mu, gt, rng)
    assert reference.method == "exact"
    assert hp == reference.estimate  # bitwise, not approximately
    assert trial_rng.random() == rng.random()
    return hp


def never_full():
    # Lengths 0 and 3 have no mass, so a seen-table over lengths <= n̄ >= 3
    # never fills. The trial stops decoding once the other levels are full;
    # each length-4 string has mass 1/3200.
    return LengthFactored(A2, (0.0, 0.5, 0.49, 0.0, 0.005), 0.5)


def sparse_top():
    # As never_full, but each length-4 string has mass 1/160 000: at n̄ = 4
    # (m >= 6400) level 4 stays open, so the trial decodes up to m.
    return LengthFactored(A2, (0.0, 0.5, 0.4999, 0.0, 0.0001), 0.5)


def zero_mass_filled_out_of_order():
    # Level 1 has no mass, and level 3 (mass 0.031 per string) fills long
    # before level 2 (mass 0.0005 per string); n̄ = 0, 3 and 6 at m = 10,
    # 1000 and 10^5.
    return (FlrmTrainer(A2, CdfLowerBound((0.5, 0.5, 0.502, 0.75), 0.5)),
            LengthFactored(A2, (0.5, 0.0, 0.002, 0.248), 0.5))


def finite_q3():
    # A q = 3 law that ends at length 4; n̄ = 3 at m = 10^5.
    return (FlrmTrainer(A3, CdfLowerBound((0.1, 0.4, 0.8, 0.95, 1.0))),
            LengthFactored(A3, (0.1, 0.3, 0.4, 0.15, 0.05)))


def seven_strings():
    # The law ends at length 2, below n̄: the table fills in the first chunk.
    return LengthFactored(A2, (0.25, 0.25, 0.5))


def fills_in_first_chunk_or_not():
    # Only lengths 0 and 6 have mass (n̄ = 6 from m = 533 on). The 512 draws
    # of the first chunk fill level 6 (64 strings, 4.8 draws each on
    # average) with probability about 0.6, so in a row some trials leave
    # after the first chunk and others read on.
    return (FlrmTrainer(A2, CdfLowerBound((0.0,) * 7 + (1.0,))),
            LengthFactored(A2, (0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.6)))


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("labeler", [Labeler.CANONICAL, Labeler.UNIFORM_ACCEPTABLE])
def test_fast_path_equals_general_path(rule, labeler):
    gt = GroundTruth(A2, rule)
    # Regimes of the coded trial's seen-table over lengths <= n̄, as
    # (trainer, mu, m values, seeds):
    regimes = (
        # it fills early (n̄ = 4 at m = 20 000);
        (TRAINER, half_geometric(), (0, 1, 23, 150, 20_000), (0, 5)),
        # it fills only in the fifth chunk (n̄ = 5 at m = 10^5);
        (TRAINER, half_geometric(), (100_000,), (0,)),
        # it never fills, but the levels with mass do;
        (TRAINER, never_full(), (23, 150, 6400, 30_001), (0, 5)),
        (TRAINER, never_full(), (100_000,), (0,)),
        # a level with mass stays open, and the last chunk is cut short at m
        # (6400 and 30 001 are not sums of chunks 512, 1024, ...);
        (TRAINER, sparse_top(), (6400, 30_001), (0, 5)),
        # a level without mass, and a level that fills before the one below;
        (*zero_mass_filled_out_of_order(), (10, 1000), (0, 5)),
        (*zero_mass_filled_out_of_order(), (100_000,), (0,)),
        # the law ends below n̄;
        (TRAINER, seven_strings(), (150, 1000), (0, 5)),
        # the sampling table ends at length 4, below n̄ = 5, but the law
        # does not: lengths 5 and up keep a mass of about 1e-20.
        (TRAINER, LengthFactored(A2, (), 1e-4), (100_000,), (0,)),
    )
    for trainer, mu, ms, seeds in regimes:
        assert takes_coded_trial(trainer, mu, gt)
        for m in ms:
            for seed in seeds:
                assert_trial_equals_object_pipeline(trainer, mu, gt, m, labeler, seed)


@pytest.mark.parametrize("rule", [Echo(), Constant(Str(A3, ())), Constant(Str(A3, (2,))),
                                  IndexShift(1)])
@pytest.mark.parametrize("labeler", [Labeler.CANONICAL, Labeler.UNIFORM_ACCEPTABLE])
def test_fast_path_equals_general_path_on_a_finite_q3_law(rule, labeler):
    trainer, mu = finite_q3()
    gt = GroundTruth(A3, rule)
    assert takes_coded_trial(trainer, mu, gt)
    for m, seeds in ((0, (0, 5)), (7, (0, 5)), (1000, (0, 5)), (100_000, (0,))):
        for seed in seeds:
            assert_trial_equals_object_pipeline(trainer, mu, gt, m, labeler, seed)


def open_levels_differ():
    # Level 3 (8 strings) fills in the first chunk in about half of the
    # trials; level 5 (32 strings) stays open well past it (n̄ = 5 from
    # m = 223 on). So from the second chunk on, trials of one batch keep
    # draws from different lowest open levels, 3 or 5.
    return (FlrmTrainer(A2, CdfLowerBound((0.0,) * 6 + (1.0,))),
            LengthFactored(A2, (0.952, 0.0, 0.0, 0.038, 0.0, 0.01)))


def assert_batch_equals_lone_trials(trainer, mu, gt, m, labeler, streams):
    """_fast_trial on the streams of derive_stream(seed, 0, i), i < streams,
    as one batch gives each stream the HP run_trial gives it alone, bit for
    bit, and leaves each stream at the same next uniform. Run without the
    end read, the batch gives the same HPs and reads the same blocks, but
    stops short of that last read. Returns the batch generators, with the
    end read, as RecordingReads."""
    rngs = [RecordingReads(derive_stream(seed, 0)) for seed in range(streams)]
    hps = evaluation._fast_trial(trainer, mu, gt, m, labeler, rngs)
    assert len(hps) == streams
    for seed, (hp, rng) in enumerate(zip(hps, rngs)):
        alone = derive_stream(seed, 0)
        assert hp == run_trial(trainer, mu, gt, m, labeler, alone)  # bitwise
        assert rng._rng.random() == alone.random()
    dropped = [RecordingReads(derive_stream(seed, 0)) for seed in range(streams)]
    assert evaluation._fast_trial(trainer, mu, gt, m, labeler, dropped, end_read=False) == hps
    for rng, short in zip(rngs, dropped):
        assert rng.sizes[-1] == 0 and short.sizes == rng.sizes[:-1]
    return rngs


@pytest.mark.parametrize("labeler", [Labeler.CANONICAL, Labeler.UNIFORM_ACCEPTABLE])
@pytest.mark.parametrize("instance", [
    lambda: (TRAINER, half_geometric()), lambda: (TRAINER, never_full()),
    lambda: (TRAINER, sparse_top()), zero_mass_filled_out_of_order,
    lambda: (TRAINER, seven_strings()), finite_q3, fills_in_first_chunk_or_not,
    open_levels_differ,
], ids=["half_geometric", "never_full", "sparse_top", "zero_mass_filled_out_of_order",
        "seven_strings", "finite_q3", "fills_in_first_chunk_or_not", "open_levels_differ"])
def test_batched_coded_trials_equal_lone_trials(instance, labeler):
    trainer, mu = instance()
    for rule in (Echo(), IndexShift(3)):  # empty output right on "", or nowhere
        gt = GroundTruth(mu.alphabet, rule)
        assert evaluation._trial_path(trainer, mu, gt) == "coded"
        for m in (0, 1, 511, 512, 513, 3000, 10**5):
            for streams in (1, 5):
                assert_batch_equals_lone_trials(trainer, mu, gt, m, labeler, streams)


def test_a_batch_decodes_the_draws_its_trials_decode_alone(monkeypatch):
    # Each trial keeps only the draws from its own lowest open level up, so a
    # batch decodes as many draws as its trials do one by one.
    decoded = []
    sample_codes = kernels.sample_codes

    def counting(u_len, u_off, *tables):
        decoded.append(len(u_len))
        return sample_codes(u_len, u_off, *tables)

    monkeypatch.setattr(kernels, "sample_codes", counting)
    for trainer, mu in (open_levels_differ(), (TRAINER, never_full()), finite_q3()):
        gt = GroundTruth(mu.alphabet, Echo())
        for m in (3000, 10**5):
            decoded.clear()
            rngs = [derive_stream(seed, 0) for seed in range(6)]
            evaluation._fast_trial(trainer, mu, gt, m, Labeler.CANONICAL, rngs)
            batch = sum(decoded)
            decoded.clear()
            for seed in range(6):
                run_trial(trainer, mu, gt, m, Labeler.CANONICAL, derive_stream(seed, 0))
            assert batch == sum(decoded) > 0


def test_batch_trials_leave_at_their_own_chunk():
    # At m = 600 a trial that fills level 6 in the first chunk reads only it;
    # another reads the second chunk too, cut to the 88 draws left before m.
    trainer, mu = fills_in_first_chunk_or_not()
    gt = GroundTruth(A2, Echo())
    for labeler in Labeler:
        rngs = assert_batch_equals_lone_trials(trainer, mu, gt, 600, labeler, 8)
        sizes = {tuple(rng.sizes) for rng in rngs}
        assert sizes == {(512, 512, 0), (512, 512, 88, 88, 0)}


def test_sweep_runs_a_coded_row_in_batches_bounded_by_its_seen_table(monkeypatch):
    # A batch holds at most _BATCH_ENTRIES seen-table entries: here 3 trials
    # of the 7 entries of lengths <= 2, so a 7-trial row runs as 3 + 3 + 1.
    batches = []
    fast_trial = evaluation._fast_trial

    def spy(trainer, mu, gt, m, labeler, rngs, **options):
        batches.append(len(rngs))
        return fast_trial(trainer, mu, gt, m, labeler, rngs, **options)

    mu, gt = seven_strings(), GroundTruth(A2, Echo())
    expected = sweep(TRAINER, mu, gt, [3000], 7, Labeler.CANONICAL, 9)
    monkeypatch.setattr(evaluation, "_fast_trial", spy)
    monkeypatch.setattr(evaluation, "_BATCH_ENTRIES", 3 * count_upto(A2, 2) + 2)
    assert sweep(TRAINER, mu, gt, [3000], 7, Labeler.CANONICAL, 9) == expected
    assert batches == [3, 3, 1]


def test_sweep_skips_the_end_read_that_run_trial_makes(monkeypatch):
    # sweep drops each stream after its trial, so its coded rows skip the
    # read that only moves the stream; run_trial hands the stream back and
    # makes it. Each row still has the HPs run_trial gives its streams.
    end_reads = []
    fast_trial = evaluation._fast_trial

    def spy(*args, **options):
        end_reads.append(options.get("end_read", True))
        return fast_trial(*args, **options)

    monkeypatch.setattr(evaluation, "_fast_trial", spy)
    gt, labeler = GroundTruth(A2, Echo()), Labeler.UNIFORM_ACCEPTABLE
    m_grid, trials = [0, 100, 3000], 4
    rows = sweep(TRAINER, half_geometric(), gt, m_grid, trials, labeler, 11)
    assert len(end_reads) == len(m_grid) and not any(end_reads)
    end_reads.clear()
    for r, (row, m) in enumerate(zip(rows, m_grid)):
        hps = [run_trial(TRAINER, half_geometric(), gt, m, labeler, derive_stream(11, r, i))
               for i in range(trials)]
        assert (row.mean_hp, row.std_hp) == (float(np.mean(hps)), float(np.std(hps)))
    assert end_reads == [True] * len(m_grid) * trials


def mixed_support(a, seed):
    """All strings of length <= 2 and three each of lengths 3 and 4, with
    masses over mixed denominators."""
    r = random.Random(seed)
    members = (list(strings_upto(a, 2)) + r.sample(list(strings_of_length(a, 3)), 3)
               + r.sample(list(strings_of_length(a, 4)), 3))
    r.shuffle(members)
    n = len(members)
    masses = [Fraction(r.randint(1, 3), r.choice((5, 6, 7)) * n) for _ in members[1:]]
    return FiniteSupport(tuple(zip(members, [1 - sum(masses)] + masses)))


# n̄ = -1, 0, 1, 2, 3, 3 at m = 0, 1, 7, 50, 400, 3000 for q = 2, and -1, -1,
# 0, 1, 2, 3 for q = 3; it never reaches 4, since the bound is 1 there.
MIXED_BOUND = CdfLowerBound((0.1, 0.3, 0.5, 0.8))


def support_overrides(a, mu):
    """Two keys of length 4 in the support, one accepting the empty output
    and one not, a key of length 1 in the support, and a key outside it."""
    members = [x for x, _ in mu.support()]
    long_a, long_b = [x for x in members if len(x) == 4][:2]
    outside = next(x for x in strings_of_length(a, 3) if x not in members)
    empty = empty_string(a)
    return (
        (long_a, (empty, Str(a, (1,)))),
        (long_b, (Str(a, (0,)),)),
        (Str(a, (0,)), (empty, Str(a, (1, 1)))),
        (outside, (empty,)),
    )


@pytest.mark.parametrize("labeler", [Labeler.CANONICAL, Labeler.UNIFORM_ACCEPTABLE])
@pytest.mark.parametrize("rule", ["echo", "constant-empty", "constant-1", "shift-0", "shift-2"])
@pytest.mark.parametrize("q", [2, 3])
def test_atom_trial_equals_object_pipeline(q, rule, labeler):
    a = Alphabet(q)
    rule = {"echo": Echo(), "constant-empty": Constant(empty_string(a)),
            "constant-1": Constant(Str(a, (1,))), "shift-0": IndexShift(0),
            "shift-2": IndexShift(2)}[rule]
    trainer = FlrmTrainer(a, MIXED_BOUND)
    for seed in (0, 1):
        mu = mixed_support(a, seed)
        assert len({p.denominator for _, p in mu.support()}) > 1
        for gt in (GroundTruth(a, rule), GroundTruth(a, rule, support_overrides(a, mu))):
            for m in (0, 1, 7, 50, 400, 3000):
                assert not takes_coded_trial(trainer, mu, gt)
                assert_trial_equals_object_pipeline(trainer, mu, gt, m, labeler, seed)


def test_trainer_that_is_not_flrm_takes_the_object_path_on_a_finite_support():
    mu = mixed_support(A2, 0)
    gt = GroundTruth(A2, Echo(), support_overrides(A2, mu))
    trainer = FlrmTrainer(A2, MIXED_BOUND)
    sizes = []

    def wrapped(t):
        sizes.append(len(t))
        return trainer(t)

    hp = assert_trial_equals_object_pipeline(wrapped, mu, gt, 400, Labeler.CANONICAL, 3)
    assert sizes == [400, 400]  # once in run_trial, once in the reference
    assert hp == run_trial(trainer, mu, gt, 400, Labeler.CANONICAL, derive_stream(3, 0))


def last_output_trainer(a):
    """Not a memorizer: a drawn input gets its last training output, and
    every other input the output of the last pair drawn."""
    def fit(t):
        table = t.last_outputs()
        fallback = t.pairs[-1][1] if t.pairs else empty_string(a)
        return lambda x: table.get(x, fallback)
    return fit


@pytest.mark.parametrize("labeler", [Labeler.CANONICAL, Labeler.UNIFORM_ACCEPTABLE])
@pytest.mark.parametrize("q", [2, 3])
def test_trainer_that_is_not_a_memorizer_is_evaluated_like_its_composition(q, labeler):
    # On a finite support its HP is exact_hp's; on a length-factored law it
    # is mc_hp's at MC_FALLBACK, drawn after the training pairs from the
    # same stream.
    a = Alphabet(q)
    trainer = last_output_trainer(a)
    finite = mixed_support(a, 0)
    laws = ((finite, GroundTruth(a, IndexShift(1), support_overrides(a, finite))),
            (LengthFactored(a, (0.1, 0.3, 0.2), 0.5), GroundTruth(a, Echo(), overrides(a))))
    for mu, gt in laws:
        for m in (0, 7, 300):
            trial_rng = derive_stream(m, q)
            hp = run_trial(trainer, mu, gt, m, labeler, trial_rng)
            rng = derive_stream(m, q)
            model = trainer(generate_qualified(mu, gt, m, labeler, rng))
            if isinstance(mu, FiniteSupport):
                reference = exact_hp(model, mu, gt)
            else:
                reference = mc_hp(model, mu, gt, *MC_FALLBACK, rng)
                assert reference.sample_count == 10_000
            assert hp == reference.estimate
            assert trial_rng.random() == rng.random()


class RecordingReads:
    """A Generator stand-in that records the size of every read."""

    def __init__(self, rng):
        self.bit_generator = rng.bit_generator
        self._rng = rng
        self.sizes = []

    def random(self, size=None, out=None):
        self.sizes.append(size if out is None else len(out))
        return self._rng.random(size, out=out)


@pytest.mark.parametrize("trainer, mu, m, sizes", [
    # Five training chunks of lengths and offsets fill the table; the last
    # read only moves the stream.
    (TRAINER, half_geometric(), 100_000,
     [512, 512, 1024, 1024, 2048, 2048, 4096, 4096, 8192, 8192, 0]),
    # The table never fills, but its levels with mass do.
    (TRAINER, never_full(), 30_001,
     [512, 512, 1024, 1024, 2048, 2048, 4096, 4096, 8192, 8192, 0]),
    # Level 4 stays open: the sixth chunk is cut to the 14 129 draws left
    # before m.
    (TRAINER, sparse_top(), 30_001,
     [512, 512, 1024, 1024, 2048, 2048, 4096, 4096, 8192, 8192, 14129, 14129, 0]),
    # Level 1 has no mass and never fills, yet the trial stops.
    (*zero_mass_filled_out_of_order(), 100_000,
     [512, 512, 1024, 1024, 2048, 2048, 4096, 4096, 8192, 8192, 0]),
    (TRAINER, seven_strings(), 10**6, [512, 512, 0]),
], ids=["fills-in-fifth-chunk", "never-full", "open-until-m", "zero-mass-level",
        "fills-in-first-chunk"])
def test_coded_trial_reads_only_the_blocks_it_uses(trainer, mu, m, sizes):
    for labeler in Labeler:
        rng = RecordingReads(derive_stream(3, 0))
        run_trial(trainer, mu, GroundTruth(A2, Echo()), m, labeler, rng)
        assert rng.sizes == sizes


def test_coded_trial_decodes_no_draw_below_its_lowest_open_level(monkeypatch):
    # After the first chunk, a chunk decodes no draw from a level that was
    # full, along with every level below it, when the chunk began; levels
    # without mass count as full. Once every level is full it decodes
    # nothing more.
    calls = []
    sample_codes = kernels.sample_codes

    def recording(u_len, u_off, *tables):
        codes, lengths = sample_codes(u_len, u_off, *tables)
        calls.append((codes.tolist(), lengths.tolist()))
        return codes, lengths

    monkeypatch.setattr(kernels, "sample_codes", recording)
    cases = [(TRAINER, half_geometric(), 100_000), (TRAINER, never_full(), 30_001),
             (TRAINER, sparse_top(), 30_001), (*zero_mass_filled_out_of_order(), 1000),
             (*zero_mass_filled_out_of_order(), 100_000), (*finite_q3(), 100_000)]
    for trainer, mu, m in cases:
        q = mu.alphabet.size
        top = min(threshold_length(m, mu.alphabet, trainer.bound), mu.max_sample_length)
        for labeler in Labeler:
            calls.clear()
            assert_trial_equals_object_pipeline(trainer, mu, GroundTruth(mu.alphabet, Echo()),
                                                m, labeler, 0)
            assert len(calls) > 1
            seen = {}
            for k, (codes, lengths) in enumerate(calls):
                if k:
                    lo = next((n for n in range(top + 1)
                               if mu._length_prob(n) > 0 and len(seen.get(n, ())) < q**n),
                              None)
                    assert lo is not None and min(lengths, default=lo) >= lo
                for code, n in zip(codes, lengths):
                    seen.setdefault(n, set()).add(code)


def test_coded_trial_memory_is_bounded_by_what_it_reads():
    # Drawing all 2m training uniforms up front held 16 MB at m = 10^6.
    mu, gt = seven_strings(), GroundTruth(A2, Echo())
    rng = derive_stream(0, 0)
    tracemalloc.start()
    try:
        run_trial(TRAINER, mu, gt, 10**6, Labeler.CANONICAL, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # A 60-trial row at m = 10^6. On seven_strings every trial leaves after
    # the first chunk, whose kept draws are decoded together (2.1 MB). On a
    # law of 4096 strings of length 12 (a seen-table of 8191 entries per
    # trial) a batch takes 8 trials and decodes whenever 2^16 draws are kept
    # (4.8 MB); one batch of all 60 trials that decoded once per chunk held
    # 93 MB.
    wide = (FlrmTrainer(A2, CdfLowerBound((0.0,) * 13 + (1.0,))),
            LengthFactored(A2, (0.0,) * 12 + (1.0,)))
    for (trainer, law), bound in (((TRAINER, mu), 3_000_000), (wide, 8_000_000)):
        tracemalloc.start()
        try:
            (row,) = sweep(trainer, law, gt, [10**6], 60, Labeler.CANONICAL, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert row.mean_hp == 0.0  # every trial fills its table
        assert peak < bound


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64, np.random.Philox])
def test_coded_trial_rejects_streams_it_cannot_read_by_position(bit_generator):
    rng = np.random.Generator(bit_generator(7))
    gt = GroundTruth(A2, Echo())
    with pytest.raises(DomainError, match="derive_stream"):
        run_trial(TRAINER, half_geometric(), gt, 100, Labeler.CANONICAL, rng)
    # Nothing was drawn.
    assert np.array_equal(rng.random(3), np.random.Generator(bit_generator(7)).random(3))
    # In a batch, such a stream anywhere, the last included, stops the row
    # before any of its streams is read.
    for at in range(3):
        rngs = [derive_stream(7, 0, i) for i in range(3)]
        rngs[at] = np.random.Generator(bit_generator(7))
        with pytest.raises(DomainError, match="derive_stream"):
            evaluation._fast_trial(TRAINER, half_geometric(), gt, 100, Labeler.CANONICAL, rngs)
        for i, other in enumerate(rngs):
            fresh = (np.random.Generator(bit_generator(7)) if i == at
                     else derive_stream(7, 0, i))
            assert np.array_equal(other.random(3), fresh.random(3))
    # The object path reads its stream in order and takes any generator.
    a3 = Alphabet(3)
    trainer = FlrmTrainer(a3, HALF_BOUND)
    mu3, gt3 = LengthFactored(a3, (), 0.5), GroundTruth(a3, Echo())
    assert not takes_coded_trial(trainer, mu3, gt3)
    hp = run_trial(trainer, mu3, gt3, 100, Labeler.CANONICAL, rng)
    assert 0.0 <= hp <= 1.0


# -------------------------------------------------------------- experiments


def test_negligibility_reproducible_and_parallel_invariant():
    # The negligibility experiment is a one-point sweep. At m = 10^4 (n̄ = 4)
    # each length-4 string of this law stays unseen with probability about
    # 0.04, so trials differ; on the half-geometric law at m = 50 every
    # trial's exact HP is 0.25.
    mu = never_full()
    gt = GroundTruth(A2, Echo())
    kw = dict(epsilon_h=0.2)
    r1 = sweep(TRAINER, mu, gt, [10_000], 40, Labeler.CANONICAL, 99, **kw)
    r2 = sweep(TRAINER, mu, gt, [10_000], 40, Labeler.CANONICAL, 99, **kw)
    assert r1 == r2
    # seed sensitivity shows up in a continuous statistic
    r5 = sweep(TRAINER, mu, gt, [10_000], 40, Labeler.CANONICAL, 100, **kw)
    assert r1[0].mean_hp != r5[0].mean_hp
    assert r1[0].std_hp > 0.0


def test_negligibility_single_trial_fraction_is_zero_or_one():
    mu = half_geometric()
    gt = GroundTruth(A2, Echo())
    (row,) = sweep(TRAINER, mu, gt, [10], 1, Labeler.CANONICAL, 5)
    assert row.exceed_fraction in (0.0, 1.0)
    assert row.ci_halfwidth == 0.0


@pytest.mark.parametrize("epsilon_h", [-5.0, 7.0, float("nan"), 0.0])
def test_sweep_rejects_epsilon_h_outside_unit_interval(epsilon_h):
    with pytest.raises(DomainError):
        sweep(TRAINER, half_geometric(), GroundTruth(A2, Echo()), [10], 2,
              Labeler.CANONICAL, 5, epsilon_h=epsilon_h)


@pytest.mark.parametrize("m_grid, trials", [([10], 0), ([-1], 2)], ids=["trials", "m"])
@pytest.mark.parametrize("q", [2, 3])  # 2 takes the coded path, 3 the object path
def test_sweep_rejects_bad_trial_sizes_on_both_paths(q, m_grid, trials):
    a = Alphabet(q)
    mu = LengthFactored(a, (), 0.5)
    trainer = FlrmTrainer(a, HALF_BOUND)
    gt = GroundTruth(a, Echo())
    assert takes_coded_trial(trainer, mu, gt) == (q == 2)
    with pytest.raises(DomainError):
        sweep(trainer, mu, gt, m_grid, trials, Labeler.CANONICAL, 5)


def one_instance_per_path():
    """(path, trainer, mu, gt): a coded, an atom and an object instance."""
    a3 = Alphabet(3)
    return [
        ("coded", TRAINER, half_geometric(), GroundTruth(A2, Echo())),
        ("atom", TRAINER, uniform_support((empty_string(A2), s(0))), GroundTruth(A2, Echo())),
        ("object", FlrmTrainer(a3, HALF_BOUND), LengthFactored(a3, (), 0.5),
         GroundTruth(a3, Echo())),
    ]


@pytest.mark.parametrize("labeler", ["uniform_acceptable", "canonical", None])
def test_trials_take_only_a_labeler_on_every_path(labeler, monkeypatch):
    for path, trainer, mu, gt in one_instance_per_path():
        assert evaluation._trial_path(trainer, mu, gt) == path
        assert_rejected_before_any_draw(
            lambda rng: run_trial(trainer, mu, gt, 10, labeler, rng), monkeypatch)
        assert_rejected_before_any_draw(
            lambda rng: sweep(trainer, mu, gt, [10], 2, labeler, 5), monkeypatch)


def test_labeler_check_reads_the_same_everywhere():
    _path, trainer, mu, gt = one_instance_per_path()[0]
    calls = (lambda: generate_qualified(mu, gt, 10, "canonical", derive_stream(0)),
             lambda: run_trial(trainer, mu, gt, 10, "canonical", derive_stream(0)),
             lambda: sweep(trainer, mu, gt, [10], 2, "canonical", 5))
    for call in calls:
        with pytest.raises(DomainError, match="^labeler must be a Labeler, got 'canonical'$"):
            call()


@pytest.mark.parametrize("kwargs", [
    {"m_grid": [100.5]}, {"m_grid": [10, True]}, {"m_grid": [np.int64(10)]},
    {"trials": 2.5}, {"trials": True}, {"budget": 1.5}, {"budget": True},
    {"budget": -1},
], ids=["m-float", "m-bool", "m-numpy", "trials-float", "trials-bool", "budget-float",
        "budget-bool", "budget-negative"])
def test_sweep_takes_only_int_trial_sizes(kwargs, monkeypatch):
    sizes = {"m_grid": [10], "trials": 2, "budget": 10**8, **kwargs}
    for _path, trainer, mu, gt in one_instance_per_path():
        assert_rejected_before_any_draw(
            lambda rng: sweep(trainer, mu, gt, sizes["m_grid"], sizes["trials"],
                              Labeler.CANONICAL, 5, budget=sizes["budget"]), monkeypatch)


def test_trials_that_hold_their_draws_reject_an_m_past_the_draw_cap_before_any_draw(
        monkeypatch):
    # An object or atom trial holds its draws, about 90 bytes each: past
    # DRAW_CAP = 2^23 they would pass 755 MB, and m = 2^59 asked numpy for
    # 4 EiB. The coded trial never holds its draws, so a law that stops at
    # length 2 runs there.
    assert DRAW_CAP == 2**23
    check_draw_count(DRAW_CAP, "m")
    for path, trainer, mu, gt in one_instance_per_path():
        trial = lambda rng: run_trial(trainer, mu, gt, DRAW_CAP + 1, Labeler.CANONICAL, rng)
        row = lambda rng: sweep(trainer, mu, gt, [0, 10**400], 1, Labeler.CANONICAL, 5,
                                budget=10**401)
        if path == "coded":
            with pytest.raises(DomainError, match="must fit a float"):
                row(None)
            continue
        assert_rejected_before_any_draw(trial, monkeypatch)
        assert_rejected_before_any_draw(row, monkeypatch)
        with pytest.raises(DomainError, match=rf"m_grid\[1\] must be at most {DRAW_CAP}, "):
            row(None)
    # train-eval's case: the README law at q = 3, m = 2^59 within a budget of 2^60.
    _path, _trainer, mu, gt = one_instance_per_path()[2]
    assert_rejected_before_any_draw(
        lambda rng: generate_qualified(mu, gt, 2**59, Labeler.UNIFORM_ACCEPTABLE, rng),
        monkeypatch, match="^m must be at most 8388608, the most draws one trial holds; "
                           "got 576460752303423488$")
    gt = GroundTruth(A2, Echo())
    assert run_trial(TRAINER, seven_strings(), gt, 2**60, Labeler.CANONICAL,
                     derive_stream(0, 0)) == 0.0
    assert sweep(TRAINER, seven_strings(), gt, [2**60], 2, Labeler.CANONICAL, 5,
                 budget=2**62)[0].mean_hp == 0.0


def test_a_coded_seen_table_past_its_cap_is_rejected_before_any_stream(monkeypatch):
    # README law at m = 10^20 (inside a budget of 10^21): the seen-table
    # would cover every length the law samples, count_upto(29) = 2^30 - 1
    # entries, and its int64 counts 8 GiB. The whole grid is checked first.
    _path, trainer, mu, gt = one_instance_per_path()[0]
    width = count_upto(A2, 29)
    assert count_upto(A2, evaluation._coded_top(trainer, mu, 10**20)[1]) == width
    words = (f"must give a coded trial a seen-table of at most {evaluation.CODED_TABLE_CAP} "
             f"entries, the most one holds; got {width}$")
    assert_rejected_before_any_draw(
        lambda rng: run_trial(trainer, mu, gt, 10**20, Labeler.CANONICAL, rng), monkeypatch,
        match="^m " + words)
    assert_rejected_before_any_draw(
        lambda rng: sweep(trainer, mu, gt, [10, 10**20], 1, Labeler.CANONICAL, 5,
                          budget=10**21), monkeypatch, match=r"^m_grid\[1\] " + words)
    # The cap admits a table of exactly its size.
    width = count_upto(A2, evaluation._coded_top(trainer, mu, 1000)[1])
    expected = sweep(trainer, mu, gt, [1000], 2, Labeler.CANONICAL, 5)
    monkeypatch.setattr(evaluation, "CODED_TABLE_CAP", width)
    assert sweep(trainer, mu, gt, [1000], 2, Labeler.CANONICAL, 5) == expected
    monkeypatch.setattr(evaluation, "CODED_TABLE_CAP", width - 1)
    assert_rejected_before_any_draw(
        lambda rng: run_trial(trainer, mu, gt, 1000, Labeler.CANONICAL, rng), monkeypatch,
        match=f"most {width - 1} entries, the most one holds; got {width}$")


def test_sweep_derives_an_object_or_atom_row_in_bounded_groups(monkeypatch):
    # _STREAM_GROUP streams at a time, here 3: a 7-trial row derives 3 + 3 + 1,
    # and the rows are those of the unpatched sweep.
    groups = []
    derive = evaluation.derive_streams

    def spy(seed, head, indices):
        groups.append((head, list(indices)))
        return derive(seed, head, indices)

    for path, trainer, mu, gt in one_instance_per_path():
        if path == "coded":
            continue
        expected = sweep(trainer, mu, gt, [5, 20], 7, Labeler.CANONICAL, 9)
        groups.clear()
        with monkeypatch.context() as patch:
            patch.setattr(evaluation, "derive_streams", spy)
            patch.setattr(evaluation, "_STREAM_GROUP", 3)
            assert sweep(trainer, mu, gt, [5, 20], 7, Labeler.CANONICAL, 9) == expected
        assert groups == [((row,), first) for row in (0, 1)
                          for first in ([0, 1, 2], [3, 4, 5], [6])]


@pytest.mark.parametrize("m", [10.5, True, np.int64(10)], ids=["float", "bool", "numpy"])
def test_run_trial_takes_only_an_int_m(m, monkeypatch):
    for _path, trainer, mu, gt in one_instance_per_path():
        assert_rejected_before_any_draw(
            lambda rng: run_trial(trainer, mu, gt, m, Labeler.CANONICAL, rng), monkeypatch)


def sized_entry_points(size):
    """name -> call(rng) of each library entry point that takes a sample
    size, on a length-factored and on a finite law."""
    gt = GroundTruth(A2, Echo())
    calls = {"threshold_length": lambda rng: threshold_length(size, A2, HALF_BOUND)}
    for law, mu in (("length_factored", half_geometric()),
                    ("finite", uniform_support((empty_string(A2), s(0), s(1, 1))))):
        calls.update({
            f"generate_qualified-{law}":
                lambda rng, mu=mu: generate_qualified(mu, gt, size, Labeler.CANONICAL, rng),
            f"mc_hp-{law}": lambda rng, mu=mu: mc_hp(MemorizerModel(A2), mu, gt, size, 0.95, rng),
            f"sample_distinct-{law}": lambda rng, mu=mu: mu.sample_distinct(rng, size),
            f"sample_batch-{law}": lambda rng, mu=mu: mu.sample_batch(rng, size),
        })
    return calls


@pytest.mark.parametrize("size", [10.5, True, -1, np.int64(10)],
                         ids=["float", "bool", "negative", "numpy"])
@pytest.mark.parametrize("entry", list(sized_entry_points(1)))
def test_sized_entry_points_take_only_an_int_size_before_any_draw(entry, size, monkeypatch):
    assert_rejected_before_any_draw(sized_entry_points(size)[entry], monkeypatch)


def test_generate_qualified_takes_only_a_labeler_before_any_draw(monkeypatch):
    for mu in (half_geometric(), uniform_support((empty_string(A2), s(0)))):
        assert_rejected_before_any_draw(
            lambda rng: generate_qualified(mu, GroundTruth(A2, Echo()), 10, "canonical", rng),
            monkeypatch)


def test_sweep_checks_its_budget_before_any_draw(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a stream was derived before the budget check")

    gt = GroundTruth(A2, Echo())
    with monkeypatch.context() as patch:
        patch.setattr(evaluation, "derive_stream", refuse)
        patch.setattr(evaluation, "derive_streams", refuse)
        # trials * sum(m + 1): 1 * (10^30 + 1), then 2 * (4 + 6) = 20
        with pytest.raises(BudgetExceeded, match="over the budget of 100000000"):
            sweep(TRAINER, half_geometric(), gt, [10**30], 1, Labeler.CANONICAL, 5)
        with pytest.raises(BudgetExceeded) as exc:
            sweep(TRAINER, half_geometric(), gt, [3, 5], 2, Labeler.CANONICAL, 5, budget=19)
        assert (exc.value.required, exc.value.budget) == (20, 19)
    assert len(sweep(TRAINER, half_geometric(), gt, [3, 5], 2, Labeler.CANONICAL, 5,
                     budget=20)) == 2


def test_sweep_rows_and_determinism():
    mu = half_geometric()
    gt = GroundTruth(A2, Echo())
    rows = sweep(TRAINER, mu, gt, [10, 100, 1000], 8, Labeler.CANONICAL, 42)
    again = sweep(TRAINER, mu, gt, [10, 100, 1000], 8, Labeler.CANONICAL, 42)
    assert rows == again
    assert [r.m for r in rows] == [10, 100, 1000]
    assert all(r.trials == 8 and r.seed == 42 for r in rows)
    # more data, lower hallucination rate on this instance
    assert rows[2].mean_hp < rows[0].mean_hp


def test_sweep_single_point_m_zero():
    mu = half_geometric()
    gt = GroundTruth(A2, Echo())
    rows = sweep(TRAINER, mu, gt, [0], 3, Labeler.CANONICAL, 4)
    assert len(rows) == 1 and rows[0].m == 0


def test_sweep_rejects_empty_grid():
    with pytest.raises(DomainError):
        sweep(TRAINER, half_geometric(), GroundTruth(A2, Echo()), [], 3,
              Labeler.CANONICAL, 4)


def test_sweep_csv_shape_and_bytes():
    mu = half_geometric()
    gt = GroundTruth(A2, Echo())
    rows = sweep(TRAINER, mu, gt, [10, 20], 4, Labeler.CANONICAL, 7)
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


def test_trial_results_do_not_depend_on_thread_count(tmp_path):
    # --threads is accepted but trials run in one thread: the bytes match.
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "alphabet": {"size": 2},
        "cdf_bound": {"table": [0.5], "tail": {"kind": "geometric", "ratio": 0.5}},
        "mu": {"kind": "length_factored", "length_probs": [], "tail_ratio": 0.5},
        "ground_truth": {"default": {"kind": "index_shift", "shift": 1}},
        "m_grid": [25, 50],
        "trials": 12,
    }))
    outs = []
    for threads in (1, 3):
        out = tmp_path / f"{threads}.csv"
        argv = ["sweep", "--config", str(config), "--seed", "11", "--threads", str(threads)]
        assert cli_main(argv + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ------------------------------------------------------------- diagnostics


def test_unmemorized_mass_lower_bound():
    mu = half_geometric()
    model = MemorizerModel(A2, {}, 3)
    assert unmemorized_mass_lower_bound(model, mu) == 0.5**4
    empty_model = train(TrainingSequence(()), A2, HALF_BOUND)
    assert unmemorized_mass_lower_bound(empty_model, mu) == 1.0
    # 1 - length_cdf(60) cancels to 0.0 here; the mass left out is 2^-61.
    assert unmemorized_mass_lower_bound(MemorizerModel(A2, {}, 60), mu) == 0.5**61 > 0.0
    finite = FiniteSupport(((s(), Fraction(1, 3)), (s(0, 1), Fraction(2, 3))))
    assert unmemorized_mass_lower_bound(MemorizerModel(A2, rank_table({s(): s()}), 1),
                                        finite) == 2 / 3
