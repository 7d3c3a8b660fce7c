import copy
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hallustat.cli as cli
from hallustat import core, evaluation
from hallustat.limits import NflReport, TailCheck


HALF_BOUND_DOC = {"table": [0.5], "tail": {"kind": "geometric", "ratio": 0.5}}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv):
    return cli.main(argv)


# ------------------------------------------------------------------- bounds


def test_bounds_reference_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "alphabet": {"size": 2},
        "cdf_bound": HALF_BOUND_DOC,
        "epsilon_h": 0.1,
        "epsilon_t": 0.1,
    })
    assert run(["bounds", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool"]["name"] == "hallustat"
    assert doc["seed"] == 0
    assert doc["config"]["epsilon_h"] == 0.1
    assert doc["sufficiency"]["n_bar"] == 4
    assert doc["sufficiency"]["m_bar"] == 6389
    assert doc["necessity"]["n_lower"] == 0
    assert doc["necessity"]["m_lower"] == 2


def test_bounds_missing_field_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "alphabet": {"size": 2},
        "cdf_bound": HALF_BOUND_DOC,
        "epsilon_t": 0.1,
    })
    assert run(["bounds", "--config", cfg]) == 2
    assert "epsilon_h" in capsys.readouterr().err


def test_bounds_zero_epsilon_exit_3(tmp_path):
    cfg = write_cfg(tmp_path, {
        "alphabet": {"size": 2},
        "cdf_bound": HALF_BOUND_DOC,
        "epsilon_h": 0.0,
        "epsilon_t": 0.1,
    })
    assert run(["bounds", "--config", cfg]) == 3


@pytest.mark.parametrize("epsilon_h, words", [
    (1e-200, "the sample-size formula at length 665 is past the float range"),
    (5e-324, "half of epsilon 5e-324 rounds to 0.0"),
], ids=["m_bar-past-float", "half-epsilon-zero"])
def test_bounds_out_of_float_range_exit_3(tmp_path, capsys, epsilon_h, words):
    cfg = write_cfg(tmp_path, {
        "alphabet": {"size": 2},
        "cdf_bound": HALF_BOUND_DOC,
        "epsilon_h": epsilon_h,
        "epsilon_t": 0.1,
    })
    assert run(["bounds", "--config", cfg]) == 3
    assert words in capsys.readouterr().err


def test_bounds_non_numeric_epsilon_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "alphabet": {"size": 2},
        "cdf_bound": HALF_BOUND_DOC,
        "epsilon_h": "x",
        "epsilon_t": 0.1,
    })
    assert run(["bounds", "--config", cfg]) == 2
    assert "epsilon_h" in capsys.readouterr().err


def test_unreadable_or_invalid_config_exit_2(tmp_path):
    assert run(["bounds", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["bounds", "--config", str(bad)]) == 2
    nonobj = tmp_path / "arr.json"
    nonobj.write_text("[1,2]")
    assert run(["bounds", "--config", str(nonobj)]) == 2
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"alphabet": "\xe9"}')
    assert run(["bounds", "--config", str(not_utf8)]) == 2
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"m": ' + "9" * 5000 + "}")
    assert run(["bounds", "--config", str(long_int)]) == 2


@pytest.mark.parametrize("command", ["bounds", "train-eval", "sweep", "nfl-verify",
                                     "diagonalize", "typical-set"])
def test_deeply_nested_config_exit_2(tmp_path, capsys, command):
    # json.load raises RecursionError past the interpreter's stack limit.
    deep = "[" * 100_000 + "]" * 100_000
    for text in (deep, '{"alphabet": ' + deep + "}"):
        cfg = tmp_path / "deep.json"
        cfg.write_text(text)
        assert run([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "nested too deeply" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [
    ("epsilon_h", "0.5"),
    ("epsilon_t", "1e-1"),
    ("epsilon_h", 10**400),
    ("cdf_bound", {"table": ["0.5"], "tail": {"kind": "geometric", "ratio": 0.5}}),
    ("cdf_bound", {"table": [10**400], "tail": {"kind": "geometric", "ratio": 0.5}}),
    ("cdf_bound", {"table": [0.5], "tail": {"kind": "geometric", "ratio": "0.5"}}),
], ids=["epsilon_h-numeric-text", "epsilon_t-numeric-text", "epsilon_h-huge-int",
        "cdf_bound-table-numeric-text", "cdf_bound-table-huge-int",
        "cdf_bound-ratio-numeric-text"])
def test_bounds_bad_number_exit_2(tmp_path, capsys, field, value):
    doc = {"alphabet": {"size": 2}, "cdf_bound": HALF_BOUND_DOC,
           "epsilon_h": 0.1, "epsilon_t": 0.1}
    doc[field] = value
    assert run(["bounds", "--config", write_cfg(tmp_path, doc)]) == 2
    assert field in capsys.readouterr().err


def test_negative_seed_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, {
        "alphabet": {"size": 2},
        "cdf_bound": HALF_BOUND_DOC,
        "epsilon_h": 0.1,
        "epsilon_t": 0.1,
    })
    assert run(["bounds", "--config", cfg, "--seed", "-1"]) == 2


@pytest.mark.parametrize("flags", [["--seed", str(2**64)], ["--threads", "0"]],
                         ids=["seed-2^64", "threads-0"])
def test_out_of_range_flag_exit_2(tmp_path, capsys, flags):
    cfg = write_cfg(tmp_path, {"pmf": [0.5, 0.5], "m": 3, "delta": 0.1})
    assert run(["typical-set", "--config", cfg] + flags) == 2
    assert flags[0][2:] in capsys.readouterr().err


def test_budget_flag_is_gone(tmp_path, capsys):
    # a budget outside the config would not be replayed from the artifact
    cfg = write_cfg(tmp_path, {"pmf": [0.5, 0.5], "m": 24, "delta": 0.05})
    with pytest.raises(SystemExit) as exc:
        run(["typical-set", "--config", cfg, "--budget", str(2**24)])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


# --------------------------------------------------------------- train-eval


def train_eval_cfg():
    return {
        "alphabet": {"size": 2},
        "cdf_bound": HALF_BOUND_DOC,
        "mu": {"kind": "uniform_set", "members": [[], [0], [1], [0, 0]]},
        "ground_truth": {"default": {"kind": "echo"}},
        "m": 50,
    }


def test_train_eval_exact_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, train_eval_cfg())
    assert run(["train-eval", "--config", cfg, "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"]["threshold"] == 1
    memorized = [tuple(e["s"]) for e in doc["model"]["table"]]
    assert memorized == [(), (0,), (1,)]
    assert doc["report"]["method"] == "exact"
    assert doc["report"]["exact"] == {"num": 1, "den": 4}


def test_train_eval_closed_form_on_infinite_support(tmp_path, capsys):
    doc = train_eval_cfg()
    doc["mu"] = {"kind": "length_factored", "length_probs": [], "tail_ratio": 0.5}
    cfg = write_cfg(tmp_path, doc)
    assert run(["train-eval", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    # m = 50 memorizes "", "0" and "1" (n̄ = 1): every string of length >= 2
    # is wrong, mass 1/4. The law's masses are floats, so no fraction.
    assert out["report"] == {"estimate": 0.25, "method": "exact", "exact": None}


def test_train_eval_finite_atoms_config(tmp_path, capsys):
    doc = train_eval_cfg()
    doc["mu"] = {"kind": "finite", "atoms": [
        {"s": [], "prob": "1/2"},
        {"s": [0], "prob": {"num": 1, "den": 4}},
        {"s": [1], "prob": "1/4"},
    ]}
    doc["m"] = 0
    cfg = write_cfg(tmp_path, doc)
    assert run(["train-eval", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["exact"] == {"num": 1, "den": 2}  # empty model echoes only ""


def test_train_eval_bad_labeler_exit_2(tmp_path):
    doc = train_eval_cfg()
    doc["labeler"] = "most_frequent"
    cfg = write_cfg(tmp_path, doc)
    assert run(["train-eval", "--config", cfg]) == 2


@pytest.mark.parametrize("field, raw", [
    ("mc_samples", "10000"), ("mc_samples", "0"), ("mc_samples", '"x"'),
    ("confidence", "0.95"), ("confidence", "5"), ("confidence", "NaN"),
], ids=["mc_samples-old-default", "mc_samples-zero", "mc_samples-text",
        "confidence-old-default", "confidence-5", "confidence-NaN"])
@pytest.mark.parametrize("command", ["train-eval", "sweep"])
def test_removed_monte_carlo_field_exit_2_before_any_draw(tmp_path, capsys, monkeypatch,
                                                          command, field, raw):
    def refuse(*args, **kwargs):
        raise AssertionError("a draw was made before the config was checked")

    monkeypatch.setattr(cli, "generate_qualified", refuse)
    monkeypatch.setattr(cli, "sweep", refuse)
    doc = train_eval_cfg() if command == "train-eval" else sweep_cfg()
    # spliced into the JSON text, so NaN is written as the bare token; a value
    # the removed field used to accept fails as well
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc)[:-1] + f', "{field}": {raw}}}')
    assert run([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config field {field!r} was removed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value, path", [
    ("mu", {"kind": "length_factored", "length_probs": ["x"], "tail_ratio": 0.5},
     "mu.length_probs[0]"),
    ("mu", {"kind": "length_factored", "length_probs": ["0.5"], "tail_ratio": 0.5},
     "mu.length_probs[0]"),
    ("mu", {"kind": "length_factored", "length_probs": [], "tail_ratio": "x"}, "mu.tail_ratio"),
    ("mu", {"kind": "length_factored", "length_probs": [], "tail_ratio": "0.5"}, "mu.tail_ratio"),
    ("mu", {"kind": "finite", "atoms": [{"s": []}]}, "mu.atoms[0].prob"),
    ("ground_truth", {"default": {"kind": "index_shift", "shift": "x"}},
     "ground_truth.default.shift"),
    ("ground_truth", {"default": {"kind": "echo"}, "overrides": [{"s": [0]}]},
     "ground_truth.overrides[0].accept"),
    ("ground_truth", {"default": {"kind": "echo"}, "overrides": [{"s": [0], "accept": 3}]},
     "ground_truth.overrides[0].accept"),
    ("ground_truth", {"default": {"kind": "echo"}, "overrides": 5}, "ground_truth.overrides"),
    ("mu", {"kind": "uniform_set", "members": [[], [1.5]]}, "mu.members[1]"),
    ("mu", {"kind": "uniform_set", "members": [[], ["0"]]}, "mu.members[1]"),
    ("mu", {"kind": "uniform_set", "members": [[], [True, 0]]}, "mu.members[1]"),
    ("mu", {"kind": "uniform_set", "members": ["01"]}, "mu.members[0]"),
    ("mu", {"kind": "uniform_set", "members": [[0], [1, 1], [0, 2]]}, "mu.members[2]"),
    ("mu", {"kind": "uniform_set", "members": [[], [0, 10**30]]}, "mu.members[1]"),
    ("mu", {"kind": "finite", "atoms": [{"s": [1.5], "prob": 1}]}, "mu.atoms[0].s"),
    ("mu", {"kind": "finite", "atoms": [{"s": [0], "prob": "1/2"}, {"s": [-1], "prob": "1/2"}]},
     "mu.atoms[1].s"),
    ("ground_truth", {"default": {"kind": "echo"},
                      "overrides": [{"s": ["0"], "accept": [[0]]}]},
     "ground_truth.overrides[0].s"),
    ("ground_truth", {"default": {"kind": "echo"},
                      "overrides": [{"s": [0], "accept": [[True]]}]},
     "ground_truth.overrides[0].accept[0]"),
    ("ground_truth", {"default": {"kind": "constant", "output": [1.0]}},
     "ground_truth.default.output"),
    ("mu", {"kind": "finite", "atoms": [{"s": [], "prob": float("inf")}]}, "mu.atoms[0].prob"),
    ("mu", {"kind": "finite", "atoms": [{"s": [], "prob": -float("inf")}]}, "mu.atoms[0].prob"),
    ("mu", {"kind": "finite", "atoms": [{"s": [], "prob": {"num": float("inf"), "den": 2}}]},
     "mu.atoms[0].prob.num"),
    # each read as 1/2 once, which with the second atom made a valid law
    ("mu", {"kind": "finite", "atoms": [{"s": [], "prob": {"num": 1.9, "den": 2}},
                                        {"s": [0], "prob": "1/2"}]}, "mu.atoms[0].prob.num"),
    ("mu", {"kind": "finite", "atoms": [{"s": [], "prob": {"num": 1, "den": 2.7}},
                                        {"s": [0], "prob": "1/2"}]}, "mu.atoms[0].prob.den"),
    ("mu", {"kind": "finite", "atoms": [{"s": [], "prob": {"num": True, "den": 2}},
                                        {"s": [0], "prob": "1/2"}]}, "mu.atoms[0].prob.num"),
    # a denominator of 5001 digits, past json's limit for a config integer
    ("mu", {"kind": "finite", "atoms": [{"s": [], "prob": "1e-5000"}]}, "mu.atoms[0].prob"),
], ids=["mu-length_probs", "mu-length_probs-numeric-text", "mu-tail_ratio",
        "mu-tail_ratio-numeric-text",
        "mu-atom-without-prob", "ground_truth-shift-text",
        "ground_truth-override-without-accept", "ground_truth-accept-scalar",
        "ground_truth-overrides-scalar", "mu-member-fraction", "mu-member-text",
        "mu-member-bool", "mu-member-string", "mu-member-symbol-outside",
        "mu-member-symbol-past-int64", "mu-atom-fraction", "mu-atom-symbol-negative",
        "ground_truth-override-text", "ground_truth-accept-bool",
        "ground_truth-constant-float", "mu-atom-prob-inf", "mu-atom-prob-minus-inf",
        "mu-atom-prob-num-inf", "mu-atom-prob-num-float", "mu-atom-prob-den-float",
        "mu-atom-prob-num-bool", "mu-atom-prob-exponent-digits"])
def test_train_eval_bad_field_exit_2(tmp_path, capsys, field, value, path):
    doc = train_eval_cfg()
    doc["mu"] = {"kind": "length_factored", "length_probs": [], "tail_ratio": 0.5}
    doc[field] = value
    cfg = write_cfg(tmp_path, doc)
    assert run(["train-eval", "--config", cfg]) == 2
    err = capsys.readouterr().err
    # the full path, not a prefix of a longer one: mu.atoms[0].prob, not .prob.num
    assert re.search(re.escape(path) + r"(?![\w.\[])", err), err


@pytest.mark.parametrize("spec, message", [
    ({"kind": "uniform_set", "members": [[], [0], [0]]}, "mu.members[2] repeats mu.members[1]"),
    ({"kind": "uniform_set", "members": [[1] * 64, [0], [1] * 64, [0]]},
     "mu.members[2] repeats mu.members[0]"),
    ({"kind": "finite", "atoms": [{"s": [0, 1], "prob": "1/2"}, {"s": [], "prob": 0},
                                  {"s": [0, 1], "prob": "1/2"}]},
     "mu.atoms[2].s repeats mu.atoms[0].s"),
], ids=["member", "member-past-2^62", "atom"])
def test_train_eval_repeated_atom_exit_3_names_both_fields(tmp_path, capsys, spec, message):
    doc = train_eval_cfg()
    doc["mu"] = spec
    assert run(["train-eval", "--config", write_cfg(tmp_path, doc)]) == 3
    assert capsys.readouterr().err.rstrip().endswith(message)


# -------------------------------------------------------------------- sweep


def sweep_cfg():
    return {
        "alphabet": {"size": 2},
        "cdf_bound": HALF_BOUND_DOC,
        "mu": {"kind": "length_factored", "length_probs": [], "tail_ratio": 0.5},
        "ground_truth": {"default": {"kind": "echo"}},
        "m_grid": [10, 100, 1000],
        "trials": 4,
    }


def test_sweep_rows_and_byte_determinism(tmp_path):
    cfg = write_cfg(tmp_path, sweep_cfg())
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run(["sweep", "--config", cfg, "--seed", "42", "--out", out1]) == 0
    assert run(["sweep", "--config", cfg, "--seed", "42", "--out", out2]) == 0
    b1 = Path(out1).read_bytes()
    assert b1 == Path(out2).read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0].startswith("# tool: hallustat ")
    assert lines[1] == "# seed: 42"
    assert lines[2].startswith("# config: {")
    assert lines[3] == "m,trials,mean_hp,std_hp,exceed_fraction,ci_halfwidth,seed"
    assert len(lines) == 4 + 3  # one data row per grid point
    assert [row.split(",")[0] for row in lines[4:]] == ["10", "100", "1000"]


def test_sweep_seed_changes_bytes(tmp_path):
    cfg = write_cfg(tmp_path, sweep_cfg())
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run(["sweep", "--config", cfg, "--seed", "1", "--out", out1]) == 0
    assert run(["sweep", "--config", cfg, "--seed", "2", "--out", out2]) == 0
    assert Path(out1).read_bytes() != Path(out2).read_bytes()


def test_sweep_domination_failure_exit_4(tmp_path, capsys):
    doc = sweep_cfg()
    doc["cdf_bound"] = {"table": [0.9], "tail": {"kind": "geometric", "ratio": 0.5}}
    cfg = write_cfg(tmp_path, doc)
    assert run(["sweep", "--config", cfg]) == 4
    assert "does not dominate" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["-5", "7", "NaN", "0"])
def test_sweep_epsilon_outside_unit_interval_exit_3(tmp_path, capsys, raw):
    # spliced into the JSON text, so NaN is written as the bare token
    text = json.dumps(sweep_cfg())[:-1] + f', "epsilon_h": {raw}}}'
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert run(["sweep", "--config", str(path)]) == 3
    assert "epsilon_h" in capsys.readouterr().err


def test_sweep_m_past_the_float_range_exit_3(tmp_path, capsys):
    # a budget that admits m = 10^400: the coded row's threshold rejects it
    doc = sweep_cfg() | {"m_grid": [10**400], "trials": 1, "budget": 10**401}
    assert run(["sweep", "--config", write_cfg(tmp_path, doc)]) == 3
    assert "m must fit a float" in capsys.readouterr().err


def test_sweep_nan_length_probability_exit_3(tmp_path, capsys):
    text = json.dumps(sweep_cfg()).replace(
        '"length_probs": []', '"length_probs": [0.5, 0.25, NaN]')
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert run(["sweep", "--config", str(path)]) == 3
    assert "length probability" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("epsilon_h", "x"),
    ("epsilon_h", "0.5"),
    ("epsilon_h", 10**400),
    ("m_grid", [-3]),
    ("m_grid", 5),
    ("m_grid", [1.5]),
    ("cdf_bound", {"table": ["x"], "tail": {"kind": "geometric", "ratio": 0.5}}),
    ("cdf_bound", {"table": ["0.5"], "tail": {"kind": "geometric", "ratio": 0.5}}),
    ("cdf_bound", {"table": [10**400], "tail": {"kind": "geometric", "ratio": 0.5}}),
    ("cdf_bound", {"table": [0.5], "tail": {"kind": "geometric", "ratio": "x"}}),
    ("cdf_bound", {"table": [0.5], "tail": {"kind": "geometric", "ratio": "1e-1"}}),
    ("mu", {"kind": "length_factored", "length_probs": ["0.5"], "tail_ratio": 0.5}),
    ("mu", {"kind": "length_factored", "length_probs": [], "tail_ratio": "0.5"}),
    ("alphabet", {"size": 2.9}),
    ("alphabet", {"size": "3"}),
    ("alphabet", {"size": True}),
    ("alphabet", {"size": 2, "labels": "ab"}),
    ("alphabet", {"size": 2, "labels": ["a", 1]}),
], ids=["epsilon_h-text",
        "epsilon_h-numeric-text", "epsilon_h-huge-int",
        "m_grid-negative", "m_grid-scalar", "m_grid-fraction",
        "cdf_bound-table-text", "cdf_bound-table-numeric-text", "cdf_bound-table-huge-int",
        "cdf_bound-ratio-text", "cdf_bound-ratio-numeric-text",
        "mu-length_probs-numeric-text", "mu-tail_ratio-numeric-text",
        "alphabet-size-fraction", "alphabet-size-text", "alphabet-size-bool",
        "alphabet-labels-text", "alphabet-labels-number"])
def test_sweep_bad_field_exit_2(tmp_path, capsys, field, value):
    doc = sweep_cfg()
    doc[field] = value
    cfg = write_cfg(tmp_path, doc)
    assert run(["sweep", "--config", cfg]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("size", [1, -1])
def test_sweep_alphabet_size_below_two_exit_3(tmp_path, capsys, size):
    doc = sweep_cfg()
    doc["alphabet"] = {"size": size}
    assert run(["sweep", "--config", write_cfg(tmp_path, doc)]) == 3
    assert "alphabet size" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("sweep_*.csv")))
def test_sweep_matches_committed_artifact(tmp_path, name):
    # Each file holds the bytes an earlier version wrote: the README sweep,
    # CI's zero-mass sweep under the uniform labeler, a law whose trials
    # leave a batch at different chunks, a uniform_set of all 1023 binary
    # strings of length <= 9 in a fixed shuffle, a finite law with unequal
    # masses, a trailing zero-mass atom and an atom of length 64 (shortlex
    # rank past 2^62), and a uniform_set with members of lengths 61 to 64 and
    # overrides on two of the long ones, [1]*64 and [0]*63 (its m = 0 row
    # reads 7/9 only if the override on [1]*64 is found by its rank), all at
    # seed 0. The files named *_seed2p64m5 are at seed 2^64 - 5, two 32-bit
    # words: the README law at q = 2 with 200 trials at the m where length 1
    # may stay unseen (coded rows) and at q = 3 (object rows), CI's zero-mass
    # law at q = 3 (object rows, length 2 stays open) and CI's finite law
    # (atom rows). The run is replayed from the seed and config in its own
    # header.
    golden = (GOLDEN / name).read_bytes()
    header = dict(line[2:].split(": ", 1) for line in golden.decode().splitlines()
                  if line.startswith("# "))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(header["config"])
    out = tmp_path / "out.csv"
    assert run(["sweep", "--config", str(cfg), "--seed", header["seed"], "--out", str(out)]) == 0
    assert out.read_bytes() == golden


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("train_eval_*.json")))
def test_train_eval_matches_committed_artifact(tmp_path, name):
    # The train-eval reports on the laws of sweep_finite_long_atom_seed0.csv
    # and sweep_long_overrides_seed0.csv, and on the README law at q = 3
    # under the uniform labeler with an override inside n̄ = 2 and one past
    # it (the closed-form sum over a memorizer's table), replayed from the
    # seed and config each embeds.
    golden = (GOLDEN / name).read_bytes()
    doc = json.loads(golden)
    cfg = write_cfg(tmp_path, doc["config"])
    out = tmp_path / "out.json"
    assert run(["train-eval", "--config", cfg, "--seed", str(doc["seed"]), "--out", str(out)]) == 0
    assert out.read_bytes() == golden


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("nfl_verify_*.json")))
def test_nfl_verify_matches_committed_artifact(tmp_path, name):
    # CI's 8/2/4 memorize_constant instance, a 10/2/5 one (12 584 learner
    # calls), an flrm learner that memorizes the domain strings of length
    # <= 1 under a non-default lambda_h_grid, and 130 codomain strings over 2
    # domain strings (label codes past 127), replayed from the seed and
    # config each embeds.
    golden = (GOLDEN / name).read_bytes()
    doc = json.loads(golden)
    cfg = write_cfg(tmp_path, doc["config"])
    out = tmp_path / "out.json"
    assert run(["nfl-verify", "--config", cfg, "--seed", str(doc["seed"]), "--out", str(out)]) == 0
    assert out.read_bytes() == golden


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("diagonalize_*.csv")))
def test_diagonalize_matches_committed_artifact(tmp_path, name):
    # The benchmark's diag op, 200 random table models over 600 binary
    # strings, CI's 50 models with 5 entries of length <= 4 over 400
    # ternary strings, and CI's 700 models over 300 binary strings (K = H =
    # 300 models built), replayed from the seed and config in each preamble.
    # The exit status is verify_diagonal's verdict on the construction, so
    # each replay must also exit 0.
    golden = (GOLDEN / name).read_bytes()
    header = dict(line[2:].split(": ", 1) for line in golden.decode().splitlines()
                  if line.startswith("# "))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(header["config"])
    out = tmp_path / "out.csv"
    assert run(["diagonalize", "--config", str(cfg), "--seed", header["seed"],
                "--out", str(out)]) == 0
    assert out.read_bytes() == golden


@pytest.mark.parametrize("command, fields", [
    ("sweep", {"m_grid": [10**30]}),
    ("sweep", {"trials": 1, "m_grid": [10**8]}),  # m + 1 is one past the default
    ("sweep", {"trials": 10**7, "m_grid": [10]}),
    ("sweep", {"trials": 10**8 + 1, "m_grid": [0]}),  # a trial costs one even at m = 0
    ("sweep", {"trials": 2, "m_grid": [3, 5], "budget": 19}),
    ("train-eval", {"m": 10**30}),
    ("train-eval", {"m": 10**8}),
    ("train-eval", {"m": 50, "budget": 50}),
], ids=["sweep-huge-m", "sweep-m-at-budget", "sweep-many-trials", "sweep-many-trials-at-m-0",
        "sweep-budget-in-config", "train-eval-huge-m", "train-eval-m-at-budget",
        "train-eval-budget-in-config"])
def test_sweep_and_train_eval_over_budget_exit_5_before_any_draw(tmp_path, capsys, monkeypatch,
                                                                 command, fields):
    def refuse(*args, **kwargs):
        raise AssertionError("a stream was derived before the budget check")

    # Every name a stream is derived through: train-eval's, and the batch
    # derivation each sweep row calls.
    monkeypatch.setattr(cli, "derive_stream", refuse)
    monkeypatch.setattr(evaluation, "derive_stream", refuse)
    monkeypatch.setattr(evaluation, "derive_streams", refuse)
    doc = train_eval_cfg() if command == "train-eval" else sweep_cfg()
    doc.update(fields)
    out = tmp_path / "out"
    assert run([command, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 5
    assert "over the budget of" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, fields", [
    ("sweep", {"alphabet": {"size": 3}, "m_grid": [10, 10**400], "trials": 1}),
    ("sweep", {"mu": train_eval_cfg()["mu"], "cdf_bound": {"table": [0.25, 0.5], "tail": {
        "kind": "one_at_n"}}, "m_grid": [10, 10**400], "trials": 1}),
    ("train-eval", {"alphabet": {"size": 3}, "mu": sweep_cfg()["mu"], "m": 10**400}),
    ("train-eval", {"alphabet": {"size": 3}, "mu": sweep_cfg()["mu"], "m": 2**59}),
], ids=["sweep-object", "sweep-atom", "train-eval", "train-eval-2^59"])
def test_an_m_numpy_cannot_allocate_exits_3_before_any_draw(tmp_path, capsys, monkeypatch,
                                                             command, fields):
    # Within the budget, but past DRAW_CAP, the most draws one trial holds:
    # the README law at q = 3 (object path) and a uniform_set (atom path).
    # At m = 2^59 numpy was once asked for 4 EiB.
    # A sweep checks its grid before it derives a stream; train-eval's
    # stream is never read.
    class Unread:
        def __getattr__(self, name):
            raise AssertionError("the stream was read before m was checked")

    def refuse(*args, **kwargs):
        raise AssertionError("a stream was derived before m was checked")

    monkeypatch.setattr(cli, "derive_stream", lambda *branch: Unread())
    monkeypatch.setattr(evaluation, "derive_streams", refuse)
    doc = train_eval_cfg() if command == "train-eval" else sweep_cfg()
    doc.update(fields, budget=10**401)
    out = tmp_path / "out"
    assert run([command, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 3
    assert "must be at most 8388608, the most draws one trial holds" in capsys.readouterr().err
    assert not out.exists()


def test_a_coded_sweep_whose_seen_table_cannot_be_held_exits_3_before_any_draw(
        tmp_path, capsys, monkeypatch):
    # The README law at m = 10^20, inside a budget of 10^21, takes the coded
    # path, whose seen-table would hold 2^30 - 1 entries: exit 3 before any
    # stream is derived, with no traceback and no artifact.
    def refuse(*args, **kwargs):
        raise AssertionError("a stream was derived before the seen-table was charged")

    monkeypatch.setattr(evaluation, "derive_streams", refuse)
    doc = sweep_cfg()
    doc.update(m_grid=[10**20], trials=1, budget=10**21)
    out = tmp_path / "out"
    assert run(["sweep", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "m_grid[0] must give a coded trial a seen-table of at most" in err
    assert "got 1073741823" in err and "Traceback" not in err
    assert not out.exists()


def test_sweep_and_train_eval_run_at_exactly_their_budget(tmp_path, capsys):
    # trials * sum(m + 1) = 2 * (4 + 6) = 20 for the sweep, m + 1 for train-eval
    doc = sweep_cfg()
    doc.update(trials=2, m_grid=[3, 5], budget=20)
    assert run(["sweep", "--config", write_cfg(tmp_path, doc)]) == 0
    text = capsys.readouterr().out
    assert '"budget":20' in text.splitlines()[2]
    doc["budget"] = 19
    assert run(["sweep", "--config", write_cfg(tmp_path, doc)]) == 5
    te = train_eval_cfg()
    te.update(m=50, budget=51)
    assert run(["train-eval", "--config", write_cfg(tmp_path, te)]) == 0
    te["budget"] = 50
    assert run(["train-eval", "--config", write_cfg(tmp_path, te)]) == 5


def test_sweep_and_train_eval_without_budget_write_no_budget(tmp_path, capsys):
    # The default is not written into the artifact's config: configs without
    # the key keep their bytes.
    assert run(["sweep", "--config", write_cfg(tmp_path, sweep_cfg())]) == 0
    assert "budget" not in capsys.readouterr().out
    assert run(["train-eval", "--config", write_cfg(tmp_path, train_eval_cfg())]) == 0
    assert "budget" not in capsys.readouterr().out


@pytest.mark.parametrize("command", ["sweep", "train-eval"])
@pytest.mark.parametrize("budget", ["x", -1, True, 1.5])
def test_sweep_and_train_eval_bad_budget_exit_2(tmp_path, capsys, command, budget):
    doc = train_eval_cfg() if command == "train-eval" else sweep_cfg()
    doc["budget"] = budget
    assert run([command, "--config", write_cfg(tmp_path, doc)]) == 2
    assert "budget" in capsys.readouterr().err


# --------------------------------------------------------------- nfl-verify


def nfl_cfg():
    return {
        "alphabet": {"size": 2},
        "domain_size": 4,
        "codomain_size": 2,
        "m": 2,
        "learner": {"kind": "memorize_constant"},
    }


def test_nfl_verify_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, nfl_cfg())
    assert run(["nfl-verify", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True
    assert doc["bound_mu"] == {"num": 1, "den": 4}
    assert doc["instance"] == {"domain_size": 4, "codomain_size": 2, "m": 2}
    got = Fraction(doc["worst_expected_hp"]["num"], doc["worst_expected_hp"]["den"])
    assert got >= Fraction(1, 4)
    assert len(doc["tail"]) == 2 and all(t["holds"] for t in doc["tail"])


def test_nfl_verify_flrm_learner(tmp_path, capsys):
    doc = nfl_cfg()
    doc["learner"] = {"kind": "flrm", "cdf_bound": HALF_BOUND_DOC}
    cfg = write_cfg(tmp_path, doc)
    assert run(["nfl-verify", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_nfl_verify_explicit_string_lists(tmp_path, capsys):
    doc = nfl_cfg()
    del doc["domain_size"], doc["codomain_size"]
    doc["domain"] = [[], [0], [1], [0, 0]]
    doc["codomain"] = [[], [0]]
    cfg = write_cfg(tmp_path, doc)
    assert run(["nfl-verify", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_nfl_verify_budget_exit_5(tmp_path, capsys):
    doc = nfl_cfg()
    doc["budget"] = 10
    cfg = write_cfg(tmp_path, doc)
    assert run(["nfl-verify", "--config", cfg]) == 5
    assert "budget" in capsys.readouterr().err
    # 2^20000 labelings: a work count too long to print in full
    doc = nfl_cfg()
    doc["domain_size"] = 20_000
    assert run(["nfl-verify", "--config", write_cfg(tmp_path, doc)]) == 5


def test_nfl_verify_10_2_5_fits_the_default_budget(tmp_path, capsys):
    # both learner kinds are order-invariant: 637 supports, 12 584 learner calls
    doc = nfl_cfg()
    doc.update(domain_size=10, m=5)
    assert run(["nfl-verify", "--config", write_cfg(tmp_path, doc)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["worst_expected_hp"] == {"num": 59049, "den": 100000}
    assert doc["verified"] is True


def test_nfl_verify_budget_checked_before_strings_are_built(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a domain string was built before the budget check")

    monkeypatch.setattr(core, "shortlex_symbols", refuse)  # the enumerator the CLI builds from
    doc = nfl_cfg()
    doc["domain_size"] = 10**6
    assert run(["nfl-verify", "--config", write_cfg(tmp_path, doc)]) == 5
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("sizes, message", [
    # work p + 1 fits the default budget; 10^8 strings would take about 39 GB
    ({"domain_size": 1, "codomain_size": 99_999_999, "m": 0},
     "1 domain and 99999999 codomain strings are more than the 1048576"),
    # work 4.57 * 10^9 fits a raised budget; the 130^4 labelings alone take 4.6 GB
    ({"domain_size": 4, "codomain_size": 130, "m": 1, "budget": 10**10},
     "130^4 labelings are more than the 1048576"),
])
def test_nfl_verify_past_the_memory_caps_exit_3_before_any_string(tmp_path, capsys, monkeypatch,
                                                                  sizes, message):
    def refuse(*args):
        raise AssertionError("an NFL string was built before the memory caps were checked")

    monkeypatch.setattr(cli, "_nfl_strings", refuse)
    doc = nfl_cfg()
    doc.update(sizes)
    out = tmp_path / "out.json"
    assert run(["nfl-verify", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["domain", "codomain"])
def test_nfl_verify_empty_string_list_exit_3_at_any_budget(tmp_path, capsys, field):
    # An empty list is a domain error even where no work fits the budget, and
    # the message names the config field.
    doc = nfl_cfg()
    del doc["domain_size"], doc["codomain_size"]
    doc.update(domain=[[0], [1]], codomain=[[0]], m=0, budget=0)
    doc[field] = []
    assert run(["nfl-verify", "--config", write_cfg(tmp_path, doc)]) == 3
    assert f"{field} must be non-empty" in capsys.readouterr().err


def test_nfl_verify_m_out_of_regime_exit_3(tmp_path):
    doc = nfl_cfg()
    doc["m"] = 3  # > floor(4/2)
    cfg = write_cfg(tmp_path, doc)
    assert run(["nfl-verify", "--config", cfg]) == 3


def test_nfl_verify_exit_1_when_not_verified(tmp_path, capsys, monkeypatch):
    # the arithmetic can't produce a failing instance, so force the report
    fake = NflReport(
        worst_f_index=0,
        worst_expected_hp=Fraction(0),
        bound_mu=Fraction(1, 4),
        tail_check=(TailCheck(Fraction(1, 8), Fraction(0), Fraction(1, 7), False),),
        verified=False,
    )
    monkeypatch.setattr(cli, "nfl_brute_force", lambda *a, **k: fake)
    cfg = write_cfg(tmp_path, nfl_cfg())
    assert run(["nfl-verify", "--config", cfg]) == 1
    assert json.loads(capsys.readouterr().out)["verified"] is False


def test_nfl_verify_bad_budget_exit_2(tmp_path, capsys):
    doc = nfl_cfg()
    doc["budget"] = "x"
    cfg = write_cfg(tmp_path, doc)
    assert run(["nfl-verify", "--config", cfg]) == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("lambda_h_grid", 5),
    ("domain", 5),
    ("lambda_h_grid", [float("inf")]),
    ("lambda_h_grid", [{"num": float("inf"), "den": 2}]),
    ("lambda_h_grid", [{"num": 1, "den": 2.7}]),
    ("lambda_h_grid", ["1/8", True]),
    ("lambda_h_grid", ["1/0"]),
    ("lambda_h_grid", ["1e-100000"]),
    ("lambda_h_grid", ["1e5000"]),
    ("lambda_h_grid", ["1e-10000000"]),
    ("lambda_h_grid", ["0." + "0" * 4299 + "1"]),
], ids=["lambda_h_grid-scalar", "domain-scalar", "lambda_h_grid-inf",
        "lambda_h_grid-num-inf", "lambda_h_grid-den-float", "lambda_h_grid-bool",
        "lambda_h_grid-zero-den", "lambda_h_grid-exponent-den-digits",
        "lambda_h_grid-exponent-num-digits", "lambda_h_grid-exponent-slow",
        "lambda_h_grid-decimal-den-digits"])
def test_nfl_verify_bad_field_exit_2(tmp_path, capsys, field, value):
    doc = nfl_cfg()
    doc[field] = value
    cfg = write_cfg(tmp_path, doc)
    assert run(["nfl-verify", "--config", cfg]) == 2
    assert field in capsys.readouterr().err


def bounds_cfg():
    return {"alphabet": {"size": 2}, "cdf_bound": HALF_BOUND_DOC,
            "epsilon_h": 0.1, "epsilon_t": 0.1}


def with_field(doc, path, value):
    """doc with the value at path, a tuple of keys, set or (value None) deleted."""
    doc = copy.deepcopy(doc)
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    if value is None:
        del inner[path[-1]]
    else:
        inner[path[-1]] = value
    return doc


GEOMETRIC = {"kind": "geometric", "ratio": 0.5}


@pytest.mark.parametrize("command, doc, expected", [
    ("sweep", with_field(sweep_cfg(), ("cdf_bound", "tail", "ratio"), None),
     "'cdf_bound.tail.ratio'"),
    ("sweep", with_field(sweep_cfg(), ("cdf_bound", "tail", "kind"), None),
     "'cdf_bound.tail.kind'"),
    ("sweep", with_field(sweep_cfg(), ("cdf_bound", "tail"), None), "'cdf_bound.tail'"),
    ("sweep", with_field(sweep_cfg(), ("cdf_bound", "table"), [0.5, "x"]),
     "cdf_bound.table[1]"),
    ("sweep", with_field(sweep_cfg(), ("m_grid",), [10, 1.5]), "m_grid[1]"),
    ("sweep", with_field(sweep_cfg(), ("mu", "length_probs"), [0.5, "0.5"]),
     "mu.length_probs[1]"),
    ("bounds", with_field(bounds_cfg(), ("cdf_bound", "tail", "ratio"), None),
     "'cdf_bound.tail.ratio'"),
    ("nfl-verify", with_field(nfl_cfg(), ("learner",), {}), "'learner.kind'"),
    ("nfl-verify", with_field(nfl_cfg(), ("learner",), {"kind": "flrm"}),
     "'learner.cdf_bound'"),
    ("nfl-verify", with_field(nfl_cfg(), ("learner",),
                              {"kind": "flrm", "cdf_bound": {"table": [0.5], "tail": {}}}),
     "'learner.cdf_bound.tail.kind'"),
    ("nfl-verify", with_field(nfl_cfg(), ("learner",),
                              {"kind": "flrm", "cdf_bound": {"table": [0.5, True],
                                                             "tail": GEOMETRIC}}),
     "learner.cdf_bound.table[1]"),
    ("typical-set", {"pmf": [0.5, "0.5"], "m": 4, "delta": 0.1}, "pmf[1]"),
    ("sweep", with_field(sweep_cfg(), ("mu", "kind"), "zipf"), "'zipf' in mu.kind"),
    ("sweep", with_field(sweep_cfg(), ("ground_truth", "default", "kind"), "rot13"),
     "'rot13' in ground_truth.default.kind"),
    ("nfl-verify", with_field(nfl_cfg(), ("learner", "kind"), "oracle"),
     "'oracle' in learner.kind"),
], ids=["sweep-tail-ratio", "sweep-tail-kind", "sweep-tail", "sweep-table-index",
        "sweep-m_grid-index", "sweep-length_probs-index", "bounds-tail-ratio",
        "nfl-learner-kind", "nfl-learner-cdf_bound", "nfl-learner-tail-kind",
        "nfl-learner-table-index", "typical-pmf-index", "sweep-unknown-mu-kind",
        "sweep-unknown-default-rule-kind", "nfl-unknown-learner-kind"])
def test_config_errors_name_the_full_field_path(tmp_path, capsys, command, doc, expected):
    assert run([command, "--config", write_cfg(tmp_path, doc)]) == 2
    assert expected in capsys.readouterr().err


def test_nfl_verify_rejects_a_tail_bound_json_cannot_write(tmp_path, capsys, monkeypatch):
    # lambda_h = 1/(10^4300 - 1) has a 4300-digit denominator; its tail bound
    # (mu - lambda_h)/(1 - lambda_h) at mu = 1/4 has 4301 digits.
    def refuse(*args, **kwargs):
        raise AssertionError("the enumeration ran before the grid was checked")

    monkeypatch.setattr(cli, "nfl_brute_force", refuse)
    doc = nfl_cfg()
    doc["lambda_h_grid"] = ["1/8", "1/" + "9" * 4300]
    assert run(["nfl-verify", "--config", write_cfg(tmp_path, doc)]) == 2
    assert "lambda_h_grid[1]" in capsys.readouterr().err


def test_nfl_verify_accepts_a_tail_bound_of_4300_digits(tmp_path, capsys):
    # lambda_h = 1/(2 * 10^4299): the tail bound's denominator,
    # 2 * 10^4299 - 1 after reducing, has 4300 digits.
    doc = nfl_cfg()
    doc["lambda_h_grid"] = [{"num": 1, "den": 2 * 10**4299}]
    assert run(["nfl-verify", "--config", write_cfg(tmp_path, doc)]) == 0
    bound = json.loads(capsys.readouterr().out)["tail"][0]["bound"]
    assert Fraction(bound["num"], bound["den"]) == (Fraction(1, 4) - Fraction(1, 2 * 10**4299)) / (
        1 - Fraction(1, 2 * 10**4299))


def test_rational_text_gets_the_json_digit_limit():
    # 10^4299 has 4300 digits, the most json reads in a config integer.
    assert cli._fraction("1e4299", "x") == 10**4299
    assert cli._fraction("1e-4299", "x") == Fraction(1, 10**4299)
    assert cli._fraction("-0.25e-4297", "x") == Fraction(-1, 4 * 10**4297)
    assert cli._fraction("1_0e1_0", "x") == 10**11
    for text in ("1e4300", "1e-4300", "10e4299", "0.1e-4299", "0e-4300"):
        with pytest.raises(cli.ConfigError, match="more than 4300 digits"):
            cli._fraction(text, "x")


# -------------------------------------------------------------- diagonalize


def test_diagonalize_csv(tmp_path):
    cfg = write_cfg(tmp_path, {"alphabet": {"size": 2}, "models": 5, "horizon": 30})
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run(["diagonalize", "--config", cfg, "--seed", "7", "--out", out1]) == 0
    assert run(["diagonalize", "--config", cfg, "--seed", "7", "--out", out2]) == 0
    b1 = Path(out1).read_bytes()
    assert b1 == Path(out2).read_bytes()
    lines = b1.decode().splitlines()
    assert lines[3] == "i,psi_i,f0_of_s_i"
    rows = [line.split(",") for line in lines[4:]]
    assert len(rows) == 30
    assert [r[0] for r in rows] == [str(i) for i in range(1, 31)]
    for r in rows:
        assert int(r[2]) == int(r[1]) - 1  # index column is rank minus one


def test_diagonalize_builds_no_model_past_the_horizon(tmp_path):
    # Models past the horizon are never asked: 10^9 of them at horizon 1
    # build one model and give the rows of a single model.
    def rows(models, horizon):
        doc = {"alphabet": {"size": 2}, "models": models, "horizon": horizon}
        out = tmp_path / f"{models}-{horizon}.csv"
        assert run(["diagonalize", "--config", write_cfg(tmp_path, doc),
                    "--seed", "3", "--out", str(out)]) == 0
        return [line for line in out.read_text().splitlines() if not line.startswith("#")]

    assert rows(10**9, 1) == rows(1, 1)
    assert rows(10**9, 40) == rows(40, 40)


@pytest.mark.parametrize("field", ["table_size", "max_len"])
def test_diagonalize_non_integer_field_exit_2(tmp_path, capsys, field):
    cfg = write_cfg(tmp_path, {"alphabet": {"size": 2}, "models": 5, "horizon": 30,
                               field: "x"})
    assert run(["diagonalize", "--config", cfg]) == 2
    assert field in capsys.readouterr().err


def test_diagonalize_budget_exit_5(tmp_path, capsys):
    # 5 models over 30 strings: sum_i min(i, 5) = 15 + 25 * 5 = 140 model
    # queries
    doc = {"alphabet": {"size": 2}, "models": 5, "horizon": 30, "budget": 10}
    assert run(["diagonalize", "--config", write_cfg(tmp_path, doc)]) == 5
    assert "needs 140 model queries (budget 10)" in capsys.readouterr().err
    doc["budget"] = 140
    assert run(["diagonalize", "--config", write_cfg(tmp_path, doc)]) == 0
    doc["budget"] = 139
    assert run(["diagonalize", "--config", write_cfg(tmp_path, doc)]) == 5
    # 50 models over 30 strings: the i-th string is asked of the first i
    # models, 30 * 31 / 2 = 465 queries
    doc = {"alphabet": {"size": 2}, "models": 50, "horizon": 30, "budget": 465}
    assert run(["diagonalize", "--config", write_cfg(tmp_path, doc)]) == 0
    doc["budget"] = 464
    assert run(["diagonalize", "--config", write_cfg(tmp_path, doc)]) == 5
    assert "needs 465 model queries (budget 464)" in capsys.readouterr().err


def test_diagonalize_max_len_past_int64_ranks_exit_3(tmp_path, capsys):
    # 2^71 - 1 strings of length <= 70: their ranks do not fit numpy's int64
    doc = {"alphabet": {"size": 2}, "models": 3, "horizon": 10, "max_len": 70}
    assert run(["diagonalize", "--config", write_cfg(tmp_path, doc)]) == 3
    assert "max_len 70 gives 2361183241434822606847 strings" in capsys.readouterr().err
    doc["max_len"] = 62  # 2^63 - 1 strings
    out = tmp_path / "diag.csv"
    assert run(["diagonalize", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4 + 10


@pytest.mark.parametrize("fields, words", [
    ({"max_len": 20000}, "max_len 20000 gives more than 2^20000 strings"),
    ({"max_len": 10**400}, "strings over an alphabet of size 2;"),
    ({"alphabet": {"size": 10**1000}}, "max_len 6 gives more than 2^19926 strings"),
], ids=["max_len-20000", "max_len-10^400", "size-10^1000"])
def test_diagonalize_huge_universe_exit_3_before_counting(tmp_path, capsys, fields, words):
    # q^max_len >= 2^63 fails the rank check without the count being formed
    doc = {"alphabet": {"size": 2}, "models": 5, "horizon": 20} | fields
    assert run(["diagonalize", "--config", write_cfg(tmp_path, doc)]) == 3
    assert words in capsys.readouterr().err


# -------------------------------------------------------------- typical-set


def test_typical_set_row(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"pmf": [0.9, 0.1], "m": 20, "delta": 0.1})
    assert run(["typical-set", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "m,delta,set_size,rate,mass,entropy_gap"
    fields = lines[4].split(",")
    assert fields[0] == "20"
    assert fields[2] == "3130"
    assert float(fields[4]) > 0.9


def test_typical_set_budget_exit_5(tmp_path):
    cfg = write_cfg(tmp_path, {"pmf": [0.9, 0.1], "m": 25, "delta": 0.1})
    assert run(["typical-set", "--config", cfg]) == 5


def test_typical_set_single_symbol_budget_exit_5(tmp_path, capsys):
    # one type, but it is a length-m tuple: the budget bounds m as well
    cfg = write_cfg(tmp_path, {"pmf": [1.0], "m": 10**8, "delta": 0.1})
    assert run(["typical-set", "--config", cfg]) == 5
    assert "budget" in capsys.readouterr().err
    doc = {"pmf": [1.0], "m": 11, "delta": 0.1, "budget": 10}
    assert run(["typical-set", "--config", write_cfg(tmp_path, doc)]) == 5
    doc["budget"] = 11
    assert run(["typical-set", "--config", write_cfg(tmp_path, doc)]) == 0


def test_typical_set_budget_override(tmp_path):
    # 2^24 blocks exceeds the default budget but fits a raised one
    doc = {"pmf": [0.9, 0.1], "m": 24, "delta": 0.1}
    assert run(["typical-set", "--config", write_cfg(tmp_path, doc)]) == 5
    doc["budget"] = 2**25
    assert run(["typical-set", "--config", write_cfg(tmp_path, doc)]) == 0


def test_typical_set_negative_budget_exit_2(tmp_path, capsys):
    doc = {"pmf": [0.9, 0.1], "m": 5, "delta": 0.1, "budget": -1}
    assert run(["typical-set", "--config", write_cfg(tmp_path, doc)]) == 2
    assert "budget" in capsys.readouterr().err


def test_typical_set_bad_delta_exit_3(tmp_path):
    cfg = write_cfg(tmp_path, {"pmf": [0.9, 0.1], "m": 5, "delta": 0.0})
    assert run(["typical-set", "--config", cfg]) == 3


@pytest.mark.parametrize("field, value", [
    ("pmf", ["x", 0.5]),
    ("pmf", ["0.5", 0.5]),
    ("pmf", [10**400, 0.5]),
    ("delta", "x"),
    ("delta", "0.5"),
    ("delta", 10**400),
    ("budget", "x"),
], ids=["pmf", "pmf-numeric-text", "pmf-huge-int", "delta", "delta-numeric-text",
        "delta-huge-int", "budget"])
def test_typical_set_non_numeric_field_exit_2(tmp_path, capsys, field, value):
    doc = {"pmf": [0.5, 0.5], "m": 5, "delta": 0.1}
    doc[field] = value
    cfg = write_cfg(tmp_path, doc)
    assert run(["typical-set", "--config", cfg]) == 2
    assert field in capsys.readouterr().err


# ------------------------------------------------------- config properties


# One small valid config per subcommand, optional fields included, so that
# every mutation below runs in milliseconds.
PROPERTY_CONFIGS = {
    "bounds": {"alphabet": {"size": 2, "labels": ["a", "b"]}, "cdf_bound": HALF_BOUND_DOC,
               "epsilon_h": 0.1, "epsilon_t": 0.1},
    "train-eval": {"alphabet": {"size": 2}, "cdf_bound": HALF_BOUND_DOC,
                   "mu": {"kind": "finite", "atoms": [{"s": [], "prob": "1/2"},
                                                      {"s": [1], "prob": {"num": 1, "den": 2}}]},
                   "ground_truth": {"default": {"kind": "index_shift", "shift": 1},
                                    "overrides": [{"s": [0], "accept": [[1], [0]]}]},
                   "labeler": "uniform_acceptable", "m": 5},
    "sweep": {"alphabet": {"size": 2}, "cdf_bound": HALF_BOUND_DOC,
              "mu": {"kind": "length_factored", "length_probs": [0.5], "tail_ratio": 0.5},
              "ground_truth": {"default": {"kind": "constant", "output": [0]}},
              "m_grid": [10], "trials": 2, "epsilon_h": 0.2},
    "nfl-verify": {"alphabet": {"size": 2}, "domain": [[], [0]], "codomain_size": 2, "m": 1,
                   "learner": {"kind": "flrm", "cdf_bound": HALF_BOUND_DOC},
                   "lambda_h_grid": ["1/4"], "budget": 1000},
    "diagonalize": {"alphabet": {"size": 2}, "models": 2, "horizon": 3, "table_size": 2,
                    "max_len": 2, "budget": 100},
    "typical-set": {"pmf": [0.9, 0.1], "m": 3, "delta": 0.1, "budget": 100},
}
PROPERTY_VALUES = [5, "x", [], {}, None, -1, 1.5, True, [5], float("inf")]


def field_paths(doc, prefix=()):
    """The key path of every field, nested ones and list entries included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


MUTATION_SITES = [(command, path) for command, doc in PROPERTY_CONFIGS.items()
                  for path in field_paths(doc)]


@settings(max_examples=200, deadline=None)
@given(site=st.sampled_from(MUTATION_SITES), delete=st.booleans(),
       value=st.sampled_from(PROPERTY_VALUES))
def test_mutated_config_exits_with_a_documented_code(site, delete, value):
    command, path = site
    doc = copy.deepcopy(PROPERTY_CONFIGS[command])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = run([command, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in range(6)


def test_property_configs_are_valid(tmp_path):
    for command, doc in PROPERTY_CONFIGS.items():
        assert run([command, "--config", write_cfg(tmp_path, doc),
                    "--out", str(tmp_path / "out")]) == 0, command


def artifact_header(text):
    """(seed, config) as embedded in a JSON or CSV artifact."""
    if text.startswith("{"):
        doc = json.loads(text)
        return doc["seed"], doc["config"]
    lines = text.splitlines()
    assert lines[1].startswith("# seed: ") and lines[2].startswith("# config: ")
    return int(lines[1][len("# seed: "):]), json.loads(lines[2][len("# config: "):])


REPLAY_CASES = list(PROPERTY_CONFIGS.items()) + [
    # 2^24 blocks: over the default budget, so only the config's budget lets it run
    ("typical-set", {"pmf": [0.5, 0.5], "m": 24, "delta": 0.05, "budget": 2**24}),
]


@pytest.mark.parametrize("command, doc", REPLAY_CASES,
                         ids=[c for c, _ in PROPERTY_CONFIGS.items()] + ["typical-set-budget"])
def test_artifact_replays_from_its_own_header(tmp_path, command, doc):
    first, second = tmp_path / "first", tmp_path / "second"
    assert run([command, "--config", write_cfg(tmp_path, doc, "a.json"),
                "--seed", "12345", "--out", str(first)]) == 0
    seed, config = artifact_header(first.read_text())
    assert run([command, "--config", write_cfg(tmp_path, config, "b.json"),
                "--seed", str(seed), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def run_captured(argv, capsys):
    """(exit code, stdout, stderr) of one main call; a flag error exits by
    SystemExit, as argparse does."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_parser_is_built_once_per_process(tmp_path, capsys):
    calls = [
        [command, "--config", write_cfg(tmp_path, PROPERTY_CONFIGS[command], f"{command}.json"),
         "--seed", "3"]
        for command in ("bounds", "diagonalize", "typical-set")
    ]
    calls.insert(2, ["sweep", "--config", "cfg.json", "--seed", "x"])  # a flag error
    separate = []
    for argv in calls:
        cli._build_parser.cache_clear()  # a new parser, as in a new process
        separate.append(run_captured(argv, capsys))
    cli._build_parser.cache_clear()
    together = [run_captured(argv, capsys) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    assert together == separate
    assert [code for code, _, _ in together] == [0, 0, 2, 0]
    assert "invalid int value: 'x'" in together[2][2]
