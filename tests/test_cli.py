import copy
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hallustat.cli as cli
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


def test_negative_seed_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, {
        "alphabet": {"size": 2},
        "cdf_bound": HALF_BOUND_DOC,
        "epsilon_h": 0.1,
        "epsilon_t": 0.1,
    })
    assert run(["bounds", "--config", cfg, "--seed", "-1"]) == 2


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


def test_train_eval_monte_carlo_on_infinite_support(tmp_path, capsys):
    doc = train_eval_cfg()
    doc["mu"] = {"kind": "length_factored", "length_probs": [], "tail_ratio": 0.5}
    doc["mc_samples"] = 2000
    cfg = write_cfg(tmp_path, doc)
    assert run(["train-eval", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["method"] == "monte_carlo"
    assert out["report"]["sample_count"] == 2000
    assert out["report"]["exact"] is None


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


@pytest.mark.parametrize("field, value", [
    ("mc_samples", "x"),
    ("confidence", "x"),
    ("mu", {"kind": "length_factored", "length_probs": ["x"], "tail_ratio": 0.5}),
    ("mu", {"kind": "length_factored", "length_probs": [], "tail_ratio": "x"}),
    ("mu", {"kind": "finite", "atoms": [{"s": []}]}),
    ("ground_truth", {"default": {"kind": "index_shift", "shift": "x"}}),
    ("ground_truth", {"default": {"kind": "echo"}, "overrides": [{"s": [0]}]}),
    ("ground_truth", {"default": {"kind": "echo"}, "overrides": [{"s": [0], "accept": 3}]}),
    ("ground_truth", {"default": {"kind": "echo"}, "overrides": 5}),
], ids=["mc_samples", "confidence", "mu-length_probs", "mu-tail_ratio",
        "mu-atom-without-prob", "ground_truth-shift-text",
        "ground_truth-override-without-accept", "ground_truth-accept-scalar",
        "ground_truth-overrides-scalar"])
def test_train_eval_bad_field_exit_2(tmp_path, capsys, field, value):
    doc = train_eval_cfg()
    doc["mu"] = {"kind": "length_factored", "length_probs": [], "tail_ratio": 0.5}
    doc[field] = value
    cfg = write_cfg(tmp_path, doc)
    assert run(["train-eval", "--config", cfg]) == 2
    assert field in capsys.readouterr().err


# -------------------------------------------------------------------- sweep


def sweep_cfg():
    return {
        "alphabet": {"size": 2},
        "cdf_bound": HALF_BOUND_DOC,
        "mu": {"kind": "length_factored", "length_probs": [], "tail_ratio": 0.5},
        "ground_truth": {"default": {"kind": "echo"}},
        "m_grid": [10, 100, 1000],
        "trials": 4,
        "mc_samples": 500,
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


def test_sweep_nan_length_probability_exit_3(tmp_path, capsys):
    text = json.dumps(sweep_cfg()).replace(
        '"length_probs": []', '"length_probs": [0.5, 0.25, NaN]')
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert run(["sweep", "--config", str(path)]) == 3
    assert "length probability" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("mc_samples", 0),
    ("mc_samples", "x"),
    ("epsilon_h", "x"),
    ("m_grid", [-3]),
    ("m_grid", 5),
    ("m_grid", [1.5]),
    ("cdf_bound", {"table": ["x"], "tail": {"kind": "geometric", "ratio": 0.5}}),
    ("cdf_bound", {"table": [0.5], "tail": {"kind": "geometric", "ratio": "x"}}),
    ("alphabet", {"size": 2.9}),
    ("alphabet", {"size": "3"}),
    ("alphabet", {"size": True}),
    ("alphabet", {"size": 2, "labels": "ab"}),
    ("alphabet", {"size": 2, "labels": ["a", 1]}),
], ids=["mc_samples-zero", "mc_samples-text", "epsilon_h-text",
        "m_grid-negative", "m_grid-scalar", "m_grid-fraction",
        "cdf_bound-table-text", "cdf_bound-ratio-text",
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
    cfg = write_cfg(tmp_path, nfl_cfg())
    assert run(["nfl-verify", "--config", cfg, "--budget", "10"]) == 5
    assert "budget" in capsys.readouterr().err
    # 2^20000 labelings: a work count too long to print in full
    doc = nfl_cfg()
    doc["domain_size"] = 20_000
    assert run(["nfl-verify", "--config", write_cfg(tmp_path, doc)]) == 5


def test_nfl_verify_budget_checked_before_strings_are_built(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a domain string was built before the budget check")

    monkeypatch.setattr(cli, "shortlex_string", refuse)
    doc = nfl_cfg()
    doc["domain_size"] = 10**6
    assert run(["nfl-verify", "--config", write_cfg(tmp_path, doc)]) == 5
    assert "budget" in capsys.readouterr().err


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
], ids=["lambda_h_grid-scalar", "domain-scalar"])
def test_nfl_verify_bad_field_exit_2(tmp_path, capsys, field, value):
    doc = nfl_cfg()
    doc[field] = value
    cfg = write_cfg(tmp_path, doc)
    assert run(["nfl-verify", "--config", cfg]) == 2
    assert field in capsys.readouterr().err


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


@pytest.mark.parametrize("field", ["table_size", "max_len"])
def test_diagonalize_non_integer_field_exit_2(tmp_path, capsys, field):
    cfg = write_cfg(tmp_path, {"alphabet": {"size": 2}, "models": 5, "horizon": 30,
                               field: "x"})
    assert run(["diagonalize", "--config", cfg]) == 2
    assert field in capsys.readouterr().err


def test_diagonalize_budget_exit_5(tmp_path, capsys):
    # 5 models over 30 strings: 150 model queries
    doc = {"alphabet": {"size": 2}, "models": 5, "horizon": 30}
    cfg = write_cfg(tmp_path, doc)
    assert run(["diagonalize", "--config", cfg, "--budget", "10"]) == 5
    assert "budget" in capsys.readouterr().err
    assert run(["diagonalize", "--config", cfg, "--budget", "150"]) == 0
    doc["budget"] = 149
    assert run(["diagonalize", "--config", write_cfg(tmp_path, doc)]) == 5


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
    cfg = write_cfg(tmp_path, {"pmf": [1.0], "m": 11, "delta": 0.1})
    assert run(["typical-set", "--config", cfg, "--budget", "10"]) == 5
    assert run(["typical-set", "--config", cfg, "--budget", "11"]) == 0


def test_typical_set_budget_override(tmp_path):
    # 2^24 blocks exceeds the default budget but fits a raised one
    cfg = write_cfg(tmp_path, {"pmf": [0.9, 0.1], "m": 24, "delta": 0.1})
    assert run(["typical-set", "--config", cfg]) == 5
    assert run(["typical-set", "--config", cfg, "--budget", str(2**25)]) == 0


def test_typical_set_negative_budget_exit_2_from_flag_or_config(tmp_path, capsys):
    doc = {"pmf": [0.9, 0.1], "m": 5, "delta": 0.1}
    cfg = write_cfg(tmp_path, doc)
    assert run(["typical-set", "--config", cfg, "--budget", "-1"]) == 2
    assert "--budget" in capsys.readouterr().err
    doc["budget"] = -1
    assert run(["typical-set", "--config", write_cfg(tmp_path, doc)]) == 2


def test_typical_set_bad_delta_exit_3(tmp_path):
    cfg = write_cfg(tmp_path, {"pmf": [0.9, 0.1], "m": 5, "delta": 0.0})
    assert run(["typical-set", "--config", cfg]) == 3


@pytest.mark.parametrize("field, value", [
    ("pmf", ["x", 0.5]),
    ("delta", "x"),
    ("budget", "x"),
], ids=["pmf", "delta", "budget"])
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
                   "labeler": "uniform_acceptable", "m": 5, "mc_samples": 50,
                   "confidence": 0.9},
    "sweep": {"alphabet": {"size": 2}, "cdf_bound": HALF_BOUND_DOC,
              "mu": {"kind": "length_factored", "length_probs": [0.5], "tail_ratio": 0.5},
              "ground_truth": {"default": {"kind": "constant", "output": [0]}},
              "m_grid": [10], "trials": 2, "mc_samples": 50, "epsilon_h": 0.2},
    "nfl-verify": {"alphabet": {"size": 2}, "domain": [[], [0]], "codomain_size": 2, "m": 1,
                   "learner": {"kind": "flrm", "cdf_bound": HALF_BOUND_DOC},
                   "lambda_h_grid": ["1/4"], "budget": 1000},
    "diagonalize": {"alphabet": {"size": 2}, "models": 2, "horizon": 3, "table_size": 2,
                    "max_len": 2, "budget": 100},
    "typical-set": {"pmf": [0.9, 0.1], "m": 3, "delta": 0.1, "budget": 100},
}
PROPERTY_VALUES = [5, "x", [], {}, None, -1, 1.5, True, [5]]


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
