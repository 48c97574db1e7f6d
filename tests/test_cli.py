import argparse
import json

import pytest

from conftest import CIRCUITS
from hardysim import cli, engine
from hardysim.circuitdsl import parse
from hardysim.cli import main
from hardysim.montecarlo import DEFAULT_SEED
from hardysim.paradox import RuleSet

FULL = str(CIRCUITS / "hardy_full.circ")
REDUCED = str(CIRCUITS / "hardy_reduced.circ")
BAD = str(CIRCUITS / "bad_mode.circ")

PROBS_JSON_GOLDEN = """\
{
  "kept_weight": "1/6",
  "rows": [
    {
      "plus": "c",
      "minus": "c",
      "p": "3/4"
    },
    {
      "plus": "c",
      "minus": "d",
      "p": "1/12"
    },
    {
      "plus": "d",
      "minus": "c",
      "p": "1/12"
    },
    {
      "plus": "d",
      "minus": "d",
      "p": "1/12"
    }
  ]
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------- check

def test_check_ok(capsys):
    code, out, err = run(capsys, "check", FULL)
    assert code == 0
    assert out == "ok\n"
    assert err == ""


def test_check_reports_diagnostic_with_position(capsys):
    code, out, err = run(capsys, "check", BAD)
    assert code == 1
    assert out == ""
    assert err == "bad_mode.circ:4:10: undeclared-mode: q+\n"


def test_missing_file(capsys):
    code, out, err = run(capsys, "evolve", "/no/such/file.circ")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


# -------------------------------------------------------------------- evolve

def test_evolve_table(capsys):
    code, out, _ = run(capsys, "evolve", REDUCED)
    assert code == 0
    assert out == "(c+,d-) (1/2)*sqrt(2)*i\n(d+,c-) (1/2)*sqrt(2)*i\n"


def test_evolve_applies_postselection(capsys):
    code, out, _ = run(capsys, "evolve", FULL)
    assert code == 0
    assert out.splitlines()[0] == "(c+,c-) (-1/2)*sqrt(3)"


def test_evolve_json(capsys):
    code, out, _ = run(capsys, "evolve", REDUCED, "--format=json")
    assert code == 0
    assert json.loads(out) == {
        "terms": [
            {"plus": "c", "minus": "d", "amp": "(1/2)*sqrt(2)*i"},
            {"plus": "d", "minus": "c", "amp": "(1/2)*sqrt(2)*i"},
        ]
    }


def test_evolve_csv(capsys):
    code, out, _ = run(capsys, "evolve", REDUCED, "--format=csv")
    assert code == 0
    assert out.splitlines() == [
        "plus,minus,amp",
        "c+,d-,(1/2)*sqrt(2)*i",
        "d+,c-,(1/2)*sqrt(2)*i",
    ]


# --------------------------------------------------------------------- probs

def test_probs_table(capsys):
    code, out, _ = run(capsys, "probs", FULL)
    assert code == 0
    assert out == (
        "kept_weight 1/6\n"
        "(c+,c-) 3/4\n"
        "(c+,d-) 1/12\n"
        "(d+,c-) 1/12\n"
        "(d+,d-) 1/12\n"
    )


def test_probs_json_golden(capsys):
    code, out, _ = run(capsys, "probs", FULL, "--format=json")
    assert code == 0
    assert out == PROBS_JSON_GOLDEN


def test_probs_csv(capsys):
    code, out, _ = run(capsys, "probs", FULL, "--format=csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "outcome_plus,outcome_minus,p"
    assert lines[1] == "c+,c-,3/4"
    assert lines[-1] == "# kept_weight=1/6"


# ------------------------------------------------------------------- paradox

def test_paradox_default_rules_finds_the_contradiction(capsys):
    code, out, _ = run(capsys, "paradox", FULL)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rules local"
    assert "forbidden-but-predicted: (d+,d-) qm=1/12 feasible=0" in lines
    assert sum("forbidden-but-predicted" in line for line in lines) == 1


def test_paradox_contextual_rules_all_consistent(capsys):
    code, out, _ = run(capsys, "paradox", FULL, "--rules=contextual")
    assert code == 0
    body = out.splitlines()[1:]
    assert len(body) == 4
    assert all(line.startswith("consistent:") for line in body)


def test_paradox_json(capsys):
    code, out, _ = run(capsys, "paradox", FULL, "--rules=local", "--format=json")
    assert code == 0
    report = json.loads(out)
    assert report["rules"] == "local"
    last = report["outcomes"][-1]
    assert last["outcome"] == ["d+", "d-"]
    assert last["qm_p"] == "1/12"
    assert last["feasible"] == []
    assert last["verdict"] == "forbidden-but-predicted"


def test_paradox_csv(capsys):
    code, out, _ = run(capsys, "paradox", FULL, "--format=csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "outcome_plus,outcome_minus,qm_p,feasible,verdict"
    assert lines[4] == "d+,d-,1/12,0,forbidden-but-predicted"


def test_paradox_needs_detectors_on_both_arms(capsys, tmp_path):
    path = tmp_path / "oneside.circ"
    path.write_text(
        "modes + u v c d\nmodes - u v\n"
        "source (u+,u-) (1/1)/sqrt(2); (v+,v-) (1/1)/sqrt(2)\n"
        "stage preset_eq5 +\n"
        "detect c+ d+\n"
    )
    code, out, err = run(capsys, "paradox", str(path))
    assert code == 1
    assert err.startswith("error:")


# -------------------------------------------------------------------- sample

def test_sample_defaults(capsys):
    code, out, _ = run(capsys, "sample", FULL)
    assert code == 0
    assert out == (
        "(c+,c-) 8976\n"
        "(c+,d-) 1014\n"
        "(d+,c-) 980\n"
        "(d+,d-) 1030\n"
        "chi_square 1.560000 df 3 pass_95 True pass_99 True\n"
    )


def test_sample_csv(capsys):
    code, out, _ = run(capsys, "sample", REDUCED, "--n", "20", "--seed", "11", "--format=csv")
    assert code == 0
    assert out == (
        "outcome_plus,outcome_minus,count,expected\n"
        "c+,d-,8,10\n"
        "d+,c-,12,10\n"
        "# seed=11 n=20 chi_square=0.800000 df=1 pass_95=True pass_99=True\n"
    )


def test_sample_json_round_trips(capsys):
    code, out, _ = run(capsys, "sample", REDUCED, "--n", "50", "--seed", "0x10", "--format=json")
    assert code == 0
    record = json.loads(out)
    assert record["seed"] == 16
    assert sum(row["count"] for row in record["counts"]) == 50


# ------------------------------------------ every JSON and CSV shape, unrecorded

# Hardy's state (|uu> + |uv> + |vu>)/sqrt(3), up to a phase, recombined on a
# balanced splitter per arm: no post-selection, radical amplitudes, and the
# local rules reject every route to (d+,d-).  The byte gate records only the
# shipped circuits; these tests pin each format's shape on this one.
HARDY_STATE = (
    "modes + u v c d\nmodes - u v c d\n"
    "source (u+,u-) (1/3)*sqrt(3)*i; (u+,v-) (1/3)*sqrt(3); (v+,u-) (1/3)*sqrt(3)\n"
    "stage bs 1/2 u+ v+ -> c+ d+\n"
    "stage bs 1/2 u- v- -> c- d-\n"
    "detect c+ d+ c- d-\n"
)


@pytest.fixture
def hardy_state(tmp_path):
    path = tmp_path / "hardy_state.circ"
    path.write_text(HARDY_STATE)
    return str(path)


def test_evolve_json_names_labels_bare(capsys, hardy_state):
    code, out, _ = run(capsys, "evolve", hardy_state, "--format=json")
    assert code == 0
    assert json.loads(out) == {"terms": [
        {"plus": "c", "minus": "c", "amp": "(1/2)*sqrt(3)*i"},
        {"plus": "c", "minus": "d", "amp": "(-1/6)*sqrt(3)"},
        {"plus": "d", "minus": "c", "amp": "(-1/6)*sqrt(3)"},
        {"plus": "d", "minus": "d", "amp": "(1/6)*sqrt(3)*i"},
    ]}


def test_probs_json_names_labels_bare(capsys, hardy_state):
    code, out, _ = run(capsys, "probs", hardy_state, "--format=json")
    assert code == 0
    assert json.loads(out) == {"kept_weight": "1", "rows": [
        {"plus": "c", "minus": "c", "p": "3/4"},
        {"plus": "c", "minus": "d", "p": "1/12"},
        {"plus": "d", "minus": "c", "p": "1/12"},
        {"plus": "d", "minus": "d", "p": "1/12"},
    ]}


def test_paradox_json_lists_every_route_with_its_reasons(capsys, hardy_state):
    code, out, _ = run(capsys, "paradox", hardy_state, "--format=json")
    assert code == 0
    report = json.loads(out)
    assert list(report) == ["rules", "kept_weight", "outcomes"]
    assert (report["rules"], report["kept_weight"]) == ("local", "1")
    plus_zero = "with only the plus arm evolved: given u-, exit d+ has conditional probability 0"
    minus_zero = "with only the minus arm evolved: given u+, exit d- has conditional probability 0"
    assert report["outcomes"][-1] == {
        "outcome": ["d+", "d-"],
        "qm_p": "1/12",
        "feasible": [],
        "rejected": [
            {"assignment": {"plus": ["u+", "d+"], "minus": ["u-", "d-"]},
             "reasons": [plus_zero, minus_zero]},
            {"assignment": {"plus": ["u+", "d+"], "minus": ["v-", "d-"]},
             "reasons": [minus_zero]},
            {"assignment": {"plus": ["v+", "d+"], "minus": ["u-", "d-"]},
             "reasons": [plus_zero]},
        ],
        "verdict": "forbidden-but-predicted",
    }
    assert report["outcomes"][1]["feasible"] == [{"plus": ["v+", "c+"], "minus": ["u-", "d-"]}]


def test_sample_json_keeps_the_record_fields_in_order(capsys, hardy_state):
    code, out, _ = run(capsys, "sample", hardy_state, "--n", "600", "--seed", "7", "--format=json")
    assert code == 0
    record = json.loads(out)
    assert list(record) == ["seed", "n", "counts", "chi_square", "df", "pass_95", "pass_99"]
    assert record == {
        "seed": 7,
        "n": 600,
        "counts": [
            {"plus": "c+", "minus": "c-", "count": 450},
            {"plus": "c+", "minus": "d-", "count": 46},
            {"plus": "d+", "minus": "c-", "count": 56},
            {"plus": "d+", "minus": "d-", "count": 48},
        ],
        "chi_square": 1.12,
        "df": 3,
        "pass_95": True,
        "pass_99": True,
    }


def test_sample_csv_puts_counts_next_to_expectations(capsys, hardy_state):
    code, out, _ = run(capsys, "sample", hardy_state, "--n", "600", "--seed", "7", "--format=csv")
    assert code == 0
    assert out == (
        "outcome_plus,outcome_minus,count,expected\n"
        "c+,c-,450,450\n"
        "c+,d-,46,50\n"
        "d+,c-,56,50\n"
        "d+,d-,48,50\n"
        "# seed=7 n=600 chi_square=1.120000 df=3 pass_95=True pass_99=True\n"
    )


# -------------------------------------------------------------- CLI surface

def _option(command, dest):
    subcommands = next(a for a in cli._build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    return next(a for a in subcommands.choices[command]._actions if a.dest == dest)


def test_parser_constants_match_the_modules_it_does_not_import():
    rules = _option("paradox", "rules")
    assert set(rules.choices) == {r.value for r in RuleSet}
    assert rules.default == RuleSet.LOCAL_COUNTERFACTUAL.value
    assert _option("sample", "seed").default == DEFAULT_SEED


HELP = {
    "--help": """\
usage: hardysim [-h] command ...

Exact two-photon interferometer simulator and trajectory checker.

positional arguments:
  command
    check     parse and validate a circuit file
    evolve    print the final post-selected state
    probs     print exact outcome probabilities
    paradox   judge each detector pair against a trajectory rule set
    sample    draw outcomes with a seeded generator and run a chi-square check

options:
  -h, --help  show this help message and exit
""",
    "paradox --help": """\
usage: hardysim paradox [-h] [--format {table,json,csv}]
                        [--rules {local,contextual}]
                        circuit

positional arguments:
  circuit               path to a circuit file

options:
  -h, --help            show this help message and exit
  --format {table,json,csv}
                        output rendering (default: table)
  --rules {local,contextual}
                        feasibility rule set (default: local)
""",
    "sample --help": """\
usage: hardysim sample [-h] [--format {table,json,csv}] [--n N] [--seed SEED]
                       circuit

positional arguments:
  circuit               path to a circuit file

options:
  -h, --help            show this help message and exit
  --format {table,json,csv}
                        output rendering (default: table)
  --n N                 number of draws
  --seed SEED           64-bit generator seed (default: 24301)
""",
}


@pytest.mark.parametrize("argv", sorted(HELP))
def test_help_text_is_pinned(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv.split()) == 0
    assert capsys.readouterr() == (HELP[argv], "")


# --------------------------------------------------------------- exit codes

def test_usage_errors_exit_2(capsys):
    assert main(["frobnicate", FULL]) == 2
    assert main(["paradox", FULL, "--rules=psychic"]) == 2
    assert main(["sample", FULL, "--n", "0"]) == 2
    assert main(["sample", FULL, "--seed", str(1 << 64)]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_domain_errors_exit_1(capsys, tmp_path):
    # Post-selection removing every term, and a source whose terms cancel,
    # give every command the same message.
    for name, text in (("dead.circ", "modes + u\nmodes - u\nsource (u+,u-) (1/1)\ndiscard u+\n"),
                       ("cancelled.circ", "modes + u\nmodes - u\nsource (u+,u-) (1/2) - (1/2)\n")):
        path = tmp_path / name
        path.write_text(text)
        for command in ("evolve", "probs", "paradox", "sample"):
            code, out, err = run(capsys, command, str(path))
            assert (code, out) == (1, ""), (name, command)
            assert err == "error: post-selection removed every term\n", (name, command)


CONSUMED_DISCARD = (
    "modes + u v c d\nmodes - u v\n"
    "source (u+,u-) (1/1)/sqrt(2); (v+,v-) (1/1)/sqrt(2)\n"
    "stage preset_eq5 +\n"
    "discard u+\n"
    "detect c+ d+\n"
)


def test_consumed_discard_is_a_positioned_diagnostic_for_every_command(capsys, tmp_path):
    # Without the diagnostic, probs ignored the discard and printed kept_weight 1.
    path = tmp_path / "consumed.circ"
    path.write_text(CONSUMED_DISCARD)
    for command in ("check", "evolve", "probs", "paradox", "sample"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, ""), command
        assert err == "consumed.circ:5:9: dead-mode: u+ is consumed by a stage, not an exit\n"


# ------------------------------------------- rational weights, irrational 1/sqrt

# Every Born weight is rational (2/5 and 3/5) but 1/sqrt(kept weight 5/9)
# needs sqrt(5): only `evolve`, which prints renormalised amplitudes, fails.
RATIONAL_WEIGHTS = (
    "modes + a b c\nmodes - a b c\n"
    "source (a+,a-) (1/3)*sqrt(2); (b+,b-) (1/3)*sqrt(3); (c+,c-) (2/3)\n"
    "discard c+\n"
    "detect a+ b+ a- b-\n"
)


def test_rational_weights_tabulate_without_a_square_root(capsys, tmp_path):
    path = tmp_path / "rational.circ"
    path.write_text(RATIONAL_WEIGHTS)
    code, out, err = run(capsys, "probs", str(path))
    assert (code, err) == (0, "")
    assert out == "kept_weight 5/9\n(a+,a-) 2/5\n(b+,b-) 3/5\n"
    for argv in (("paradox", str(path)), ("paradox", "--rules", "contextual", str(path)),
                 ("sample", str(path))):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
    code, out, err = run(capsys, "evolve", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: sqrt(9/5) needs sqrt(5), outside the basis\n"


# ---------------------------------------------------------- unnormalised sources

# The source has weight 2 and the splitter sends half of it to the discarded
# d+: the pair survives with probability 1/2, whatever the source's scale.
UNNORMALISED = (
    "modes + a b c d\nmodes - a b\n"
    "source (a+,a-) 1; (b+,b-) 1\n"
    "stage bs 1/2 a+ b+ -> c+ d+\n"
    "discard d+\n"
    "detect c+ a- b-\n"
)


def test_kept_weight_is_relative_to_the_source_weight(capsys, tmp_path):
    path = tmp_path / "unnormalised.circ"
    path.write_text(UNNORMALISED)
    code, out, err = run(capsys, "probs", str(path))
    assert (code, err) == (0, "")
    assert out == "kept_weight 1/2\n(c+,a-) 1/2\n(c+,b-) 1/2\n"
    code, out, err = run(capsys, "paradox", "--format", "csv", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "# rules=local kept_weight=1/2"
    normalised = parse(UNNORMALISED.replace("1; (b+,b-) 1", "(1/1)/sqrt(2); (b+,b-) (1/1)/sqrt(2)"))
    assert engine.run(parse(UNNORMALISED)) == engine.run(normalised)
