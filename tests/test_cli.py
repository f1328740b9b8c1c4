"""Command line interface: subcommands, JSON schema, exit codes."""

import json

import pytest

from linperm.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv + ["--json"])
    return code, json.loads(out)


SCHEMA_KEYS = {"schema_version", "field", "operation", "inputs", "outputs", "checks", "seed"}


def test_idempotents_json_schema(capsys):
    code, doc = run_json(capsys, ["idempotents", "--q", "3", "--n", "5"])
    assert code == 0
    assert SCHEMA_KEYS <= set(doc)
    assert doc["schema_version"] == 1
    assert doc["field"]["p"] == 3 and doc["field"]["n"] == 5
    assert all(c["passed"] for c in doc["checks"])
    assert len(doc["outputs"]["idempotents"]) == 2


def test_idempotents_closed_form(capsys):
    code, doc = run_json(capsys, ["idempotents", "--q", "3", "--n", "25", "--closed-form"])
    assert code == 0
    assert [c["name"] for c in doc["checks"]] == ["closed_form_matches_crt"]
    assert doc["checks"][0]["passed"]


def test_idempotents_closed_form_unavailable(capsys):
    # order condition fails for q = 7, n = 9, so the closed form is refused
    code, out, err = run(capsys, ["idempotents", "--q", "7", "--n", "9", "--closed-form"])
    assert code == 2
    assert "ConditionNotMet" in err


def test_is_perm_true(capsys):
    code, doc = run_json(capsys, ["is-perm", "--q", "3", "--n", "5", "--poly", "x"])
    assert code == 0
    assert doc["outputs"]["permutation"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"coefficient_sum", "gcd_unit", "rank"} <= names


def test_is_perm_false_exit_code(capsys):
    code, doc = run_json(capsys, ["is-perm", "--q", "3", "--n", "5", "--poly", "x^[1]+2x"])
    assert code == 1
    assert doc["outputs"]["permutation"] is False


def test_invert_roundtrip(capsys):
    code, doc = run_json(
        capsys, ["invert", "--q", "3", "--n", "5", "--poly", "2x^[3]+x^[1]+x"]
    )
    assert code == 0
    inv = doc["outputs"]["inverse"]
    code2, doc2 = run_json(
        capsys,
        ["compose", "--q", "3", "--n", "5", "--poly", "2x^[3]+x^[1]+x", "--poly", inv],
    )
    assert code2 == 0
    assert doc2["outputs"]["composition"] == "x"


def test_invert_non_permutation(capsys):
    code, out, err = run(
        capsys, ["invert", "--q", "3", "--n", "5", "--poly", "x^[1]+2x"]
    )
    # a negative mathematical verdict, not a usage error
    assert code == 1
    assert "not a permutation" in err


def test_involutions(capsys):
    code, doc = run_json(capsys, ["involutions", "--q", "11", "--n", "9"])
    assert code == 0
    assert len(doc["outputs"]["involutions"]) == 8


def test_complete(capsys):
    code, doc = run_json(
        capsys,
        [
            "complete", "--q", "8", "--n", "11",
            "--poly", "5x^[7]", "--lambda-set", "0,1,2,3,4,6,7",
        ],
    )
    assert code == 0
    code2, doc2 = run_json(
        capsys,
        [
            "complete", "--q", "8", "--n", "11",
            "--poly", "5x^[7]", "--lambda-set", "0,5",
        ],
    )
    assert code2 == 1
    assert doc2["outputs"]["complete"] is False


@pytest.mark.parametrize("lams", ["1,2", "1,5"])
def test_complete_needs_zero_before_any_verdict(capsys, lams):
    # 5 is the one lambda with 5x^[7] + lambda*x not a permutation; without 0
    # in A both sets are rejected alike, before any verdict
    code, out, err = run(
        capsys,
        ["complete", "--q", "8", "--n", "11", "--poly", "5x^[7]", "--lambda-set", lams],
    )
    assert code == 2
    assert "ZeroNotInA" in err
    assert out == ""


def test_shift_and_order(capsys):
    code, doc = run_json(
        capsys,
        ["shift", "--q", "3", "--n", "5", "--poly", "x", "--alpha", "2", "--t", "10"],
    )
    assert code == 0
    # alpha = 2 in F_3, norm 2^5 = 2 has order 2, so order = 5 * 2 = 10
    assert doc["outputs"]["shifted"] == "x"
    code2, doc2 = run_json(
        capsys, ["order", "--q", "3", "--n", "5", "--poly", "x", "--alpha", "2"]
    )
    assert code2 == 0
    assert doc2["outputs"]["order"] == 10


def test_class_members(capsys):
    code, doc = run_json(
        capsys, ["class", "--q", "3", "--n", "5", "--poly", "x", "--alpha", "2"]
    )
    assert code == 0
    members = doc["outputs"]["members"]
    assert len(members) == 10
    assert len(set(members)) == 10


def test_oracle_bijection(capsys):
    code, doc = run_json(
        capsys,
        ["oracle", "--q", "2", "--n", "3", "--check", "bijection", "--poly", "x^[1]"],
    )
    assert code == 0
    assert doc["outputs"]["bijection"] is True


def test_oracle_sqrt1(capsys):
    code, doc = run_json(
        capsys, ["oracle", "--q", "3", "--n", "2", "--check", "sqrt1"]
    )
    assert code == 0
    assert len(doc["outputs"]["roots"]) == 4


def test_oracle_missing_poly(capsys):
    code, out, err = run(
        capsys, ["oracle", "--q", "2", "--n", "3", "--check", "kernel"]
    )
    assert code == 2


@pytest.mark.parametrize("target", ["example1", "table2", "table3"])
def test_reproduce_targets(capsys, target):
    code, doc = run_json(capsys, ["reproduce", "--target", target])
    assert code == 0
    assert all(c["passed"] for c in doc["checks"])


def test_text_output(capsys):
    code, out, err = run(capsys, ["is-perm", "--q", "3", "--n", "5", "--poly", "x"])
    assert code == 0
    assert "ok" in out


def test_bad_field_args(capsys):
    code, out, err = run(capsys, ["idempotents", "--q", "6", "--n", "5"])
    assert code == 2


def test_gcd_violation(capsys):
    code, out, err = run(capsys, ["idempotents", "--q", "3", "--n", "6"])
    assert code == 2


def test_json_stable_serialization(capsys):
    _, doc1 = run_json(capsys, ["idempotents", "--q", "3", "--n", "5"])
    _, doc2 = run_json(capsys, ["idempotents", "--q", "3", "--n", "5"])
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


@pytest.mark.parametrize(
    "argv",
    [
        ["shift", "--q", "3", "--n", "5", "--poly", "x", "--alpha", "b"],
        ["complete", "--q", "8", "--n", "11", "--poly", "x", "--lambda-set", "0,a"],
        ["is-perm", "--q", "3", "--n", "5", "--poly", "[1,0,1,0]*x^[1]"],
        # integers outside [0, q^n) (resp. [0, q)) name no field element
        ["shift", "--q", "3", "--n", "5", "--poly", "x", "--alpha", "300"],
        ["shift", "--q", "3", "--n", "5", "--poly", "x", "--alpha", "-1"],
        ["complete", "--q", "8", "--n", "11", "--poly", "5x^[7]", "--lambda-set", "0,9"],
        # a coefficient integer names an element of F_q by its base-p digits
        ["is-perm", "--q", "3", "--n", "5", "--poly", "5x"],
        # every coordinate of a comma or bracket coefficient lies in [0, p)
        ["is-perm", "--q", "8", "--n", "3", "--poly", "5,0,0*x"],
        ["is-perm", "--q", "3", "--n", "2", "--poly", "[4,0]*x^[1]+x"],
        ["invert", "--q", "8", "--n", "3", "--poly", "5,0,0*x"],
        ["invert", "--q", "3", "--n", "2", "--poly", "[4,0]*x^[1]+x"],
    ],
)
def test_bad_input_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert "BadInput" in err
    assert "Traceback" not in err


def test_shift_output_parses_back(capsys):
    # alpha = 7 lies outside F_3, so the shift prints a bracket coefficient
    code, doc = run_json(
        capsys, ["shift", "--q", "3", "--n", "5", "--poly", "x", "--alpha", "7"]
    )
    assert code == 0
    shifted = doc["outputs"]["shifted"]
    assert shifted.startswith("[")
    code2, doc2 = run_json(
        capsys, ["is-perm", "--q", "3", "--n", "5", "--poly", shifted]
    )
    assert code2 == 0
    assert doc2["outputs"]["permutation"] is True


def test_closed_form_names_n(capsys):
    code, out, err = run(
        capsys, ["idempotents", "--q", "3", "--n", "10", "--closed-form"]
    )
    assert code == 2
    assert "n = 10" in err
