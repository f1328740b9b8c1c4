"""Command line interface: subcommands, JSON schema, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from linperm import base_field, cli, find_irreducible
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
    # alpha = 2 in F_3, norm 2^5 = 2 has order 2, so order = 5 * 2 = 10; the
    # norm law makes t = 10^9 as quick as t = 10
    for t in ("10", "1000000000"):
        code, doc = run_json(
            capsys,
            ["shift", "--q", "3", "--n", "5", "--poly", "x", "--alpha", "2", "--t", t],
        )
        assert code == 0
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


def test_reproduce_text_output(capsys):
    code, out, err = run(capsys, ["reproduce", "--target", "table3"])
    assert code == 0
    assert out == (
        "target table3\n"
        "check involutions_set: ok\n"
        "check count_8: ok\n"
        "check all_involutions: ok\n"
    )


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


def test_degree_refused_before_the_modulus_search(capsys, monkeypatch):
    from linperm import fields

    def search(*args):
        raise AssertionError("searched for a modulus of a refused degree")

    monkeypatch.setattr(fields, "find_irreducible", search)
    code, out, err = run(capsys, ["is-perm", "--q", "2", "--n", "1024", "--poly", "x"])
    assert code == 2
    assert out == ""
    assert "gcd(n, p) must be 1" in err


def test_import_and_query_leave_sympy_unloaded():
    # sympy only splits group-order cofactors of 2^32 or more
    import linperm

    code = (
        "import sys, linperm, linperm.cli\n"
        "linperm.cli.main(['is-perm', '--q', '3', '--n', '5', '--poly', 'x^[1]+x'])\n"
        "assert 'sympy' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(linperm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()


def test_huge_prime_q_is_refused_quickly():
    # the prime-power split tries divisors below 2^16 only and FieldSpec
    # checks that bound before primality; trying every divisor up to q
    # takes minutes
    import linperm

    src = os.path.dirname(os.path.dirname(linperm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["is-perm", "--q", "2147483647", "--n", "3", "--poly", "x"]
    done = subprocess.run(
        [sys.executable, "-m", "linperm.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "p = 2147483647 must be a prime below 2^16" in done.stderr


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


@pytest.mark.parametrize("poly", ["1_0*x", "\u0661x", "x^[\u0662]+x"])
def test_non_ascii_digits_exit_2(capsys, poly):
    code, out, err = run(capsys, ["is-perm", "--q", "11", "--n", "3", "--poly", poly])
    assert (code, out) == (2, "")
    assert "BadInput" in err and "Traceback" not in err


# a full-width 3, which int() reads as 3
WIDE_THREE = "\uff13"


@pytest.mark.parametrize(
    "argv",
    [
        ["is-perm", "--q", "1_1", "--n", WIDE_THREE, "--poly", "x"],
        ["is-perm", "--q", "1_1", "--n", "3", "--poly", "x"],
        ["is-perm", "--q", "11", "--n", WIDE_THREE, "--poly", "x"],
        ["is-perm", "--q", "3", "--n", "5", "--seed", "\u0661", "--poly", "x"],
        ["is-perm", "--q", " 3", "--n", "5", "--poly", "x"],
        ["is-perm", "--q", "3\n", "--n", "5", "--poly", "x"],
        ["shift", "--q", "3", "--n", "5", "--poly", "x", "--alpha", "2", "--t", "1_0"],
    ],
    ids=["q-and-n", "q", "n", "seed", "space", "newline", "t"],
)
def test_integer_options_read_only_ascii_digits(capsys, argv):
    # argparse refuses them before any field is built
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert "expects integers" in out.err and "Traceback" not in out.err


@pytest.mark.parametrize(
    "argv",
    [
        ["shift", "--q", "3", "--n", "5", "--poly", "x", "--alpha", "1_0"],
        ["order", "--q", "3", "--n", "5", "--poly", "x", "--alpha", WIDE_THREE],
        ["class", "--q", "3", "--n", "5", "--poly", "x", "--alpha", "\u0662"],
        ["shift", "--q", "3", "--n", "5", "--poly", "x", "--alpha", "2\n"],
        ["complete", "--q", "3", "--n", "5", "--poly", "x", "--lambda-set", "0,1_0"],
        ["complete", "--q", "3", "--n", "5", "--poly", "x", "--lambda-set", f"0,{WIDE_THREE}"],
    ],
    ids=["alpha-underscore", "alpha-wide", "alpha-arabic", "alpha-newline", "lambda-underscore",
         "lambda-wide"],
)
def test_alpha_and_lambda_set_read_only_ascii_digits(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "BadInput" in err and "expects integers" in err and "Traceback" not in err


LONG = "1" * 5000  # past CPython's 4,300-digit limit on int()


@pytest.mark.parametrize(
    "argv",
    [
        ["is-perm", "--q", "3", "--n", "5", "--poly", f"x^[{LONG}]"],
        ["is-perm", "--q", "3", "--n", "5", "--poly", f"{LONG}*x"],
        ["is-perm", "--q", "3", "--n", "5", "--poly", f"[{LONG},0,0,0,0]*x"],
        ["order", "--q", "3", "--n", "5", "--poly", "x", "--alpha", LONG],
        ["complete", "--q", "3", "--n", "5", "--poly", "x", "--lambda-set", f"0,{LONG}"],
    ],
    ids=["exponent", "coefficient", "bracket", "alpha", "lambda-set"],
)
def test_over_long_integers_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: BadInput") and "too long" in err and "Traceback" not in err


def test_ascii_integer_options_still_read_signs_and_zeros(capsys):
    code, doc = run_json(capsys, ["shift", "--q", "3", "--n", "5", "--seed", "00",
                                  "--poly", "x", "--alpha", "007", "--t", "2"])
    assert code == 0
    assert (doc["seed"], doc["inputs"]["alpha"], doc["inputs"]["t"]) == (0, "007", 2)
    code, out, err = run(capsys, ["shift", "--q", "3", "--n", "5", "--poly", "x",
                                  "--alpha", "2", "--t", "-1"])
    assert code == 2 and "shift count must be nonnegative" in err


@pytest.mark.parametrize("poly", ["x\n", "x\n+x", "x^[1]\n", "x\t", "2\t*x"])
def test_newline_and_tab_in_poly_exit_2(capsys, poly):
    code, out, err = run(capsys, ["is-perm", "--q", "3", "--n", "5", "--poly", poly])
    assert (code, out) == (2, "")
    assert "BadInput" in err and "Traceback" not in err


def test_negative_exponent_is_named(capsys):
    # a sign inside brackets belongs to its term: the exponent or the
    # coordinate is named, not a fragment of the split text
    code, out, err = run(capsys, ["is-perm", "--q", "3", "--n", "5", "--poly", "x^[-1]"])
    assert code == 2
    assert "exponent -1 out of range for n = 5" in err
    code, out, err = run(
        capsys, ["is-perm", "--q", "3", "--n", "2", "--poly", "[-1,0]*x^[1]+x"]
    )
    assert code == 2
    assert "coefficient '[-1,0]' has a coordinate outside [0, 3)" in err


@pytest.mark.parametrize("poly", ["1 0*x", "x^[1 2]+x", "[1 0,0,0,0,0,0,0,0,0]*x"])
def test_spaces_inside_a_number_exit_2(capsys, poly):
    # read with its spaces dropped, "1 0*x" would be 10x
    code, out, err = run(capsys, ["is-perm", "--q", "11", "--n", "9", "--poly", poly])
    assert (code, out) == (2, "")
    assert "BadInput: spaces inside a number" in err and "Traceback" not in err


@pytest.mark.parametrize("t", ["0", "1", "7"])
def test_shift_refuses_zero_alpha_at_every_t(capsys, t):
    code, out, err = run(
        capsys, ["shift", "--q", "3", "--n", "5", "--poly", "x", "--alpha", "0", "--t", t]
    )
    assert code == 2
    assert "ZeroAlpha" in err
    assert out == ""


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


@pytest.mark.parametrize(
    "argv",
    [
        ["is-perm", "--q", "3", "--n", "5", "--poly", ""],
        ["is-perm", "--q", "3", "--n", "5", "--poly", " "],
        ["invert", "--q", "3", "--n", "5", "--poly", "{}"],
        ["compose", "--q", "3", "--n", "5", "--poly", "x", "--poly", ""],
    ],
)
def test_blank_poly_is_refused(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: BadInput: empty polynomial string\n"


def test_zero_poly_is_the_zero_map(capsys):
    code, out, _ = run(capsys, ["compose", "--q", "3", "--n", "5", "--poly", "x", "--poly", "0"])
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, ["is-perm", "--q", "3", "--n", "5", "--poly", "0"])
    assert code == 1
    assert out.splitlines()[-1] == "check rank: FAIL"


def test_closed_form_names_n(capsys):
    code, out, err = run(
        capsys, ["idempotents", "--q", "3", "--n", "10", "--closed-form"]
    )
    assert code == 2
    assert "n = 10" in err


# (q, n, seed) -> the "moduli" of the JSON "field" object; every base modulus
# but F_8's canonical one comes from the irreducible search
MODULI = {
    (2, 3, 0): (None, "x^3+x+1"),
    (3, 5, 0): (None, "x^5+x^4+x^3+2*x^2+x+2"),
    (3, 5, 1): (None, "x^5+2*x^4+2*x^3+2"),
    (4, 3, 0): ("x^2+x+1", "x^3+x^2+1,1*x+0,1"),
    (8, 3, 0): ("x^3+x+1", "x^3+1,1,0*x^2+x+0,0,1"),
    (8, 11, 0): (
        "x^3+x+1",
        "x^11+1,1,1*x^10+x^7+0,1,1*x^6+1,1,1*x^5+1,1,1*x^3+1,1,1*x^2+1,0,1",
    ),
    (11, 9, 0): (None, "x^9+9*x^8+6*x^7+3*x^6+5*x^5+2*x^4+7*x^3+8*x^2+2*x+6"),
    (3, 25, 0): (
        None,
        "x^25+x^24+x^23+x^22+x^18+2*x^17+x^16+2*x^15+2*x^14+x^12+x^10+2*x^8"
        "+x^6+2*x^5+x^4+x^2+2*x+2",
    ),
    (9, 2, 0): ("x^2+2*x+2", "x^2+1,2"),
    (16, 3, 0): ("x^4+x+1", "x^3+0,0,1,1*x^2+0,0,1,1*x+1,0,0,1"),
    (25, 2, 0): ("x^2+3*x+3", "x^2+4,0*x+1,3"),
    (27, 2, 0): ("x^3+2*x^2+1", "x^2+0,1,2*x+2,1,0"),
}


@pytest.mark.parametrize("q,n,seed", sorted(MODULI))
def test_moduli_are_pinned(capsys, q, n, seed):
    code, doc = run_json(
        capsys,
        ["is-perm", "--q", str(q), "--n", str(n), "--seed", str(seed), "--poly", "x"],
    )
    assert code == 0
    assert doc["seed"] == seed
    base, ext = MODULI[q, n, seed]
    assert doc["field"]["moduli"] == {"base": base, "ext": ext}


# (q, degree, seed) -> sha256 of the comma-joined flat tuple that
# find_irreducible returns: the moduli of F_{3^125}, F_{2^255} and F_{5^311},
# and those of the splitting fields of x^125 - 1 and x^25 - 1 over F_3, of
# degrees ord_125(3) = 100 and ord_25(3) = 20
SEARCHED_MODULI = {
    (2, 255, 0): "2c7686a0d1f698f773a8416fe6b1390376be2c96ea655bf2fa040740a8995b19",
    (3, 20, 0): "fdd41bfc7ee87add88a873ff89329d497e06a1f28279713316e656e9c7ad1dfe",
    (3, 100, 0): "c4d01c2f79016af64600a5d0abf94b7267c2df90d321291a41677436eba6c7a8",
    (3, 125, 0): "56b1ee5e014899284f887cba8f7dbb49430844011276ebe1101f2408f459ac8e",
    (5, 311, 0): "288ee53b8d7111db8f9922ebeb0a0bab319972e643a364b9694fc7aaec17121b",
}


@pytest.mark.parametrize("q,degree,seed", sorted(SEARCHED_MODULI))
def test_searched_moduli_are_pinned(q, degree, seed):
    mod = find_irreducible(base_field(q), degree, seed)
    digest = hashlib.sha256(",".join(map(str, mod)).encode()).hexdigest()
    assert digest == SEARCHED_MODULI[q, degree, seed]


# argv -> (exit code, sha256 of stdout in text, sha256 of stdout with --json);
# every README example, every refusal path and the oracle `fixed` branch
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
PINNED = [
    (
        "idempotents --q 3 --n 125 --closed-form", 0,
        "1e6cc8b24465d4e7ea33235915d98e0b220c9acc7f8ce98dfbbda0d1c472d0ae",
        "54571f337b470e419cdae00a8872308611a7c932c9781c0e6da8d15adc6b07c2",
    ),
    (
        "is-perm --q 3 --n 5 --poly 2x^[3]+x^[1]+x", 0,
        "14d6e50ddd67ed40b12b9d136a78fa25e7e73053d30a7d63cd46f7194ae32527",
        "e21b34659881b462b3827fd82e75dd6452b7a5031fde6fa4a227ffb1c266966b",
    ),
    (
        "invert --q 3 --n 5 --poly 2x^[3]+x^[1]+x", 0,
        "b3ea80ba2d58cf24b43ce987e8957f8b4bce0d0ffde4d538f3f834ab5d3bbc41",
        "e73414e03980a55489aec6d1375cca4cde7974d0ed45ed46303e853f35ece09e",
    ),
    (
        "compose --q 3 --n 5 --poly x^[1] --poly 2x", 0,
        "04d22ed90178f182b30a8d49f657d5a57ff07c53baa7e8d7c580f59bd7de164e",
        "637a061319eec93eb2e993bd1e09bd6405415d77774532f2f560daf1392d089e",
    ),
    (
        "involutions --q 11 --n 9", 0,
        "b963a84a08ea8b37aaa38b2615c2675794889bee7fe4d3e7575a9f2e270a3826",
        "bf3a68bdd7f7a8441da65c6b11062f15c1a9251abe6834df6dcf9396462e1838",
    ),
    (
        "complete --q 8 --n 11 --poly 5x^[7] --lambda-set 0,1,2,3,4,6,7", 0,
        "489237fa4178db44f58a7b11768766a50da3d81c842c20d6c614adbb7c5ea026",
        "2ac21d5fb24913dc4f00c4331dce9fc274f7c53abfd554c8f06606db0e947799",
    ),
    (
        "shift --q 3 --n 5 --poly x --alpha 2 --t 3", 0,
        "0dc6fa9dff6958717b4e27e1bfccb3559236413aa6c9c614a80187a28ffb79ea",
        "a5ba54d568a5c7ab37eca734d101201464c7583e179b76ebc93fc098a3073f84",
    ),
    (
        "order --q 3 --n 5 --poly x --alpha 2", 0,
        "917df3320d778ddbaa5c5c7742bc4046bf803c36ed2b050f30844ed206783469",
        "2befc6de6be9c7d2065230b5e944ada8945347e133a7eaaf4d4a5a68e6dce734",
    ),
    (
        "class --q 3 --n 5 --poly x --alpha 2", 0,
        "09a9896169503025fdd7f016b2ababa8a9baeec3aaa6f9c0c0fcaa94564424b7",
        "5db876ffcd3cbdbdb398771f96ac2a204b7bb2b89bc04a67c779e5ee140ff5c1",
    ),
    (
        "oracle --q 2 --n 3 --check bijection --poly x^[1]", 0,
        "f0de0c2e4f4ce6ea2379627ef3fb063c339bdd3722a5d263ab5cc0b335b5eac8",
        "b59010fb844aea250a79878167f39307fa9aa03777bb9a0a7fe42093165f1b62",
    ),
    (
        "reproduce --target table2", 0,
        "c20349354ebff4757df6a564aead869a12bc9aa72fa3a99564c9d379b05867ea",
        "da9566338530109a8e9f3c85a13ebba0fdf8de463085846956109e5b3153192a",
    ),
    # a negative verdict with one passing check still exits 1
    (
        "is-perm --q 3 --n 4 --poly x^[2]+x", 1,
        "f43eb0b75efdaa7adf2de443ff7d04906b08ef04b79fd316e841ec792ffae99a",
        "c5116207c4ee32acc3398bfa66f72ac6f29b63bb7c60b9c3f63b5231bd7c106c",
    ),
    ("invert --q 3 --n 5 --poly x^[1]+2x", 1, EMPTY, EMPTY),
    ("compose --q 3 --n 5 --poly x", 2, EMPTY, EMPTY),
    ("oracle --q 2 --n 3 --check kernel", 2, EMPTY, EMPTY),
    ("idempotents --q 7 --n 9 --closed-form", 2, EMPTY, EMPTY),
    ("idempotents --q 3 --n 10 --closed-form", 2, EMPTY, EMPTY),
    ("is-perm --q 3 --n 5 --poly 5x", 2, EMPTY, EMPTY),
    (
        "oracle --q 2 --n 3 --check fixed --poly x^[1]", 0,
        "1d3384534cbe5858d435953dc74abd1f1b6d958cf2db3c021f5fd75cc53a9caf",
        "2701d04ebf6669b06220f2bb92ab5c5022e336f5e7c7444b7767e483048a8275",
    ),
]


@pytest.mark.parametrize("json_out", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("cmd,code,text_sha,json_sha", PINNED, ids=[c[0] for c in PINNED])
def test_cli_output_is_pinned(capsys, cmd, code, text_sha, json_sha, json_out):
    argv = cmd.split() + (["--json"] if json_out else [])
    got, out, err = run(capsys, argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == (json_sha if json_out else text_sha)
    if code == 0 or out:
        assert err == ""
    else:
        assert err.startswith("error: ") and "Traceback" not in err


# --- one parser per process --------------------------------------------------


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_cached_parser_does_not_share_append_lists(capsys):
    field = ["--q", "3", "--n", "5"]
    first = cli.build_parser().parse_args(["compose", *field, "--poly", "x^[1]", "--poly", "2x"])
    second = cli.build_parser().parse_args(["compose", *field, "--poly", "x", "--poly", "x^[2]"])
    assert first.poly == ["x^[1]", "2x"] and second.poly == ["x", "x^[2]"]
    # through main: a shared list would hand the second call four polys
    code, out, _ = run(capsys, ["compose", *field, "--poly", "x^[1]", "--poly", "2x"])
    assert code == 0 and "2*x^[1]" in out
    code, out, _ = run(capsys, ["compose", *field, "--poly", "x^[3]", "--poly", "x^[4]"])
    assert code == 0 and "x^[2]" in out


def test_argparse_rejection_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["is-perm", "--q", "3", "--poly", "x"])  # --n missing
    assert exc.value.code == 2
    assert "required" in capsys.readouterr().err
    code, out, err = run(capsys, ["is-perm", "--q", "3", "--n", "5", "--poly", "x"])
    assert (code, err) == (0, "")
    assert "check rank: ok" in out


@pytest.mark.parametrize("argv", [[], ["is-perm"], ["compose"], ["reproduce"]],
                         ids=["top", "is-perm", "compose", "reproduce"])
def test_cached_help_matches_a_fresh_parser(capsys, argv):
    fresh = cli.build_parser.__wrapped__()
    with pytest.raises(SystemExit):
        fresh.parse_args(argv + ["--help"])
    want = capsys.readouterr().out
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == want
