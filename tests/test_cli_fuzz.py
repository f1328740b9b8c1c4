"""Seeded fuzz of the command line: every input ends in exit 0, 1 or 2.

About 200 argument vectors are drawn from a fixed seed over every
subcommand, small (q, n) (some invalid) and polynomial strings that mix
well-formed terms with garbage, huge exponents, coordinates outside [0, p),
stray signs and empty strings. Each runs through ``linperm.cli.main`` in
the test process; an argparse exit counts as its code. Any other exception
escaping ``main`` would be a traceback for the user, so it fails the test.
"""

import random

import pytest

from linperm.cli import main

SEED = 20201
CASES = 200

FIELDS = [(2, 3), (2, 5), (3, 2), (3, 4), (3, 5), (4, 3), (5, 2), (8, 3), (9, 2), (11, 2)]
BAD_FIELDS = [(6, 3), (1, 3), (0, 2), (3, 6), (2, 4), (3, 0), (3, -2), (-3, 2)]
TERMS = ["x", "2x", "2*x", "x^[1]", "2x^[2]", "x^{[1]}", "1,1*x", "0*x", "x^[3]"]
GARBAGE = [
    "", " ", "0", "-0", "+", "-", "y", "x^[", "x^[]", "x^[-1]", "x*x", "[", "]",
    "[]*x", "[,]*x", "x^[99999999999999999999]", "99999999999999999999999x",
    "5,0,0*x", "[4,0]*x^[1]", "[1,-1]*x", "x--x", "x+-x", "1e5x", "x^^2",
    "é", "x^[1]x", "2,,1*x", "--poly",
    # integers past CPython's 4,300-digit limit on int()
    "x^[" + "1" * 5000 + "]", "1" * 5000 + "*x", "[" + "1" * 5000 + "]*x",
]
SCALARS = ["0", "1", "2", "7", "-1", "300", "abc", "", "1e3", str(10**40), "1" * 5000]
LAMBDA_SETS = ["0", "0,1", "1", "0,a", "", "0,,1", "0,2,4", "0,-1", "0,99", "0," + "1" * 5000]


def _poly(rng, n):
    if rng.random() < 0.3:
        return rng.choice(GARBAGE)
    terms = []
    for _ in range(rng.randint(1, 4)):
        term = rng.choice(TERMS)
        if rng.random() < 0.3:
            term = term.replace("[1]", f"[{rng.choice([0, n - 1, n, n + 5, 10**6])}]")
        if rng.random() < 0.2:
            term = f"{rng.randint(0, 20)}*{term.split('*')[-1]}"
        terms.append(term)
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice(["+", "-", "+", "-", "--", " + "]) + term
    return "-" + text if rng.random() < 0.2 else text


def _argv(rng):
    command = rng.choice(
        ["idempotents", "is-perm", "invert", "compose", "involutions", "complete",
         "shift", "order", "class", "reproduce", "oracle"]
    )
    if command == "reproduce":
        target = rng.choice(["example1", "table1", "table2", "table3", "f8n11", "nope"])
        return [command, "--target", target] + (["--json"] if rng.random() < 0.5 else [])
    q, n = rng.choice(FIELDS if rng.random() < 0.85 else BAD_FIELDS)
    q = rng.choice([str(q), str(q), "abc", ""]) if rng.random() < 0.1 else str(q)
    argv = [command, "--q", q, "--n", str(n)]
    if command in ("is-perm", "invert", "complete", "shift", "order", "class"):
        argv += ["--poly=" + _poly(rng, n)]
    if command == "compose":
        for _ in range(rng.randint(0, 3)):
            argv += ["--poly=" + _poly(rng, n)]
    if command == "complete":
        argv += ["--lambda-set", rng.choice(LAMBDA_SETS)]
    if command in ("shift", "order", "class"):
        argv += ["--alpha", rng.choice(SCALARS)]
    if command == "shift" and rng.random() < 0.3:
        argv += ["--t", rng.choice(["0", "2", "-1", "x"])]
    if command == "oracle":
        argv += ["--check", rng.choice(["bijection", "kernel", "fixed", "sqrt1", "nope"])]
        if rng.random() < 0.8:
            argv += ["--poly=" + _poly(rng, n)]
    if command == "idempotents" and rng.random() < 0.3:
        argv += ["--closed-form"]
    if rng.random() < 0.1:
        # drop an argument, so a required one may be missing
        del argv[rng.randrange(1, len(argv))]
    if rng.random() < 0.5:
        argv += ["--json"]
    return argv


# involutions over F_2^k warn that every sign vector gives the identity
@pytest.mark.filterwarnings("ignore:characteristic 2")
def test_cli_fuzz_exit_codes(capsys):
    rng = random.Random(SEED)
    for _ in range(CASES):
        argv = _argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            raise AssertionError(f"linperm {' '.join(argv)} raised") from exc
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
