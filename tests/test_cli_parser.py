"""The argument parser, pinned action by action.

Each row names one action: option strings, dest, required, default, type,
choices, help and action class. Help text is not pinned by digest, since
argparse's layout depends on the terminal width and the Python version.
"""

import argparse

import pytest

from linperm import cli

HELP = (("-h", "--help"), "help", False, argparse.SUPPRESS, None, None,
        "show this help message and exit", "_HelpAction")
# integer options are read by cli._ascii_int, which refuses what int() alone
# also reads: "1_0" and non-ASCII digits
FIELD = [
    (("--q",), "q", True, None, "_ascii_int", None, "base field size", "_StoreAction"),
    (("--n",), "n", True, None, "_ascii_int", None, "extension degree", "_StoreAction"),
    (("--seed",), "seed", False, 0, "_ascii_int", None, None, "_StoreAction"),
    (("--json",), "json", False, False, None, None, None, "_StoreTrueAction"),
]
POLY = (("--poly",), "poly", True, None, None, None, None, "_StoreAction")
ALPHA = (("--alpha",), "alpha", True, None, None, None, None, "_StoreAction")

# name, help, handler, actions after -h, in help order
PINNED = [
    ("idempotents", "primitive idempotents of F_q[x]/(x^n-1)", "cmd_idempotents",
     FIELD + [(("--closed-form",), "closed_form", False, False, None, None, None,
               "_StoreTrueAction")]),
    ("is-perm", "permutation tests for a linearized polynomial", "cmd_is_perm",
     FIELD + [POLY]),
    ("invert", "compositional inverse via components", "cmd_invert", FIELD + [POLY]),
    ("compose", "symbolic composition F(G(x))", "cmd_compose",
     FIELD + [(("--poly",), "poly", True, None, None, None, None, "_AppendAction")]),
    ("involutions", "all sign-vector involutions", "cmd_involutions", FIELD),
    ("complete", "A-complete permutation check", "cmd_complete",
     FIELD + [POLY, (("--lambda-set",), "lambda_set", True, None, None, None,
                     "comma-separated F_q values", "_StoreAction")]),
    ("shift", "t-fold alpha-cyclic shift", "cmd_shift",
     FIELD + [POLY, ALPHA,
              (("--t",), "t", False, 1, "_ascii_int", None, None, "_StoreAction")]),
    ("order", "alpha-cyclic order", "cmd_order", FIELD + [POLY, ALPHA]),
    ("class", "full alpha-cyclic equivalence class", "cmd_class", FIELD + [POLY, ALPHA]),
    ("reproduce", "regenerate published values and diff", "cmd_reproduce",
     [(("--target",), "target", True, None, None,
       ["example1", "table1", "table2", "table3", "f8n11"], None, "_StoreAction"),
      FIELD[-1]]),
    ("oracle", "brute-force checks", "cmd_oracle",
     FIELD + [(("--check",), "check", True, None, None,
               ["bijection", "kernel", "fixed", "sqrt1"], None, "_StoreAction"),
              (("--poly",), "poly", False, None, None, None, None, "_StoreAction")]),
]
NAMES = [name for name, *_ in PINNED]


def _rows(parser):
    return [
        (
            tuple(a.option_strings), a.dest, a.required, a.default,
            a.type.__name__ if a.type else None,
            list(a.choices) if a.choices is not None else None,
            a.help, type(a).__name__,
        )
        for a in parser._actions
    ]


def _subparsers(parser):
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subs


def test_top_level_is_pinned():
    parser = cli.build_parser()
    assert (parser.prog, parser.description) == (
        "linperm",
        "linearized permutation polynomials over F_{q^n}",
    )
    assert _rows(parser) == [
        HELP,
        ((), "command", True, None, None, NAMES, None, "_SubParsersAction"),
    ]
    subs = _subparsers(parser)
    assert [(a.dest, a.help) for a in subs._choices_actions] == [
        (name, help_) for name, help_, *_ in PINNED
    ]


@pytest.mark.parametrize("name,help_,handler,actions", PINNED, ids=NAMES)
def test_subcommand_is_pinned(name, help_, handler, actions):
    sub = _subparsers(cli.build_parser()).choices[name]
    assert sub.prog == f"linperm {name}"
    assert _rows(sub) == [HELP] + actions
    assert sub._defaults == {"func": getattr(cli, handler)}


@pytest.mark.parametrize("argv", [[]] + [[name] for name in NAMES], ids=["top"] + NAMES)
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--help"])
    out = capsys.readouterr()
    assert exc.value.code == 0
    assert out.err == ""
    assert out.out.startswith(f"usage: {' '.join(['linperm'] + argv)} ")
