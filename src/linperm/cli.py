"""Command-line surface for the library.

Every subcommand prints its result as plain text, or as one JSON document
with --json. Output follows one contract:

- a result, or a negative mathematical verdict, goes to stdout: the text
  lines end with one ``check NAME: ok|FAIL`` line per check, and the JSON
  document carries ``operation``, ``field`` (except for ``reproduce``),
  ``inputs``, ``outputs``, ``checks``, ``schema_version`` and ``seed``;
- a refusal prints ``error: ...`` to stderr and nothing to stdout.

Exit codes: 0 when every check passes; 1 when a check fails (not a
permutation, a reproduction mismatch, an inverse cross-check failure) and
for the one exit-1 refusal, ``invert`` on a non-permutation; 2 for every
other refusal (usage or input errors, unmet hypotheses).

``SUBCOMMANDS`` maps each subcommand to its handler, help and own
arguments; ``build_parser``, built once per process, adds the field arguments
to every one but ``reproduce``. Each handler ``cmd_*`` takes ``(args, ring,
ext)`` and returns ``(inputs, outputs, checks, lines)``; ``main`` builds the
field, prints and picks the exit code. ``REPRODUCE_TARGETS`` maps each reproduce
target to the function that regenerates published example values from
embedded goldens, so the targets double as an end-to-end smoke test.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .errors import BadInput, LinpermError, NotAPermutation
from .fields import (
    ExtFieldSpec,
    FieldSpec,
    _prime_power,
    base_field,
    extension_field,
)
from .idempotents import closed_form_pm, primitive_idempotents
from .linearized import (
    LinearizedPoly,
    a_complete_verdicts,
    coefficient_sum_reject,
    compose,
    compositional_inverse,
    conventional_associate,
    format_linearized,
    has_base_coeffs,
    identity,
    is_involution,
    is_permutation,
    is_permutation_gcd,
    is_permutation_rank,
    parse_linearized,
    sign_vector_involutions,
)
from .oracle import (
    fixed_points,
    is_bijection_bruteforce,
    kernel,
    sqrt_unity_bruteforce,
)
from .polyring import RingSpec, _read_int, format_poly, ring_is_unit
from .shifts import alpha_shift_power, cyclic_order, shift_class

SCHEMA_VERSION = 1


class _Refusal(Exception):
    """A refusal printed as ``error: MESSAGE`` alone, with its own exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _field_info(ext: ExtFieldSpec) -> dict:
    base = ext.base
    return {
        "p": base.p,
        "k": base.k,
        "n": ext.n,
        "moduli": {
            "base": format_poly(FieldSpec(base.p), base.base_modulus)
            if base.base_modulus
            else None,
            "ext": format_poly(base, ext.ext_modulus),
        },
    }


def _ascii_int(text: str) -> int:
    """``_read_int`` as the argparse type of every integer option."""
    try:
        return _read_int(text)
    except BadInput as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_arg(option: str, text: str) -> int:
    """``_read_int`` for an option read after the field is built; the
    refusal names the option."""
    try:
        return _read_int(text)
    except BadInput as exc:
        raise BadInput(f"{option} {exc}") from None


# --- subcommand handlers -----------------------------------------------------


def cmd_idempotents(args, ring, ext):
    if args.closed_form:
        try:
            p, m = _prime_power(args.n)
        except BadInput:
            raise BadInput(
                f"the closed form needs n = p^m; n = {args.n} is not a prime power"
            ) from None
        # raises ConditionNotMet unless the order condition holds
        basis = closed_form_pm(ring, p, m)
        lines = [f"closed form, n = {p}^{m}, order condition: holds"]
        checks = [("closed_form_matches_crt", basis == primitive_idempotents(ring))]
    else:
        basis = primitive_idempotents(ring)
        lines = ["CRT construction"]
        checks = [("basis_axioms", True)]
    out = []
    for i, comp in enumerate(basis.components):
        txt = str(comp.idempotent)
        out.append(
            {
                "index": i,
                "coset_rep": comp.coset.representative,
                "factor": str(comp.factor),
                "idempotent": txt,
            }
        )
        lines.append(f"e_{i} (coset {comp.coset.representative}): {txt}")
    return {"closed_form": bool(args.closed_form)}, {"idempotents": out}, checks, lines


def cmd_is_perm(args, ring, ext):
    F = parse_linearized(args.poly, ext)
    checks = []
    lines = []
    products = []
    if has_base_coeffs(F):
        reject = coefficient_sum_reject(F)
        if reject:
            lines.append("coefficient sum is 0: not a permutation")
        checks.append(("coefficient_sum", not reject))
        f = conventional_associate(F)
        prods = [f * e for e in primitive_idempotents(ring).idempotents]
        products = [str(prod) for prod in prods]
        lines.extend(f"f*e_{i} = {txt}" for i, txt in enumerate(products))
        checks.append(("idempotent_products", not any(prod.is_zero() for prod in prods)))
        checks.append(("gcd_unit", ring_is_unit(f)))
    checks.append(("rank", is_permutation_rank(F)))
    verdict = all(p for _, p in checks)
    lines.append("permutation" if verdict else "not a permutation")
    outputs = {"permutation": verdict, "products": products}
    return {"poly": args.poly}, outputs, checks, lines


def cmd_invert(args, ring, ext):
    F = parse_linearized(args.poly, ext)
    # compositional_inverse raises InternalError if the component path ever
    # disagrees with the direct ring inverse
    try:
        Finv = compositional_inverse(F, primitive_idempotents(ring))
    except NotAPermutation:
        raise _Refusal("not a permutation, no inverse", 1) from None
    ok = compose(F, Finv) == identity(ext)
    txt = format_linearized(Finv)
    return {"poly": args.poly}, {"inverse": txt}, [("compose_identity", ok)], [txt]


def cmd_compose(args, ring, ext):
    F, G = (parse_linearized(txt, ext) for txt in args.poly)
    txt = format_linearized(compose(F, G))
    return {"poly": args.poly}, {"composition": txt}, [], [txt]


def cmd_involutions(args, ring, ext):
    basis = primitive_idempotents(ring)
    invs = sign_vector_involutions(basis, ext)
    lines = [format_linearized(F) for F in invs]
    checks = [("all_involutions", all(is_involution(F) for F in invs))]
    return {}, {"involutions": lines}, checks, lines


def cmd_complete(args, ring, ext):
    F = parse_linearized(args.poly, ext)
    basis = primitive_idempotents(ring)
    lams = [
        ext.base.from_int(_int_arg("--lambda-set", v))
        for v in args.lambda_set.split(",")
    ]
    oks = list(a_complete_verdicts(F, lams, basis))
    lines = [
        f"lambda={lam}: {'permutation' if ok else 'NOT a permutation'}"
        for lam, ok in zip(lams, oks)
    ]
    verdict = all(oks)
    lines.append(f"A-complete: {verdict}")
    inputs = {"poly": args.poly, "lambda_set": args.lambda_set}
    return inputs, {"complete": verdict}, [("a_complete", verdict)], lines


def cmd_shift(args, ring, ext):
    F = parse_linearized(args.poly, ext)
    alpha = ext.from_int(_int_arg("--alpha", args.alpha))
    txt = format_linearized(alpha_shift_power(F, alpha, args.t))
    inputs = {"poly": args.poly, "alpha": args.alpha, "t": args.t}
    return inputs, {"shifted": txt}, [], [txt]


def cmd_order(args, ring, ext):
    F = parse_linearized(args.poly, ext)
    alpha = ext.from_int(_int_arg("--alpha", args.alpha))
    order = cyclic_order(F, alpha)
    return {"poly": args.poly, "alpha": args.alpha}, {"order": order}, [], [str(order)]


def cmd_class(args, ring, ext):
    F = parse_linearized(args.poly, ext)
    alpha = ext.from_int(_int_arg("--alpha", args.alpha))
    sc = shift_class(F, alpha)
    lines = [format_linearized(m) for m in sc.members]
    inputs = {"poly": args.poly, "alpha": args.alpha}
    return inputs, {"order": sc.order, "members": lines}, [], [f"order {sc.order}"] + lines


def cmd_oracle(args, ring, ext):
    checks = []
    if args.check == "sqrt1":
        roots = sqrt_unity_bruteforce(ring)
        lines = [str(f) for f in roots]
        outputs = {"count": len(roots), "roots": lines}
    else:
        F = parse_linearized(args.poly, ext)
        if args.check == "bijection":
            verdict = is_bijection_bruteforce(F)
            checks.append(("bijection", verdict))
            lines = ["bijection" if verdict else "not a bijection"]
            outputs = {"bijection": verdict}
        elif args.check == "kernel":
            ker = kernel(F)
            lines = [str(a) for a in ker]
            outputs = {"size": len(ker), "kernel": lines}
        else:  # fixed
            fp = fixed_points(F)
            lines = [str(a) for a in fp]
            outputs = {"size": len(fp), "fixed_points": lines}
    return {"check": args.check, "poly": args.poly}, outputs, checks, lines


# --- reproduce targets -------------------------------------------------------

# Closed-form idempotents of F_3[x]/(x^125 - 1); each entry is a list of
# geometric sums (coefficient, exponent step, term count), e.g. (2, 1, 125)
# means 2*(1 + x + ... + x^124).
GOLDEN_EXAMPLE1 = {
    "e0": [(2, 1, 125)],
    "e1": [(1, 5, 25), (1, 1, 125)],
    # the published reduction prints the second sum with coefficient 1, but
    # -(1/25) = 2 mod 3; the unreduced fraction form fixes the coefficient
    "e2": [(2, 25, 5), (2, 5, 25)],
    "e3": [(1, 1, 1), (1, 25, 5)],
}

# Linear permutations of F_{3^125} built from the factors of x^125 - 1,
# published as an 18-entry table (two columns merged left-to-right).
GOLDEN_TABLE1 = [
    "x",
    "2x",
    "x^[25]",
    "2x^[25]",
    "x^[124]",
    "2x^[124]",
    "x^[25]+x",
    "2x^[25]+2x",
    "x^[124]+x",
    "2x^[124]+2x",
    "x^[124]+x^[25]",
    "2x^[124]+2x^[25]",
    "2x^[124]+x^[25]+x",
    "x^[124]+2x^[25]+2x",
    "x^[124]+x^[25]+2x",
    "2x^[124]+2x^[25]+x",
    "x^[124]+2x^[25]+x",
    "2x^[124]+x^[25]+2x",
]

# Six permutations of F_{3^25} with their compositional inverses.
GOLDEN_TABLE2 = [
    (
        "2x^[22]+2x^[21]+2x^[16]+x^[12]+2x^[11]+x^[7]+2x^[6]+2x^[2]+2x^[1]",
        "2x^[24]+2x^[19]+2x^[14]+x^[13]+2x^[9]+2x^[4]+2x^[3]",
    ),
    (
        "2x^[21]+2x^[20]+2x^[15]+x^[11]+2x^[10]+x^[6]+2x^[5]+2x^[1]+2x",
        "2x^[20]+2x^[15]+x^[14]+2x^[10]+2x^[5]+2x^[4]+2x",
    ),
    (
        "2x^[22]+2x^[20]+2x^[17]+2x^[12]+x^[10]+2x^[7]+x^[5]+2x^[2]+2x",
        "2x^[23]+2x^[18]+x^[15]+2x^[13]+2x^[8]+2x^[5]+2x^[3]",
    ),
    (
        "2x^[21]+2x^[20]+2x^[16]+2x^[11]+x^[10]+2x^[6]+x^[5]+2x^[1]+2x",
        "2x^[24]+2x^[19]+x^[15]+2x^[14]+2x^[9]+2x^[5]+2x^[4]",
    ),
    (
        "2x^[22]+2x^[21]+2x^[17]+2x^[12]+x^[11]+2x^[7]+x^[6]+2x^[2]+2x^[1]",
        "2x^[23]+2x^[18]+x^[14]+2x^[13]+2x^[8]+2x^[4]+2x^[3]",
    ),
    (
        "2x^[22]+2x^[20]+2x^[15]+x^[12]+2x^[10]+x^[7]+2x^[5]+2x^[2]+2x",
        "2x^[20]+2x^[15]+x^[13]+2x^[10]+2x^[5]+2x^[3]+2x",
    ),
]

# The eight sign-vector involutions of F_{11^9}.
GOLDEN_TABLE3 = [
    "x",
    "8x^[6]+8x^[3]+7x",
    "10x^[8]+10x^[7]+10x^[6]+10x^[5]+10x^[4]+10x^[3]+10x^[2]+10x^[1]+9x",
    "10x^[8]+10x^[7]+2x^[6]+10x^[5]+10x^[4]+2x^[3]+10x^[2]+10x^[1]+3x",
    "x^[8]+x^[7]+x^[6]+x^[5]+x^[4]+x^[3]+x^[2]+x^[1]+2x",
    "3x^[6]+3x^[3]+4x",
    "x^[8]+x^[7]+9x^[6]+x^[5]+x^[4]+9x^[3]+x^[2]+x^[1]+8x",
    "10x",
]


def _reproduce_example1() -> list[tuple[str, bool]]:
    ring = RingSpec(FieldSpec(3), 125)
    golden = {}
    for name, sums in GOLDEN_EXAMPLE1.items():
        coeffs = [0] * 125
        for c, step, count in sums:
            for j in range(count):
                coeffs[(j * step) % 125] += c
        golden[name] = ring.element(coeffs)
    closed = closed_form_pm(ring, 5, 3)
    crt = primitive_idempotents(ring)
    checks = [
        (
            "closed_form_set",
            {c.idempotent for c in closed.components} == set(golden.values()),
        ),
        (
            "crt_same_set",
            {c.idempotent for c in crt.components} == set(golden.values()),
        ),
    ]
    return checks


def _reproduce_table1() -> list[tuple[str, bool]]:
    ring = RingSpec(FieldSpec(3), 125)
    ext = extension_field(3, 125)
    basis = primitive_idempotents(ring)
    checks = []
    for txt in GOLDEN_TABLE1:
        F = parse_linearized(txt, ext)
        ok = (
            is_permutation(F, basis)
            and is_permutation_gcd(F)
            and is_permutation_rank(F)
        )
        checks.append((f"perm {txt}", ok))
    return checks


def _reproduce_table2() -> list[tuple[str, bool]]:
    ring = RingSpec(FieldSpec(3), 25)
    ext = extension_field(3, 25)
    basis = primitive_idempotents(ring)
    ident = identity(ext)
    checks = []
    for i, (ftxt, invtxt) in enumerate(GOLDEN_TABLE2):
        F = parse_linearized(ftxt, ext)
        listed = parse_linearized(invtxt, ext)
        computed = compositional_inverse(F, basis)
        checks.append((f"row {i} inverse", computed == listed))
        checks.append((f"row {i} compose", compose(F, listed) == ident))
    return checks


def _reproduce_table3() -> list[tuple[str, bool]]:
    ring = RingSpec(FieldSpec(11), 9)
    ext = extension_field(11, 9)
    basis = primitive_idempotents(ring)
    got = set(sign_vector_involutions(basis, ext))
    want = {parse_linearized(t, ext) for t in GOLDEN_TABLE3}
    return [
        ("involutions_set", got == want),
        ("count_8", len(got) == 8),
        ("all_involutions", all(is_involution(F) for F in got)),
    ]


def _reproduce_f8n11() -> list[tuple[str, bool]]:
    base = base_field(8)
    ring = RingSpec(base, 11)
    ext = extension_field(8, 11)
    basis = primitive_idempotents(ring)
    e0 = ring.element([base.one()] * 11)
    e1 = ring.one() + e0  # 1 - e0 in characteristic 2
    checks = [
        ("e0_all_ones", basis.components[0].idempotent == e0),
        ("e1_complement", basis.components[1].idempotent == e1),
    ]
    ok = True
    for t in range(11):
        for ft in base.elements():
            if ft.is_zero():
                continue
            for lam in base.elements():
                F = LinearizedPoly.monomial(ext, ext.embed(ft), t)
                shifted = F + LinearizedPoly.monomial(ext, ext.embed(lam), 0)
                expect = lam != ft  # -ft = ft in characteristic 2
                if is_permutation_gcd(shifted) != expect:
                    ok = False
    checks.append(("complete_iff_lambda_ne_ft", ok))
    return checks


REPRODUCE_TARGETS = {
    "example1": _reproduce_example1,
    "table1": _reproduce_table1,
    "table2": _reproduce_table2,
    "table3": _reproduce_table3,
    "f8n11": _reproduce_f8n11,
}


def cmd_reproduce(args, ring, ext):
    checks = REPRODUCE_TARGETS[args.target]()
    return {"target": args.target}, {}, checks, [f"target {args.target}"]


# --- argument plumbing -------------------------------------------------------

_JSON = ("--json", {"action": "store_true"})
# added before the own arguments of every subcommand but reproduce
_FIELD_ARGS = [
    ("--q", {"type": _ascii_int, "required": True, "help": "base field size"}),
    ("--n", {"type": _ascii_int, "required": True, "help": "extension degree"}),
    ("--seed", {"type": _ascii_int, "default": 0}),
    _JSON,
]
_POLY = ("--poly", {"required": True})
_ALPHA = ("--alpha", {"required": True})

# name -> (handler, help, own arguments as (flag, kwargs) pairs), in help order
SUBCOMMANDS = {
    "idempotents": (cmd_idempotents, "primitive idempotents of F_q[x]/(x^n-1)",
                    [("--closed-form", {"action": "store_true"})]),
    "is-perm": (cmd_is_perm, "permutation tests for a linearized polynomial", [_POLY]),
    "invert": (cmd_invert, "compositional inverse via components", [_POLY]),
    "compose": (cmd_compose, "symbolic composition F(G(x))",
                [("--poly", {"action": "append", "required": True})]),
    "involutions": (cmd_involutions, "all sign-vector involutions", []),
    "complete": (cmd_complete, "A-complete permutation check",
                 [_POLY, ("--lambda-set", {"required": True,
                                           "help": "comma-separated F_q values"})]),
    "shift": (cmd_shift, "t-fold alpha-cyclic shift",
              [_POLY, _ALPHA, ("--t", {"type": _ascii_int, "default": 1})]),
    "order": (cmd_order, "alpha-cyclic order", [_POLY, _ALPHA]),
    "class": (cmd_class, "full alpha-cyclic equivalence class", [_POLY, _ALPHA]),
    "reproduce": (cmd_reproduce, "regenerate published values and diff",
                  [("--target", {"required": True, "choices": list(REPRODUCE_TARGETS)}),
                   _JSON]),
    "oracle": (cmd_oracle, "brute-force checks",
               [("--check", {"required": True,
                             "choices": ["bijection", "kernel", "fixed", "sqrt1"]}),
                ("--poly", {})]),
}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """Built on first use and kept: ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="linperm",
        description="linearized permutation polynomials over F_{q^n}",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_, own) in SUBCOMMANDS.items():
        s = subs.add_parser(name, help=help_)
        for flag, kwargs in own if name == "reproduce" else _FIELD_ARGS + own:
            s.add_argument(flag, **kwargs)
        s.set_defaults(func=func)
    return parser


def _check_poly_count(args) -> None:
    """The --poly counts argparse cannot express, refused before any field is
    built so that a bad --q does not mask them."""
    if args.command == "compose" and len(args.poly) != 2:
        raise _Refusal("compose needs exactly two --poly", 2)
    if args.command == "oracle" and args.check != "sqrt1" and not args.poly:
        raise _Refusal("--poly required for this oracle check", 2)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    ring = ext = None
    try:
        _check_poly_count(args)
        if hasattr(args, "q"):  # every subcommand but reproduce
            ext = extension_field(args.q, args.n, args.seed)
            ring = RingSpec(ext.base, args.n)
        inputs, outputs, checks, lines = args.func(args, ring, ext)
    except _Refusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except LinpermError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        doc = {
            "operation": args.command,
            "inputs": inputs,
            "outputs": outputs,
            "schema_version": SCHEMA_VERSION,
            "checks": [{"name": n, "passed": p} for n, p in checks],
            "seed": getattr(args, "seed", 0),
        }
        if ext is not None:
            doc["field"] = _field_info(ext)
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in lines:
            print(line)
        for name, passed in checks:
            print(f"check {name}: {'ok' if passed else 'FAIL'}")
    return 0 if all(p for _, p in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
