"""Refusals of the value layer and its callers that no other test reaches.

Each case asserts only the error class, so a reworded message passes. The
operand checks are reached with another class and another spec, in both
orders; operands over equal specs built apart must still combine. The sweep
at the end passes every public callable a wrong spec, element, polynomial,
basis or text, and lets no error but a ``LinpermError`` escape.
"""

import itertools
from typing import NamedTuple

import pytest

import linperm
from linperm import (
    ExtFieldSpec,
    FieldSpec,
    LinearizedPoly,
    Poly,
    RingSpec,
    a_complete_check,
    alpha_shift,
    alpha_shift_power,
    base_field,
    closed_form_pm,
    compose,
    cor4_condition,
    cyclic_order,
    discrete_log,
    element_order,
    evaluate,
    evaluate_many,
    extension_field,
    find_irreducible,
    fixed_points,
    format_linearized,
    frobenius,
    half_order_involution,
    identity,
    integer_order_mod,
    involution_check_pointwise,
    is_bijection_bruteforce,
    is_maximal_order_element,
    kernel,
    linearized_associate,
    norm,
    parse_linearized,
    pm_sufficient_conditions,
    poly_egcd,
    poly_gcd,
    ring_inverse,
    ring_is_unit,
    ring_mul,
    shift_class,
    shift_mul_x,
    shifted_inverse,
)
from linperm.errors import (
    BadInput,
    BothZero,
    HypothesisViolated,
    LinpermError,
    NotAUnit,
    SpecMismatch,
)
from linperm.fields import element_of_order

F3, F5 = base_field(3), base_field(5)
E, E7 = extension_field(3, 5), extension_field(3, 7)
R = RingSpec(F3, 5)


def _operand_cases():
    # per element class, one value over a first spec and one over a second
    values = {
        "FieldElement": (F3.one(), F5.one()),
        "ExtElement": (E.one(), E7.one()),
        "Poly": (Poly.one(F3), Poly.one(F5)),
        "RingElement": (R.one(), RingSpec(F3, 4).one()),
        "LinearizedPoly": (identity(E), identity(E7)),
    }
    names = list(values)
    cases = {}
    for i, name in enumerate(names):
        a, b = values[name]
        other = values[names[(i + 1) % len(names)]][0]
        cases[f"{name} + another spec"] = (SpecMismatch, lambda a=a, b=b: a + b)
        cases[f"{name} + another spec, reversed"] = (SpecMismatch, lambda a=a, b=b: b + a)
        cases[f"{name} + another class"] = (SpecMismatch, lambda a=a, c=other: a + c)
        cases[f"another class + {name}"] = (SpecMismatch, lambda a=a, c=other: c + a)
    cases["Poly gcd over another spec"] = (
        SpecMismatch,
        lambda: poly_gcd(Poly.one(F3), Poly.one(F5)),
    )
    return cases


CASES = {
    **_operand_cases(),
    # FieldSpec
    "FieldSpec k = 0": (BadInput, lambda: FieldSpec(3, 0)),
    "FieldSpec modulus at k = 1": (BadInput, lambda: FieldSpec(3, 1, (0, 1))),
    "FieldSpec non-monic modulus": (BadInput, lambda: FieldSpec(3, 2, (1, 0, 2))),
    "FieldSpec.element too many": (BadInput, lambda: F3.element((1, 2))),
    "ExtFieldSpec.element too many": (BadInput, lambda: E.element((1,) * 6)),
    "ExtFieldSpec.element foreign base": (SpecMismatch, lambda: E.element((F5.one(),))),
    "ExtFieldSpec.embed foreign base": (SpecMismatch, lambda: E.embed(F5.one())),
    "ExtElement.scale foreign base": (SpecMismatch, lambda: E.one().scale(F5.one())),
    # other fields refusals
    "frobenius exponent n": (BadInput, lambda: frobenius(E.gen(), 5)),
    "frobenius exponent -1": (BadInput, lambda: frobenius(E.gen(), -1)),
    "element_of_order non-divisor": (BadInput, lambda: element_of_order(E, 7)),
    "element_of_order n = 0": (BadInput, lambda: element_of_order(E, 0)),
    "element_of_order n = -2": (BadInput, lambda: element_of_order(E, -2)),
    "FieldSpec.from_int of a float": (BadInput, lambda: F3.from_int(1.5)),
    "ExtFieldSpec.from_int of a float": (BadInput, lambda: E.from_int(1.5)),
    "ExtFieldSpec.embed_int of a float": (BadInput, lambda: E.embed_int(1.5)),
    "find_irreducible degree 0": (BadInput, lambda: find_irreducible(F3, 0)),
    # polyring
    "poly_gcd(0, 0)": (BothZero, lambda: poly_gcd(Poly.zero(F3), Poly.zero(F3))),
    "RingSpec n = 0": (BadInput, lambda: RingSpec(F3, 0)),
    "RingSpec.element foreign coefficient": (SpecMismatch, lambda: R.element([F5.one()])),
    "RingSpec.from_poly foreign polynomial": (SpecMismatch, lambda: R.from_poly(Poly.one(F5))),
    "ring_inverse(0)": (NotAUnit, lambda: ring_inverse(R.zero())),
    "shift_mul_x negative": (BadInput, lambda: shift_mul_x(R.one(), -1)),
    # linearized
    "LinearizedPoly too few coefficients": (BadInput, lambda: LinearizedPoly(E, (E.one(),))),
    "LinearizedPoly foreign coefficient": (
        SpecMismatch,
        lambda: LinearizedPoly(E, (E7.one(),) * 5),
    ),
    "monomial exponent n": (BadInput, lambda: LinearizedPoly.monomial(E, E.one(), 5)),
    "monomial foreign coefficient": (
        SpecMismatch,
        lambda: LinearizedPoly.monomial(E, E7.one(), 0),
    ),
    # a plain int where a conversion takes a value
    "LinearizedPoly of ints": (SpecMismatch, lambda: LinearizedPoly(E, (1, 2, 3, 4, 5))),
    "monomial of an int": (SpecMismatch, lambda: LinearizedPoly.monomial(E, 3, 0)),
    "ExtElement.scale by an int": (SpecMismatch, lambda: E.one().scale(3)),
    "RingSpec.from_poly of an int": (SpecMismatch, lambda: R.from_poly(3)),
    "a_complete_check foreign shift constant": (
        SpecMismatch,
        lambda: a_complete_check(identity(E), [E7.zero()]),
    ),
    "a_complete_check shift constant of no number": (
        BadInput,
        lambda: a_complete_check(identity(E), [object()]),
    ),
    # oracle
    "involution_check_pointwise 0 samples": (
        BadInput,
        lambda: involution_check_pointwise(identity(E), 0, 0),
    ),
    "involution_check_pointwise -1 samples": (
        BadInput,
        lambda: involution_check_pointwise(identity(E), -1, 0),
    ),
    "discrete_log base over another field": (
        SpecMismatch,
        lambda: discrete_log(E.one(), F3.from_int(2)),
    ),
    # shifts, alpha = 2 primitive in F_3, gcd(5, 2) = 1, (q - 1)n = 10
    "shifted_inverse t above (q - 1)n": (
        BadInput,
        lambda: shifted_inverse(identity(E), E.embed_int(2), 11),
    ),
    "half_order_involution of a non-involution": (
        HypothesisViolated,
        lambda: half_order_involution(parse_linearized("x^[1]", E), E.embed_int(2)),
    ),
    # a plain int as the first argument of a public function
    **{f"{name}, an int first": (SpecMismatch, call) for name, call in (
        ("compose", lambda: compose(3, identity(E))),
        ("evaluate_many", lambda: evaluate_many(3, [E.one().coords])),
        ("evaluate", lambda: evaluate(3, E.one())),
        ("format_linearized", lambda: format_linearized(3)),
        ("linearized_associate", lambda: linearized_associate(3, E)),
        ("a_complete_check", lambda: a_complete_check(3, [0])),
        ("pm_sufficient_conditions", lambda: pm_sufficient_conditions(3, 5, 1)),
        ("alpha_shift", lambda: alpha_shift(3, E.embed_int(2))),
        ("alpha_shift_power", lambda: alpha_shift_power(3, E.embed_int(2), 1)),
        ("cyclic_order", lambda: cyclic_order(3, E.embed_int(2))),
        ("shift_class", lambda: shift_class(3, E.embed_int(2))),
        ("shifted_inverse", lambda: shifted_inverse(3, E.embed_int(2), 1)),
        ("half_order_involution", lambda: half_order_involution(3, E.embed_int(2))),
        ("is_bijection_bruteforce", lambda: is_bijection_bruteforce(3)),
        ("kernel", lambda: kernel(3)),
        ("fixed_points", lambda: fixed_points(3)),
        ("involution_check_pointwise", lambda: involution_check_pointwise(3, 4, 0)),
        ("discrete_log", lambda: discrete_log(3, E.gen())),
        ("frobenius", lambda: frobenius(3, 1)),
        ("norm", lambda: norm(3)),
        ("element_order", lambda: element_order(3)),
        ("ring_is_unit", lambda: ring_is_unit(3)),
        ("ring_inverse", lambda: ring_inverse(3)),
        ("shift_mul_x", lambda: shift_mul_x(3, 1)),
        ("ring_mul", lambda: ring_mul(3, 3)),
        ("poly_gcd", lambda: poly_gcd(3, Poly.one(F3))),
        ("poly_egcd", lambda: poly_egcd(3, Poly.one(F3))),
    )},
    "is_maximal_order_element, an int": (BadInput, lambda: is_maximal_order_element(3)),
    # integer arguments are read as ints before a spec is built or a cache hashes them
    **{f"{name}, no int": (BadInput, call) for name, call in (
        ("FieldSpec p", lambda: FieldSpec(3.0)),
        ("FieldSpec k", lambda: FieldSpec(3, 1.0)),
        ("ExtFieldSpec n", lambda: ExtFieldSpec(F3, 5.0, E.ext_modulus)),
        ("RingSpec n", lambda: RingSpec(F3, "5")),
        ("extension_field q", lambda: extension_field("3", 5)),
        ("extension_field n", lambda: extension_field(3, 5.0)),
        ("extension_field seed", lambda: extension_field(3, 5, 0.5)),
        ("base_field q", lambda: base_field([4])),
        ("frobenius exponent", lambda: frobenius(E.gen(), 1.5)),
        ("shift_mul_x exponent", lambda: shift_mul_x(R.one(), 1.5)),
        ("alpha_shift_power exponent", lambda: alpha_shift_power(identity(E), E.embed_int(2), 1.5)),
        ("shifted_inverse t", lambda: shifted_inverse(identity(E), E.embed_int(2), 1.5)),
        ("involution_check_pointwise samples", lambda: involution_check_pointwise(identity(E), 2.5, 0)),
        ("involution_check_pointwise seed", lambda: involution_check_pointwise(identity(E), 2, "0")),
        ("find_irreducible degree", lambda: find_irreducible(F3, 2.5)),
        ("find_irreducible seed", lambda: find_irreducible(F3, 2, 0.5)),
        ("element_of_order n", lambda: element_of_order(E, 2.0)),
        ("closed_form_pm p", lambda: closed_form_pm(RingSpec(F3, 4), 2.0, 2)),
        ("closed_form_pm m", lambda: closed_form_pm(RingSpec(F3, 4), 2, "2")),
        ("cor4_condition p", lambda: cor4_condition(3.0, 1, 2)),
        ("cor4_condition q", lambda: cor4_condition(3, 1, "2")),
        ("pm_sufficient_conditions p", lambda: pm_sufficient_conditions(identity(E), 5.0, 1)),
        ("monomial exponent", lambda: LinearizedPoly.monomial(E, E.one(), 1.5)),
        ("integer_order_mod n", lambda: integer_order_mod(3, "5")),
    )},
}


@pytest.mark.parametrize("case", list(CASES))
def test_refusal(case):
    error, call = CASES[case]
    with pytest.raises(error):
        call()


def test_equal_specs_built_apart_combine():
    E_apart = ExtFieldSpec(FieldSpec(3), 5, E.ext_modulus)
    pairs = [
        (FieldSpec(2, 3, (1, 1, 0, 1)).one(), base_field(8).one()),  # prime fields intern
        (E_apart.one(), E.one()),
        (Poly.one(FieldSpec(3)), Poly.one(F3)),
        (RingSpec(FieldSpec(3), 5).one(), R.one()),
        (identity(E_apart), identity(E)),
    ]
    for a, b in pairs:
        assert a.spec is not b.spec and a.spec == b.spec
        assert a + b == b + a and a - b == b - a


def test_spec_mismatch_names_both_sides_in_short():
    """The message names the class and each spec by its short name, so its
    length does not grow with the fields: over F_{2^255} and F_{2^127} the
    full reprs ran to 1,595 characters. Two specs of one name differ in
    their moduli, and the second is "another"."""
    with pytest.raises(SpecMismatch) as info:
        compose(identity(extension_field(2, 255)), identity(extension_field(2, 127)))
    message = str(info.value)
    assert message == "expected LinearizedPoly over F_{2^255}, got LinearizedPoly over F_{2^127}"
    assert len(message) < 100
    E_other = ExtFieldSpec(F3, 5, find_irreducible(F3, 5, 1))
    with pytest.raises(SpecMismatch, match=r"over F_\{3\^5\}, got ExtElement over another F_\{3\^5\}$"):
        E.one() + E_other.one()
    with pytest.raises(SpecMismatch, match=r"^expected RingElement over F_3\[x\]/\(x\^5 - 1\), "):
        R.one() + RingSpec(F3, 4).one()


def test_edges_that_do_not_refuse():
    a = E.from_int(100)
    assert a**-3 == (a**3).inverse()
    assert norm(E.zero()) == F3.zero()
    assert identity(E).__eq__(3) is NotImplemented and identity(E) != 3


# --- the sweep ----------------------------------------------------------------


class Arg(NamedTuple):
    """An argument the sweep replaces: its value in the valid call, and the
    same kind of value over another spec (for text, text written for one).
    The sweep also puts an int and a list in its place."""

    value: object
    other: object


class Int(NamedTuple):
    """An integer argument, which the sweep replaces by 1.5 and by "3"."""

    value: int


# what the sweep puts in place of each kind of argument
KINDS = {
    Arg: {"int": lambda arg: 3, "list": lambda arg: [3], "other": lambda arg: arg.other},
    Int: {"float": lambda arg: 1.5, "text": lambda arg: "3"},
}


R4 = RingSpec(F3, 4)
BASIS, BASIS4 = linperm.primitive_idempotents(R), linperm.primitive_idempotents(R4)
X, X7 = identity(E), identity(E7)
ALPHA, ALPHA7 = E.embed_int(2), E7.embed_int(2)
BETA = element_of_order(E, E.order - 1)

_F = Arg(X, X7)
_ALPHA = Arg(ALPHA, ALPHA7)
_BASIS = Arg(BASIS, BASIS4)
_RING = Arg(R, R4)
_RING_ONE = Arg(R.one(), R4.one())

# one valid call per public callable, by name: the exports of linperm, and
# two functions that other modules call with a spec (EXTRA)
SWEEP = {
    # fields
    "ExtElement": (Arg(E, E7), E.one().coords),
    "ExtFieldSpec": (Arg(F3, F5), Int(5), E.ext_modulus),
    "FieldElement": (Arg(F3, F5), (1,)),
    "FieldSpec": (Int(3),),
    "base_field": (Int(3),),
    "element_order": (Arg(E.gen(), E7.gen()),),
    "extension_field": (Int(3), Int(5)),
    "find_irreducible": (Arg(F3, F5), Int(2)),
    "frobenius": (Arg(E.gen(), E7.gen()), Int(1)),
    "integer_order_mod": (Int(3), Int(5)),
    "norm": (Arg(E.gen(), E7.gen()),),
    "element_of_order": (Arg(E, E7), Int(2)),
    "splitting_field": (_RING,),
    # polyring
    "CyclotomicCoset": (0, (0,)),
    "Poly": (Arg(F3, F5), (1, 2)),
    "RingElement": (_RING, R.one().coords),
    "RingSpec": (Arg(F3, F5), Int(4)),
    "cyclotomic_cosets": (_RING,),
    "factor_xn_minus_1": (_RING,),
    "format_poly": (Arg(F3, F5), (1, 2)),
    "parse_poly": (Arg("2x+1", "4x+1"), Arg(F3, F5)),
    "parse_ring_element": (Arg("2x+1", "4x+1"), _RING),
    "poly_gcd": (Arg(Poly.zero(F3), Poly.zero(F5)), Arg(Poly.one(F3), Poly.one(F5))),
    "poly_egcd": (Arg(Poly.zero(F3), Poly.zero(F5)), Arg(Poly.one(F3), Poly.one(F5))),
    "ring_inverse": (_RING_ONE,),
    "ring_is_unit": (_RING_ONE,),
    "ring_mul": (Arg(R.x(), R4.x()), Arg(R.x(), R4.x())),
    "shift_mul_x": (Arg(R.x(), R4.x()), Int(1)),
    # idempotents
    "ComponentVector": (_RING, (R.one(),) * BASIS.t),
    "IdempotentBasis": (_RING, BASIS.components),
    "closed_form_pm": (_RING, Int(5), Int(1)),
    "cor4_condition": (Int(5), Int(1), Int(3)),
    "is_idempotent": (_RING_ONE,),
    "is_primitive_idempotent": (Arg(BASIS.idempotents[0], R4.one()), _BASIS),
    "primitive_idempotents": (_RING,),
    "project": (_RING_ONE, _BASIS),
    "reconstruct": (
        Arg(linperm.project(R.one(), BASIS), linperm.project(R4.one(), BASIS4)),
        _BASIS,
    ),
    # linearized
    "LinearizedPoly": (Arg(E, E7), (Arg(E.one(), E7.one()),) + (E.zero(),) * 4),
    "a_complete_check": (_F, [Arg(E.zero(), E7.zero())], _BASIS),
    "a_complete_sufficient_pm": (_F, [Arg(E.zero(), E7.zero())], Int(5), Int(1)),
    "binomial_is_permutation": (Arg(F3.one(), F5.one()), Arg(F3.one(), F5.one()), Int(0), Int(1)),
    "coefficient_sum_reject": (_F,),
    "compose": (_F, _F),
    "compositional_inverse": (_F, _BASIS),
    "conventional_associate": (_F,),
    "evaluate": (_F, Arg(E.gen(), E7.gen())),
    "evaluate_many": (_F, [E.gen().coords]),
    "format_linearized": (_F,),
    "has_base_coeffs": (_F,),
    "identity": (Arg(E, E7),),
    "is_involution": (_F,),
    "is_permutation": (_F, _BASIS),
    "is_permutation_gcd": (_F,),
    "is_permutation_rank": (_F,),
    "linearized_associate": (_RING_ONE, Arg(E, E7)),
    "parse_linearized": (Arg("2x^[1]+x", "[0,0,0,0,0,0,1]*x"), Arg(E, E7)),
    "pm_sufficient_conditions": (_F, Int(5), Int(1)),
    "sign_vector_involutions": (_BASIS, Arg(E, E7)),
    # shifts
    "ShiftClass": (_F, _ALPHA, Int(1), (X,)),
    "alpha_shift": (_F, _ALPHA),
    "alpha_shift_power": (_F, _ALPHA, Int(3)),
    "cyclic_order": (_F, _ALPHA),
    "half_order_involution": (_F, _ALPHA),
    "is_maximal_order_element": (_ALPHA,),
    "shift_class": (_F, _ALPHA),
    "shifted_inverse": (_F, _ALPHA, Int(1)),
    # oracle
    "discrete_log": (Arg(BETA**7, E7.one()), Arg(BETA, E7.gen())),
    "fixed_points": (_F,),
    "involution_check_pointwise": (_F, Int(5), Int(0)),
    "is_bijection_bruteforce": (_F,),
    "kernel": (_F,),
    "sqrt_unity_bruteforce": (_RING,),
    # errors
    "LinpermError": ("a message",),
}


EXTRA = {"element_of_order": element_of_order, "splitting_field": linperm.polyring.splitting_field}


def _function(name):
    return EXTRA[name] if name in EXTRA else getattr(linperm, name)


def _fill(args, pick, counter):
    """args with each Arg and Int, counted in order through nested lists and
    tuples, replaced by pick(index, arg)."""
    if isinstance(args, (Arg, Int)):
        return pick(next(counter), args)
    if isinstance(args, (list, tuple)):
        return type(args)(_fill(a, pick, counter) for a in args)
    return args


def _leaves(args) -> list:
    leaves = []
    _fill(args, lambda i, a: leaves.append(a), itertools.count())
    return leaves


SWEPT = [
    (name, index, bad)
    for name, args in SWEEP.items()
    for index, arg in enumerate(_leaves(args))
    for bad in KINDS[type(arg)]
]


def test_every_export_has_a_row():
    exports = {
        name
        for name in dir(linperm)
        if not name.startswith("_") and callable(getattr(linperm, name))
    }
    assert exports | set(EXTRA) == set(SWEEP)


@pytest.mark.parametrize("name", list(SWEEP))
def test_the_valid_call_succeeds(name):
    _function(name)(*_fill(SWEEP[name], lambda i, a: a.value, itertools.count()))


@pytest.mark.parametrize(
    "name,index,bad", SWEPT, ids=[f"{name}[{index}]={bad}" for name, index, bad in SWEPT]
)
def test_a_wrong_argument_raises_only_a_linperm_error(name, index, bad):
    def pick(i, arg):
        return KINDS[type(arg)][bad](arg) if i == index else arg.value

    args = _fill(SWEEP[name], pick, itertools.count())
    try:
        _function(name)(*args)
    except LinpermError:
        pass
