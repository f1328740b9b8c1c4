"""Refusals of the value layer and its callers that no other test reaches.

Each case asserts only the error class, so a reworded message passes. The
operand checks are reached with another class and another spec, in both
orders; operands over equal specs built apart must still combine.
"""

import pytest

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
    compose,
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
from linperm.errors import BadInput, BothZero, HypothesisViolated, NotAUnit, SpecMismatch
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


def test_edges_that_do_not_refuse():
    a = E.from_int(100)
    assert a**-3 == (a**3).inverse()
    assert norm(E.zero()) == F3.zero()
    assert identity(E).__eq__(3) is NotImplemented and identity(E) != 3
