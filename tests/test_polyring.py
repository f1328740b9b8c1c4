"""Polynomials over F_q, the cyclic quotient ring and the x^n - 1 factorization."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linperm import (
    FieldSpec,
    Poly,
    RingSpec,
    base_field,
    cyclotomic_cosets,
    extension_field,
    factor_xn_minus_1,
    format_poly,
    parse_linearized,
    parse_poly,
    parse_ring_element,
    poly_egcd,
    poly_gcd,
    ring_inverse,
    ring_is_unit,
    ring_mul,
    shift_mul_x,
)
from linperm.errors import BadInput, BothZero, InternalError, NotAUnit
from linperm.polyring import splitting_field

ALL_SPECS = [(2, 3), (3, 2), (3, 5), (5, 2), (3, 25), (11, 9), (8, 11), (3, 125)]


def ring(q, n):
    return RingSpec(base_field(q), n)


def poly_strategy(q, max_deg=6):
    base = base_field(q)
    return st.lists(
        st.integers(0, q - 1), min_size=0, max_size=max_deg + 1
    ).map(lambda cs: Poly(base, tuple(v for c in cs for v in base.from_int(c).coeffs)))


@given(
    st.sampled_from([3, 11, 4, 8, 9]).flatmap(
        lambda q: st.tuples(poly_strategy(q), poly_strategy(q), poly_strategy(q))
    )
)
def test_poly_ring_axioms(polys):
    a, b, c = polys
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a - b == a + (-b)
    assert (a + (-a)).is_zero()


@given(poly_strategy(3), poly_strategy(3))
def test_divmod_recomposes(a, b):
    if b.is_zero():
        return
    qt, r = divmod(a, b)
    assert qt * b + r == a
    assert r.is_zero() or r.degree < b.degree


@given(poly_strategy(5), poly_strategy(5))
def test_bezout(a, b):
    if a.is_zero() and b.is_zero():
        return
    g, u, v = poly_egcd(a, b)
    assert u * a + v * b == g
    assert g == poly_gcd(a, b)


def test_egcd_both_zero(F3):
    z = Poly(F3, ())
    with pytest.raises(BothZero):
        poly_egcd(z, z)


def test_ring_spec_rejects_noncoprime(F3):
    with pytest.raises(BadInput):
        RingSpec(F3, 6)


@pytest.mark.parametrize("q,n", ALL_SPECS)
def test_factorization_recomposes(q, n):
    spec = ring(q, n)
    factors = factor_xn_minus_1(spec)
    prod = Poly(spec.base, spec.base.one().coeffs)
    for _, f in factors:
        prod = prod * f
    assert prod == spec.modulus()
    # degrees partition n and match coset sizes
    assert sum(f.degree for _, f in factors) == n
    for coset, f in factors:
        assert f.degree == len(coset.members)


@pytest.mark.parametrize("q,n", ALL_SPECS)
def test_cosets_partition(q, n):
    spec = ring(q, n)
    cosets = cyclotomic_cosets(spec)
    seen = set()
    for c in cosets:
        assert c.representative == min(c.members)
        seen.update(c.members)
    assert seen == set(range(n))


def test_known_factor_degrees():
    assert [f.degree for _, f in factor_xn_minus_1(ring(3, 125))] == [1, 100, 20, 4]
    assert [f.degree for _, f in factor_xn_minus_1(ring(8, 11))] == [1, 10]
    assert [f.degree for _, f in factor_xn_minus_1(ring(11, 9))] == [1, 6, 2]
    assert [str(f) for _, f in factor_xn_minus_1(ring(2, 3))] == ["x+1", "x^2+x+1"]


@pytest.mark.parametrize("corrupt", ["no solution", "wrong solution"])
def test_broken_minimal_polynomial_is_an_internal_error(monkeypatch, corrupt):
    """A system without a solution, or a solution that is not the minimal
    polynomial, stops the build with an error naming its layer."""
    from linperm import _linalg

    solve = _linalg.solve_mod

    def broken(A, b, p):
        x = solve(A, b, p)
        return None if corrupt == "no solution" else (x + 1) % p

    monkeypatch.setattr(_linalg, "solve_mod", broken)
    with pytest.raises(InternalError, match="^polyring: "):
        factor_xn_minus_1.__wrapped__(ring(11, 9))


def test_splitting_field_degree():
    assert splitting_field(ring(3, 125)).n == 100
    # already split when the order is 1-dimensional over the base
    assert splitting_field(ring(3, 2)).n == 1


def test_unit_iff_coprime():
    spec = ring(3, 5)
    x = spec.x()
    assert ring_is_unit(x)
    e = spec.element([spec.base.embed_int(1)] * 5)  # x^4+...+1 divides x^5-1
    assert not ring_is_unit(e)
    with pytest.raises(NotAUnit):
        ring_inverse(e)


def test_known_ring_inverse_r3_25():
    spec = ring(3, 25)
    f0 = parse_ring_element("x^20+2*x^15+1", spec)
    inv = ring_inverse(f0)
    assert format_poly(spec.base, inv.coords) == "2*x^20+2*x^10+x^5+2"
    assert ring_mul(f0, inv) == spec.one()


def test_shift_mul_x_is_rotation():
    spec = ring(3, 25)
    f0 = parse_ring_element("x^20+2*x^15+1", spec)
    assert format_poly(spec.base, shift_mul_x(f0, 1).coords) == "x^21+2*x^16+x"
    assert shift_mul_x(f0, 25) == f0


@given(st.lists(st.integers(0, 2), min_size=5, max_size=5))
def test_ring_mul_matches_poly_mod(coeffs):
    spec = ring(3, 5)
    f = spec.element([spec.base.embed_int(c) for c in coeffs])
    g = spec.x()
    lhs = ring_mul(f, g).to_poly()
    rhs = (f.to_poly() * g.to_poly()) % spec.modulus()
    assert lhs == rhs


@given(st.lists(st.integers(0, 4), min_size=1, max_size=7))
def test_format_parse_roundtrip(coeffs):
    F5 = FieldSpec(5)
    p = Poly(F5, tuple(v for c in coeffs for v in F5.embed_int(c).coeffs))
    assert parse_poly(format_poly(F5, p.coords), F5) == p


def test_parse_accepts_compact_style(F3):
    assert parse_poly("x^20+2x^15+1", F3) == parse_poly("x^20+2*x^15+1", F3)
    assert parse_poly("[1,0,2]", F3) == parse_poly("2*x^2+1", F3)


def test_parse_integer_coefficient_is_base_p_digits(F8):
    # both parsers read a bare integer c as base.from_int(c): 3 is y + 1 over F_8
    y_plus_1 = F8.from_int(3)
    assert y_plus_1.coeffs == (1, 1, 0)
    assert parse_poly("3x", F8) == Poly(F8, (0, 0, 0) + y_plus_1.coeffs)
    assert parse_poly("[0,3]", F8) == parse_poly("3x", F8)
    E = extension_field(8, 3)
    assert parse_linearized("3x", E).coeffs[0] == E.embed(y_plus_1)
    with pytest.raises(BadInput):
        parse_poly("9x", F8)
    with pytest.raises(BadInput):
        parse_linearized("9x", E)
    with pytest.raises(BadInput):
        parse_poly("[1,9]", F8)
    with pytest.raises(BadInput):
        parse_poly("5x", FieldSpec(3))
    # the comma form lists coordinates, each in [0, p)
    with pytest.raises(BadInput):
        parse_poly("5,0,0*x", F8)
    with pytest.raises(BadInput):
        parse_poly("1,-1,0", F8)
    # a comma vector lists exactly k coordinates, in both parsers
    for bad in ("1,1*x", "1,1,0,0*x"):
        with pytest.raises(BadInput):
            parse_poly(bad, F8)
        with pytest.raises(BadInput):
            parse_linearized(bad, E)


# non-ASCII digits: ARABIC-INDIC ONE and TWO, which int() reads as 1 and 2
ONE, TWO = "\u0661", "\u0662"


@pytest.mark.parametrize(
    "text",
    ["1_0*x", "1_0", f"{ONE}x", f"{ONE}+x", f"x^{TWO}", f"[{ONE},1]", "[1_0]", f"{ONE},0*x"],
)
def test_parse_poly_reads_only_ascii_digits(F11, text):
    # int() would read every one of these: 1_0 as 10 and the others as digits
    with pytest.raises(BadInput):
        parse_poly(text, F11)


@pytest.mark.parametrize(
    "text", ["1_0*x", "1_0x", f"{ONE}x", f"x^[{TWO}]", f"[{ONE},0,0]*x", "[1_0,0,0]*x"]
)
def test_parse_linearized_reads_only_ascii_digits(text):
    with pytest.raises(BadInput):
        parse_linearized(text, extension_field(11, 3))


@pytest.mark.parametrize("text", ["x^1 2", "1 0*x", "1 0", "1,0 1*x", "[1 0,0]", "x^1  2+1"])
def test_parse_poly_refuses_spaces_inside_a_number(F11, text):
    # dropping every space would join the digits: x^1 2 read as x^12
    with pytest.raises(BadInput, match="^spaces inside a number"):
        parse_poly(text, F11)


@pytest.mark.parametrize("text", ["1 0*x", "1 0x", "x^[1 2]", "[1 0,0,0]*x", "1,0 1*x", "2x^{[1} 1]"])
def test_parse_linearized_refuses_spaces_inside_a_number(text):
    for q, n in ((11, 3), (11, 9), (8, 3)):
        with pytest.raises(BadInput, match="^spaces inside a number"):
            parse_linearized(text, extension_field(q, n))


@pytest.mark.parametrize(
    "text, term", [("x^-1", "x^-1"), ("2x^-1+1", "2x^-1"), ("x+3x^-10", "3x^-10"), ("x^-0", "x^-0")]
)
def test_negative_ring_exponent_is_named(F11, text, term):
    # the sign after "^" stays in its term, which is named as written rather
    # than as the fragment "x^" that a split on the minus would leave
    with pytest.raises(BadInput) as info:
        parse_poly(text, F11)
    assert str(info.value) == f"negative exponent in polynomial term {term!r}"
    with pytest.raises(BadInput, match=re.escape(repr(term))):
        parse_ring_element(text, RingSpec(F11, 5))


@pytest.mark.parametrize("text", ["x\n", "x\n+1", "1\n", "x+1\n", "x^2\n", "\nx", "x\t", "0\n"])
def test_parse_poly_refuses_newlines_and_tabs(F11, text):
    # a "$" anchor would match before the trailing newline of a term
    with pytest.raises(BadInput):
        parse_poly(text, F11)


@pytest.mark.parametrize(
    "text", ["x\n", "x\n+x", "x^[1]\n", "2*x\n", "\nx", "x\t", "2\t*x", "0\n", "[1,0,0]*x\n"]
)
def test_parse_linearized_refuses_newlines_and_tabs(text):
    with pytest.raises(BadInput):
        parse_linearized(text, extension_field(11, 3))


def test_spaces_are_still_read(F11):
    assert parse_poly(" 2 x ^ 2 + 1 ", F11) == parse_poly("2x^2+1", F11)
    E = extension_field(11, 3)
    assert parse_linearized(" 2 * x ^[1] + x ", E) == parse_linearized("2*x^[1]+x", E)


def test_parse_subtraction(F3, F8):
    assert parse_poly("x^2-x", F3) == parse_poly("x^2+2x", F3)
    assert parse_poly("-x+1", F3) == parse_poly("2x+1", F3)
    assert parse_poly("x-x", F3) == Poly.zero(F3)
    # over F_8, -1 = 1
    assert parse_poly("-x^2-1,1,0*x", F8) == parse_poly("x^2+1,1,0*x", F8)
    for bad in ("x--1", "x+-1", "x-", "-"):
        with pytest.raises(BadInput):
            parse_poly(bad, F3)


def test_format_zero(F3):
    assert format_poly(F3, F3.zero().coeffs) == "0"
