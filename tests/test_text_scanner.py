"""The one term scanner behind both text parsers, against the per-term readers
it replaced, and the one-pass formatter against a per-row one.

``_reference_parse_linearized`` and ``_reference_parse_poly`` are the former
parsers, kept here unchanged apart from returning plain coordinates: a regex
split on signs outside brackets, one ``fullmatch`` per term, a second regex
per coefficient and one numpy scalar add per coordinate. The new parsers must
give the same coordinates, or both refuse with ``BadInput``. The one agreed
difference: a number that spaces split ("1 0") is refused now, where the old
readers dropped the spaces and joined the digits.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_linearized import PARSE_FIELDS, _ext_coeffs, signed_terms

from linperm import (
    LinearizedPoly,
    Poly,
    base_field,
    extension_field,
    format_linearized,
    parse_linearized,
    parse_poly,
)
from linperm.errors import BadInput
from linperm.fields import _digits

# --- the former readers -------------------------------------------------------

_OLD_TERM_RE = re.compile(
    r"(?:(?P<coeff>[0-9,]+)\*?)?(?P<x>x)(?:\^(?P<exp>[0-9]+))?|(?P<const>[0-9,]+)"
)
_OLD_LIN_TERM_RE = re.compile(r"(?:(?P<coeff>[^*x]+)\*?)?x(?:\^\[(?P<exp>-?[0-9]+)\])?")


def _parse_ints(raw, text):
    if re.fullmatch(r"-?[0-9]+(?:,-?[0-9]+)*", text) is None:
        raise BadInput(f"cannot parse coefficient {raw!r}")
    return [int(v) for v in text.split(",")]


def _parse_digits(raw, text, p):
    parts = _parse_ints(raw, text)
    if not all(0 <= v < p for v in parts):
        raise BadInput(f"coefficient {raw!r} has a coordinate outside [0, {p})")
    return parts


def _signed_terms(text):
    first = -1 if text.startswith("-") else 1
    tokens = re.split(r"([+-])(?![^\[]*\])", text[1:] if first < 0 else text)
    signs = [first] + [1 if s == "+" else -1 for s in tokens[1::2]]
    return list(zip(signs, tokens[::2]))


def _parse_field_coeff(raw, field):
    if "," not in raw:
        (v,) = _parse_ints(raw, raw)
        if not 0 <= v < field.q:
            raise BadInput(f"{v} names no element of F_{field.q}")
        return list(_digits(v, field.p, field.k))
    parts = _parse_digits(raw, raw, field.p)
    if len(parts) != field.k:
        raise BadInput(f"coefficient {raw!r} has wrong length")
    return parts


def _reference_parse_poly(text, spec):
    """The ``Poly`` that the former ``parse_poly`` read from ``text``."""
    text = text.replace(" ", "")
    if not text:
        raise BadInput("empty polynomial string")
    if text == "0":
        return Poly.zero(spec)
    if text.startswith("[") and text.endswith("]"):
        ints = _parse_ints(text, text[1:-1]) if text != "[]" else []
        coords = [v for c in ints for v in spec.from_int(c).coeffs]
    else:
        k = spec.k
        coords = []
        for sign, term in _signed_terms(text):
            m = _OLD_TERM_RE.fullmatch(term)
            if not m:
                raise BadInput(f"cannot parse polynomial term {term!r}")
            if m.group("const") is not None:
                e, raw = 0, m.group("const")
            else:
                e = int(m.group("exp")) if m.group("exp") else 1
                raw = m.group("coeff")
            c = [1] + [0] * (k - 1) if raw is None else _parse_field_coeff(raw, spec)
            coords.extend([0] * (e * k + k - len(coords)))
            for j, v in enumerate(c):
                coords[e * k + j] += sign * v
    return Poly(spec, tuple(v % spec.p for v in coords))


def _reference_parse_linearized(text, spec):
    """The (n, k*n) coordinate array that the former ``parse_linearized`` read."""
    cleaned = text.replace("{", "").replace("}", "").replace(" ", "")
    if not cleaned:
        raise BadInput("empty polynomial string")
    width = spec.base.k * spec.n
    coords = np.zeros((spec.n, width), dtype=np.int64)
    if cleaned == "0":
        return coords
    written = spec.base.k
    for sign, term in _signed_terms(cleaned):
        m = _OLD_LIN_TERM_RE.fullmatch(term)
        if m is None:
            raise BadInput(f"cannot parse term {term!r}")
        exp = int(m.group("exp") or 0)
        if not 0 <= exp < spec.n:
            raise BadInput(f"exponent {exp} out of range for n = {spec.n}")
        raw = m.group("coeff")
        if raw is None:
            coords[exp, 0] += sign
        elif raw.startswith("[") and raw.endswith("]"):
            parts = _parse_digits(raw, raw[1:-1], spec.base.p)
            if len(parts) != width:
                raise BadInput(f"coefficient {raw!r} needs {width} integers, got {len(parts)}")
            coords[exp] += np.multiply(parts, sign)
            written = width
        else:
            for j, v in enumerate(_parse_field_coeff(raw, spec.base)):
                coords[exp, j] += sign * v
    np.remainder(coords[:, :written], spec.base.p, out=coords[:, :written])
    return coords


def _reference_format_linearized(F):
    """The former formatter: the outside-F_q mask over every row, then one
    ``tolist`` per nonzero row."""
    k = F.spec.base.k
    outside = F.coords[:, k:].any(axis=1)
    terms = []
    for i in F.coords.any(axis=1).nonzero()[0][::-1].tolist():
        c = F.coords[i].tolist()
        var = f"x^[{i}]" if i else "x"
        if outside[i]:
            terms.append(f"[{','.join(map(str, c))}]*{var}")
        elif c[0] == 1 and not any(c[1:]):
            terms.append(var)
        else:
            terms.append(f"{','.join(map(str, c[:k]))}*{var}")
    return " + ".join(terms) if terms else "0"


# --- inputs --------------------------------------------------------------------

# characters no term may hold, or may hold only in their place
_JUNK = ["_", "١", "３", "\t", "\n", "*", "[", "]", "+", "-", " ", "{", "}", ",", "^", "x", "0"]


@st.composite
def mutated(draw, text):
    """``text`` with one to three edits: a sign dropped or doubled, a junk
    character put in, a character deleted, or a bracket or comma field emptied."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop sign", "double sign", "insert", "delete", "empty field"]))
        signs = [i for i, ch in enumerate(text) if ch in "+-"]
        commas = [i for i, ch in enumerate(text) if ch in ",["]
        if kind == "drop sign" and signs:
            i = draw(st.sampled_from(signs))
            text = text[:i] + text[i + 1 :]
        elif kind == "double sign" and signs:
            i = draw(st.sampled_from(signs))
            text = text[:i] + draw(st.sampled_from("+-")) + text[i:]
        elif kind == "empty field" and commas:
            i = draw(st.sampled_from(commas))
            text = text[: i + 1] + "," + text[i + 1 :]
        elif kind == "delete" and text:
            i = draw(st.integers(0, len(text) - 1))
            text = text[:i] + text[i + 1 :]
        else:
            i = draw(st.integers(0, len(text)))
            text = text[:i] + draw(st.sampled_from(_JUNK)) + text[i:]
    return text


RING_FIELDS = [2, 3, 4, 8, 11, 49]


@st.composite
def ring_terms(draw, q):
    """A sum of signed ring terms in every written style: "c*x^e", "cx^e",
    "x^e", "c*x", "x", constants, integer and comma coefficients."""
    F = base_field(q)
    pieces = []
    for t in range(draw(st.integers(1, 8))):
        exp = draw(st.integers(0, 12))
        kind = draw(st.sampled_from(["unit", "int", "comma"]))
        if kind == "unit":
            coeff = "" if exp else "1"
        elif kind == "int":
            coeff = str(draw(st.integers(0, q - 1)))
        else:
            coeff = ",".join(str(draw(st.integers(0, F.p - 1))) for _ in range(F.k))
        if exp == 0 and coeff:
            term = coeff
        else:
            var = "x" if exp == 1 and draw(st.booleans()) else f"x^{exp}"
            term = coeff + (draw(st.sampled_from(["*", " * ", ""])) if coeff else "") + var
        sign = draw(st.sampled_from(["+", "-", " + ", "- "]))
        pieces.append(term if t == 0 and sign.strip() == "+" else sign + term)
    return "".join(pieces)


def _split_number(text):
    return re.search(r"[0-9] +[0-9]", text) is not None


def _outcome(parse, text, spec):
    try:
        return parse(text, spec)
    except BadInput:
        return BadInput


def _check_linearized(text, E):
    old = _outcome(_reference_parse_linearized, text, E)
    new = _outcome(parse_linearized, text, E)
    if _split_number(text.replace("{", "").replace("}", "")):
        assert new is BadInput, text
    elif old is BadInput or new is BadInput:
        assert old is new, text
    else:
        assert new.coords.tolist() == old.tolist(), text


def _check_poly(text, F):
    old = _outcome(_reference_parse_poly, text, F)
    new = _outcome(parse_poly, text, F)
    if _split_number(text):
        assert new is BadInput, text
    elif old is BadInput or new is BadInput:
        assert old is new, text
    else:
        assert new == old, text


# --- the scanner against the former readers ------------------------------------


@pytest.mark.parametrize("q, n", PARSE_FIELDS)
@settings(max_examples=60)
@given(data=st.data())
def test_linearized_scanner_reads_valid_sums_as_before(q, n, data):
    E = extension_field(q, n)
    text, want = data.draw(signed_terms(q, n))
    _check_linearized(text, E)
    assert np.array_equal(parse_linearized(text, E).coords, want)


@pytest.mark.parametrize("q, n", PARSE_FIELDS + [(3, 5), (11, 9)])
@settings(max_examples=150)
@given(data=st.data())
def test_linearized_scanner_agrees_on_mutated_sums(q, n, data):
    E = extension_field(q, n)
    text, _ = data.draw(signed_terms(q, n))
    _check_linearized(data.draw(mutated(text)), E)


@pytest.mark.parametrize("q", RING_FIELDS)
@settings(max_examples=60)
@given(data=st.data())
def test_ring_scanner_reads_valid_sums_as_before(q, data):
    F = base_field(q)
    text = data.draw(ring_terms(q))
    assert parse_poly(text, F) == _reference_parse_poly(text, F)


@pytest.mark.parametrize("q", RING_FIELDS)
@settings(max_examples=150)
@given(data=st.data())
def test_ring_scanner_agrees_on_mutated_sums(q, data):
    F = base_field(q)
    _check_poly(data.draw(mutated(data.draw(ring_terms(q)))), F)


@pytest.mark.parametrize(
    "text",
    [
        "x", "0", "-x", "+x", "x--x", "x+-x", "x-", "-", "--x", "xx", "x^[1]x", "2**x", "*x",
        "x^[-0]", "x^[-1]", "x^[5]", "x^[03]", "x^[3", "x^[3]]+x", "x+3]", "[1,0,0,0,0]x",
        "[-0,0,0,0,1]*x", "[-1,0,0,0,0]*x", "[1,0,0,0]*x", "[]*x", "[1,,0,0,0]*x", "[,1,0,0,0]x",
        "[1,0,0,0,0,]x", "{2}x^{[1]}", "2x^{[1]} - x", "1_0x", "١x", "x\n", "x\t", "1 0*x",
        "2 * x ^[1] + x", "3x", "00x", "0x+x", "0+x", "x+0",
    ],
)
def test_linearized_scanner_agrees_on_edge_cases(text):
    _check_linearized(text, extension_field(3, 5))


@pytest.mark.parametrize(
    "text",
    [
        "x", "0", "00", "-0", "1", "-x+1", "+x", "x--1", "x+-1", "x-", "-", "x^", "x^-1", "x^-0",
        "x^2x", "2x3", "x^012", "x+1]", "[1,2]", "[]", "[-1]", "[-0,1]", "[1,,2]", "[1]x", "[1]+x",
        "-[1]", "1,2*x", "1,2x", "12", "1_0", "x\n", "x\t", "x^1 2", "2 x ^ 2 + 1", "x*", "*x",
    ],
)
def test_ring_scanner_agrees_on_edge_cases(text, F11):
    _check_poly(text, F11)
    _check_poly(text, base_field(4))


# --- integers past CPython's digit limit ---------------------------------------

# int() refuses more than 4,300 digits with a ValueError; every parser reads
# its integers through one reader that turns that into BadInput
LONG = "1" * 5000


@pytest.mark.parametrize(
    "text", [f"x^{LONG}", f"{LONG}*x", f"{LONG},0*x", f"x+{LONG}", f"[{LONG}]", f"[0,{LONG}]"]
)
def test_ring_parser_refuses_an_over_long_integer(text):
    with pytest.raises(BadInput, match="too long"):
        parse_poly(text, base_field(4))


@pytest.mark.parametrize(
    "text", [f"x^[{LONG}]", f"{LONG}*x", f"x+{LONG}*x^[1]", f"[{LONG},0,0,0,0]*x", f"[0,0,0,0,{LONG}]x"]
)
def test_linearized_parser_refuses_an_over_long_integer(text):
    with pytest.raises(BadInput, match="too long"):
        parse_linearized(text, extension_field(3, 5))


# --- the one-pass formatter ------------------------------------------------------


@pytest.mark.parametrize("q, n", [(3, 5), (4, 3)])
@given(data=st.data())
def test_format_is_byte_identical_to_the_per_row_form(q, n, data):
    E = extension_field(q, n)
    coeffs = data.draw(_ext_coeffs(E))
    zeroed = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    F = LinearizedPoly(E, tuple(E.zero() if z else c for c, z in zip(coeffs, zeroed)))
    assert format_linearized(F) == _reference_format_linearized(F)


@settings(max_examples=20)
@given(data=st.data())
def test_format_is_byte_identical_on_a_sparse_wide_field(data):
    E = extension_field(3, 125)
    coeffs = [E.zero()] * E.n
    for i in data.draw(st.lists(st.integers(0, E.n - 1), max_size=12)):
        coeffs[i] = data.draw(
            st.one_of(
                st.integers(1, 2).map(lambda v: E.embed(E.base.from_int(v))),
                st.integers(1, E.order - 1).map(E.from_int),
            )
        )
    F = LinearizedPoly(E, tuple(coeffs))
    assert format_linearized(F) == _reference_format_linearized(F)
    assert parse_linearized(format_linearized(F), E) == F


def test_format_prints_units_and_the_zero_map_as_before():
    for q, n in ((3, 5), (4, 3), (8, 11)):
        E = extension_field(q, n)
        for text in ("0", "x", "x^[1]+x", "2x^[2]", ",".join("1" * E.base.k) + "*x"):
            F = parse_linearized(text, E)
            assert format_linearized(F) == _reference_format_linearized(F)

