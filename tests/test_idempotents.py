"""Primitive idempotent construction, projections and the closed p^m form."""

import hashlib
import itertools
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linperm import (
    ComponentVector,
    FieldSpec,
    IdempotentBasis,
    RingSpec,
    base_field,
    closed_form_pm,
    cor4_condition,
    factor_xn_minus_1,
    is_idempotent,
    is_primitive_idempotent,
    poly_egcd,
    primitive_idempotents,
    project,
    reconstruct,
    ring_mul,
)
from linperm._linalg import lift, rank_mod
from linperm.errors import (
    BadInput,
    ConditionNotMet,
    InternalError,
    LengthMismatch,
    SpecMismatch,
)
from linperm.fields import element_of_order
from linperm.polyring import splitting_field

ALL_SPECS = [(2, 3), (3, 2), (3, 5), (5, 2), (3, 25), (11, 9), (8, 11), (3, 125)]
PM_SPECS = {(3, 5): (5, 1), (3, 25): (5, 2), (11, 9): (3, 2), (3, 125): (5, 3)}


def ring(q, n):
    return RingSpec(base_field(q), n)


@pytest.mark.parametrize("q,n", ALL_SPECS)
def test_basis_invariants(q, n):
    spec = ring(q, n)
    basis = primitive_idempotents(spec)
    es = basis.idempotents
    zero, one = spec.zero(), spec.one()
    total = zero
    for i, e in enumerate(es):
        assert ring_mul(e, e) == e
        total = total + e
        for j in range(i):
            assert ring_mul(es[j], e) == zero
    assert total == one
    assert basis.t == len(factor_xn_minus_1(spec))


def _cofactor_idempotents(spec):
    """e_i = (h_i^{-1} mod f_i) h_i with h_i = (x^n - 1)/f_i, one egcd per
    factor: the CRT construction, an oracle for the derivative formula."""
    modulus = spec.modulus()
    out = []
    for _, factor in factor_xn_minus_1(spec):
        cofactor = modulus // factor
        g, u, _ = poly_egcd(cofactor % factor, factor)
        assert g.degree == 0
        out.append(spec.from_poly(u * cofactor))
    return out


# prime bases, F_4, F_8 and F_9
@pytest.mark.parametrize(
    "q,n", [(2, 3), (3, 5), (11, 9), (2, 255), (4, 3), (4, 15), (8, 11), (9, 4), (9, 5)]
)
def test_derivative_formula_matches_cofactor_construction(q, n):
    spec = ring(q, n)
    assert list(primitive_idempotents(spec).idempotents) == _cofactor_idempotents(spec)


@pytest.mark.parametrize("corrupt", ["swap", "merge"])
def test_wrong_basis_is_an_internal_error(corrupt):
    # swapping two idempotents keeps e^2 = e, e_i e_j = 0 and sum = 1; only
    # e_i f_i = 0 ties each idempotent to its own factor
    spec = ring(11, 9)
    comps = list(primitive_idempotents(spec).components)
    a, b = comps[0], comps[1]
    if corrupt == "swap":
        comps[0] = replace(a, idempotent=b.idempotent)
        comps[1] = replace(b, idempotent=a.idempotent)
    else:
        comps[0] = replace(a, idempotent=a.idempotent + b.idempotent)
    with pytest.raises(InternalError):
        IdempotentBasis(spec, tuple(comps))


@pytest.mark.parametrize("q,n", ALL_SPECS)
def test_component_dimension(q, n):
    # the span of {e_i, x e_i, ..., x^{n-1} e_i} has dimension deg f_i
    spec = ring(q, n)
    if n > 25:
        pytest.skip("covered by smaller specs; keeps the suite quick")
    basis = primitive_idempotents(spec)
    k = spec.base.k
    for comp in basis.components:
        rows = []
        cur = comp.idempotent
        for _ in range(n):
            rows.append([cur.coords[j : j + k] for j in range(0, n * k, k)])
            cur = ring_mul(cur, spec.x())
        # F_q rank = F_p rank of the lifted rows / k
        assert rank_mod(lift(spec.base, rows), spec.base.p) == k * comp.degree


def test_r2_3_hand_values(F2):
    basis = primitive_idempotents(ring(2, 3))
    from linperm import format_poly

    assert [format_poly(F2, c.idempotent.coords) for c in basis.components] == [
        "x^2+x+1",
        "x^2+x",
    ]


def test_r8_11_known_values(F8):
    spec = ring(8, 11)
    basis = primitive_idempotents(spec)
    e0 = spec.element([F8.one()] * 11)
    assert basis.components[0].idempotent == e0
    assert basis.components[1].idempotent == spec.one() + e0


def test_r11_9_known_values(F11):
    from linperm import format_poly

    basis = primitive_idempotents(ring(11, 9))
    texts = {format_poly(F11, c.idempotent.coords) for c in basis.components}
    assert "7*x^6+7*x^3+8" in texts
    assert (
        "6*x^8+6*x^7+10*x^6+6*x^5+6*x^4+10*x^3+6*x^2+6*x+10" in texts
    )


def test_cor4():
    assert cor4_condition(5, 3, 3)
    assert cor4_condition(3, 2, 11)
    assert cor4_condition(2, 1, 3)
    assert cor4_condition(2, 2, 3)  # 3 = 3 mod 4
    assert not cor4_condition(2, 3, 3)
    assert not cor4_condition(2, 2, 5)  # 5 = 1 mod 4
    with pytest.raises(BadInput):
        cor4_condition(4, 1, 3)
    with pytest.raises(BadInput):
        cor4_condition(5, 1, 10)


def test_cor4_condition_refuses_m_zero():
    with pytest.raises(BadInput, match="m must be positive"):
        cor4_condition(5, 0, 3)


@pytest.mark.parametrize("q,n", sorted(PM_SPECS))
def test_closed_form_matches_crt(q, n):
    spec = ring(q, n)
    p, m = PM_SPECS[(q, n)]
    closed = closed_form_pm(spec, p, m)
    crt = primitive_idempotents(spec)
    assert [c.idempotent for c in closed.components] == [
        c.idempotent for c in crt.components
    ]
    assert closed.t == m + 1


@pytest.mark.parametrize("q, p, m", [(11, 2, 2), (8, 3, 1), (9, 2, 1), (27, 2, 2)])
def test_closed_form_matches_crt_over_extension_bases(q, p, m):
    # k > 1: each closed-form coefficient fills the first coordinate of its slot
    spec = ring(q, p**m)
    assert closed_form_pm(spec, p, m) == primitive_idempotents(spec)


def test_closed_form_refuses_nonprimitive():
    # q = 7, n = 9: ord(7 mod 9) = 3 != phi(9) = 6
    spec = ring(7, 9)
    with pytest.raises(ConditionNotMet):
        closed_form_pm(spec, 3, 2)
    with pytest.raises(BadInput):
        closed_form_pm(spec, 3, 3)


def test_example1_closed_form():
    spec = ring(3, 125)
    basis = closed_form_pm(spec, 5, 3)
    by_rep = {c.coset.representative: c.idempotent for c in basis.components}
    base = spec.base
    two = base.embed_int(2)
    # e_0 = 2 * sum of all x^i
    assert by_rep[0].coords == two.coeffs * 125
    # e_3 = 1 + sum_{i<5} x^{25i}
    e3 = by_rep[1]
    k = base.k
    for exp in range(125):
        c = e3.coords[exp * k : exp * k + k]
        if exp == 0:
            assert c == two.coeffs  # 1 + 1
        elif exp % 25 == 0:
            assert c == base.one().coeffs
        else:
            assert not any(c)


@given(st.lists(st.integers(0, 2), min_size=25, max_size=25))
def test_project_reconstruct_roundtrip(coeffs):
    spec = ring(3, 25)
    basis = primitive_idempotents(spec)
    f = spec.element([spec.base.embed_int(c) for c in coeffs])
    assert reconstruct(project(f, basis), basis) == f


def test_project_canonical_entries():
    spec = ring(2, 3)
    basis = primitive_idempotents(spec)
    v = project(spec.x(), basis)
    # remainders of x by (x+1) and (x^2+x+1)
    assert v.entries[0] == spec.one()
    assert v.entries[1] == spec.x()
    # idempotent projects to 1 in its own slot, 0 elsewhere
    v1 = project(basis.components[1].idempotent, basis)
    assert v1.entries[0] == spec.zero()
    assert v1.entries[1] == spec.one()


def test_projection_identity_relation():
    # f * e_i = entry_i * e_i for all i
    spec = ring(3, 5)
    basis = primitive_idempotents(spec)
    for v in range(30, 40):
        f = spec.element([spec.base.embed_int(d) for d in (v % 3, 1, 2, v % 2, 0)])
        vec = project(f, basis)
        for entry, comp in zip(vec.entries, basis.components):
            assert ring_mul(f, comp.idempotent) == ring_mul(entry, comp.idempotent)


def test_reconstruct_all_ones_is_one():
    spec = ring(3, 25)
    basis = primitive_idempotents(spec)
    v = ComponentVector(spec, tuple([spec.one()] * basis.t))
    assert reconstruct(v, basis) == spec.one()


def test_reconstruct_length_mismatch():
    spec = ring(3, 2)
    basis = primitive_idempotents(spec)
    with pytest.raises(LengthMismatch):
        reconstruct(ComponentVector(spec, (spec.one(),)), basis)


def test_project_spec_mismatch():
    with pytest.raises(SpecMismatch):
        project(ring(3, 5).one(), primitive_idempotents(ring(3, 2)))


def test_is_idempotent_refuses_an_int():
    # 1 * 1 == 1 holds for the int too, so only the type check refuses it
    with pytest.raises(SpecMismatch, match="^expected a RingElement, got int$"):
        is_idempotent(1)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2)])
def test_idempotent_count_bruteforce(q, n):
    # every idempotent is a subset sum of the basis: exactly 2^t of them
    spec = ring(q, n)
    basis = primitive_idempotents(spec)
    base = spec.base
    found = []
    for coeffs in itertools.product(range(q), repeat=n):
        f = spec.element([base.from_int(c) for c in coeffs])
        if is_idempotent(f):
            found.append(f)
    assert len(found) == 2**basis.t
    subset_sums = set()
    for mask in itertools.product([0, 1], repeat=basis.t):
        s = spec.zero()
        for bit, comp in zip(mask, basis.components):
            if bit:
                s = s + comp.idempotent
        subset_sums.add(s)
    assert set(found) == subset_sums


def test_is_primitive_idempotent():
    spec = ring(2, 3)
    basis = primitive_idempotents(spec)
    assert not is_primitive_idempotent(spec.zero(), basis)
    assert not is_primitive_idempotent(spec.one(), basis)
    for comp in basis.components:
        assert is_primitive_idempotent(comp.idempotent, basis)


# (p, k, base modulus or None for base_field(p^k), n) -> sha256 over (coset
# members, factor coords, idempotent coords) of each component: rings split
# over F_q (m = 1), splitting fields of degree m with gcd(m, p) != 1, and
# bases with non-canonical moduli. Tests run over them in this order, which
# fixes the test ids: a ring with a base modulus is named by its position.
DECOMPOSITIONS = {
    (2, 1, None, 3): "53b77a59be269fc67cf7a6a70dfc3c257e5e67915332ac1a9b3798ed346762a8",
    (2, 2, None, 3): "f4e53b345203fb1ce9c05a8b9ce6fa7074ae4b9fc7083838094e4f5e4928fc5f",
    (2, 3, (1, 0, 1, 1), 7): "e070e81138a68068a0837b6a45c12fec2cbbbcdb93cdb8ed9d1315863ec3f884",
    (2, 3, (1, 0, 1, 1), 9): "9e9c9bb650dbe75e3ad9c35995ee49dbaff8266057b70efb611e1ad4d2bd921a",
    (3, 1, None, 13): "47fbe0f3d742d1b89f1de2a1a78c11dbb76caa9350b643071a5e2a229c389b42",
    (3, 1, None, 2): "3ab0758210c8478b991d444fd2b4976227d15a78e5cbc2d075536618805d1fe4",
    (3, 2, (2, 2, 1), 5): "547c3b69b18eba1c8d8dbee7841fe8e9709ca8345c0bf8d042fa777db38c9a3a",
    (3, 2, (2, 2, 1), 8): "665dc49bb05d18feb668191c5d3329594a09c9a1ddfd64c1c09ac89f5211b0c7",
    (5, 1, None, 11): "3e32dca76e67f53905b81f4b825c024e6f6b8825cd35e3617f2cdc3110770566",
    (7, 2, None, 3): "714a8f8ae180ecfe99debb79ccc3f1a55e756eb12032829a4ca3a9bf601ab602",
    (3, 1, None, 125): "76a13f634b0bc8941b24ce55051f62d8ab2892d051cd92e14129e12e2632b445",
    (2, 1, None, 255): "fa5f172b4c625a0a848f6a07d217e32b77182f0762289bf014df15ec370a681d",
    (2, 3, None, 11): "332272a5cf7a03ff76b05e0332628cc3a04aa3e69be53f0c6693d2a5f6a1812d",
    (5, 1, None, 311): "cc665aa4c7c6e9775a8553f96c1736823818041fefe32f021fb09fb06f07a914",
}


def _base(p, k, base_modulus):
    return base_field(p**k) if base_modulus is None else FieldSpec(p, k, base_modulus)


@pytest.mark.parametrize("p,k,base_modulus,n", list(DECOMPOSITIONS))
def test_decomposition_is_pinned(p, k, base_modulus, n):
    base = _base(p, k, base_modulus)
    h = hashlib.sha256()
    for c in primitive_idempotents(RingSpec(base, n)).components:
        h.update(repr((c.coset.members, c.factor.coords, c.idempotent.coords)).encode())
    assert h.hexdigest() == DECOMPOSITIONS[p, k, base_modulus, n]


@pytest.mark.parametrize("p,k,base_modulus,n", list(DECOMPOSITIONS))
def test_factor_vanishes_on_its_coset(p, k, base_modulus, n):
    """The factor of coset C_s is the minimal polynomial of zeta^s over F_q,
    zeta the root of unity that labels the cosets: it is monic of degree
    |C_s| and zero at zeta^s. That pins it, since the minimal polynomial has
    degree |C_s| and divides it; and a polynomial over F_q zero at zeta^s is
    zero at every zeta^(s*q^i), as f(zeta^(s*q^i)) = f(zeta^s)^(q^i), so one
    root per coset covers all of C_s. Evaluated by Horner in the splitting
    field's ExtElement arithmetic, so this oracle shares no linear algebra
    with the construction of the factors."""
    spec = RingSpec(_base(p, k, base_modulus), n)
    work = splitting_field(spec)
    zeta = element_of_order(work, n)
    for coset, factor in factor_xn_minus_1(spec):
        coords = factor.coords
        coeffs = [
            work.element((spec.base.element(coords[i : i + k]),))
            for i in range(0, len(coords), k)
        ]
        assert len(coeffs) == len(coset.members) + 1
        assert coeffs[-1] == work.one()
        root, acc = zeta**coset.representative, work.zero()
        for c in reversed(coeffs):
            acc = acc * root + c
        assert acc.is_zero(), coset.representative
