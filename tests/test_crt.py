"""The decomposition as a pair of F_p matrices (``IdempotentBasis._crt``).

P takes f to its remainders f mod f_i and R is its inverse, with columns
x^t e_i. The references here are the ring-product and division loops that
the matrices replace: ``poly % f_i``, sum entry_i * e_i by ``ring_mul``, the
gcd test and ``ring_inverse``.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linperm import (
    ComponentVector,
    IdempotentBasis,
    RingSpec,
    base_field,
    cli,
    compositional_inverse,
    conventional_associate,
    extension_field,
    format_linearized,
    identity,
    is_permutation,
    is_permutation_gcd,
    is_primitive_idempotent,
    linearized_associate,
    primitive_idempotents,
    project,
    reconstruct,
    ring_inverse,
    ring_is_unit,
    ring_mul,
    sign_vector_involutions,
)
from linperm import idempotents
from linperm.errors import InternalError, NotAPermutation, SpecMismatch

# prime bases, F_8 and F_49 (k = 3 and k = 2)
RINGS = [(3, 5), (3, 25), (11, 9), (8, 11), (49, 3)]


def basis_of(q, n):
    return primitive_idempotents(RingSpec(base_field(q), n))


@st.composite
def ring_elements(draw):
    """(basis, f): f a ring element, a multiple of a factor half of the time
    so that non-units come up as often as units."""
    q, n = draw(st.sampled_from(RINGS))
    basis = basis_of(q, n)
    ring = basis.spec
    f = ring.element([draw(st.integers(0, q - 1)) for _ in range(n)])
    if draw(st.booleans()):
        factor = draw(st.sampled_from(basis.components)).factor
        f = ring_mul(f, ring.from_poly(factor))
    return basis, f


@settings(max_examples=40)
@given(ring_elements())
def test_blocks_of_P_are_the_remainders(data):
    basis, f = data
    ring = basis.spec
    want = [ring.from_poly(f.to_poly() % c.factor) for c in basis.components]
    assert list(project(f, basis).entries) == want
    cuts = basis._crt.cuts
    blocks = idempotents._blocks(basis, f.coords)
    for entry, lo, hi in zip(want, cuts[:-1], cuts[1:]):
        assert tuple(blocks[lo:hi].tolist()) == entry.coords[: hi - lo]


@pytest.mark.parametrize("q,n", RINGS + [(3, 125), (2, 255), (65521, 5)])
def test_P_and_R_are_inverse(q, n):
    basis = basis_of(q, n)
    p = basis.spec.base.p
    stored = basis._crt[:2]
    assert not any(M.flags.writeable for M in stored)
    # in int64, apart from the dtype the matrices are stored in
    P, R = (M.astype(np.int64) for M in stored)
    eye = np.eye(len(P), dtype=np.int64)
    assert np.array_equal(P @ R % p, eye)
    assert np.array_equal(R @ P % p, eye)


def test_matrices_take_the_narrowest_exact_dtype():
    # k*n*p^2 below 2^24 for F_3 at n = 5; F_65521 needs float64
    assert basis_of(3, 5)._crt.P.dtype == np.float32
    basis = basis_of(65521, 5)
    assert basis._crt.P.dtype == basis._crt.R.dtype == np.float64
    ring = basis.spec
    f = ring.element([65520, 12345, 0, 1, 40000])
    want = [ring.from_poly(f.to_poly() % c.factor) for c in basis.components]
    assert list(project(f, basis).entries) == want
    assert reconstruct(project(f, basis), basis) == f


@settings(max_examples=40)
@given(st.sampled_from(RINGS), st.data())
def test_reconstruct_of_unreduced_entries(ring_qn, data):
    # entries of any degree below n, not remainders: the matrices must
    # reduce each one by its own factor first
    q, n = ring_qn
    basis = basis_of(q, n)
    ring = basis.spec
    entries = tuple(
        ring.element([data.draw(st.integers(0, q - 1)) for _ in range(n)])
        for _ in basis.components
    )
    want = ring.zero()
    for entry, c in zip(entries, basis.components):
        want = want + ring_mul(entry, c.idempotent)
    assert reconstruct(ComponentVector(ring, entries), basis) == want


@settings(max_examples=40)
@given(ring_elements())
def test_idempotent_test_matches_gcd_test(data):
    basis, f = data
    q, n = basis.spec.base.q, basis.spec.n
    F = linearized_associate(f, extension_field(q, n))
    assert is_permutation(F, basis) == is_permutation_gcd(F) == ring_is_unit(f)


@settings(max_examples=40)
@given(ring_elements())
def test_component_inverse_matches_ring_inverse(data):
    basis, f = data
    q, n = basis.spec.base.q, basis.spec.n
    F = linearized_associate(f, extension_field(q, n))
    if ring_is_unit(f):
        assert conventional_associate(compositional_inverse(F, basis)) == ring_inverse(f)
    else:
        with pytest.raises(NotAPermutation):
            compositional_inverse(F, basis)


# sha256 of the involutions' text forms, one a line, in the order returned
SIGN_VECTOR_DIGESTS = {
    (3, 25): "baf78b1b7d39d8a6ecfab856b8927629807e0ff237c8b34b9ac371584d6b8696",
    (11, 9): "b8ab4b20656910bef24bcd7c812e21e6450942ab3c01d8125eee80bf01217ea5",
    (3, 125): "e3f759bf7f68e35963ce16254260de7680b78d4bd081da0b5662aa37df047445",
}


@pytest.mark.parametrize("q,n", list(SIGN_VECTOR_DIGESTS))
def test_sign_vector_involutions_order_is_pinned(q, n):
    invs = sign_vector_involutions(basis_of(q, n), extension_field(q, n))
    text = "\n".join(format_linearized(F) for F in invs)
    assert hashlib.sha256(text.encode()).hexdigest() == SIGN_VECTOR_DIGESTS[q, n]


def test_a_printed_basis_builds_no_matrices(monkeypatch, capsys):
    def refuse(basis):
        raise AssertionError("P and R were built")

    monkeypatch.setattr(idempotents, "_build_crt", refuse)
    assert cli.main(["idempotents", "--q", "3", "--n", "25", "--closed-form"]) == 0
    assert cli.main(["idempotents", "--q", "3", "--n", "25"]) == 0
    assert "e_1" in capsys.readouterr().out
    # the involutions are read off the idempotents themselves
    assert cli.main(["involutions", "--q", "3", "--n", "25"]) == 0
    assert "check all_involutions: ok" in capsys.readouterr().out


# --- foreign operands -------------------------------------------------------

R35 = RingSpec(base_field(3), 5)
E35 = extension_field(3, 5)

FOREIGN = {
    "project-int": lambda b: project(3, b),
    "is_permutation-None": lambda b: is_permutation(identity(E35), None),
    "compositional_inverse-None": lambda b: compositional_inverse(identity(E35), None),
    "sign_vector_involutions-int": lambda b: sign_vector_involutions(3),
    "reconstruct-int-entries": lambda b: reconstruct(ComponentVector(R35, (1,) * b.t), b),
    "is_primitive_idempotent-other-ring": lambda b: is_primitive_idempotent(
        RingSpec(base_field(3), 4).one(), b
    ),
    "is_primitive_idempotent-int": lambda b: is_primitive_idempotent(1, b),
}


@pytest.mark.parametrize("case", list(FOREIGN))
def test_decomposition_refuses_a_foreign_operand(case):
    with pytest.raises(SpecMismatch):
        FOREIGN[case](primitive_idempotents(R35))


# --- each InternalError names its layer -------------------------------------


def _unchecked(spec, components):
    """An IdempotentBasis built without its invariant checks."""
    basis = object.__new__(IdempotentBasis)
    object.__setattr__(basis, "spec", spec)
    object.__setattr__(basis, "components", tuple(components))
    return basis


def _merged(basis):
    """Components 0 and 1 as one: e_0 + e_1 with the factor f_0 * f_1. Still
    idempotents summing to 1, and P*R = I, but the factor is reducible."""
    a, b, *rest = basis.components
    merged = replace(a, factor=a.factor * b.factor, idempotent=a.idempotent + b.idempotent)
    return [merged] + rest


def _basis_corruptions():
    spec = basis_of(11, 9).spec
    comps = list(basis_of(11, 9).components)
    a, b = comps[0], comps[1]
    two = spec.element([2])
    # at (2, 7) the cosets {1, 2, 4} and {3, 5, 6} have one size, so one
    # component can stand twice and pass every check but the sum
    c0, c1, c3 = basis_of(2, 7).components
    return {
        "square": [replace(a, idempotent=ring_mul(two, a.idempotent))] + comps[1:],
        "annihilator": [replace(a, idempotent=b.idempotent)] + comps[1:],
        "sum": [replace(a, idempotent=spec.zero())] + comps[1:],
        "count": _merged(basis_of(11, 9)),
        "twice": [c0, c1, replace(c1, coset=c3.coset)],
    }


@pytest.mark.parametrize(
    "corrupt,message",
    [
        ("square", r"^idempotents: component 0: e != 1 mod f$"),
        ("annihilator", r"^idempotents: component 0: e \* f != 0$"),
        ("sum", r"^idempotents: component 0: e != 1 mod f$"),
        ("count", r"^idempotents: components do not match the cyclotomic cosets$"),
        ("twice", r"^idempotents: idempotents do not sum to 1$"),
    ],
)
def test_basis_invariant_errors_name_the_layer(corrupt, message):
    comps = _basis_corruptions()[corrupt]
    with pytest.raises(InternalError, match=message):
        IdempotentBasis(comps[0].idempotent.spec, tuple(comps))


def test_projection_check_names_the_layer():
    # swapped idempotents: R no longer inverts P
    good = basis_of(11, 9)
    a, b, *rest = good.components
    broken = _unchecked(
        good.spec, [replace(a, idempotent=b.idempotent), replace(b, idempotent=a.idempotent)] + rest
    )
    with pytest.raises(InternalError, match=r"^idempotents: P\*R != I"):
        project(good.spec.one(), broken)


def test_component_egcd_error_names_the_layer():
    good = basis_of(11, 9)
    broken = _unchecked(good.spec, _merged(good))
    # f_0 is zero mod f_0 only: its merged block f_0 mod f_0*f_1 is nonzero
    # but shares the factor f_0 with its modulus
    f = good.spec.from_poly(good.components[0].factor)
    F = linearized_associate(f, extension_field(11, 9))
    with pytest.raises(InternalError, match=r"^idempotents: component entry not invertible"):
        compositional_inverse(F, broken)


def _doubled_R(good):
    """A copy of ``good`` whose cached R is 2R: every reconstruction doubled."""
    broken = _unchecked(good.spec, good.components)
    crt = good._crt
    R = (2 * crt.R.astype(np.int64) % good.spec.base.p).astype(crt.R.dtype)
    broken.__dict__["_crt"] = crt._replace(R=R)
    return broken


def test_ring_inverse_check_names_the_layer():
    broken = _doubled_R(basis_of(11, 9))
    with pytest.raises(InternalError, match=r"^linearized: component inverse disagrees"):
        compositional_inverse(identity(extension_field(11, 9)), broken)


def test_sign_vector_check_names_the_layer():
    # e_0 doubled: the sign vectors sum 2e_0 +- ..., whose square has 4e_0,
    # and 4 != 1 over F_11
    broken = _unchecked(basis_of(11, 9).spec, _basis_corruptions()["square"])
    with pytest.raises(InternalError, match=r"^linearized: sign vector did not square to 1$"):
        sign_vector_involutions(broken, extension_field(11, 9))
