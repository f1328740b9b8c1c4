"""Field construction and arithmetic, checked against axioms and hand values."""

import gc
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linperm import (
    ExtFieldSpec,
    FieldSpec,
    RingSpec,
    base_field,
    element_order,
    extension_field,
    find_irreducible,
    frobenius,
    integer_order_mod,
    norm,
)
from linperm.errors import BadInput, InternalError, NotCoprime, ZeroInverse, ZeroOrder
from linperm._linalg import lift
from linperm import _linalg, _polys, fields
from linperm._polys import _frobenius_q, _prime_factors, pdivmod, pis_irreducible, pmul, pone
from linperm.fields import _frobenius_power, element_of_order
from linperm.linearized import parse_linearized


def test_prime_field_basics(F3):
    two = F3.embed_int(2)
    assert two + two == F3.one()
    assert two * two == F3.one()
    assert (-two) == F3.one()
    assert two.inverse() == two


@given(
    st.sampled_from([3, 8, 9, 49]).flatmap(
        lambda q: st.tuples(st.integers(0, q - 1).map(base_field(q).from_int), st.integers(-12, 12))
    )
)
def test_scalar_power_matches_products(case):
    a, e = case
    one = a.spec.one()
    assert a**0 == one  # 0^0 = 1 as well
    if e < 0 and a.is_zero():
        with pytest.raises(ZeroInverse):
            a**e
        return
    b = a if e >= 0 else a.inverse()
    want = one
    for _ in range(abs(e)):
        want = want * b
    assert a**e == want
    if not a.is_zero():
        assert a * a.inverse() == one
        assert a ** (a.spec.q - 2) == a.inverse()


def test_f8_canonical_modulus(F8):
    # y^3 + y + 1: y^3 = y + 1
    y = F8.element((0, 1, 0))
    assert y * y * y == F8.element((1, 1, 0))
    assert len(list(F8.elements())) == 8


def test_f9_inverse():
    F9 = base_field(9)
    two = F9.embed_int(2)
    assert two.inverse() == two  # 2*2 = 4 = 1+3 -> 1 mod 3


@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_base_field_ring_axioms(a, b, c):
    # prime fields take the interned k = 1 paths, F_4, F_8 and F_9 the k > 1 ones
    for q in (2, 3, 11, 4, 8, 9):
        F = base_field(q)
        x, y, z = F.from_int(a % q), F.from_int(b % q), F.from_int(c % q)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        assert x - y == x + (-y)
        assert x + (-x) == F.zero()


@given(st.integers(1, 242))
def test_f3_5_inverse_roundtrip(v):
    E = extension_field(3, 5)
    a = E.from_int(v)
    assert a * a.inverse() == E.one()


@given(st.integers(0, 10**6), st.integers(0, 4))
def test_frobenius_is_qth_power(v, i):
    # F_8: its multiplication matrices are not symmetric, unlike F_4's
    for q, n in ((3, 5), (4, 3), (8, 3)):
        E = extension_field(q, n)
        a = E.from_int(v % E.order)
        assert frobenius(a, i % n) == a ** (q ** (i % n))


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_frobenius_additive(u, v):
    for q, n in ((3, 5), (11, 3), (4, 3), (8, 3), (9, 2)):
        E = extension_field(q, n)
        a, b = E.from_int(u % E.order), E.from_int(v % E.order)
        assert frobenius(a + b, 1) == frobenius(a, 1) + frobenius(b, 1)
        assert frobenius(a - b, 1) == frobenius(a, 1) - frobenius(b, 1)
        assert a - b == a + (-b)
        assert a + (-a) == E.zero()


def test_norm_lands_in_base():
    E = extension_field(3, 5)
    for v in range(1, 50):
        nv = norm(E.from_int(v))
        assert nv.spec == E.base


def test_norm_multiplicative():
    E = extension_field(2, 3)
    for u in range(1, 8):
        for v in range(1, 8):
            a, b = E.from_int(u), E.from_int(v)
            assert norm(a * b) == norm(a) * norm(b)


def test_base_value_outside_the_base_names_the_layer():
    with pytest.raises(InternalError, match=r"^fields: .* does not lie in the base field$"):
        extension_field(3, 5).gen().base_value()


def test_norm_check_names_the_layer(monkeypatch):
    # a power that leaves F_q: the norm of a nonzero element is then refused
    E = extension_field(3, 5)
    monkeypatch.setattr(fields.ExtElement, "__pow__", lambda a, e: E.gen())
    with pytest.raises(InternalError, match=r"^fields: norm value escaped the base field$"):
        norm(E.one())


def test_integer_orders():
    assert integer_order_mod(3, 125) == 100
    assert integer_order_mod(8, 11) == 10
    assert integer_order_mod(11, 9) == 6
    with pytest.raises(NotCoprime):
        integer_order_mod(3, 9)


def test_element_order_and_primitive():
    E = extension_field(3, 2)
    nonzero = [a for a in E.elements() if not a.is_zero()]
    beta = next(a for a in nonzero if element_order(a) == 8)
    assert element_order(beta) == 8
    # the cyclic group of order 8 has phi(8) = 4 generators
    assert sum(element_order(a) == 8 for a in nonzero) == 4
    with pytest.raises(ZeroOrder):
        element_order(E.zero())


def test_element_of_order():
    E = extension_field(3, 5)
    for n in (1, 2, 11, 22, 121, 242):
        z = element_of_order(E, n)
        assert element_order(z) == n


def test_find_irreducible_deterministic(F3):
    a = find_irreducible(F3, 7, 0)
    b = find_irreducible(F3, 7, 0)
    c = find_irreducible(F3, 7, 1)
    assert a == b
    assert len(a) == 8
    # different seed may or may not differ, but must still be degree 7 monic
    assert len(c) == 8


def test_zero_inverse_raises():
    E = extension_field(2, 3)
    with pytest.raises(ZeroInverse):
        E.zero().inverse()


def test_bad_specs_rejected():
    with pytest.raises(BadInput):
        FieldSpec(4)  # not prime
    with pytest.raises(BadInput):
        ExtFieldSpec(FieldSpec(3), 6, find_irreducible(FieldSpec(3), 5, 0))


def test_ext_requires_coprime_degree(F3):
    # gcd(n, p) must be 1 for the ring machinery this spec feeds
    with pytest.raises(BadInput):
        extension_field(3, 6)


def test_ext_spec_allows_any_degree(F3):
    # gcd(n, p) = 1 is the ring's rule, not the field's: the splitting field
    # of x^13 - 1 over F_3 has degree 3
    cubic = (1, 2, 0, 1)  # z^3 + 2z + 1
    assert ExtFieldSpec(F3, 3, cubic).order == 27
    with pytest.raises(BadInput, match=r"gcd\(n, p\) must be 1"):
        extension_field(3, 3)
    with pytest.raises(BadInput, match=r"gcd\(n, q\) must be 1"):
        RingSpec(F3, 3)


def test_from_int_roundtrip():
    E = extension_field(2, 3)
    seen = {E.from_int(v) for v in range(8)}
    assert len(seen) == 8


def test_from_int_range():
    F8, E = base_field(8), extension_field(3, 5)
    assert F8.from_int(7).coeffs == (1, 1, 1)
    assert E.from_int(242).coords == (2,) * 5
    for spec, v in ((F8, 8), (F8, -1), (E, 243), (E, -1)):
        with pytest.raises(BadInput):
            spec.from_int(v)


def test_frobenius_power_built_directly():
    # a lone power i is Frob^1 times Frob^(i-1), the gap built from Frob^1 by
    # square-and-multiply and not cached: the cache holds power i and Frob^1,
    # not the powers in between
    E = extension_field(3, 25)
    _frobenius_power.cache_clear()
    a = E.from_int(10**11)
    assert frobenius(a, 24) == a ** (3**24)
    assert _frobenius_power.cache_info().currsize <= 2


def _frobenius_by_products(E):
    """Frob^0 .. Frob^(n-1) by repeated int64 products of ``_frobenius_q``."""
    p = E.base.p
    frob = _frobenius_q(E.base, E.ext_modulus)
    powers = [np.eye(E.base.k * E.n, dtype=np.int64)]
    for _ in range(E.n - 1):
        powers.append(powers[-1] @ frob % p)
    return powers


@pytest.mark.parametrize("q, n", [(3, 25), (4, 15), (8, 11), (49, 3)])
def test_frobenius_walks_match_repeated_products(q, n):
    # one product per power from the highest held power, on both sides of
    # q = d; the cache keeps the powers asked for and Frob^1, nothing else,
    # each a read-only uint16 array of 2*(k*n)^2 bytes
    E = extension_field(q, n)
    expected = _frobenius_by_products(E)
    _frobenius_power.cache_clear()
    for i in range(1, n):
        assert np.array_equal(_frobenius_power(E, i), expected[i])
    assert _frobenius_power.cache_info().currsize == n - 1
    held = [t for (spec, _), t in fields._frobenius_held.items() if spec == E]
    assert sum(t.nbytes for t in held) == (n - 1) * (E.base.k * n) ** 2 * 2
    assert np.array_equal(_frobenius_power(E, 0), expected[0])
    for i in range(n):
        table = _frobenius_power(E, i)
        assert table.dtype == np.uint16
        with pytest.raises(ValueError):
            table[0, 0] = 1
    _frobenius_power.cache_clear()
    sparse = list(range(2, n, 3))
    for i in sparse:
        assert np.array_equal(_frobenius_power(E, i), expected[i])
    assert _frobenius_power.cache_info().currsize == len(set(sparse) | {1})
    for i in range(1, n):
        assert np.array_equal(_frobenius_power(E, i), expected[i])
    assert _frobenius_power.cache_info().currsize == n - 1
    # the held-power lookup keeps nothing alive that the cache dropped
    _frobenius_power.cache_clear()
    gc.collect()
    assert len(fields._frobenius_held) == 0


def _order_by_factorint(a):
    """Multiplicative order with the group order split by sympy.factorint."""
    from sympy import factorint

    group = a.spec.order - 1
    one, o = a.spec.one(), group
    for prime in factorint(group):
        while o % prime == 0 and a ** (o // prime) == one:
            o //= prime
    return o


def _two_primes():
    from sympy import nextprime

    prime = st.integers(1 << 15, 1 << 40).map(nextprime)
    return st.tuples(prime, prime).map(lambda pq: pq[0] * pq[1])


@given(st.one_of(st.integers(1, (1 << 64) - 1), _two_primes()))
def test_prime_factors_match_factorint(n):
    # trial division below 2^16 for a cofactor below 2^32, and sympy for one
    # of 2^32 or more: a product of two primes from 2^15 to 2^40 lands on
    # either side
    from sympy import factorint

    assert _prime_factors(n) == sorted(factorint(n))


@pytest.mark.parametrize(
    "q, n", [(2, 63), (3, 40), (7, 25), (11, 9), (2, 127), (3, 61), (5, 31)]
)
def test_element_order_matches_factorint(monkeypatch, q, n):
    import sympy

    E = extension_field(q, n)
    expected = _order_by_factorint(E.gen())
    calls = []
    factorint = sympy.factorint
    monkeypatch.setattr(sympy, "factorint", lambda m: calls.append(m) or factorint(m))
    assert element_order(E.gen()) == expected
    if (q, n) == (11, 9):
        assert calls == []  # 11^9 - 1 < 2^32 stays on trial division
    if (q, n) == (2, 63):
        assert calls == [92737 * 649657]  # 2^63 - 1 past its factors below 2^10


def test_degree_is_checked_before_the_modulus_search(monkeypatch):
    def search(*args):
        raise AssertionError("searched for a modulus of a refused degree")

    monkeypatch.setattr(fields, "find_irreducible", search)
    with pytest.raises(BadInput, match=r"gcd\(n, p\) must be 1"):
        extension_field(2, 1024)
    with pytest.raises(BadInput, match="extension degree n must be >= 1"):
        extension_field(3, -4)


class _Searched(Exception):
    pass


def test_the_degree_cap_is_checked_before_the_modulus_search(monkeypatch):
    # a field of degree 2^12 over F_p reaches the search; one of 2^12 + 1 is
    # refused before it, the extension's before its base field is built
    def search(*args):
        raise _Searched

    F4, _ = base_field(4), base_field(9)
    monkeypatch.setattr(fields, "find_irreducible", search)
    for q, n in ((3, 4096), (9, 2048)):
        with pytest.raises(_Searched):
            extension_field(q, n)
    for q, n in ((3, 4097), (9, 2049), (3**4097, 1), (3**2000, 5)):
        with pytest.raises(BadInput, match="above the cap of 2"):
            extension_field(q, n)
    monkeypatch.undo()
    monkeypatch.setattr(fields._polys, "pis_irreducible", search)
    for base, degree in ((FieldSpec(2), 4096), (F4, 2048)):
        with pytest.raises(_Searched):
            find_irreducible(base, degree)
    for base, degree in ((FieldSpec(2), 4097), (F4, 2049)):
        with pytest.raises(BadInput, match="above the cap of 2"):
            find_irreducible(base, degree)


@pytest.mark.parametrize(
    "q", [2, 3, 4, 5, 8, 11, 49, 121, 65521, 3**20, 2**32 - 5, 2**32, 3**25, 2**40 + 1, 3**45, 65521**8]
)
def test_bulk_draws_replay_randrange(q):
    # the modulus search draws its coefficients in blocks; each block must
    # give the values of per-call randrange and leave the same state
    for count in (1, 7, 300):
        per_call, bulk = random.Random(f"{q}:{count}"), random.Random(f"{q}:{count}")
        want = [per_call.randrange(q) for _ in range(count)]
        assert fields._draws(bulk, q, count).tolist() == want
        assert bulk.getstate() == per_call.getstate()

FLAT_SPECS = ((3, 5), (4, 3), (8, 3))


@given(st.integers(0, 10**6))
def test_flat_coordinates(v):
    for q, n in FLAT_SPECS:
        E = extension_field(q, n)
        p, v = E.base.p, v % E.order
        a = E.from_int(v)
        digits = [(v // p**i) % p for i in range(E.base.k * n)]
        assert list(a.coords) == digits
        assert str(a) == "[" + ",".join(map(str, digits)) + "]"
        assert parse_linearized(f"{a}*x^[1]", E).coeffs[1] == a
        b = (a + E.one()) - E.one()  # equal, built separately
        assert b == a and hash(b) == hash(a)
        # the same coordinates under another modulus are another element
        other = extension_field(q, n, 1)
        assert other != E
        assert other.from_int(v) != a


@given(st.integers(0, 10**6), st.integers(0, 7))
def test_scale_is_product_with_embedded_scalar(v, c):
    # F_8's multiplication matrices are not symmetric, so a transposed block fails
    for q, n in FLAT_SPECS:
        E = extension_field(q, n)
        a, s = E.from_int(v % E.order), E.base.from_int(c % q)
        assert a.scale(s) == a * E.embed(s)


def test_elements_follow_from_int():
    for q, n in FLAT_SPECS:
        E = extension_field(q, n)
        assert list(E.elements()) == [E.from_int(v) for v in range(E.order)]


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


@pytest.mark.parametrize(
    "q,max_degree", [(2, 4), (3, 4), (4, 4), (8, 3), (2, 12), (3, 6), (4, 5)]
)
def test_irreducible_count_matches_gauss(q, max_degree):
    # the number of monic irreducibles of degree d over F_q is
    # (1/d) * sum over e | d of mu(e) q^(d/e); at composite d the gcds of
    # Rabin's test tell the irreducibles from products of factors whose
    # degrees divide d
    base = base_field(q)
    for d in range(1, max_degree + 1):
        count = 0
        for v in range(q**d):
            low = [base.from_int((v // q**j) % q) for j in range(d)]
            flat = tuple(v for c in low + [base.one()] for v in c.coeffs)
            count += pis_irreducible(base, flat)
        gauss = sum(_mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
        assert count * d == gauss, (q, d)


@settings(max_examples=30)
@given(
    q=st.sampled_from([2, 3, 4, 5, 8, 9]),
    extra=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    seeds=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
)
def test_pis_irreducible_rejects_reducibles(q, extra, seeds):
    base = base_field(q)
    # factor degrees a, b with q^min(a, b) >= a + b: stage 1 takes gcds with
    # x^(q^i) - x only while q^i < a + b, so no factor has a degree it checks
    # and the verdict on f*g and f^2 is stage 2's
    low = next(a for a in itertools.count(1) if q**a >= 2 * (a + 3))
    a, b = low + extra[0], low + extra[1]
    assert q ** min(a, b) >= a + b
    f = find_irreducible(base, a, seeds[0])
    g = find_irreducible(base, b, seeds[1])
    assert pis_irreducible(base, f) and pis_irreducible(base, g)
    assert not pis_irreducible(base, pmul(base, f, g))
    # not squarefree
    assert not pis_irreducible(base, pmul(base, f, f))
    # constant term 0
    assert not pis_irreducible(base, (0,) * base.k + f)


@given(
    q=st.sampled_from([2, 3, 4, 5, 8, 9, 27, 49]),
    degree=st.integers(2, 40),
    seed=st.integers(0, 10**6),
)
def test_frobenius_q_matches_powering(q, degree, seed):
    # the packed build of h -> h^q, on both sides of q = d, against its
    # columns x^(qj) mod f, each x^q mod f times the one before, by the
    # product and long division of the polynomial kernels
    base = base_field(q)
    k = base.k
    rng = random.Random(seed)
    f = tuple(rng.randrange(base.p) for _ in range(k * degree)) + pone(base)
    x_q = pdivmod(base, (0,) * (k * q) + pone(base), f)[1]
    cols, col = [], pone(base)
    for _ in range(degree):
        cols.append(list(col) + [0] * (k * degree - len(col)))
        col = pdivmod(base, pmul(base, col, x_q), f)[1]
    expected = lift(base, np.array(cols).reshape(degree, degree, k).transpose(1, 0, 2))
    assert np.array_equal(_frobenius_q(base, f), expected)


def _frobenius_by_column_walk(field, f):
    """The former build of ``_frobenius_q``: x^(qj) mod f as int64 columns,
    each x^q times the one before through a numpy matrix of the top slots'
    residues x^(max(q, d) + t) mod f, then lifted to F_p."""
    p, k, q = field.p, field.k, field.q
    d = len(f) // k - 1
    wrap = min(q, d)
    low = np.array(f[:-k]).reshape(d, k)
    if q < d:
        first = -low % p
    else:
        red = _polys._reduction_matrix(field, tuple(f))
        x = _polys._unpack(k, red[:, 2 * k - 1])
        first = np.reshape(_polys.ppowmod(field, red, x, q), (d, k))
    R = _polys._times_x_powers(field, low, first, wrap)
    T = _linalg.mul_tensor(field)
    act = np.einsum("lab,tjb->jlta", T, R).reshape(d * k, wrap * k) % p
    cols = np.zeros((d, d * k), dtype=np.int64)
    cols[0, 0] = 1
    for j in range(1, d):
        cols[j, q * k :] = cols[j - 1, : (d - wrap) * k]
        cols[j] = (cols[j] + act @ cols[j - 1, (d - wrap) * k :]) % p
    return lift(field, cols.reshape(d, d, k).transpose(1, 0, 2))


@settings(max_examples=150)
@given(
    q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 16, 27, 49, 65521]),
    degree=st.one_of(st.integers(2, 10), st.integers(11, 60)),
    seed=st.integers(0, 10**6),
)
def test_frobenius_q_matches_the_column_walk(q, degree, seed):
    # bit-rows (p = 2) and lanes (odd p, up to 80-bit lanes at p = 65521),
    # k = 1 and k > 1, q < d and q >= d (q = 8, 9, 11, 16, 49 and 65521 at
    # d <= 10): the same int64 array as the former numpy walk
    base = base_field(q)
    rng = random.Random(seed)
    f = tuple(rng.randrange(base.p) for _ in range(base.k * degree)) + pone(base)
    got, want = _frobenius_q(base, f), _frobenius_by_column_walk(base, f)
    assert got.dtype == want.dtype == np.int64 and got.flags.c_contiguous
    assert np.array_equal(got, want)


def test_extension_field_seed_is_one_cache_key():
    cached = extension_field.__wrapped__
    cached.cache_clear()
    specs = [extension_field(3, 125), extension_field(3, 125, 0), extension_field(3, 125, seed=0)]
    assert specs[0] is specs[1] is specs[2]
    assert cached.cache_info().misses == 1


def _naive_scalar_product(field, a, b):
    """a*b in F_p[y]/(m(y)): schoolbook product, then y^t -> y^t - y^(t-k) m(y)
    from the top down."""
    p, k, m = field.p, field.k, field.base_modulus
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for t in range(2 * k - 2, k - 1, -1):
        c = prod[t]
        for l, ml in enumerate(m):
            prod[t - k + l] -= c * ml
    return tuple(v % p for v in prod[:k])


@pytest.mark.parametrize("q", [4, 8, 9, 16, 27])
def test_scalar_product_is_naive_product(q):
    # every pair; F_8's multiplication matrices are not symmetric
    F = base_field(q)
    for a in F.elements():
        for b in F.elements():
            assert (a * b).coeffs == _naive_scalar_product(F, a.coeffs, b.coeffs)


@pytest.mark.parametrize("q,n,seed", [(3, 5, 0), (4, 3, 1), (8, 11, 0), (9, 2, 0)])
def test_ext_modulus_is_flat(q, n, seed):
    E = extension_field(q, n, seed)
    k, p = E.base.k, E.base.p
    mod = E.ext_modulus
    assert len(mod) == k * (n + 1) and all(type(c) is int for c in mod)
    assert mod[-k:] == (1,) + (0,) * (k - 1)
    assert find_irreducible(E.base, n, seed) == mod
    # entries are stored reduced mod p
    assert ExtFieldSpec(E.base, n, tuple(c + p for c in mod)) == E
    not_monic = mod[:-k] + (2,) + (0,) * (k - 1)
    for bad in (mod[:-1], mod + (0,) * k, not_monic, (0,) * k * n + mod[-k:]):
        with pytest.raises(BadInput):
            ExtFieldSpec(E.base, n, bad)


def test_searched_modulus_is_tested_once(monkeypatch):
    # the search records each modulus it proves, and the public constructors
    # do not test a recorded one again, for base fields, extensions and
    # splitting fields; the canned modulus of F_{2^3} is still tested when
    # its spec is built. The record starts empty, so no earlier search in
    # the process can have proved the canned modulus.
    from linperm import polyring

    tested = []
    real = fields._polys.pis_irreducible

    def counting(base, f):
        tested.append(tuple(f))
        return real(base, f)

    monkeypatch.setattr(fields._polys, "pis_irreducible", counting)
    monkeypatch.setattr(fields, "_proved", set())
    build = fields._extension_field.__wrapped__
    for q, n, seed in ((3, 7, 5), (4, 5, 2), (2, 11, 3), (2, 3, 0), (2, 3, 1)):
        tested.clear()
        E = build(q, n, seed)
        assert tested.count(E.ext_modulus) == 1, (q, n, seed)
        public = ExtFieldSpec(E.base, n, E.ext_modulus)
        assert E == public and hash(E) == hash(public) and repr(E) == repr(public)
    for q, n in ((3, 13), (4, 7), (2, 9)):  # degrees 3, 3 and 6
        tested.clear()
        E = polyring._splitting_field.__wrapped__(RingSpec(base_field(q), n))
        assert tested.count(E.ext_modulus) == 1, (q, n)
    for q in (4, 49):
        tested.clear()
        B = fields._base_field.__wrapped__(q)
        assert tested.count(B.base_modulus) == 1, q
        public = FieldSpec(B.p, B.k, B.base_modulus)
        assert B == public and hash(B) == hash(public) and repr(B) == repr(public)
        assert B == base_field(q)


def test_caller_modulus_is_tested():
    F3 = base_field(3)
    for n, mod in ((2, (2, 0, 1)), (4, (1, 0, 2, 0, 1)), (3, (0, 1, 0, 1))):  # x^2 - 1, (x^2 + 1)^2, x(x^2 + 1)
        with pytest.raises(BadInput, match="reducible"):
            ExtFieldSpec(F3, n, mod)
    F4 = base_field(4)
    with pytest.raises(BadInput, match="reducible"):
        ExtFieldSpec(F4, 2, (1, 0, 0, 0, 1, 0))  # x^2 + 1 = (x + 1)^2 over F_4
    with pytest.raises(BadInput, match="reducible"):
        FieldSpec(7, 2, (6, 0, 1))  # y^2 - 1 over F_7


def test_splitting_field_is_the_searched_spec():
    from linperm.polyring import splitting_field

    ring = RingSpec(base_field(3), 13)  # 3 has order 3 mod 13
    E = splitting_field.__wrapped__(ring)
    assert E == ExtFieldSpec(ring.base, 3, find_irreducible(ring.base, 3, 0))
