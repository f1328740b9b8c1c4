"""The value rule of the three specs: FieldSpec, ExtFieldSpec and RingSpec are
equal by value, hash as their generated dataclass methods would, and hit the
same cache entry however they were built."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

from linperm import ExtFieldSpec, FieldSpec, RingSpec, base_field, extension_field
from linperm import _linalg, fields
from linperm.polyring import factor_xn_minus_1

F8_MODULUS = (1, 1, 0, 1)  # y^3 + y + 1, base_field(8)'s


def _lifted(mod, p):
    """The same residues written one period of p higher."""
    return tuple(c + p for c in mod)


# each case builds one spec twice, the second time by another spelling
CASES = {
    "F_3": (lambda: base_field(3), lambda: FieldSpec(3)),
    "F_8": (lambda: base_field(8), lambda: FieldSpec(2, 3, F8_MODULUS)),
    "F_8, modulus above p": (
        lambda: FieldSpec(2, 3, F8_MODULUS),
        lambda: FieldSpec(2, 3, _lifted(F8_MODULUS, 2)),
    ),
    "F_{3^5}": (
        lambda: extension_field(3, 5),
        lambda: ExtFieldSpec(FieldSpec(3), 5, _lifted(extension_field(3, 5).ext_modulus, 3)),
    ),
    "F_{8^11}": (
        lambda: extension_field(8, 11),
        lambda: ExtFieldSpec(FieldSpec(2, 3, F8_MODULUS), 11, extension_field(8, 11).ext_modulus),
    ),
    "R_{3,5}": (lambda: RingSpec(base_field(3), 5), lambda: RingSpec(FieldSpec(3), 5)),
    "R_{8,11}": (
        lambda: RingSpec(base_field(8), 11),
        lambda: RingSpec(FieldSpec(2, 3, _lifted(F8_MODULUS, 2)), 11),
    ),
}


@pytest.fixture(params=list(CASES), scope="module")
def pair(request):
    first, second = CASES[request.param]
    return first(), second()


def _generated_hash(spec):
    """What the dataclass-generated ``__hash__`` returns: the hash of the
    tuple of the fields."""
    return hash(tuple(getattr(spec, f.name) for f in dataclasses.fields(spec)))


def test_specs_built_separately_are_equal_and_hash_equal(pair):
    a, b = pair
    assert a is not b
    assert a == b and b == a
    assert not (a != b) and not (b != a)
    assert hash(a) == hash(b)
    assert {a: "cached"}[b] == "cached"


def test_hash_is_the_generated_one(pair):
    for spec in pair:
        assert hash(spec) == _generated_hash(spec)


def test_hash_of_each_class_is_its_fields_tuple():
    F = base_field(8)
    E = extension_field(3, 5)
    R = RingSpec(base_field(3), 5)
    assert hash(F) == hash((2, 3, F8_MODULUS))
    assert hash(FieldSpec(3)) == hash((3, 1, None))
    assert hash(E) == hash((E.base, 5, E.ext_modulus))
    assert hash(R) == hash((R.base, 5))


def test_separately_built_specs_hit_one_cache_entry():
    for cached, first, second in (
        (_linalg.mul_tensor, base_field(8), FieldSpec(2, 3, F8_MODULUS)),
        (fields._ext_tensor, extension_field(3, 5), ExtFieldSpec(
            FieldSpec(3), 5, extension_field(3, 5).ext_modulus)),
        (factor_xn_minus_1.__wrapped__, RingSpec(base_field(8), 11), RingSpec(
            FieldSpec(2, 3, F8_MODULUS), 11)),
    ):
        value = cached(first)
        before = cached.cache_info()
        assert cached(second) is value
        after = cached.cache_info()
        assert after.hits == before.hits + 1 and after.misses == before.misses


# each pair differs in exactly one field (k only together with a modulus of
# that degree, which the spec requires)
DIFFERENT = {
    "FieldSpec p": (lambda: FieldSpec(3), lambda: FieldSpec(5)),
    "FieldSpec k": (lambda: FieldSpec(2, 2, (1, 1, 1)), lambda: FieldSpec(2, 3, F8_MODULUS)),
    "FieldSpec base_modulus": (
        lambda: FieldSpec(2, 3, F8_MODULUS),
        lambda: FieldSpec(2, 3, (1, 0, 1, 1)),
    ),
    "ExtFieldSpec base": (
        lambda: ExtFieldSpec(FieldSpec(2), 3, (1, 1, 0, 1)),
        lambda: ExtFieldSpec(FieldSpec(5), 3, (1, 1, 0, 1)),
    ),
    "ExtFieldSpec n": (lambda: extension_field(3, 5), lambda: extension_field(3, 7)),
    "ExtFieldSpec ext_modulus": (
        lambda: extension_field(3, 5, 0),
        lambda: extension_field(3, 5, 1),
    ),
    "RingSpec base": (lambda: RingSpec(FieldSpec(2), 5), lambda: RingSpec(FieldSpec(3), 5)),
    "RingSpec base_modulus": (
        lambda: RingSpec(FieldSpec(2, 3, F8_MODULUS), 11),
        lambda: RingSpec(FieldSpec(2, 3, (1, 0, 1, 1)), 11),
    ),
    "RingSpec n": (lambda: RingSpec(FieldSpec(3), 5), lambda: RingSpec(FieldSpec(3), 7)),
}


@pytest.mark.parametrize("name", list(DIFFERENT))
def test_one_changed_field_makes_specs_unequal(name):
    a, b = (build() for build in DIFFERENT[name])
    assert a != b and b != a
    assert not (a == b) and not (b == a)
    assert {a: 1, b: 2}[a] == 1 and len({a, b}) == 2


def test_another_class_or_an_int_is_unequal(pair):
    F = FieldSpec(3)
    others = (3, None, "F_3", (3, 1, None), F, RingSpec(F, 5), extension_field(3, 5))
    for spec in pair:
        for other in others:
            if other.__class__ is spec.__class__:
                continue
            assert not (spec == other) and not (other == spec)
            assert spec != other and other != spec
        assert spec.__eq__(3) is NotImplemented


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_keep_equality_and_hash(pair, clone):
    for spec in pair:
        twin = clone(spec)
        assert twin == spec and spec == twin
        assert hash(twin) == hash(spec) == _generated_hash(twin)
        assert repr(twin) == repr(spec)


def test_a_pickled_spec_hashes_afresh_in_another_process():
    # hash(None), and with it the hash of F_p's fields, can differ from one
    # process to the next, so a spec must not carry its hash across
    import linperm

    specs = [first() for first, _ in CASES.values()]
    code = (
        "import pickle, sys\n"
        "specs = pickle.loads(sys.stdin.buffer.read())\n"
        "built = [s.__class__(*(getattr(s, n) for n in s.__dataclass_fields__)) for s in specs]\n"
        "assert all(a == b and hash(a) == hash(b) for a, b in zip(specs, built)), specs\n"
        "assert set(built) == set(specs)\n"
    )
    src = os.path.dirname(os.path.dirname(linperm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], input=pickle.dumps(specs), env=env, capture_output=True
    )
    assert done.returncode == 0, done.stderr.decode()
