#!/usr/bin/env python3
"""Worked example: random linear permutation of F_{q^n}, its inverse, and
its alpha-cyclic shift class.

Usage: inverse_demo.py [q] [n] [seed]
"""

import random
import sys

from linperm import (
    LinearizedPoly,
    RingSpec,
    base_field,
    compose,
    compositional_inverse,
    cyclic_order,
    extension_field,
    format_linearized,
    identity,
    is_permutation,
    norm,
    primitive_idempotents,
    shift_class,
)


def run(q: int = 3, n: int = 5, seed: int = 0) -> int:
    ext = extension_field(q, n)
    basis = primitive_idempotents(RingSpec(base_field(q), n))
    rng = random.Random(seed)
    while True:
        F = LinearizedPoly(
            ext, tuple(ext.embed(ext.base.from_int(rng.randrange(q))) for _ in range(n))
        )
        if is_permutation(F, basis):
            break
    Finv = compositional_inverse(F, basis)
    print(f"F      = {format_linearized(F)}")
    print(f"F^-1   = {format_linearized(Finv)}")
    ok = compose(F, Finv) == identity(ext)
    print(f"F o F^-1 = x: {ok}")
    alpha = ext.from_int(rng.randrange(1, ext.order))
    k = cyclic_order(F, alpha)
    cls = shift_class(F, alpha)
    print(f"alpha-cyclic order (norm order {k // n}): {k}")
    print(f"shift class size: {len(cls.members)}")
    assert norm(alpha) is not None
    return 0 if ok else 1


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:4]]
    sys.exit(run(*args))
