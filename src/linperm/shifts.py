"""The alpha-cyclic shift S_alpha(F) = F(alpha x^{[1]}) and its orbit structure.

Composing on the right with alpha x^{[1]} rotates the coefficient vector one
slot while twisting by Frobenius powers of alpha. Applying it n times scales
every coefficient by the norm N(alpha), so orbit lengths are n times the
multiplicative order of the norm in F_q^*, and ``alpha_shift_power`` needs
at most n - 1 single shifts whatever t is. Closed orbits of permutations,
shifted inverses and half-order involutions all fall out of that arithmetic.

A shift works on ``LinearizedPoly.coords`` with the twist rows alpha^{[i]},
cached per alpha by ``_twist_rows``. Where the n rows' matrices fit the
product tensor's budget (``fields._on_tensor``, n*(k*n)^3 <= 2^16, so
F_{3^5}, F_{4^3} and F_{11^9} but not F_{3^25}), the same cache entry
holds the stack of Mul(alpha^{[i]}), n*(k*n)^2 int64 entries per alpha
(1,000 bytes at (3,5), 5,832 at (11,9)), and a shift is one batched
product of all n rows by it, zero rows included, moved down one slot. On
wider fields the nonzero rows alone are multiplied by their twist rows in
one row-wise product (``fields._mul_rows``) and moved down one slot; zero
rows cost nothing. The orbit order comes from ``norm``, which powers alpha
by ``ExtElement.__pow__`` (``_polys._square_and_multiply`` on the product
tensor or by ``ppowmod``) and never reads the twist rows, so
``shift_class``'s closure check compares two derivations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from ._polys import _block
from .errors import (
    BadInput,
    HypothesisViolated,
    InternalError,
    NotAPermutation,
    OddOrder,
    ZeroAlpha,
)
from .fields import (
    ExtElement,
    ExtFieldSpec,
    _as_int,
    _by_unit,
    _frobenius_power,
    _mul_rows,
    _on_tensor,
    element_order,
    norm,
)
from .linearized import LinearizedPoly, is_involution, is_permutation_rank

ORBIT_CAP = 10**5


@dataclass(frozen=True)
class ShiftClass:
    """The orbit of a permutation under repeated alpha-shifts."""

    representative: LinearizedPoly
    alpha: ExtElement
    order: int
    members: tuple[LinearizedPoly, ...]


def _check_alpha(spec: ExtFieldSpec, alpha: ExtElement) -> None:
    if not isinstance(alpha, ExtElement):
        raise BadInput("alpha from a different field")
    if alpha.is_zero():
        raise ZeroAlpha("alpha must be nonzero")
    if alpha.spec != spec:
        raise BadInput("alpha from a different field")


@lru_cache(maxsize=64)
def _twist_rows(spec: ExtFieldSpec, alpha: tuple) -> tuple:
    """(rows, by_twist) for alpha given by its flat coordinates. rows is the
    (n, k*n) array whose row i holds the flat coordinates of alpha^{[i]}:
    each row is Frob^1 of the last. On fields where the n rows' matrices fit
    the product tensor's budget, by_twist is the (n, k*n, k*n) stack of
    Mul(alpha^{[i]}) reduced mod p, so f_i @ by_twist[i] is alpha^{[i]} f_i;
    elsewhere it is None."""
    frob, p = _frobenius_power(spec, 1), spec.base.p
    rows = [np.array(alpha, dtype=np.int64)]
    for _ in range(spec.n - 1):
        rows.append(frob @ rows[-1] % p)
    rows = np.array(rows)
    if not _on_tensor(rows.shape[1], spec.n):
        return rows, None
    return rows, _by_unit(spec, rows) % p


def alpha_shift(F: LinearizedPoly, alpha: ExtElement) -> LinearizedPoly:
    """One shift: slot i+1 (mod n) of the result is alpha^{[i]} * f_i."""
    LinearizedPoly._require_class(F)
    _check_alpha(F.spec, alpha)
    spec = F.spec
    rows, by_twist = _twist_rows(spec, alpha.coords)
    if by_twist is not None:
        # every row, zero rows too, in one batched product; output slot j
        # takes the product of row j - 1
        prod = np.matmul(F.coords[:, None, :], by_twist)[np.arange(-1, spec.n - 1), 0]
        return LinearizedPoly._of(spec, prod % spec.base.p)
    support = F.coords.any(axis=1).nonzero()[0]
    prod = _mul_rows(spec, rows[support], F.coords[support])
    out = np.zeros_like(F.coords)
    # row i moves to row i + 1 - n, a negative index except for i = n - 1
    out[support + 1 - spec.n] = prod
    return LinearizedPoly._of(spec, out)


def alpha_shift_power(F: LinearizedPoly, alpha: ExtElement, t: int) -> LinearizedPoly:
    """S_alpha^t(F): every coefficient times N(alpha)^(t // n), since
    S_alpha^n = N(alpha)*id, then t mod n single shifts."""
    if (t := _as_int(t)) < 0:
        raise BadInput("shift count must be nonnegative")
    LinearizedPoly._require_class(F)
    _check_alpha(F.spec, alpha)
    spec = F.spec
    if t >= spec.n:
        base = spec.base
        block = _block(base, (norm(alpha) ** (t // spec.n)).coeffs)
        slots = F.coords.reshape(-1, base.k) @ block.T % base.p
        F = LinearizedPoly._of(spec, slots.reshape(F.coords.shape))
    for _ in range(t % spec.n):
        F = alpha_shift(F, alpha)
    return F


def cyclic_order(F: LinearizedPoly, alpha: ExtElement) -> int:
    """Orbit length n*t, with t the order of norm(alpha) in F_q^*.

    S_alpha^n scales coefficients by the norm, so the first return to F
    happens after n*t steps and never earlier at a non-multiple of n unless
    the orbit degenerates; permutations never degenerate.
    """
    LinearizedPoly._require_class(F)
    _check_alpha(F.spec, alpha)
    if not is_permutation_rank(F):
        raise NotAPermutation("cyclic order is defined for permutations")
    return F.spec.n * element_order(norm(alpha))


def is_maximal_order_element(alpha: ExtElement) -> bool:
    """Whether orbits under alpha reach the maximal length (q-1)n."""
    _check_alpha(getattr(alpha, "spec", None), alpha)
    return element_order(norm(alpha)) == alpha.spec.base.q - 1


def shift_class(F: LinearizedPoly, alpha: ExtElement) -> ShiftClass:
    order = cyclic_order(F, alpha)
    if order > ORBIT_CAP:
        raise BadInput(f"orbit of length {order} exceeds cap {ORBIT_CAP}")
    members = [F]
    current = F
    for _ in range(order - 1):
        current = alpha_shift(current, alpha)
        members.append(current)
    if alpha_shift(current, alpha) != F:
        raise InternalError("shifts: orbit did not close at the computed order")
    if len(set(members)) != order:
        raise InternalError("shifts: orbit members not distinct")
    return ShiftClass(F, alpha, order, tuple(members))


def _check_prop10(spec, alpha: ExtElement) -> None:
    q = spec.base.q
    _check_alpha(spec, alpha)
    if gcd(spec.n, q - 1) != 1:
        raise HypothesisViolated(f"gcd(n, q-1) = {gcd(spec.n, q - 1)} != 1")
    if not alpha.in_base_field():
        raise HypothesisViolated("alpha must lie in F_q")
    # the order of alpha in F_q^* equals its order in F_{q^n}^*, and needs
    # only q - 1 factored
    if q > 2 and element_order(alpha.base_value()) != q - 1:
        raise HypothesisViolated("alpha must be primitive in F_q^*")


def shifted_inverse(
    F_inv: LinearizedPoly, alpha: ExtElement, t: int
) -> LinearizedPoly:
    """Inverse of the t-fold shift: S_alpha^{(q-1)n - t}(F_inv).

    Valid when gcd(n, q-1) = 1 and alpha is a primitive element of F_q^*,
    so that alpha x^{[1]} is central and its symbolic order is (q-1)n.
    """
    LinearizedPoly._require_class(F_inv)
    spec = F_inv.spec
    _check_prop10(spec, alpha)
    full = (spec.base.q - 1) * spec.n
    if not 0 <= (t := _as_int(t)) <= full:
        raise BadInput(f"t must lie in [0, {full}]")
    return alpha_shift_power(F_inv, alpha, full - t)


def half_order_involution(F: LinearizedPoly, alpha: ExtElement) -> LinearizedPoly:
    """S_alpha^{(q-1)n/2}(F) for an involution F; again an involution."""
    LinearizedPoly._require_class(F)
    spec = F.spec
    _check_prop10(spec, alpha)
    full = (spec.base.q - 1) * spec.n
    if full % 2:
        raise OddOrder(f"(q-1)n = {full} is odd")
    if not is_involution(F):
        raise HypothesisViolated("F must be an involution")
    out = alpha_shift_power(F, alpha, full // 2)
    if not is_involution(out):
        raise InternalError("shifts: half-order shift failed to produce an involution")
    return out
