"""Coefficient rounding, high/low-bit decomposition, hints, and norm checks.

All functions are vectorized over numpy integer arrays (any shape). Inputs
to power2round and decompose must be canonical representatives in [0, q),
and norm_inf_exceeds takes centered values. make_hint takes r in [0, q)
and a centered z with |z| < alpha; a caller that already holds LowBits(r)
passes it as `low`, and r is then read only where the rule's tie needs
HighBits(r).
"""

import numpy as np

from .params import D, Q


def power2round(r):
    """Split r = r1 * 2^D + r0 with r0 in (-2^(D-1), 2^(D-1)], D = 13 at every level."""
    r = np.asarray(r, dtype=np.int64)
    r1 = (r + (1 << (D - 1)) - 1) >> D
    r0 = r - (r1 << D)
    return r1, r0


def decompose(r, alpha: int):
    """Split r = r1 * alpha + r0 (mod q) with centered r0 in (-alpha/2, alpha/2].

    Rounds half down: r1 = ceil((r - alpha/2) / alpha). The q-1 boundary is
    folded down: when r1 == (q-1)/alpha the high part wraps to 0 and r0 is
    decremented, keeping r1 in [0, (q-1)/alpha). `r` is an array, and the
    fold is in place: a boolean assignment zeroes r1 there and r0 subtracts
    the mask.
    """
    r = np.asarray(r, dtype=np.int64)
    r1 = (r + (alpha // 2 - 1)) // alpha
    r0 = r - r1 * alpha
    top = r1 == (Q - 1) // alpha
    r1[top] = 0
    r0 -= top
    return r1, r0


def highbits(r, alpha: int):
    return decompose(r, alpha)[0]


def make_hint(z, r, alpha: int, low=None):
    """Hint bits: 1 where HighBits(r + z) != HighBits(r), for r in [0, q).

    Precondition: z is centered with |z| < alpha; past it the rule below is
    not that definition. For |z| <= gamma2 the bits are symmetric: use_hint
    with them on either of r and r + z recovers the other's high part.

    `low`, when given, is LowBits(r), which the caller already holds; then
    r is not decomposed. The signer passes r = w, low = LowBits(w) and
    z = c*t0 - c*s2, which reaches gamma2 + beta, once its r0 and c*t0
    checks have passed (see `scheme`). Without `low`, r is decomposed once.

    The bits are the round-3 reference rule on t = LowBits(r) + z: a hint
    where t > gamma2, t < -gamma2, or t == -gamma2 while HighBits(r) != 0.
    Only that tie reads HighBits(r): at t == -gamma2, r + z is the top of
    the bucket below r's, a change, unless r is in bucket 0, which the q-1
    fold extends down to -gamma2. With `low` given, r is decomposed at the
    tied coefficients alone, and most calls have none.
    """
    gamma2 = alpha // 2
    r1 = None
    if low is None:
        r1, low = decompose(r, alpha)
    t = np.add(low, z, dtype=np.int64)
    h = (t > gamma2) | (t < -gamma2)
    tie = t == -gamma2
    if tie.any():
        tied_r1 = r1[tie] if r1 is not None else decompose(np.asarray(r)[tie], alpha)[0]
        h[tie] = tied_r1 != 0
    return h.astype(np.uint8)


def use_hint(h, r, alpha: int):
    """Recover the high part of the unperturbed value from a hint bit.

    `h` has the shape of `r`. Only the hinted coefficients (at most omega
    in a signature) move, by +1 where r0 > 0 and -1 elsewhere, mod
    (q-1)/alpha; the rest keep HighBits(r).
    """
    r1, r0 = decompose(r, alpha)
    hinted = np.flatnonzero(h)
    out = r1.reshape(-1)                    # r1 is a fresh array: a view to write through
    out[hinted] = (out[hinted] + np.where(np.asarray(r0).reshape(-1)[hinted] > 0, 1, -1)
                   ) % ((Q - 1) // alpha)
    return r1


def norm_inf_exceeds(v, bound: int) -> bool:
    """True iff any coefficient magnitude of the centered `v` is >= bound.

    The comparison is non-strict to match the rejection rule "reject when
    the norm reaches the bound".
    """
    v = np.asarray(v)
    return max(-int(v.min(initial=0)), int(v.max(initial=0))) >= bound   # False when empty
