"""Arithmetic in R_q = Z_q[x]/(x^256 + 1).

Polynomials carry a domain tag (standard coefficients vs NTT values) so that
transform misuse fails loudly. The NTT fully splits x^256 + 1 into linear
factors using the primitive 512th root of unity 1753, so multiplication in
the NTT domain is plain coefficient-wise modular multiplication; no scaling
factor is left behind and inv_ntt(pointwise_mul(ntt(a), ntt(b))) equals the
schoolbook negacyclic product exactly.

All operations are value-level: inputs are never mutated.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import instrumentation
from .params import N, Q, ROOT_OF_UNITY


class Domain(enum.Enum):
    STANDARD = "standard"
    NTT = "ntt"


def _bit_reverse_8(x: int) -> int:
    return int(f"{x:08b}"[::-1], 2)


def _build_zetas() -> np.ndarray:
    z = np.array([pow(ROOT_OF_UNITY, _bit_reverse_8(i), Q) for i in range(N)], dtype=np.int64)
    return z


ZETAS = _build_zetas()
_INV_N = pow(N, -1, Q)


@dataclass
class Poly:
    """A ring element: 256 signed 32-bit coefficients plus a domain tag."""

    coeffs: np.ndarray
    domain: Domain = Domain.STANDARD

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.int32)
        if c.shape != (N,):
            raise ValueError(f"expected {N} coefficients, got shape {c.shape}")
        object.__setattr__(self, "coeffs", c)

    def copy(self) -> "Poly":
        return Poly(self.coeffs.copy(), self.domain)


@dataclass
class PolyVec:
    """A vector of ring elements sharing one domain tag, stored (m, 256)."""

    coeffs: np.ndarray
    domain: Domain = Domain.STANDARD

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.int32)
        if c.ndim != 2 or c.shape[1] != N:
            raise ValueError(f"expected shape (m, {N}), got {c.shape}")
        object.__setattr__(self, "coeffs", c)

    def __len__(self) -> int:
        return self.coeffs.shape[0]


@dataclass
class PolyMat:
    """A k x l matrix of ring elements, stored (k, l, 256)."""

    coeffs: np.ndarray
    domain: Domain = Domain.NTT

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.int32)
        if c.ndim != 3 or c.shape[2] != N:
            raise ValueError(f"expected shape (k, l, {N}), got {c.shape}")
        object.__setattr__(self, "coeffs", c)


# ---------------------------------------------------------------------------
# array-level transforms (operate on the last axis, int64 working precision)

def ntt_values(a: np.ndarray) -> np.ndarray:
    """Forward transform of standard-order coefficients, any leading shape.

    Reduction is lazy: only the twiddle products are reduced per layer, so
    working magnitudes stay below 9q and every int64 product is exact.
    """
    f = np.asarray(a, dtype=np.int64) % Q
    lead = f.shape[:-1]
    k = 1
    length = 128
    while length >= 1:
        nb = N // (2 * length)
        g = f.reshape(lead + (nb, 2, length))
        z = ZETAS[k:k + nb].reshape((1,) * len(lead) + (nb, 1))
        t = z * g[..., 1, :] % Q
        g[..., 1, :] = g[..., 0, :] - t
        g[..., 0, :] += t
        k += nb
        length >>= 1
    instrumentation.add_modmul(max(1, int(np.prod(lead))) * 128 * 8)
    return f % Q


def intt_values(fhat: np.ndarray) -> np.ndarray:
    """Inverse transform, including the 1/256 scaling; output in [0, q).

    Lazy reduction mirrors the forward path: unreduced sums stay below
    256q, so the final scaling product still fits int64 exactly.
    """
    f = np.asarray(fhat, dtype=np.int64) % Q
    lead = f.shape[:-1]
    k = 256
    length = 1
    while length <= 128:
        nb = N // (2 * length)
        g = f.reshape(lead + (nb, 2, length))
        z = ((-ZETAS[k - nb:k][::-1]) % Q).reshape((1,) * len(lead) + (nb, 1))
        t = g[..., 0, :] - g[..., 1, :]
        g[..., 0, :] += g[..., 1, :]
        g[..., 1, :] = z * t % Q
        k -= nb
        length <<= 1
    instrumentation.add_modmul(max(1, int(np.prod(lead))) * (128 * 8 + N))
    return f * _INV_N % Q


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _same_kind(a, b):
    _require(type(a) is type(b), f"mixed operand types {type(a).__name__}/{type(b).__name__}")
    _require(a.domain == b.domain, f"domain mismatch: {a.domain.value} vs {b.domain.value}")


# ---------------------------------------------------------------------------
# domain-tagged API

def ntt(p):
    """Forward NTT of a Poly or PolyVec in the standard domain."""
    _require(p.domain == Domain.STANDARD, "ntt expects a standard-domain input")
    return type(p)(ntt_values(p.coeffs), Domain.NTT)


def inv_ntt(p):
    """Inverse NTT of a Poly or PolyVec in the NTT domain."""
    _require(p.domain == Domain.NTT, "inv_ntt expects an NTT-domain input")
    return type(p)(intt_values(p.coeffs), Domain.STANDARD)


def pointwise_mul(a, b):
    """Coefficient-wise modular product of two NTT-domain elements."""
    _same_kind(a, b)
    _require(a.domain == Domain.NTT, "pointwise_mul expects NTT-domain inputs")
    prod = a.coeffs.astype(np.int64) * b.coeffs.astype(np.int64) % Q
    instrumentation.add_modmul(prod.size)
    return type(a)(prod, Domain.NTT)


def schoolbook_negacyclic(a: Poly, b: Poly) -> Poly:
    """Exact O(n^2) negacyclic product; the oracle for every other path.

    Uses direct integer convolution (exact in int64 for reduced inputs)
    followed by the x^256 = -1 fold.
    """
    _require(a.domain == Domain.STANDARD and b.domain == Domain.STANDARD,
             "schoolbook expects standard-domain inputs")
    av = a.coeffs.astype(np.int64) % Q
    bv = b.coeffs.astype(np.int64) % Q
    conv = np.convolve(av, bv)          # length 511, exact
    out = conv[:N].copy()
    out[: N - 1] -= conv[N:]
    instrumentation.add_modmul(N * N)
    return Poly(out % Q, Domain.STANDARD)


def center(values: np.ndarray) -> np.ndarray:
    """Centered representatives in [-(q-1)/2, (q-1)/2] of values in [0, q)."""
    v = np.asarray(values, dtype=np.int64) % Q
    return np.where(v > (Q - 1) // 2, v - Q, v)
