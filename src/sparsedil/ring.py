"""Arithmetic in R_q = Z_q[x]/(x^256 + 1): every R_q product, written once.

A `Poly` is one polynomial (256,) or any stack of them (..., 256) with a
domain tag (standard coefficients vs NTT values), so that transform misuse
fails loudly. The NTT fully splits x^256 + 1 into linear factors using the
primitive 512th root of unity zeta = 1753: output i is
a(zeta^(2*brv(i) + 1)), with brv the 8-bit bit reversal. Multiplication in
the NTT domain is plain coefficient-wise modular multiplication
(`ntt_product`); no scaling factor is left behind and
inv_ntt(pointwise_mul(ntt(a), ntt(b))) equals the schoolbook negacyclic
product exactly.

Each transform is one float64 matrix product with a constant 256 x 256
matrix. Inputs and matrix entries are centered in [-(q-1)/2, (q-1)/2], so
every product is below 2^44 in magnitude and every partial sum of 256 of
them below 2^52 < 2^53: each addition is exact in IEEE float64, whatever
order the BLAS sums in.

`matvec_hat` is the one A o v stage, summed over l, in float64. Its
operands are below q in magnitude (A as sampled in [0, q), v as
`ntt_values` returns it or reduced), so every product is below 2^46 and
every sum of at most l <= 7 of them below 2^49: exact. It does not reduce;
keygen and verify hand the sum to `intt_values`, which reduces with int64
`% q` anyway.

`ntt_matvec` chains the signer's w = INTT(A o NTT(y)) for a block of masks
through that stage without leaving float64, so it reduces each stage
itself, with x - q*rint(x/q): for an integer |x| < 2^52 the quotient x/q
is off by at most 2^-24, so the result is exact, congruent to x, and at
most (q+1)/2 in magnitude even if rint rounds the wrong way. Stage by
stage, with |y| <= (q-1)/2:

  NTT(y)       256 products < 2^44 each, sums < 2^52, reduced to <= (q+1)/2
  A o NTT(y)   l <= 7 products < 2^46 each, sums < 2^49, reduced likewise
  INTT         256 products < 2^44 each, sums < 2^52

Every stage is an exact integer below 2^53, and the last one goes to
[0, q) through int64 `% q`, which does not depend on any rounding.

The modmul counter charges the butterfly NTT's cost model, the paper's
baseline, not the matrix products' work: 8 layers of 128 products per
forward row, the same plus 256 scaling products per inverse row, and one
product per NTT-domain coefficient pair.

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


def center(values: np.ndarray) -> np.ndarray:
    """Centered representatives in [-(q-1)/2, (q-1)/2] of integers mod q."""
    v = np.asarray(values, dtype=np.int64) % Q
    return np.where(v > (Q - 1) // 2, v - Q, v)


def _transform_matrices() -> tuple[np.ndarray, np.ndarray]:
    """The forward and inverse NTT matrices, centered float64, applied as a @ M.

    Forward M[j, i] = zeta^((2*brv(i) + 1)*j); inverse M[i, j] =
    256^-1 * zeta^(-(2*brv(i) + 1)*j). Both are read-only, so concurrent
    signers share them.
    """
    brv = np.array([int(f"{i:08b}"[::-1], 2) for i in range(N)])
    powers = np.array([pow(ROOT_OF_UNITY, e, Q) for e in range(2 * N)], dtype=np.int64)
    odd = 2 * brv + 1
    fwd = center(powers).astype(np.float64)[np.outer(np.arange(N), odd) % (2 * N)]
    inv = center(powers * pow(N, -1, Q)).astype(np.float64)[np.outer(odd, -np.arange(N)) % (2 * N)]
    fwd.setflags(write=False)
    inv.setflags(write=False)
    return fwd, inv


_NTT_MATRIX, _INTT_MATRIX = _transform_matrices()

# butterfly cost model, per transformed row (see the module docstring)
_NTT_MODMULS = 128 * 8
_INTT_MODMULS = 128 * 8 + N


@dataclass(frozen=True)
class Poly:
    """Ring elements, one (256,) or a stack (..., 256), int32, plus a domain tag."""

    coeffs: np.ndarray
    domain: Domain = Domain.STANDARD

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.int32)
        if c.shape[-1:] != (N,):
            raise ValueError(f"expected shape (..., {N}), got {c.shape}")
        object.__setattr__(self, "coeffs", c)


# ---------------------------------------------------------------------------
# array-level products (operate on the last axis)

def _rows(a) -> int:
    return np.size(a) // N


def _matmul_mod(a, matrix: np.ndarray) -> np.ndarray:
    """Centered a @ matrix reduced into [0, q); exact by the module's bound."""
    a = np.asarray(a)
    prod = center(a).reshape(-1, N).astype(np.float64) @ matrix
    return prod.astype(np.int64).reshape(a.shape) % Q


def ntt_values(a) -> np.ndarray:
    """Forward transform of standard-order coefficients, any leading shape.

    Output i is a(zeta^(2*brv(i) + 1)) mod q, int64 in [0, q); counted
    _NTT_MODMULS per row.
    """
    instrumentation.add_modmul(_rows(a) * _NTT_MODMULS)
    return _matmul_mod(a, _NTT_MATRIX)


def intt_values(fhat) -> np.ndarray:
    """Inverse transform, including the 1/256 scaling; int64 in [0, q).

    Takes any integers (also integer-valued float64); counted _INTT_MODMULS
    per row.
    """
    instrumentation.add_modmul(_rows(fhat) * _INTT_MODMULS)
    return _matmul_mod(fhat, _INTT_MATRIX)


def ntt_product(a_hat, b_hat) -> np.ndarray:
    """Coefficient-wise product of NTT values, broadcasting; int64 in [0, q), one modmul each."""
    prod = np.asarray(a_hat, dtype=np.int64) * b_hat
    instrumentation.add_modmul(prod.size)
    return prod % Q


def _reduce(x: np.ndarray) -> np.ndarray:
    """x - q*rint(x/q) for integer float64 |x| < 2^52; exact, magnitude <= (q+1)/2."""
    return x - Q * np.rint(x / Q)


def matvec_hat(a_hat: np.ndarray, v_hat) -> np.ndarray:
    """A o v summed over l: (k, l, 256) times (..., l, 256) gives (..., k, 256).

    Operands below q in magnitude; A is cast to float64 unless it is
    already. Float64, the exact unreduced sum (below 2^49 by the module's
    bound). Counted k*l*256 per vector.
    """
    if a_hat.dtype != np.float64:
        a_hat = a_hat.astype(np.float64)
    instrumentation.add_modmul(_rows(v_hat) * len(a_hat) * N)
    return np.einsum("kln,...ln->...kn", a_hat, v_hat)


def ntt_matvec(a_hat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """w = INTT(A o NTT(y)), summed over l, for a block of vectors at once.

    `a_hat` is the (k, l, 256) NTT-domain matrix, `y` a (b, l, 256) block
    of centered vectors, each |y| <= (q-1)/2. Returns (b, k, 256) int64 in
    [0, q), exact by the module's bound, without leaving float64 between
    the stages. Counted as l forward and k inverse transforms per vector
    plus `matvec_hat`.
    """
    b, l = y.shape[:2]
    k = a_hat.shape[0]
    instrumentation.add_modmul(b * (l * _NTT_MODMULS + k * _INTT_MODMULS))
    y_hat = _reduce(np.asarray(y, dtype=np.float64).reshape(-1, N) @ _NTT_MATRIX)
    acc = _reduce(matvec_hat(a_hat, y_hat.reshape(b, l, N)))
    w = acc.reshape(-1, N) @ _INTT_MATRIX
    return w.astype(np.int64).reshape(b, k, N) % Q


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


# ---------------------------------------------------------------------------
# domain-tagged API

def ntt(p: Poly) -> Poly:
    """Forward NTT of standard-domain ring elements."""
    _require(p.domain == Domain.STANDARD, "ntt expects a standard-domain input")
    return Poly(ntt_values(p.coeffs), Domain.NTT)


def inv_ntt(p: Poly) -> Poly:
    """Inverse NTT of NTT-domain ring elements."""
    _require(p.domain == Domain.NTT, "inv_ntt expects an NTT-domain input")
    return Poly(intt_values(p.coeffs), Domain.STANDARD)


def pointwise_mul(a: Poly, b: Poly) -> Poly:
    """`ntt_product` of two NTT-domain operands."""
    _require(a.domain == b.domain, f"domain mismatch: {a.domain.value} vs {b.domain.value}")
    _require(a.domain == Domain.NTT, "pointwise_mul expects NTT-domain inputs")
    return Poly(ntt_product(a.coeffs, b.coeffs), Domain.NTT)


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
