"""Arithmetic in R_q = Z_q[x]/(x^256 + 1): every R_q product, written once.

A `Poly` is one polynomial (256,) or any stack of them (..., 256) with a
domain tag (standard coefficients vs NTT values), so that transform misuse
fails loudly. The NTT fully splits x^256 + 1 into linear factors using the
primitive 512th root of unity zeta = 1753: output i is
a(zeta^(2*brv(i) + 1)), with brv the 8-bit bit reversal. Multiplication in
the NTT domain is plain coefficient-wise modular multiplication
(`pointwise_mul`); no scaling factor is left behind and
inv_ntt(pointwise_mul(ntt(a), ntt(b))) equals the schoolbook negacyclic
product exactly.

Each transform is two exact 16-point stages. Write j = 16*j1 + j2 and
output i = 16*p + s, so that brv(i) = brv4(p) + 16*brv4(s). As
zeta^512 = 1, each weight splits as
zeta^((2*brv(i) + 1)*j) = zeta^((2*brv4(p) + 1)*j) * zeta^(32*brv4(s)*j2).
The forward transform is one batched product along j1, with one 16 x 16
matrix per j2 that holds the twist and the twiddles, then one GEMM along
j2 whose columns are already in brv4 order, so the output comes out in the
canonical order with no permutation pass. The inverse mirrors it: a GEMM
along s, then a batched product along p with 256^-1 and zeta^(-i) folded
in (`_stage_matrices`).

Every stage operand and matrix entry is centered, at most (q-1)/2 < 2^22 in
magnitude, so each product is below 2^44 and each stage sum of 16 of them
below 2^48 < 2^53: every partial sum is an exact float64 integer, whatever
order the BLAS sums in. Between stages `_reduce` takes x to
x - q*rint(x/q), computing the quotient as x * fl(1/q). For |x| < 2^49
that is off from x/q by less than 2^-25, while x/q lies at least
1/(2q) > 2^-24 from any half-integer (q is odd). So rint finds the nearest
integer and the result is the exact centered representative of x. The last
stage goes to [0, q) in the same way through floor((x + 1/2)/q)
(`_to_residues`), as (x + 1/2)/q lies at least 1/(2q) from any integer.

`ntt_values` and `intt_values` feed the first stage centered operands.
Every input holds integer values below 2^49 in magnitude. Integer input
that already lies in [-(q-1)/2, (q-1)/2] goes in as it is: int8 and int16
always do, int32 and int64 when one min/max says so (the challenge, the
masks, the secrets and verify's rows). Every other input (int64 products
and float64 sums included) is centered with `_reduce` straight into a
fresh float64 array, with no copy of the input first. The bound stays
(q-1)/2: an operand up to 2^23 would raise the first-stage sums to 2^49,
past the margin of a BLAS that loses a few low bits.

`matvec_hat` is the one A o v stage, summed over l, in float64. Its
operands are below q in magnitude (A as sampled in [0, q), v as
`ntt_values` returns it or reduced), so every product is below 2^46 and
every sum of at most l <= 7 of them below 2^49: exact. It does not reduce;
keygen, sign and verify all compute w = INTT(A o NTT(v)) as
`intt_values(matvec_hat(A, ntt_values(v)))`, and `intt_values` centers
that float64 sum with `_reduce`.

`ntt_product` is the counted coefficient-wise product. It does not reduce
either: operands in [0, q) give the exact int64 product, below 2^46.
Verify computes `intt_values(matvec_hat(A, z_hat) - ntt_product(c_hat,
t1_hat))`, whose operand lies in [-(q-1)^2, 7(q-1)^2], inside
(-2^49, 2^49), so `intt_values` centers it as it centers any
`matvec_hat` sum. `pointwise_mul` reduces the product for its `Poly`.

The modmul counter charges the butterfly NTT's cost model, the paper's
baseline, not the stage products' work: 8 layers of 128 products per
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


_B = 16     # stage length: N = _B * _B


def _stage_matrices() -> tuple[np.ndarray, ...]:
    """The four 16-point stage matrices, centered float64 and read-only.

      forward 1 [j2, j1, p]  zeta^((2*brv4(p) + 1)*(16*j1 + j2))
      forward 2 [j2, s]      zeta^(32*brv4(s)*j2)
      inverse 1 [i2, s]      zeta^(-32*brv4(s)*i2)
      inverse 2 [i2, p, i1]  256^-1 * zeta^(-(2*brv4(p) + 1)*(16*i1 + i2))

    Read-only, so concurrent signers share them.
    """
    brv4 = np.array([int(f"{i:04b}"[::-1], 2) for i in range(_B)])
    powers = np.array([pow(ROOT_OF_UNITY, e, Q) for e in range(2 * N)], dtype=np.int64)
    r = np.arange(_B)
    e1 = (2 * brv4 + 1) * (_B * r[:, None] + r[:, None, None])
    e2 = 2 * _B * np.outer(r, brv4)
    out = []
    for e, scale in ((e1, 1), (e2, 1), (-e2, 1), (-e1.transpose(0, 2, 1), pow(N, -1, Q))):
        m = center(powers[e % (2 * N)] * scale).astype(np.float64, order="C")
        m.setflags(write=False)
        out.append(m)
    return tuple(out)


_FWD1, _FWD2, _INV1, _INV2 = _stage_matrices()
_Q_INV = 1.0 / Q

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


def _reduce(x: np.ndarray) -> np.ndarray:
    """x - q*rint(x/q) for integer values |x| < 2^49; a fresh float64 array, centered, exact.

    `x` (float64 or integer) is left as it is: the result is written over
    the float64 quotient.
    """
    t = x * _Q_INV
    np.rint(t, out=t)
    t *= Q
    return np.subtract(x, t, out=t)


def _to_residues(x: np.ndarray) -> np.ndarray:
    """x - q*floor((x + 1/2)/q) in place for integer float64 |x| < 2^49; in [0, q), exact."""
    t = x + 0.5
    t *= _Q_INV
    np.floor(t, out=t)
    t *= Q
    x -= t
    return x


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One stage's float64 matrix product; every stage goes through here."""
    return np.matmul(a, b)


def _forward(x) -> np.ndarray:
    """Both forward stages of (R, 256) centered rows (|x| <= (q-1)/2).

    Returns (R, 256) float64 in the canonical bit-reversed order: the exact,
    unreduced stage-2 sums, below 2^48 by the module's bound.
    """
    x = np.asarray(x).reshape(-1, _B, _B).transpose(2, 0, 1).astype(np.float64, order="C")
    t = _reduce(_product(x, _FWD1))                   # [j2, row, p]
    return _product(t.reshape(_B, -1).T, _FWD2).reshape(-1, N)


def _inverse(x) -> np.ndarray:
    """Both inverse stages of (R, 256) centered rows, 1/256 included.

    Returns (R, 256) int64 in [0, q).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1, _B)
    t = _reduce(_product(_INV1, x.T))                 # [i2, row * 16 + p]
    w = _to_residues(_product(t.reshape(_B, -1, _B), _INV2))   # [i2, row, i1]
    return w.transpose(1, 2, 0).astype(np.int64, order="C").reshape(-1, N)


_HALF = (Q - 1) // 2


def _centered(x: np.ndarray) -> np.ndarray:
    """Centered representatives of integer values below 2^49 in magnitude.

    Integers already in [-(q-1)/2, (q-1)/2] are returned as they are.
    """
    if x.dtype.kind in "iu" and (x.dtype.itemsize <= 2 or (
            x.max(initial=0) <= _HALF and -_HALF <= x.min(initial=0))):
        return x
    return _reduce(x)


def ntt_values(a) -> np.ndarray:
    """Forward transform of standard-order coefficients, any leading shape.

    Takes integer values below 2^49 in magnitude, of any dtype; centered
    integers skip the centering pass. Output i is a(zeta^(2*brv(i) + 1))
    mod q, int64 in [0, q); counted _NTT_MODMULS per row.
    """
    a = np.asarray(a)
    instrumentation.add_modmul(_rows(a) * _NTT_MODMULS)
    return _to_residues(_forward(_centered(a))).astype(np.int64).reshape(a.shape)


def intt_values(fhat) -> np.ndarray:
    """Inverse transform, including the 1/256 scaling; int64 in [0, q).

    Takes integer values below 2^49 in magnitude, of any dtype, such as
    `matvec_hat`'s float64 sums and `ntt_product`'s int64 products; centered
    integers skip the centering pass. Counted _INTT_MODMULS per row.
    """
    fhat = np.asarray(fhat)
    instrumentation.add_modmul(_rows(fhat) * _INTT_MODMULS)
    return _inverse(_centered(fhat)).reshape(fhat.shape)


def ntt_product(a_hat, b_hat) -> np.ndarray:
    """Coefficient-wise product of NTT values, broadcasting; one modmul each.

    Operands in [0, q). Int64, the exact unreduced product, below 2^46;
    `intt_values` centers it, and `pointwise_mul` reduces it.
    """
    prod = np.asarray(a_hat, dtype=np.int64) * b_hat
    instrumentation.add_modmul(prod.size)
    return prod


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
    """`ntt_product` of two NTT-domain operands, reduced to [0, q)."""
    _require(a.domain == b.domain, f"domain mismatch: {a.domain.value} vs {b.domain.value}")
    _require(a.domain == Domain.NTT, "pointwise_mul expects NTT-domain inputs")
    return Poly(ntt_product(a.coeffs, b.coeffs) % Q, Domain.NTT)


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
