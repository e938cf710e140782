"""Sparse challenge multiplication: the signing-path replacement for the NTT.

A challenge c has exactly tau coefficients in {-1, +1}. It is stored as a
(tau+1)-byte index list: slot 0 holds the count of +1 coefficients, slots
1..poscnt the +1 indices in scan order, and slots tau down to poscnt+1 the
-1 indices in scan order. The secret is widened once into the 512-entry
extended layout (-s_0..-s_255, s_0..s_255) so that for every challenge
index k the contribution to all 256 output coefficients is the contiguous
window ext[256-k .. 511-k], negacyclic signs included.

One function, `_extended`, builds that layout. Its (..., 512) rows are the
`.T` view of a C-contiguous (512, rows) array, window-major: the window of
index k is one contiguous 256 x rows block, and `ext[j, 256:]` still reads
row j's coefficients. `extend_secret` checks a secret's range and gives
the paper's int8 lanes. `signing_layout`, which every decoded key holds,
picks the narrowest lanes that hold tau times the coefficient bound, so
every signing product is exact: int8 for the secrets at levels 2 and 5,
int16 at level 3 (tau*eta = 196 can wrap a byte), and int32 for t0
(every sum is at most tau*2^12 <= 245,760).

The production kernel, `sparse_mul_branchless_vec` (also bound as
`sparse_mul_branchless`), takes one extended row or any stack of rows and
reads them window-major in place. The kernel gathers the tau
windows in one fancy-index read of a strided (257, 256, rows) view, sums
the +1 windows and the -1 windows over the window axis in the lanes' own
dtype, wrapping, and returns the (256, rows) difference as its (rows,
256) transpose, a view. Its shapes depend only on (poscnt, tau), both
public. Wrapping addition is associative, so int8 results equal the
bytes of the paper's packed-lane (SWAR) accumulation on 32-bit words of
four signed bytes; `packed_add_lanes`/`packed_sub_lanes` reproduce that
arithmetic and are the kernel's test oracle. The fused kernels gather
c*s1 (or c*s2) for the whole vector at once and run the z (or r0) check
on it: z = y + c*s1 is one int64 add, and |LowBits(w) - c*s2| is taken
in place on the difference. The signer runs one of them first, so an
attempt that fails that check never computes the other product.
"""

from typing import NamedTuple

import numpy as np

from .params import N, Q
from .ring import Domain, Poly
from .rounding import decompose

_LANE_LOW = 0x7F7F7F7F
_LANE_TOP = 0x80808080

_BLOCKS_PER_POLY = N // 16        # fused kernels count work in 16-coefficient blocks


def packed_add_lanes(x, y):
    """Lane-wise wrapping add of four signed bytes packed in a 32-bit word.

    Works on Python ints and numpy uint32 arrays alike; no carry crosses a
    lane boundary.
    """
    return ((x & _LANE_LOW) + (y & _LANE_LOW)) ^ ((x ^ y) & _LANE_TOP)


def packed_sub_lanes(x, y):
    """Lane-wise wrapping subtract of four signed bytes in a 32-bit word."""
    return ((x | _LANE_TOP) - (y & _LANE_LOW)) ^ ((x ^ ~y) & _LANE_TOP)


def encode_challenge(c, tau: int) -> np.ndarray:
    """Encode a weight-tau challenge as its (tau+1)-byte index list."""
    c = np.asarray(c)
    if c.shape != (N,):
        raise ValueError(f"challenge must have {N} coefficients")
    pos, = (c == 1).nonzero()
    neg, = (c == -1).nonzero()
    if np.count_nonzero(c) != len(pos) + len(neg):
        raise ValueError("challenge coefficients must lie in {-1, 0, 1}")
    if len(pos) + len(neg) != tau:
        raise ValueError(f"challenge has weight {len(pos) + len(neg)}, expected {tau}")
    index = np.empty(tau + 1, dtype=np.uint8)
    index[0] = len(pos)
    index[1:1 + len(pos)] = pos
    # scan-order negatives fill from the tail, so slot tau holds the first one
    index[1 + len(pos):] = neg[::-1]
    return index


def _extended(s, lanes) -> np.ndarray:
    """Rows (..., 256) widened to (..., 512) rows of the (-s, s) layout in `lanes`.

    The rows are the `.T` view of a C-contiguous (512, rows) array, built
    with one transposing copy of `s.T` into its +s half and one contiguous
    negation into its -s half.
    """
    ext = np.empty((2 * N,) + s.shape[-2::-1], lanes)
    ext[N:] = s.T
    np.negative(ext[N:], out=ext[:N])
    return ext.T


def extend_secret(s, eta: int) -> np.ndarray:
    """Widen small secret polynomials to the 512-entry (-s, s) int8 layout.

    Accepts one polynomial or any stack of them, shape (..., 256), and
    returns shape (..., 512), window-major.
    """
    s = np.asarray(s)
    if s.dtype.kind not in "iu" or s.shape[-1:] != (N,):
        raise ValueError(f"secret must have {N} integer coefficients")
    if np.any((s < -eta) | (s > eta)):
        raise ValueError(f"secret coefficient outside [-{eta}, {eta}]")
    return _extended(s, np.int8)


def signing_layout(s, bound: int, tau: int) -> np.ndarray:
    """Rows (..., 256) in the extended layout the signer multiplies, window-major.

    `s` must already lie in [-bound, bound], as the unpackers guarantee;
    unlike `extend_secret`, this does not check it again. The lanes are the
    narrowest of int8, int16 and int32 that hold tau*bound, so each window
    sum and their difference, |c*s| <= tau*bound, is exact.
    """
    top = tau * bound
    if top >= 2**31:
        raise ValueError(f"tau * bound = {top} does not fit int32 lanes")
    return _extended(s, np.int8 if top < 2**7 else np.int16 if top < 2**15 else np.int32)


def sparse_mul_indexed(c, a: Poly) -> Poly:
    """Exact c*a in R_q by shifted accumulation into 2n cells, then folding.

    The mid-level oracle: same index-driven access pattern as the
    production kernel, but full-width arithmetic and an explicit
    u_i = w_i - w_{i+n} (mod q) fold. `a` is a standard-domain Poly.
    """
    cv = np.asarray(c, dtype=np.int64)
    if a.domain != Domain.STANDARD:
        raise ValueError("sparse_mul_indexed expects a standard-domain polynomial")
    av = np.asarray(a.coeffs, dtype=np.int64)
    if np.any((cv < -1) | (cv > 1)):
        raise ValueError("challenge coefficients must lie in {-1, 0, 1}")
    w = np.zeros(2 * N, dtype=np.int64)
    for i in np.flatnonzero(cv == 1):
        w[i:i + N] += av
    for i in np.flatnonzero(cv == -1):
        w[i:i + N] -= av
    return Poly((w[:N] - w[N:]) % Q, Domain.STANDARD)


def _window_view(ext_rows: np.ndarray) -> np.ndarray:
    """Read-only (257, 256, rows) view of every window of the extended secrets.

    The rows are read window-major: `ext_rows.T` as a (512, rows) array,
    its trailing axes flattened, so entry [256-k] is the contiguous
    256 x rows block ext[..., 256-k .. 511-k].T of challenge index k.
    Nothing is copied: `ext_rows.T` must be C-contiguous, as it is for
    every row `_extended` builds. Lanes are int8 (the paper's byte lanes),
    int16 (exact for every tau*eta of Dilithium) or int32 (exact for t0).
    """
    if not (isinstance(ext_rows, np.ndarray) and ext_rows.T.flags.c_contiguous
            and ext_rows.dtype in (np.int8, np.int16, np.int32) and ext_rows.shape[-1:] == (2 * N,)):
        raise ValueError("extended secrets must be window-major rows of 512 int8/16/32 lanes")
    cols = ext_rows.T.reshape(2 * N, -1)
    step, lane = cols.strides
    return np.ndarray((N + 1, N, cols.shape[1]), cols.dtype, cols.data.toreadonly(), 0,
                      (step, step, lane))


# challenge index k selects the window starting at 256 - k
_START = N - np.arange(N)
_START.setflags(write=False)


def _gather_product(index, ext_rows: np.ndarray) -> np.ndarray:
    """c*s for every row from one gather of all tau windows, in the rows' dtype.

    The gather copies tau contiguous 256 x rows blocks of the window-major
    view; the +1 and -1 windows are summed over the window axis and the
    (256, rows) difference is returned as its transpose, shaped like
    `ext_rows` with 256 lanes, a view. Wrapping addition is associative,
    so summing the windows separately in int8 gives the same bytes as
    accumulating them one by one in packed lanes. In the wider lanes the
    result is exact while tau times the largest |entry| fits them, as
    `signing_layout` ensures.
    """
    if not (isinstance(index, np.ndarray) and index.dtype == np.uint8 and index.ndim == 1
            and index.size and index[0] < index.size):
        raise ValueError("index list must be uint8 with its +1 count below its length")
    poscnt = int(index[0])
    win = _window_view(ext_rows)[_START[index[1:]]]
    # an explicit dtype: with none, add.reduce promotes int8 to int64
    prod = np.add.reduce(win[:poscnt], axis=0, dtype=win.dtype)
    prod -= np.add.reduce(win[poscnt:], axis=0, dtype=win.dtype)
    return prod.reshape((N,) + ext_rows.shape[-2::-1]).T


def sparse_mul_branchless_vec(index, ext_rows: np.ndarray, tau: int) -> np.ndarray:
    """Branchless c*s for one extended secret or a whole stack of them.

    `ext_rows` is one row of shape (512,) or a stack (..., 512) of int8,
    int16 or int32 lanes, read window-major in place (see `_window_view`);
    the result, (256,) or (..., 256), has their dtype, and one shared
    challenge index list drives all rows. The gather and both sums have
    shapes fixed by (poscnt, tau); secrets are touched only through public
    window offsets.
    """
    if np.shape(index) != (tau + 1,):
        raise ValueError(f"index list must have {tau + 1} entries")
    return _gather_product(index, ext_rows)


# The same kernel under its one-row name, which criterion 1 and the selftest use.
sparse_mul_branchless = sparse_mul_branchless_vec


class FusedZ(NamedTuple):
    z: np.ndarray          # (m, 256) int64, y + c*s1
    rejected: bool
    blocks: int            # 16-coefficient blocks accumulated, all m rows


class FusedR0(NamedTuple):
    ok: bool
    cs2: np.ndarray        # (m, 256) in the product's lanes: int8/int16, the .T view of
                           # the gather's (256, m) sum; int64 on ntt
    blocks: int


def z_check(y, prod: np.ndarray, bound: int) -> FusedZ:
    """z = y + c*s1 for a whole vector, int64; rejected if any |z_i| >= bound."""
    z = np.add(y, prod, dtype=np.int64)
    return FusedZ(z, bool(np.abs(z).max() >= bound), z.shape[0] * _BLOCKS_PER_POLY)


def r0_check(w, prod: np.ndarray, gamma2: int, bound: int) -> FusedR0:
    """Accepts c*s2 when |LowBits(w, 2*gamma2) - c*s2| < bound everywhere.

    The r0 check of round 3 and FIPS 204: it decides as |LowBits(w - c*s2)|
    does while |c*s2| <= gamma2 - bound, as |c*s2| <= beta ensures. `w` is
    either w in [0, q) or its centered LowBits(w), which the signer already
    has. LowBits is the identity on [-gamma2, gamma2] (mod q), so the
    check decides on the largest |w - c*s2| first. Below the bound, every
    |w| < bound + |c*s2| <= gamma2, so `w` is its own LowBits: accept. At
    or above it, a worst coefficient whose w lies in [-gamma2, gamma2] is
    its own LowBits too: reject. Only otherwise is `w` decomposed and
    checked again. The product is returned as given, in its own lanes,
    not copied.
    """
    diff = w - prod
    worst = np.abs(diff, out=diff).argmax()
    ok = bool(diff.flat[worst] < bound)
    if not ok and abs(w.flat[worst]) > gamma2:
        diff = decompose(w, 2 * gamma2)[1] - prod
        ok = bool(np.abs(diff, out=diff).max() < bound)
    return FusedR0(ok, prod, w.shape[0] * _BLOCKS_PER_POLY)


def fused_z(index, ext_s1: np.ndarray, y: np.ndarray, bound: int) -> FusedZ:
    """z = y + c*s1 with the norm check fused onto the product.

    One gather over all rows, then one check on the whole vector; on
    acceptance z equals the unfused computation exactly.
    """
    return z_check(y, _gather_product(index, ext_s1), bound)


def fused_r0(index, ext_s2: np.ndarray, w: np.ndarray, gamma2: int, bound: int) -> FusedR0:
    """The r0 check, |LowBits(w) - c*s2| < bound, fused onto the product c*s2.

    One gather over all rows, then one check on the whole vector; c*s2 is
    returned in the rows' dtype for the later hint computation. `w` is w
    or LowBits(w), as for `r0_check`.
    """
    return r0_check(w, _gather_product(index, ext_s2), gamma2, bound)
