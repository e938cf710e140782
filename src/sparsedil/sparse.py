"""Sparse challenge multiplication: the signing-path replacement for the NTT.

A challenge c has exactly tau coefficients in {-1, +1}. It is stored as a
(tau+1)-byte index list: slot 0 holds the count of +1 coefficients, slots
1..poscnt the +1 indices in scan order, and slots tau down to poscnt+1 the
-1 indices in scan order. The secret is widened once into the 512-entry
extended layout (-s_0..-s_255, s_0..s_255) so that for every challenge
index k the contribution to all 256 output coefficients is the contiguous
byte window ext[256-k .. 511-k], negacyclic signs included.

The production kernel gathers all tau windows of a row in one
fancy-index read of a strided window view, (tau, 256) bytes, and sums the
+1 windows and the -1 windows in wrapping int8. Its shapes depend only on
(poscnt, tau), both public. Wrapping addition is associative, so the bytes
equal those of the paper's packed-lane (SWAR) accumulation on 32-bit words
of four signed bytes; `packed_add_lanes`/`packed_sub_lanes` reproduce that
arithmetic and are the kernel's test oracle. The fused kernels run the z
or r0 check polynomial by polynomial, right after each row's gather, and
stop at the first row that fails. For levels where tau*eta <= 127 the
8-bit result is exact; otherwise wrapping is a documented,
probability-bounded event.
"""

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import instrumentation
from .params import N, Q
from .ring import Domain, Poly

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
    c = np.asarray(c, dtype=np.int64)
    if c.shape != (N,):
        raise ValueError(f"challenge must have {N} coefficients")
    if np.any((c < -1) | (c > 1)):
        raise ValueError("challenge coefficients must lie in {-1, 0, 1}")
    pos = np.flatnonzero(c == 1)
    neg = np.flatnonzero(c == -1)
    if len(pos) + len(neg) != tau:
        raise ValueError(f"challenge has weight {len(pos) + len(neg)}, expected {tau}")
    index = np.empty(tau + 1, dtype=np.uint8)
    index[0] = len(pos)
    index[1:1 + len(pos)] = pos
    # scan-order negatives fill from the tail, so slot tau holds the first one
    index[1 + len(pos):] = neg[::-1]
    return index


def decode_challenge(index, tau: int) -> np.ndarray:
    """Rebuild the +-1 challenge polynomial from its index list."""
    index = np.asarray(index, dtype=np.uint8)
    if index.shape != (tau + 1,):
        raise ValueError(f"index list must have {tau + 1} entries")
    poscnt = int(index[0])
    if poscnt > tau:
        raise ValueError(f"positive count {poscnt} exceeds weight {tau}")
    slots = index[1:]
    if len(np.unique(slots)) != tau:
        raise ValueError("duplicate challenge indices")
    c = np.zeros(N, dtype=np.int8)
    c[slots[:poscnt]] = 1
    c[slots[poscnt:]] = -1
    return c


def extend_secret(s, eta: int) -> np.ndarray:
    """Widen a small secret polynomial to the 512-entry (-s, s) layout."""
    s = np.asarray(s, dtype=np.int64)
    if s.shape != (N,):
        raise ValueError(f"secret must have {N} coefficients")
    if np.any(np.abs(s) > eta):
        raise ValueError(f"secret coefficient outside [-{eta}, {eta}]")
    return np.concatenate((-s, s)).astype(np.int8)


def sparse_mul_indexed(c, a) -> Poly:
    """Exact c*a in R_q by shifted accumulation into 2n cells, then folding.

    The mid-level oracle: same index-driven access pattern as the
    production kernel, but full-width arithmetic and an explicit
    u_i = w_i - w_{i+n} (mod q) fold.
    """
    cv = np.asarray(c, dtype=np.int64)
    a_coeffs = getattr(a, "coeffs", a)
    if getattr(a, "domain", Domain.STANDARD) != Domain.STANDARD:
        raise ValueError("sparse_mul_indexed expects a standard-domain polynomial")
    av = np.asarray(a_coeffs, dtype=np.int64)
    if np.any((cv < -1) | (cv > 1)):
        raise ValueError("challenge coefficients must lie in {-1, 0, 1}")
    w = np.zeros(2 * N, dtype=np.int64)
    for i in np.flatnonzero(cv == 1):
        w[i:i + N] += av
    for i in np.flatnonzero(cv == -1):
        w[i:i + N] -= av
    return Poly((w[:N] - w[N:]) % Q, Domain.STANDARD)


def _window_view(ext_rows: np.ndarray) -> np.ndarray:
    """Read-only (..., 257, 256) view of every window of the extended secrets.

    Entry [..., 256-k, :] is ext[256-k .. 511-k], the window of challenge
    index k; no bytes are copied.
    """
    ext_rows = np.asarray(ext_rows)
    if ext_rows.dtype != np.int8 or ext_rows.shape[-1:] != (2 * N,):
        raise ValueError("extended secrets must be rows of 512 signed bytes")
    step = ext_rows.strides[-1]
    return as_strided(ext_rows, ext_rows.shape[:-1] + (N + 1, N),
                      ext_rows.strides[:-1] + (step, step), writeable=False)


def _window_starts(index) -> tuple[int, np.ndarray]:
    """(poscnt, window starts 256-k for every challenge index k in slot order)."""
    index = np.asarray(index, dtype=np.uint8)
    return int(index[0]), N - index[1:].astype(np.intp)


def _gather_product(windows: np.ndarray, starts: np.ndarray, poscnt: int) -> np.ndarray:
    """Wrapping 8-bit c*s from one gather of all tau windows.

    Wrapping addition is associative, so summing the +1 and -1 windows
    separately in int8 gives the same bytes as accumulating them one by one
    in packed lanes.
    """
    win = windows[..., starts, :]
    return (win[..., :poscnt, :].sum(axis=-2, dtype=np.int8)
            - win[..., poscnt:, :].sum(axis=-2, dtype=np.int8))


def sparse_mul_branchless_vec(index, ext_rows: np.ndarray, tau: int) -> np.ndarray:
    """Branchless c*s for a whole vector of extended secrets at once.

    `ext_rows` has shape (m, 512); one shared challenge index list drives
    all rows. The gather and both sums have shapes fixed by (poscnt, tau);
    secrets are touched only through public window offsets.
    """
    if np.shape(index) != (tau + 1,):
        raise ValueError(f"index list must have {tau + 1} entries")
    poscnt, starts = _window_starts(index)
    windows = _window_view(ext_rows)
    if windows.ndim != 3:
        raise ValueError("extended secrets must be rows of 512 signed bytes")
    instrumentation.add_swar_steps(windows.shape[0] * tau * (N // 4))
    return _gather_product(windows, starts, poscnt)


def sparse_mul_branchless(index, ext, tau: int) -> np.ndarray:
    """Accumulate c*s in wrapping signed bytes, driven only by the index list."""
    if getattr(ext, "ndim", 1) != 1:
        raise ValueError("expected a single 512-byte extended secret")
    return sparse_mul_branchless_vec(index, ext[None, :], tau)[0]


class FusedZ(NamedTuple):
    z: np.ndarray          # (m, 256) int64, centered; rows past a rejection are zero
    rejected: bool
    blocks: int            # 16-coefficient blocks actually accumulated


class FusedR0(NamedTuple):
    ok: bool
    cs2: np.ndarray        # (m, 256) int64; complete only when ok
    blocks: int


def fused_z(index, ext_s1: np.ndarray, y: np.ndarray, bound: int) -> FusedZ:
    """z = y + c*s1 with the norm check fused into the accumulation.

    Proceeds polynomial by polynomial: one gather per row, then the check
    on its 256 coefficients. The first row holding a coefficient with
    |z_i| >= bound aborts the whole computation. On acceptance z equals the
    unfused computation exactly.
    """
    poscnt, starts = _window_starts(index)
    windows = _window_view(ext_s1)
    y = np.asarray(getattr(y, "coeffs", y), dtype=np.int64)
    z = np.zeros_like(y)
    for i in range(y.shape[0]):
        zi = y[i] + _gather_product(windows[i], starts, poscnt)
        if np.abs(zi).max() >= bound:
            return FusedZ(z, True, (i + 1) * _BLOCKS_PER_POLY)
        z[i] = zi
    return FusedZ(z, False, y.shape[0] * _BLOCKS_PER_POLY)


def fused_r0(index, ext_s2: np.ndarray, w: np.ndarray, gamma2: int, bound: int) -> FusedR0:
    """Low-bits check of w - c*s2 fused into the accumulation of c*s2.

    Polynomial by polynomial, like `fused_z`: rejects at the first row where
    |LowBits(w - c*s2, 2*gamma2)| >= bound; on acceptance the full c*s2 is
    returned for the later hint computation.
    """
    poscnt, starts = _window_starts(index)
    windows = _window_view(ext_s2)
    w = np.asarray(getattr(w, "coeffs", w), dtype=np.int64)
    cs2 = np.zeros_like(w)
    alpha = 2 * gamma2
    for i in range(w.shape[0]):
        prod = _gather_product(windows[i], starts, poscnt)
        r = (w[i] - prod) % Q
        # inline LowBits(r, alpha): centered remainder plus the q-1 fold
        r0 = r % alpha
        r0 = np.where(r0 > gamma2, r0 - alpha, r0)
        r0 = np.where((r - r0) == Q - 1, r0 - 1, r0)
        if np.abs(r0).max() >= bound:
            return FusedR0(False, cs2, (i + 1) * _BLOCKS_PER_POLY)
        cs2[i] = prod
    return FusedR0(True, cs2, w.shape[0] * _BLOCKS_PER_POLY)
