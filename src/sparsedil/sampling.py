"""Deterministic expansions of seeds into matrices, secrets, masks, challenges.

Every sampler is a pure function of (seed, nonce). Byte framing follows the
round-3 reference conventions: SHAKE-128 with a 2-byte little-endian nonce
for the public matrix, SHAKE-256 elsewhere, and the challenge sign bits
taken from the first 8 bytes of the stream.

Each sampler is one pass: it takes one fixed-length one-shot digest per row
(a prefix of that row's SHAKE stream) and decodes all its rows together.
The rejection samplers keep the first N accepted values of each row.
ExpandA reads every 23-bit draw from one unaligned little-endian 4-byte
gather; a row whose first N draws are all below q is kept as it is, and
only rows with a rejection are compacted. ExpandS maps each digest byte to
both of its nibbles' values through a 256-entry table that also marks the
rejected nibbles, and compacts every row. Compacting takes the flat
positions of the accepted values and finds each row's first one by binary
search, so no running count over every draw is formed. SHAKE output is a
prefix stream, so `shake(x, n + m)[:n] == shake(x, n)`: should a row
accept fewer than N values, the sampler asks for one more block of every
row's digest and decodes again, which yields exactly what reading the
stream further would. It never truncates a row.
"""

import functools

import numpy as np

from .codec import unpack_z, z_packed_bytes
from .keccak import RATES, shake128, shake256
from .params import N, Q, ParameterSet
from .ring import Domain, Poly

# Initial digest lengths. Five blocks give 280 draws, of which 256 fall below
# q for all but ~1e-40 of rows. eta 2 accepts 15 of 16 nibbles, so two
# blocks (544 nibbles) suffice; eta 4 accepts 9 of 16 and takes three (816
# nibbles, 459 accepted on average).
_A_BYTES = 5 * RATES["shake128"]
_S_BYTES = {2: 2 * RATES["shake256"], 4: 3 * RATES["shake256"]}
_BALL_BYTES = RATES["shake256"]

_REJECTED = -128                 # marks a rejected nibble in the eta tables


def _eta_pairs(eta: int) -> np.ndarray:
    """Both nibbles of every byte, low first, as int8 values in [-eta, eta].

    eta 2 accepts nibbles below 15 and eta 4 those below 9; the others map to
    _REJECTED. Each (low, high) pair is read as one int16 entry, so one
    gather decodes a byte.
    """
    limit = {2: 15, 4: 9}[eta]
    value = [eta - v % (2 * eta + 1) if v < limit else _REJECTED for v in range(16)]
    pairs = np.array([(value[b & 0xF], value[b >> 4]) for b in range(256)], dtype=np.int8)
    table = pairs.view(np.int16).reshape(256)
    table.setflags(write=False)
    return table


_ETA_PAIRS = {eta: _eta_pairs(eta) for eta in (2, 4)}


def _digests(xof, seed: bytes, nonces, count: int) -> list[bytes]:
    """One `count`-byte digest of seed || nonce (2 bytes, little-endian) per row."""
    return [xof(seed + n.to_bytes(2, "little"), count) for n in nonces]


def _rejection_rows(xof, rate: int, seed: bytes, nonces, count: int, decode) -> np.ndarray:
    """The first N accepted values of each row, from one digest per nonce.

    `decode(digests, rows, count)` reads the rows' digests joined and
    followed by one zero byte. It returns the (rows, N) values, or None if
    a row accepts fewer than N; then every digest grows by one block of
    `rate` bytes.
    """
    while True:
        digests = b"".join(_digests(xof, seed, nonces, count) + [b"\0"])
        values = decode(digests, len(nonces), count)
        if values is not None:
            return values
        count += rate


def _first_accepted(values: np.ndarray, ok: np.ndarray):
    """The first N values of each row where `ok`, or None if a row has fewer.

    The accepted values of all rows are gathered in stream order. Row r's
    values start at the first accepted flat position at or past r*m, which
    a binary search over the sorted positions finds; its output is the
    N-value window of the gathered values from there, read through a
    strided view.
    """
    m = ok.shape[1]
    pos = np.flatnonzero(ok)
    first = pos.searchsorted(np.arange(0, (len(ok) + 1) * m, m))
    if (first[1:] - first[:-1]).min() < N:
        return None
    accepted = values.reshape(-1)[pos]
    del pos                                 # int64 per value: the largest temporary
    windows = np.ndarray((len(accepted) - N + 1, N), accepted.dtype, accepted, 0,
                         accepted.strides * 2)
    return windows[first[:-1]]


def _uniform_rows(digests: bytes, rows: int, count: int):
    """The first N 23-bit little-endian draws below q of each row, int32.

    Each draw is the 4-byte word at its offset masked to 23 bits; the zero
    byte after the digests completes the last row's last word. A row whose
    first N draws are all below q is kept as it is; only the others are
    compacted, from all their draws.
    """
    if count // 3 < N:
        return None
    words = np.ndarray((rows, count // 3), "<u4", digests, strides=(count, 3))
    mask = np.uint32(0x7FFFFF)
    out = (words[:, :N] & mask).view(np.int32)
    dirty = np.flatnonzero(out.max(axis=1) >= Q)
    if len(dirty):
        redo = (words[dirty] & mask).view(np.int32)
        picked = _first_accepted(redo, redo < Q)
        if picked is None:
            return None
        out[dirty] = picked
    return out


def _eta_rows(digests: bytes, rows: int, count: int, eta: int):
    """The first N accepted nibbles of each row, low nibble first, as int8 in [-eta, eta]."""
    pairs = _ETA_PAIRS[eta].take(np.frombuffer(digests, np.uint8, rows * count))
    values = pairs.view(np.int8).reshape(rows, 2 * count)
    return _first_accepted(values, values != _REJECTED)


@functools.lru_cache(maxsize=16)
def expand_a(rho: bytes, params: ParameterSet) -> Poly:
    """The public k x l matrix, sampled directly in the NTT domain.

    Entry (i, j) rejection-samples 23-bit chunks below q from SHAKE-128 of
    rho || j || i. Pure in (rho, params); a small cache amortizes
    re-expansion when many operations share one key. The cached array is
    read-only.
    """
    k, l = params.k, params.l
    nonces = [(i << 8) + j for i in range(k) for j in range(l)]
    coeffs = _rejection_rows(shake128, RATES["shake128"], rho, nonces, _A_BYTES,
                             _uniform_rows)
    mat = Poly(coeffs.reshape(k, l, N), Domain.NTT)
    mat.coeffs.setflags(write=False)
    return mat


def expand_s(rho_prime: bytes, params: ParameterSet) -> tuple[np.ndarray, np.ndarray]:
    """Secret vectors (s1, s2) as int8 arrays of shape (l, 256) and (k, 256).

    Row r (nonce r; s1 first) rejection-samples nibbles, low nibble first,
    onto [-eta, eta].
    """
    eta, l = params.eta, params.l
    s = _rejection_rows(shake256, RATES["shake256"], rho_prime, range(l + params.k),
                        _S_BYTES[eta], functools.partial(_eta_rows, eta=eta))
    return s[:l], s[l:]


def expand_mask(rho_prime: bytes, kappa: int, params: ParameterSet, attempts: int = 1) -> Poly:
    """Mask rows with coefficients in (-gamma1, gamma1], one per nonce kappa, kappa+1, ...

    One attempt's mask y is l rows; `attempts` consecutive masks are drawn
    together as (attempts * l, 256) rows, nonces kappa .. kappa + attempts*l - 1.
    """
    rows = attempts * params.l
    buf = b"".join(_digests(shake256, rho_prime, range(kappa, kappa + rows),
                            z_packed_bytes(params)))
    return Poly(unpack_z(buf, params).reshape(rows, N), Domain.STANDARD)


def sample_in_ball(seed: bytes, tau: int) -> np.ndarray:
    """The challenge polynomial: tau +-1 coefficients placed by in-place swaps.

    Sign bits come from the first 8 stream bytes; each swap target is the
    next stream byte not above the running position. The coefficients are
    int8 bytes (-1 is 0xFF), and the tau-th placement ends the scan.
    """
    if not 1 <= tau <= N:
        raise ValueError(f"challenge weight tau must lie in 1..{N}, not {tau}")
    count = _BALL_BYTES
    while True:
        buf = shake256(seed, count)
        signs = int.from_bytes(buf[:8], "little")
        c = bytearray(N)
        i = N - tau
        for j in buf[8:]:
            if j <= i:
                c[i] = c[j]
                c[j] = 0xFF if signs & 1 else 1
                signs >>= 1
                i += 1
                if i == N:
                    return np.frombuffer(c, dtype=np.int8)
        count += RATES["shake256"]
