"""Deterministic expansions of seeds into matrices, secrets, masks, challenges.

Every sampler is a pure function of (seed, nonce). Byte framing follows the
round-3 reference conventions: SHAKE-128 with a 2-byte little-endian nonce
for the public matrix, SHAKE-256 elsewhere, and the challenge sign bits
taken from the first 8 bytes of the stream.

Each sampler is one pass: it takes one fixed-length one-shot digest per row
(a prefix of that row's SHAKE stream) and decodes all its rows together.
The rejection samplers keep the first N accepted values of each row. SHAKE
output is a prefix stream, so `shake(x, n + m)[:n] == shake(x, n)`: should a
row accept fewer than N values, the sampler asks for one more block of every
row's digest and decodes again, which yields exactly what reading the stream
further would. It never truncates a row.
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

# Nibbles below the limit are accepted; the table maps them onto [-eta, eta].
_ETA_LIMIT = {2: 15, 4: 9}
_ETA_VALUES = {eta: np.array([eta - v % (2 * eta + 1) for v in range(16)], dtype=np.int8)
               for eta in _ETA_LIMIT}


def _digests(xof, seed: bytes, nonces, count: int) -> np.ndarray:
    """One `count`-byte digest of seed || nonce (2 bytes, little-endian) per row."""
    blob = b"".join(xof(seed + n.to_bytes(2, "little"), count) for n in nonces)
    return np.frombuffer(blob, dtype=np.uint8).reshape(len(nonces), count)


def _rejection_rows(xof, rate: int, seed: bytes, nonces, count: int, decode) -> np.ndarray:
    """The first N accepted values of each row, from one digest per nonce.

    `decode` turns the (rows, count) digest bytes into candidate values and
    their acceptance mask, both (rows, m) in stream order. If any row accepts
    fewer than N, every digest grows by one block of `rate` bytes.
    """
    while True:
        values, ok = decode(_digests(xof, seed, nonces, count))
        rank = np.cumsum(ok, axis=1, dtype=np.int32)
        if rank[:, -1].min() >= N:
            return values[ok & (rank <= N)].reshape(len(nonces), N)
        count += rate


def _below_q(buf: np.ndarray):
    """23-bit little-endian chunks of three bytes; those below q are accepted."""
    b = buf.reshape(len(buf), -1, 3)
    t = (b[..., 0].astype(np.int32) | (b[..., 1].astype(np.int32) << 8)
         | ((b[..., 2] & 0x7F).astype(np.int32) << 16))
    return t, t < Q


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
    coeffs = _rejection_rows(shake128, RATES["shake128"], rho, nonces, _A_BYTES, _below_q)
    mat = Poly(coeffs.reshape(k, l, N), Domain.NTT)
    mat.coeffs.setflags(write=False)
    return mat


def expand_s(rho_prime: bytes, params: ParameterSet) -> tuple[np.ndarray, np.ndarray]:
    """Secret vectors (s1, s2) as int8 arrays of shape (l, 256) and (k, 256).

    Row r (nonce r; s1 first) rejection-samples nibbles, low nibble first,
    onto [-eta, eta].
    """
    eta, l = params.eta, params.l

    def nibbles(buf):
        nib = np.stack((buf & 0xF, buf >> 4), axis=-1).reshape(len(buf), -1)
        return nib, nib < _ETA_LIMIT[eta]

    rows = _rejection_rows(shake256, RATES["shake256"], rho_prime, range(l + params.k),
                           _S_BYTES[eta], nibbles)
    s = _ETA_VALUES[eta][rows]
    return s[:l], s[l:]


def expand_mask(rho_prime: bytes, kappa: int, params: ParameterSet) -> Poly:
    """Mask vector y, (l, 256), with coefficients in (-gamma1, gamma1], nonces kappa..kappa+l-1."""
    buf = _digests(shake256, rho_prime, range(kappa, kappa + params.l), z_packed_bytes(params))
    return Poly(unpack_z(buf.tobytes(), params).reshape(params.l, N), Domain.STANDARD)


def sample_in_ball(seed: bytes, tau: int) -> np.ndarray:
    """The challenge polynomial: tau +-1 coefficients placed by in-place swaps.

    Sign bits come from the first 8 stream bytes; each swap target is the
    next stream byte not above the running position. The coefficients are
    int8 bytes (-1 is 0xFF), and the tau-th placement ends the scan.
    """
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
