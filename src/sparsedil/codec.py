"""Bit-exact packing and unpacking of keys, signatures, and coefficients.

All codecs are little-endian fixed-width bit fields (round-3 wire layout),
bijections between their declared coefficient ranges and byte images.
Out-of-range coefficients fail at pack time; malformed bytes fail at decode
time with DecodeError so verification can fail closed. Both bit-field
kernels work on groups of g = 8/gcd(width, 8) fields, which fill g*width/8
whole bytes. `pack_bits` pairs neighbouring fields into fields of twice the
width while they fit a uint64, then ORs what is left of each group into
little-endian words, whose low g*width/8 bytes it copies out as one void
item per group. `pack_w1` has its own narrow-word packer, as its
range check bounds every field: two 4-bit fields per uint8 with one
shift-or, or four 6-bit fields per uint32 in two pairings, of which the
three low bytes are kept. `unpack_bits`, the one unpacker, reads each
field from the 4-byte little-endian word at its byte offset, then shifts
and masks, in uint32, and returns the fields as int32, the dtype every
object decoder keeps (z, t0, t1 and the secrets all fit it).

The private-key decoder deviates from the classic in-memory shape on
purpose: s1, s2 and t0 come back already widened by
`sparse.signing_layout`, so a signing loop never re-derives them across
restarts. Both key decoders
are memoized per key like `expand_a`, with read-only results: up to 16
decoded secret keys stay resident until evicted or `cache_clear()`. A lock
per decoder serializes its calls, so threads that miss on one key together
decode it once and share the result. The public-key decoder returns a
`DecodedPublic` that holds t1 in the form verify transforms, centered
t1 * 2^d read from a 1024-entry table, as well as tr = H(pk, 32) and,
after the first verify under the key, NTT(t1 * 2^d): verifying under a
resident key neither hashes the key again nor transforms t1.
"""

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .keccak import shake256
from .params import D, LEVELS, N, Q, ParameterSet, param_set
from .ring import center
from .sparse import signing_layout


class DecodeError(ValueError):
    """Malformed byte string for the declared object."""


# ---------------------------------------------------------------------------
# generic little-endian bit fields

def pack_bits(values, width: int) -> bytes:
    """Fields of `width` <= 64 bits, each value cut to its low `width` bits."""
    v = np.array(values, dtype=np.int64).reshape(-1).view(np.uint64)   # a copy: cut in place
    v &= np.uint64((1 << width) - 1)
    g = 8 // math.gcd(width, 8)             # fields per group of whole bytes
    fields = np.concatenate((v, np.zeros(-v.size % g, np.uint64))) if v.size % g else v
    w = width
    while g > 1 and 2 * w <= 64:            # g is a power of two: pair neighbours
        paired = fields[1::2] << w
        paired |= fields[0::2]
        fields, g, w = paired, g // 2, 2 * w
    if g == 1:                              # a group is one word
        words = fields[:, None]
    else:                                   # a group spans words: OR each field in
        cols = fields.reshape(-1, g).T
        words = np.zeros((cols.shape[1], -(-g * w // 64)), dtype="<u8")
        words[:, 0] = cols[0]
        for j in range(1, g):
            word, shift = divmod(j * w, 64)
            words[:, word] |= cols[j] << shift
            if shift + w > 64:
                words[:, word + 1] |= cols[j] >> (64 - shift)
    # each group's bytes as one void item: the copy moves whole groups, not bytes
    image = words.view(np.uint8)[:, :g * w // 8].view(f"V{g * w // 8}")
    return image.tobytes()[:(v.size * width + 7) // 8]


@functools.lru_cache(maxsize=None)          # one entry per width, at most 25
def _field_pattern(width: int):
    """Fields per group, group bytes, and each field's byte offset and bit shift in it."""
    g = 8 // math.gcd(width, 8)
    bits = np.arange(g) * width
    return g, g * width // 8, bits >> 3, (bits & 7).astype(np.uint32)


def unpack_bits(data, width: int, count: int) -> np.ndarray:
    """The first `count` fields of `width` <= 25 bits, as a fresh int32 array.

    Each field is cut from the 4-byte little-endian word that starts at its
    first byte: a field starts at most 7 bits into that byte, so 25 bits
    always fit the word. The words are gathered per group of g fields
    through an unaligned uint32 view, which needs 3 bytes of zeros after
    the data.
    """
    if width > 25:
        raise ValueError(f"field width {width} exceeds the 25 bits a 4-byte gather holds")
    g, step, offsets, shifts = _field_pattern(width)
    size = (count * width + 7) // 8
    if len(data) < size:
        raise DecodeError("byte string too short for field count")
    groups = -(-count // g)
    buf = bytes(data[:size]) + bytes(groups * step + 3 - size)
    words = np.ndarray((groups, step), dtype="<u4", buffer=buf, strides=(step, 1))
    fields = (words[:, offsets] >> shifts) & np.uint32((1 << width) - 1)
    return fields.reshape(-1)[:count].view(np.int32)


def _check_range(values: np.ndarray, lo: int, hi: int, what: str) -> None:
    if values.min(initial=lo) < lo or values.max(initial=hi) > hi:
        raise ValueError(f"{what} coefficient outside [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# per-object codecs; arrays may be (256,) or (m, 256)

def pack_t1(t1) -> bytes:
    v = np.asarray(t1, dtype=np.int64)
    _check_range(v, 0, 1023, "t1")
    return pack_bits(v, 10)


def unpack_t1(data: bytes, m: int) -> np.ndarray:
    return unpack_bits(data, 10, m * N).reshape(m, N)


def pack_t0(t0) -> bytes:
    v = np.asarray(t0, dtype=np.int64)
    half = 1 << (D - 1)
    _check_range(v, -half + 1, half, "t0")
    return pack_bits(half - v, D)


def unpack_t0(data: bytes, m: int) -> np.ndarray:
    t0 = unpack_bits(data, D, m * N)
    return np.subtract(1 << (D - 1), t0, out=t0).reshape(m, N)


def _eta_width(eta: int) -> int:
    return (2 * eta).bit_length()


def pack_eta(s, eta: int) -> bytes:
    v = np.asarray(s)                       # eta - v in [0, 2*eta] fits v's own dtype
    _check_range(v, -eta, eta, "secret")
    return pack_bits(eta - v, _eta_width(eta))


def unpack_eta(data: bytes, m: int, eta: int) -> np.ndarray:
    s = unpack_bits(data, _eta_width(eta), m * N)
    if s.max(initial=0) > 2 * eta:          # eta - field < -eta; fields are >= 0
        raise DecodeError("secret field out of range")
    return np.subtract(eta, s, out=s).reshape(m, N)


def _z_width(params: ParameterSet) -> int:
    return params.gamma1.bit_length()


def pack_z(z, params: ParameterSet) -> bytes:
    v = np.asarray(z, dtype=np.int64)
    _check_range(v, -params.gamma1 + 1, params.gamma1, "z")
    return pack_bits(params.gamma1 - v, _z_width(params))


def unpack_z(data: bytes, params: ParameterSet) -> np.ndarray:
    """gamma1 - field for every z field in `data`, int32 (masks and z both fit it)."""
    width = _z_width(params)
    z = unpack_bits(data, width, len(data) * 8 // width)
    return np.subtract(params.gamma1, z, out=z)


def pack_w1(w1, params: ParameterSet) -> bytes:
    """The 4-bit (levels 3, 5) or 6-bit (level 2) fields of w1 rows (..., 256).

    Past the range check every field fits a narrow word, so this packs
    without `pack_bits`: 4-bit fields are paired into bytes with one
    shift-or; each group of four 6-bit fields is one int64 product with
    their place values, whose three low bytes are the group's image.
    """
    v = np.asarray(w1)
    top = (Q - 1) // params.alpha - 1
    _check_range(v, 0, top, "w1")
    if top < 16:
        u = v.astype(np.uint8).reshape(-1, 2)
        out = u[:, 1] << 4
        out |= u[:, 0]
        return out.tobytes()
    word = v.reshape(-1, 4) @ _W1_PLACES
    return word.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)[:, :3].tobytes()


_W1_PLACES = np.array([1, 1 << 6, 1 << 12, 1 << 18], np.int64)
_W1_PLACES.setflags(write=False)


# ---------------------------------------------------------------------------
# object sizes

def eta_packed_bytes(eta: int) -> int:
    return N * _eta_width(eta) // 8


def z_packed_bytes(params: ParameterSet) -> int:
    return N * _z_width(params) // 8


T0_PACKED_BYTES = N * D // 8
T1_PACKED_BYTES = N * 10 // 8


def pk_size(params: ParameterSet) -> int:
    return 32 + params.k * T1_PACKED_BYTES


def sk_size(params: ParameterSet) -> int:
    per = eta_packed_bytes(params.eta)
    return 3 * 32 + (params.l + params.k) * per + params.k * T0_PACKED_BYTES


def sig_size(params: ParameterSet) -> int:
    return 32 + params.l * z_packed_bytes(params) + params.omega + params.k


def _memoized_decoder(decode):
    cached = functools.lru_cache(maxsize=16)(decode)   # on bytes(key): any bytes-like key hits
    lock = threading.Lock()             # threads that miss together decode a key once

    @functools.wraps(decode)
    def wrapper(key, params):
        key = bytes(key)
        with lock:
            return cached(key, params)

    wrapper.cache_info, wrapper.cache_clear = cached.cache_info, cached.cache_clear
    return wrapper


# ---------------------------------------------------------------------------
# public key

def pk_encode(rho: bytes, t1) -> bytes:
    return rho + pack_t1(t1)


@dataclass(frozen=True)
class DecodedPublic:
    """Working form of a public key; arrays are read-only.

    `t1_hat` starts empty and is filled once, by the first verify under the
    key, with NTT(t1 * 2^d) as it came out of that verify's own transform.
    It lives as long as the `pk_decode` cache entry that holds this object.
    """

    rho: bytes
    t1: np.ndarray          # (k, 256) centered t1 * 2^d, int32
    tr: bytes               # H(pk, 32)
    _held: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def t1_hat(self) -> np.ndarray | None:
        """NTT(t1 * 2^d) as (k, 256) int32 in [0, q), or None until it is held."""
        return self._held.get("t1_hat")

    def hold_t1_hat(self, rows) -> np.ndarray:
        """Keep `rows` = NTT(t1 * 2^d) unless rows are held already; return the held rows.

        Write-once: if two verifies race, the first to store wins (the store
        is one `dict.setdefault`), and both computed the same values.
        """
        rows = np.array(rows, dtype=np.int32)
        rows.setflags(write=False)
        return self._held.setdefault("t1_hat", rows)


# t1 * 2^d, centered, for every 10-bit t1: the rows verify transforms enter
# the NTT as they are, int32 like z
_T1_SHIFTED = center(np.arange(1 << 10) << D).astype(np.int32)
_T1_SHIFTED.setflags(write=False)


@_memoized_decoder
def pk_decode(pk: bytes, params: ParameterSet) -> DecodedPublic:
    """The seed rho, centered t1 * 2^d and tr = H(pk, 32) of a public key.

    Cached per key with `t1_hat` still empty; the first verify under the
    key fills it, and `cache_clear()` or eviction drops it with the rest.
    """
    if len(pk) != pk_size(params):
        raise DecodeError(f"public key must be {pk_size(params)} bytes, got {len(pk)}")
    t1 = _T1_SHIFTED[unpack_t1(pk[32:], params.k)]
    t1.setflags(write=False)
    return DecodedPublic(pk[:32], t1, shake256(pk, 32))


# ---------------------------------------------------------------------------
# secret key

@dataclass(frozen=True)
class DecodedSecret:
    """Working form of a secret key; arrays are read-only."""

    rho: bytes
    key: bytes
    tr: bytes
    # each is its own sparse.signing_layout
    s1_ext: np.ndarray      # (l, 512) int8, int16 at level 3
    s2_ext: np.ndarray      # (k, 512) same lanes as s1_ext
    t0_ext: np.ndarray      # (k, 512) int32


def sk_encode(rho: bytes, key: bytes, tr: bytes, s1, s2, t0,
              params: ParameterSet) -> bytes:
    s = np.concatenate((np.reshape(s1, (-1, N)), np.reshape(s2, (-1, N))))
    return rho + key + tr + pack_eta(s, params.eta) + pack_t0(t0)


@_memoized_decoder
def sk_decode_extended(sk: bytes, params: ParameterSet) -> DecodedSecret:
    """Decode a secret key straight into the extended signing layout.

    Called once per signature and cached per key; restarts and later
    signatures reuse the result untouched, which the read-only flags enforce.
    s1 and s2 get a window-major array each, as a column slice of one
    would not be contiguous.
    """
    if len(sk) != sk_size(params):
        raise DecodeError(f"secret key must be {sk_size(params)} bytes, got {len(sk)}")
    off = 96 + (params.l + params.k) * eta_packed_bytes(params.eta)
    s = unpack_eta(sk[96:off], params.l + params.k, params.eta)
    s1_ext, s2_ext, t0_ext = (
        signing_layout(s[:params.l], params.eta, params.tau),
        signing_layout(s[params.l:], params.eta, params.tau),
        signing_layout(unpack_t0(sk[off:], params.k), 1 << (D - 1), params.tau))
    for arr in (s1_ext, s2_ext, t0_ext):
        arr.setflags(write=False)
    return DecodedSecret(rho=sk[:32], key=sk[32:64], tr=sk[64:96],
                         s1_ext=s1_ext, s2_ext=s2_ext, t0_ext=t0_ext)


# ---------------------------------------------------------------------------
# signature

def _encode_hints(h: np.ndarray, params: ParameterSet) -> bytes:
    """The omega + k byte hint section of (k, 256) hint bits, from one scan.

    Positions are the flat indices mod N; row i's count is the number of
    flat indices below (i+1)*N.
    """
    flat = np.flatnonzero(h)
    if len(flat) > params.omega:
        raise ValueError(f"hint weight exceeds omega = {params.omega}")
    buf = np.zeros(params.omega + params.k, dtype=np.uint8)
    buf[:len(flat)] = flat % N
    buf[params.omega:] = flat.searchsorted(np.arange(N, (params.k + 1) * N, N))
    return buf.tobytes()


def _decode_hints(data: bytes, params: ParameterSet) -> np.ndarray:
    """The (k, 256) hint bits from the omega + k byte section, in one pass.

    Row i holds the positions data[counts[i-1]:counts[i]]; the counts must
    not decrease or pass omega, each row's positions must rise strictly,
    and the unused position bytes must be zero.
    """
    data = bytes(data)
    omega = params.omega
    h = bytearray(params.k * N)
    start = 0
    for i, end in enumerate(data[omega:omega + params.k]):
        if end < start or end > omega:
            raise DecodeError("hint counts not non-decreasing or above omega")
        last = -1
        for pos in data[start:end]:
            if pos <= last:
                raise DecodeError("hint positions not strictly increasing")
            h[i * N + pos] = 1
            last = pos
        start = end
    if any(data[start:omega]):
        raise DecodeError("nonzero padding in hint section")
    return np.frombuffer(h, dtype=np.uint8).reshape(params.k, N)


def sig_encode(c_tilde: bytes, z, h, params: ParameterSet) -> bytes:
    if len(c_tilde) != 32:
        raise ValueError("challenge hash must be 32 bytes")
    return c_tilde + pack_z(z, params) + _encode_hints(np.asarray(h), params)


def sig_decode(sig: bytes, params: ParameterSet) -> tuple[bytes, np.ndarray, np.ndarray]:
    if len(sig) != sig_size(params):
        raise DecodeError(f"signature must be {sig_size(params)} bytes, got {len(sig)}")
    c_tilde = sig[:32]
    zlen = params.l * z_packed_bytes(params)
    z = unpack_z(sig[32:32 + zlen], params).reshape(params.l, N)
    h = _decode_hints(sig[32 + zlen:], params)
    return c_tilde, z, h


# ---------------------------------------------------------------------------
# level inference for raw key files (byte lengths are unique per level)

_PK_LEVELS = {pk_size(param_set(lv)): lv for lv in LEVELS}
_SK_LEVELS = {sk_size(param_set(lv)): lv for lv in LEVELS}


def level_for_pk(pk: bytes) -> int:
    if len(pk) not in _PK_LEVELS:
        raise DecodeError(f"no security level has a {len(pk)}-byte public key")
    return _PK_LEVELS[len(pk)]


def level_for_sk(sk: bytes) -> int:
    if len(sk) not in _SK_LEVELS:
        raise DecodeError(f"no security level has a {len(sk)}-byte secret key")
    return _SK_LEVELS[len(sk)]
