import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from sparsedil import codec, scheme, sparse
from sparsedil.keccak import shake256
from sparsedil.params import D, LEVELS, N, Q, param_set
from sparsedil.ring import center, intt_values, ntt_values
from sparsedil.rounding import power2round
from sparsedil.sampling import expand_a, expand_s


def test_declared_lengths():
    assert [codec.pk_size(param_set(lv)) for lv in LEVELS] == [1312, 1952, 2592]
    assert [codec.sk_size(param_set(lv)) for lv in LEVELS] == [2528, 4000, 4864]
    assert [codec.sig_size(param_set(lv)) for lv in LEVELS] == [2420, 3293, 4595]


def test_zero_polynomials_pack_to_patterns():
    z = np.zeros((2, N), dtype=np.int64)
    assert codec.pack_t1(z) == bytes(2 * codec.T1_PACKED_BYTES)
    # the offset encoding maps zero to the repeating 3-bit pattern 010
    packed = codec.pack_eta(z, 2)
    assert packed == b"\x92\x24\x49" * (len(packed) // 3)
    assert np.array_equal(codec.unpack_eta(packed, 2, 2), z)


@pytest.mark.parametrize("codec_name", ["t1", "t0", "eta2", "eta4", "z17", "z19", "w1"])
def test_roundtrip_10k_arrays(codec_name):
    rng = np.random.default_rng(hash(codec_name) % 2**32)
    m = 10000
    if codec_name == "t1":
        vals = rng.integers(0, 1024, (m, N))
        back = codec.unpack_t1(codec.pack_t1(vals), m)
    elif codec_name == "t0":
        vals = rng.integers(-(1 << 12) + 1, (1 << 12) + 1, (m, N))
        back = codec.unpack_t0(codec.pack_t0(vals), m)
    elif codec_name == "eta2":
        vals = rng.integers(-2, 3, (m, N))
        back = codec.unpack_eta(codec.pack_eta(vals, 2), m, 2)
    elif codec_name == "eta4":
        vals = rng.integers(-4, 5, (m, N))
        back = codec.unpack_eta(codec.pack_eta(vals, 4), m, 4)
    elif codec_name == "z17":
        p = param_set(2)
        vals = rng.integers(-p.gamma1 + 1, p.gamma1 + 1, (m, N))
        back = codec.unpack_z(codec.pack_z(vals, p), p).reshape(m, N)
    elif codec_name == "z19":
        p = param_set(5)
        vals = rng.integers(-p.gamma1 + 1, p.gamma1 + 1, (m, N))
        back = codec.unpack_z(codec.pack_z(vals, p), p).reshape(m, N)
    else:
        p = param_set(2)
        vals = rng.integers(0, (Q - 1) // p.alpha, (m, N))
        packed = codec.pack_w1(vals, p)
        back = codec.unpack_bits(packed, 6, m * N).reshape(m, N)
    assert np.array_equal(back, vals)


CODEC_WIDTHS = [3, 4, 6, 10, 13, 18, 20]     # eta, w1, t1, t0 and z fields


def _unpack_bits_oracle(data, width, count):
    # the whole string as one Python int, read `width` bits at a time
    x = int.from_bytes(bytes(data), "little")
    return [(x >> (i * width)) & ((1 << width) - 1) for i in range(count)]


@pytest.mark.parametrize("width", CODEC_WIDTHS)
def test_unpack_bits_matches_int64_reference(width):
    # the int32 gather must equal an int64 bit-weight product, at the all-ones maximum too
    rng = np.random.default_rng(width)
    count = 1024
    for data in (b"\xff" * (count * width // 8),
                 rng.integers(0, 256, count * width // 8 + 3, dtype=np.uint8).tobytes()):
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
        want = bits[:count * width].reshape(count, width).astype(np.int64) @ (
            np.int64(1) << np.arange(width, dtype=np.int64))
        got = codec.unpack_bits(data, width, count)
        assert got.dtype == np.int32 and np.array_equal(got, want)
    assert codec.unpack_bits(b"\xff" * width, width, 8).tolist() == [(1 << width) - 1] * 8
    with pytest.raises(codec.DecodeError, match="too short"):
        codec.unpack_bits(bytes(count * width // 8 - 1), width, count)


@pytest.mark.parametrize("width", CODEC_WIDTHS + [1, 7, 25])
def test_unpack_bits_partial_groups_and_buffer_types(width):
    # counts that end inside a group of fields and inside a byte; bytes-like inputs
    rng = np.random.default_rng(200 + width)
    for count in (0, 1, 2, 3, 5, 7, 9, 255, 257, 1023):
        size = (count * width + 7) // 8
        data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        want = _unpack_bits_oracle(data, width, count)
        for buf in (data, bytearray(data), memoryview(data), data + b"\xff\xff"):
            got = codec.unpack_bits(buf, width, count)
            assert got.dtype == np.int32 and got.tolist() == want, (count, type(buf))
        if size:
            with pytest.raises(codec.DecodeError, match="too short"):
                codec.unpack_bits(data[:-1], width, count)


@pytest.mark.parametrize("level", [2, 3])                  # z fields of 18 and 20 bits
@given(data=st.binary(max_size=3 * 640))
def test_unpack_z_is_gamma1_minus_the_fields_in_int32(level, data):
    # masks and signature z come from the shared uint32 fields, subtracted in int32
    p = param_set(level)
    width = p.gamma1.bit_length()
    got = codec.unpack_z(data, p)
    assert got.dtype == np.int32
    assert np.array_equal(got, p.gamma1 - codec.unpack_bits(data, width, len(data) * 8 // width))


def test_unpack_bits_rejects_fields_wider_than_25_bits():
    # a field starts up to 7 bits into its first byte, so 25 bits is what 4 bytes hold
    assert codec.unpack_bits(b"\xff" * 25, 25, 8).tolist() == [(1 << 25) - 1] * 8
    with pytest.raises(ValueError, match="25"):
        codec.unpack_bits(bytes(26), 26, 8)


def test_byte_image_roundtrip():
    # pack(unpack(bytes)) is the identity on the byte side where every bit
    # pattern is a valid field (t0, t1, z); offset codecs with slack fields
    # are identities on their own image instead
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 256, 13 * N // 8, dtype=np.uint8).tobytes()
    assert codec.pack_t0(codec.unpack_t0(raw, 1)) == raw
    raw = rng.integers(0, 256, 10 * N // 8, dtype=np.uint8).tobytes()
    assert codec.pack_t1(codec.unpack_t1(raw, 1)) == raw
    for lv in (2, 5):
        p = param_set(lv)
        raw = rng.integers(0, 256, codec.z_packed_bytes(p), dtype=np.uint8).tobytes()
        assert codec.pack_z(codec.unpack_z(raw, p), p) == raw
    s = rng.integers(-2, 3, (3, N))
    img = codec.pack_eta(s, 2)
    assert codec.pack_eta(codec.unpack_eta(img, 3, 2), 2) == img


def test_pack_range_errors():
    p = param_set(2)
    bad = np.zeros((1, N), dtype=np.int64)
    bad[0, 0] = 1024
    with pytest.raises(ValueError, match="t1"):
        codec.pack_t1(bad)
    bad[0, 0] = 3
    with pytest.raises(ValueError, match="secret"):
        codec.pack_eta(bad, 2)
    bad[0, 0] = p.gamma1 + 1
    with pytest.raises(ValueError, match="z"):
        codec.pack_z(bad, p)
    for lv in LEVELS:                       # 6-bit and 4-bit w1 fields
        q = param_set(lv)
        for v in (-1, (Q - 1) // q.alpha):  # one below 0, one above the top value
            bad[0, 0] = v
            with pytest.raises(ValueError, match="w1"):
                codec.pack_w1(bad, q)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("block", [1, 2], ids=["verify", "sign"])
@given(data=st.data())
def test_pack_w1_matches_pack_bits(level, block, data):
    # the narrow-word packer against the generic one, on w1 as verify passes
    # it, (k, 256), and as the signer packs an attempt block, (2, k, 256)
    p = param_set(level)
    top = (Q - 1) // p.alpha - 1
    shape = (p.k, N) if block == 1 else (block, p.k, N)
    w1 = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, top)))
    assert codec.pack_w1(w1, p) == codec.pack_bits(w1, top.bit_length())


def test_pk_decode_length_check():
    p = param_set(2)
    with pytest.raises(codec.DecodeError, match="public key"):
        codec.pk_decode(bytes(10), p)


def test_sk_decode_pipeline_identity(keypairs):
    for lv in LEVELS:
        p = param_set(lv)
        pk, sk = keypairs[lv]
        dec = codec.sk_decode_extended(sk, p)
        assert dec.rho == sk[:32]
        # secrets match the sampler outputs that built the key
        seed = shake256(bytes([lv]) * 32, 128)
        s1, s2 = expand_s(seed[32:96], p)
        assert np.array_equal(dec.s1_ext[:, N:], s1)
        assert np.array_equal(dec.s2_ext[:, :N], -s2.astype(np.int16))
        for ext in (dec.s1_ext, dec.s2_ext):
            assert np.all(ext[:, :N].astype(np.int16) + ext[:, N:] == 0)
        # t0 matches the power2round low part of t = A s1 + s2
        A = expand_a(dec.rho, p)
        t = (intt_values((A.coeffs.astype(np.int64)
                          * ntt_values(s1)[None, :, :]).sum(axis=1) % Q) + s2) % Q
        t1, t0 = power2round(t)
        assert np.array_equal(dec.t0_ext[:, N:], t0)
        assert np.array_equal(dec.t0_ext[:, :N], -t0)
        assert np.array_equal(codec.pk_decode(pk, p).t1, center(t1 << D))


def test_sk_decode_returns_readonly_arrays(keypairs):
    for lv in LEVELS:
        p = param_set(lv)
        dec = codec.sk_decode_extended(keypairs[lv][1], p)
        # byte lanes where tau*eta fits int8; 16-bit lanes for level 3's 196
        lanes = np.int8 if lv in (2, 5) else np.int16
        assert dec.s1_ext.dtype == dec.s2_ext.dtype == lanes
        # tau*2^12 needs 32-bit lanes at every level
        assert dec.t0_ext.dtype == np.int32
        for arr in (dec.s1_ext, dec.s2_ext, dec.t0_ext):
            with pytest.raises(ValueError):
                arr[0, 0] = 1


def test_decoded_secrets_are_window_major_signing_layouts(keypairs):
    # each (rows, 512) field is the .T view of its own C-contiguous (512, rows)
    # array, so a c*s gather copies tau contiguous blocks and no row-major copy
    for lv in LEVELS:
        p = param_set(lv)
        dec = codec.sk_decode_extended(keypairs[lv][1], p)
        for ext, rows, bound in ((dec.s1_ext, p.l, p.eta), (dec.s2_ext, p.k, p.eta),
                                 (dec.t0_ext, p.k, 1 << (D - 1))):
            assert ext.shape == (rows, 2 * N)
            assert ext.T.flags.c_contiguous and not ext.flags.writeable
            s = ext[:, N:]
            layout = codec.signing_layout(s, bound, p)
            assert layout.dtype == ext.dtype and np.array_equal(layout, ext)
            assert np.array_equal(ext, np.concatenate((-s, s), axis=-1))
            if bound == p.eta:
                assert np.array_equal(ext, sparse.extend_secret(s, p.eta))


def test_key_decoders_return_one_cached_readonly_object(keypairs):
    for lv in LEVELS:
        p = param_set(lv)
        pk, sk = keypairs[lv]
        dec = codec.sk_decode_extended(sk, p)
        pub = codec.pk_decode(pk, p)
        t1 = pub.t1
        # any bytes-like key finds the same entry
        for key in (sk, bytearray(sk), memoryview(sk)):
            assert codec.sk_decode_extended(key, p) is dec
        for key in (pk, bytearray(pk), memoryview(pk)):
            assert codec.pk_decode(key, p) is pub
        assert t1.dtype == np.int32         # centered t1 * 2^d, the rows verify transforms
        assert type(dec.rho) is type(pub.rho) is bytes
        assert pub.tr == dec.tr             # H(pk, 32), as keygen stored it in sk
        with pytest.raises(ValueError):
            t1[0, 0] = 1


def test_t1_table_is_centered_t1_times_2d():
    t = np.arange(1 << 10)
    assert np.array_equal(codec._T1_SHIFTED, center(t << D))
    assert codec._T1_SHIFTED.dtype == np.int32


def test_malformed_keys_raise_on_every_call(keypairs):
    p = param_set(2)
    bad = bytearray(keypairs[2][1])
    bad[96] = 0xFF                         # an s1 field below -eta
    for _ in range(3):                     # exceptions are not cached
        with pytest.raises(codec.DecodeError, match="secret"):
            codec.sk_decode_extended(bad, p)
        with pytest.raises(codec.DecodeError, match="public key"):
            codec.pk_decode(bytes(10), p)


def test_decode_caches_hold_at_most_16_keys():
    p = param_set(2)
    for i in range(20):
        pk, sk = scheme.keygen(p, bytes([i, 99]) * 16)
        codec.sk_decode_extended(sk, p)
        codec.pk_decode(pk, p)
    assert codec.sk_decode_extended.cache_info().currsize <= 16
    assert codec.pk_decode.cache_info().currsize <= 16
    codec.sk_decode_extended.cache_clear()
    assert codec.sk_decode_extended.cache_info().currsize == 0


def test_sk_decode_length_error():
    with pytest.raises(codec.DecodeError, match="secret key"):
        codec.sk_decode_extended(bytes(100), param_set(2))


def _make_hints(rng, p, weight):
    h = np.zeros((p.k, N), dtype=np.uint8)
    flat = rng.choice(p.k * N, weight, replace=False)
    h[flat // N, flat % N] = 1
    return h


def test_signature_roundtrip_synthetic():
    rng = np.random.default_rng(1)
    for lv in LEVELS:
        p = param_set(lv)
        for _ in range(50):
            c_tilde = rng.integers(0, 256, 32, dtype=np.uint8).tobytes()
            z = rng.integers(-(p.gamma1 - p.beta) + 1, p.gamma1 - p.beta, (p.l, N))
            h = _make_hints(rng, p, int(rng.integers(0, p.omega + 1)))
            sig = codec.sig_encode(c_tilde, z, h, p)
            assert len(sig) == codec.sig_size(p)
            c2, z2, h2 = codec.sig_decode(sig, p)
            assert c2 == c_tilde
            assert np.array_equal(z2, z)
            assert np.array_equal(h2, h)


def test_empty_hints_encode_to_zero_section():
    p = param_set(2)
    sig = codec.sig_encode(bytes(32), np.zeros((p.l, N), dtype=np.int64),
                           np.zeros((p.k, N), dtype=np.uint8), p)
    assert sig[-(p.omega + p.k):] == bytes(p.omega + p.k)


def test_hint_weight_over_omega_rejected_at_encode():
    rng = np.random.default_rng(2)
    p = param_set(2)
    h = _make_hints(rng, p, p.omega + 1)
    with pytest.raises(ValueError, match="omega"):
        codec.sig_encode(bytes(32), np.zeros((p.l, N), dtype=np.int64), h, p)


def test_hint_count_corruption_detected():
    rng = np.random.default_rng(3)
    p = param_set(2)
    z = np.zeros((p.l, N), dtype=np.int64)
    h = _make_hints(rng, p, 10)
    sig = bytearray(codec.sig_encode(bytes(32), z, h, p))
    sig[-1] ^= 0xFF                       # final cumulative count byte
    with pytest.raises(codec.DecodeError):
        codec.sig_decode(bytes(sig), p)


def test_hint_nonzero_padding_detected():
    p = param_set(2)
    z = np.zeros((p.l, N), dtype=np.int64)
    h = np.zeros((p.k, N), dtype=np.uint8)
    sig = bytearray(codec.sig_encode(bytes(32), z, h, p))
    sig[-(p.k + 1)] = 7                   # padding byte inside the position list
    with pytest.raises(codec.DecodeError, match="padding"):
        codec.sig_decode(bytes(sig), p)


def test_hint_position_order_enforced():
    p = param_set(2)
    raw = np.zeros(p.omega + p.k, dtype=np.uint8)
    raw[0], raw[1] = 9, 9                 # duplicate positions in poly 0
    raw[p.omega:] = 2
    with pytest.raises(codec.DecodeError, match="increasing"):
        codec._decode_hints(raw.tobytes(), p)


def test_sig_decode_length_error():
    with pytest.raises(codec.DecodeError, match="signature"):
        codec.sig_decode(bytes(17), param_set(2))


def test_level_inference():
    for lv in LEVELS:
        p = param_set(lv)
        assert codec.level_for_pk(bytes(codec.pk_size(p))) == lv
        assert codec.level_for_sk(bytes(codec.sk_size(p))) == lv
    with pytest.raises(codec.DecodeError):
        codec.level_for_pk(bytes(999))


# ---------------------------------------------------------------------------
# loop oracles for the word-parallel packer and the hint codec

def _pack_bits_oracle(values, width):
    # one bit per int64 lane, then np.packbits
    v = np.asarray(values, dtype=np.int64).reshape(-1)
    bits = ((v[:, None] >> np.arange(width)) & 1).astype(np.uint8)
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


def _encode_hints_oracle(h, p):
    buf = np.zeros(p.omega + p.k, dtype=np.uint8)
    off = 0
    for i in range(p.k):
        pos = np.flatnonzero(h[i])
        if off + len(pos) > p.omega:
            raise ValueError(f"hint weight exceeds omega = {p.omega}")
        buf[off:off + len(pos)] = pos
        off += len(pos)
        buf[p.omega + i] = off
    return buf.tobytes()


def _decode_hints_oracle(data, p):
    raw = np.frombuffer(data, dtype=np.uint8)
    h = np.zeros((p.k, N), dtype=np.uint8)
    prev = 0
    for i in range(p.k):
        cnt = int(raw[p.omega + i])
        if cnt < prev or cnt > p.omega:
            raise codec.DecodeError("hint counts not non-decreasing or above omega")
        pos = raw[prev:cnt].astype(np.int64)
        if len(pos) > 1 and np.any(np.diff(pos) <= 0):
            raise codec.DecodeError("hint positions not strictly increasing")
        h[i, pos] = 1
        prev = cnt
    if np.any(raw[prev:p.omega] != 0):
        raise codec.DecodeError("nonzero padding in hint section")
    return h


def _decode_or_none(decode, data, p):
    try:
        return decode(data, p)
    except codec.DecodeError:
        return None


def _assert_same_decode(data, p):
    got = _decode_or_none(codec._decode_hints, data, p)
    want = _decode_or_none(_decode_hints_oracle, data, p)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    return want


@pytest.mark.parametrize("width", range(1, 26))
def test_pack_bits_matches_bit_spreading_oracle(width):
    rng = np.random.default_rng(100 + width)
    group = 8 // np.gcd(width, 8)
    for count in sorted({0, 1, group - 1, group, group + 1, 3 * group, 3 * group + 1, 1027}):
        in_range = rng.integers(0, 1 << width, count)
        # negative and >= 2^width inputs are cut to their low bits, never spilling over
        wild = rng.integers(-(1 << 40), 1 << 40, count)
        edges = rng.choice([-1, 1 << width, (1 << width) - 1, -(1 << width), 2**63 - 1, -2**63],
                           count)
        for vals in (in_range, wild, edges):
            got = codec.pack_bits(vals, width)
            assert got == _pack_bits_oracle(vals, width)
            assert len(got) == (count * width + 7) // 8


def _encode_hints_by_row(h, p):
    """The hint section from np.nonzero's positions and per-row bincounts."""
    rows, pos = np.nonzero(h)
    buf = np.zeros(p.omega + p.k, dtype=np.uint8)
    buf[:len(pos)] = pos
    buf[p.omega:] = np.cumsum(np.bincount(rows, minlength=p.k))
    return buf.tobytes()


def test_encode_hints_matches_loop_oracle():
    rng = np.random.default_rng(20)
    for lv in LEVELS:
        p = param_set(lv)
        cases = [_make_hints(rng, p, weight)
                 for weight in [0, 1, p.omega] + rng.integers(0, p.omega + 1, 200).tolist()]
        # empty rows around hints packed into a few rows, up to weight omega
        for rows in ([0], [p.k - 1], [1, p.k - 2], [0, p.k - 1]):
            for weight in (1, p.omega - 1, p.omega, int(rng.integers(2, p.omega))):
                h = np.zeros((p.k, N), dtype=np.uint8)
                flat = rng.choice(len(rows) * N, weight, replace=False)
                h[np.asarray(rows)[flat // N], flat % N] = 1
                cases.append(h)
        for h in cases:
            want = _encode_hints_oracle(h, p)
            assert codec._encode_hints(h, p) == want == _encode_hints_by_row(h, p)
        h = _make_hints(rng, p, p.omega + 1)
        with pytest.raises(ValueError, match="omega"):
            codec._encode_hints(h, p)


def test_decode_hints_matches_loop_oracle_on_random_bytes():
    rng = np.random.default_rng(21)
    for lv in LEVELS:
        p = param_set(lv)
        for _ in range(500):
            raw = rng.integers(0, 256, p.omega + p.k, dtype=np.uint8)
            _assert_same_decode(raw.tobytes(), p)
            # small counts, so that some random sections get past the count check
            raw[p.omega:] = np.sort(rng.integers(0, p.omega + 2, p.k))
            _assert_same_decode(raw.tobytes(), p)


def test_decode_hints_matches_loop_oracle_on_targeted_corruptions():
    rng = np.random.default_rng(22)
    for lv in LEVELS:
        p = param_set(lv)
        for _ in range(100):
            h = _make_hints(rng, p, int(rng.integers(2, p.omega + 1)))
            good = np.frombuffer(codec._encode_hints(h, p), dtype=np.uint8)
            counts = good[p.omega:].astype(np.int64)
            total = int(counts[-1])
            variants = []
            bad = good.copy()
            bad[p.omega + rng.integers(0, p.k):] = p.omega + 1         # a count above omega
            variants.append(bad)
            i = int(rng.integers(0, p.k - 1))
            if counts[i + 1] < p.omega:
                bad = good.copy()
                bad[p.omega + i] = counts[i + 1] + 1                    # a count above the next
                variants.append(bad)
            if counts[i] > 0:
                bad = good.copy()
                bad[p.omega + i + 1] = counts[i] - 1                    # a count below the last
                variants.append(bad)
            rows = np.diff(counts, prepend=0)
            for i in np.flatnonzero(rows >= 2):
                start = int(counts[i] - rows[i])
                j = start + int(rng.integers(0, rows[i] - 1))
                bad = good.copy()
                bad[j + 1] = bad[j]                                     # repeated position
                variants.append(bad)
                bad = good.copy()
                bad[j], bad[j + 1] = good[j + 1], good[j]               # decreasing position
                variants.append(bad)
            if total < p.omega:
                bad = good.copy()
                bad[int(rng.integers(total, p.omega))] = rng.integers(1, 256)  # nonzero padding
                variants.append(bad)
            assert np.array_equal(_assert_same_decode(good.tobytes(), p), h)
            for bad in variants:
                assert _assert_same_decode(bad.tobytes(), p) is None


def test_decode_hints_allows_position_decrease_across_rows():
    for lv in LEVELS:
        p = param_set(lv)
        h = np.zeros((p.k, N), dtype=np.uint8)
        h[0, [7, 200]] = 1
        h[1, 3] = 1                       # 3 follows 200: a new row restarts the order
        h[p.k - 1, [0, 255]] = 1
        data = codec._encode_hints(h, p)
        assert np.array_equal(_assert_same_decode(data, p), h)


def test_sk_decode_rejects_out_of_range_secret_fields(keypairs):
    for lv in LEVELS:
        p = param_set(lv)
        sk = keypairs[lv][1]
        per = codec.eta_packed_bytes(p.eta)
        # all-ones fields decode to eta - (2^width - 1) < -eta, in s1 and in s2
        for off in (96, 96 + p.l * per, 96 + (p.l + p.k) * per - 1):
            bad = bytearray(sk)
            bad[off] = 0xFF
            with pytest.raises(codec.DecodeError, match="secret"):
                codec.sk_decode_extended(bytes(bad), p)


def test_signing_layout_matches_extend_secret():
    # signing_layout trusts its input's range (unpack_eta checked it) and
    # otherwise builds the layout that extend_secret builds, in the lane width
    rng = np.random.default_rng(15)
    for lv in LEVELS:
        p = param_set(lv)
        s = rng.integers(-p.eta, p.eta + 1, (p.l + p.k, N))
        s[0, :2] = (-p.eta, p.eta)
        got = codec.signing_layout(s, p.eta, p)
        assert got.dtype == (np.int8 if p.challenge_fits_int8 else np.int16)
        assert np.array_equal(got, sparse.extend_secret(s, p.eta))
        # one row and a stack of stacks are window-major too
        for rows in (s[0], s.reshape(1, -1, N)):
            layout = codec.signing_layout(rows, p.eta, p)
            assert layout.T.flags.c_contiguous
            assert np.array_equal(layout, sparse.extend_secret(rows, p.eta))
