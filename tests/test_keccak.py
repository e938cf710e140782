from hypothesis import given, strategies as st

from sparsedil import instrumentation
from sparsedil.keccak import RATES, shake128, shake256

# Published FIPS 202 vectors for the empty message.
SHAKE128_EMPTY_16 = bytes.fromhex("7f9c2ba4e88f827d616045507605853e")
SHAKE256_EMPTY_32 = bytes.fromhex(
    "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f")


def test_rates():
    assert RATES == {"shake128": 168, "shake256": 136}


def test_known_answers():
    assert shake128(b"", 16) == SHAKE128_EMPTY_16
    assert shake256(b"", 32) == SHAKE256_EMPTY_32


def test_independent_states():
    assert shake256(b"x", 8) != shake256(b"", 8)
    assert shake128(b"x", 8) != shake256(b"x", 8)


def test_squeeze_zero():
    assert shake128(b"", 0) == b"" and shake256(b"", 0) == b""


@given(st.binary(max_size=64), st.integers(0, 400), st.integers(0, 400))
def test_squeeze_streaming_law(data, n, m):
    # the samplers' extension rule: a longer digest starts with the shorter one
    assert shake256(data, n + m)[:n] == shake256(data, n)
    assert shake128(data, n + m)[:n] == shake128(data, n)


def test_deterministic_across_instances():
    s = b"\x01\x02" * 40
    assert shake128(s, 500) == shake128(s, 500)


def test_output_bytes_are_counted():
    with instrumentation.counting() as cn:
        shake128(b"a", 168)
        shake256(b"a", 5)
    assert cn.xof_bytes == 173
