"""An outside oracle: FIPS 204 (ML-DSA) key generation from this package's primitives.

FIPS 204 keeps round-3 Dilithium's ExpandA, ExpandS, NTT, Power2Round and
public-key layout, and changes the seed expansion to
(rho, rho', K) = H(xi || k || l). Building the public key that way from
`expand_a`, `expand_s`, `ntt_values`, `power2round` and `codec.pk_encode`
must give the bytes of the ML-DSA implementation in the installed
`cryptography` package (OpenSSL), which shares no code with this one. The
test skips when that implementation cannot be loaded.
"""

import numpy as np
import pytest

from sparsedil import codec
from sparsedil.keccak import shake256
from sparsedil.params import LEVELS, Q, param_set
from sparsedil.ring import intt_values, ntt_values
from sparsedil.rounding import power2round
from sparsedil.sampling import expand_a, expand_s

mldsa = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.mldsa")
from cryptography.exceptions import UnsupportedAlgorithm  # noqa: E402

PRIVATE_KEY = {2: "MLDSA44PrivateKey", 3: "MLDSA65PrivateKey", 5: "MLDSA87PrivateKey"}


def fips204_public_key(xi: bytes, level: int) -> bytes:
    p = param_set(level)
    seed = shake256(xi + bytes([p.k, p.l]), 128)
    rho, rho_prime = seed[:32], seed[32:96]
    s1, s2 = expand_s(rho_prime, p)
    a64 = expand_a(rho, p).coeffs.astype(np.int64)
    t = (intt_values((a64 * ntt_values(s1)).sum(axis=1) % Q) + s2) % Q
    return codec.pk_encode(rho, power2round(t)[0])


def openssl_public_key(xi: bytes, level: int) -> bytes:
    try:
        key = getattr(mldsa, PRIVATE_KEY[level]).from_seed_bytes(xi)
    except UnsupportedAlgorithm as exc:
        pytest.skip(f"ML-DSA not available in this OpenSSL: {exc}")
    return key.public_key().public_bytes_raw()


@pytest.mark.parametrize("level", LEVELS, ids=lambda lv: f"level{lv}")
def test_public_key_matches_openssl(level):
    # 16 seeds cross a few hundred rows of A that need compacting
    rng = np.random.default_rng(204 + level)
    for _ in range(16):
        xi = rng.integers(0, 256, 32, dtype=np.uint8).tobytes()
        assert fips204_public_key(xi, level) == openssl_public_key(xi, level)
