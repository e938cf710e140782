"""One-shot SHAKE-128 / SHAKE-256 (FIPS 202), counted.

The sponge is the platform's vetted implementation (hashlib). Each call
absorbs one whole message and returns a prefix of its output stream, so
`shake(x, n + m)[:n] == shake(x, n)`: a caller that needs more output asks
for a longer digest of the same message. Every output byte is added to the
`instrumentation` XOF counter.
"""

import hashlib

from . import instrumentation

RATES = {"shake128": 168, "shake256": 136}   # output bytes per permutation


def shake128(data: bytes, count: int) -> bytes:
    """One-shot SHAKE-128 of `data`, returning `count` bytes."""
    instrumentation.add_xof_bytes(count)
    return hashlib.shake_128(data).digest(count)


def shake256(data: bytes, count: int) -> bytes:
    """One-shot SHAKE-256 of `data`, returning `count` bytes."""
    instrumentation.add_xof_bytes(count)
    return hashlib.shake_256(data).digest(count)
