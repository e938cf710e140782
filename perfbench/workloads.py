"""The three closed-loop workloads and the seeded inputs they feed the program.

Every input (keygen seeds, messages, which pool signatures are tampered and
how) is derived from the run's --seed with SHAKE-256, so one seed always
gives the same inputs and the same signatures. The program only ever sees
the derived keys, messages and signatures.

Each workload drives a `client` with `keygen`, `sign` and `verify` methods
and pulls its round numbers from `client.rounds(minimum)`, which keeps
going until the run's time is up but never stops before `minimum` rounds:
the first `minimum` rounds are the same on every run with the same seed,
which is what the digest and the exact counts are taken over.
"""

import hashlib

from sparsedil import codec
from sparsedil.params import param_set

LEVELS = (2, 3, 5)

MESSAGE_BYTES = 64

# sign-resident: a key lives for this many rounds before the next one is
# made, so keygen still shows up (over a hundred keygens in a 40 s run)
# while almost every sign/verify runs against a long-lived key whose
# expand_a entry stays cached.
RESIDENT_ROUNDS = 100
RESIDENT_KEY_LIFETIME = 16

# verify-pool: each generation makes 3 x 8 = 24 keys, more than expand_a's
# 16-entry cache, used round-robin so that every sign and verify misses it.
# 7 generations give the 100 signatures per level the digest covers.
# 3 verification passes leave about 60% of the time to making the pool, so
# that a 40 s run still has some 500-600 signatures per level for sign_p90_ms.
POOL_GENERATIONS = 7
POOL_KEYS_PER_LEVEL = 8
POOL_SIGS_PER_KEY = 2
POOL_VERIFY_PASSES = 3
POOL_TAMPER_IN_256 = 64          # a quarter of the pool is tampered

CHURN_ROUNDS = 100


def derive(seed: int, *parts, n: int = 32) -> bytes:
    """n pseudorandom bytes fixed by the seed and a label."""
    label = "/".join(str(p) for p in (seed,) + parts)
    return hashlib.shake_256(label.encode()).digest(n)


def message(seed: int, *parts) -> bytes:
    return derive(seed, "msg", *parts, n=MESSAGE_BYTES)


def signing_loop(client, seed: int, tag: str, key_lifetime: int, minimum: int) -> None:
    """Per round and level: sign a fresh message, then verify it.

    A new key is generated every `key_lifetime` rounds; lifetime 1 is
    keygen-churn, where every per-key cost is paid once per signature.
    """
    keys = {}
    for r in client.rounds(minimum):
        for level in LEVELS:
            if r % key_lifetime == 0:
                keys[level] = client.keygen(level, derive(seed, tag, "key", level, r // key_lifetime))
            pk, sk = keys[level]
            msg = message(seed, tag, level, r)
            client.verify(level, pk, msg, client.sign(level, sk, msg), True)


def sign_resident(client, seed: int) -> None:
    signing_loop(client, seed, "resident", RESIDENT_KEY_LIFETIME, RESIDENT_ROUNDS)


def keygen_churn(client, seed: int) -> None:
    signing_loop(client, seed, "churn", 1, CHURN_ROUNDS)


def tamper(seed: int, entry: tuple) -> tuple:
    """Leave a pool entry as it is, or corrupt it so that it must be rejected.

    The corrupted part is c~, z, the hints or the message.
    Returns (level, pk, msg, sig, expected verify result).
    """
    g, level, j, m, pk, msg, sig = entry
    r = derive(seed, "tamper", g, level, j, m, n=4)
    if r[0] >= POOL_TAMPER_IN_256:
        return level, pk, msg, sig, True
    p = param_set(level)
    z_off, hint_off = 32, 32 + p.l * codec.z_packed_bytes(p)
    kind = r[1] % 4
    if kind == 2:
        return level, pk, _flip(msg, r[2] % len(msg), r[3]), sig, False
    lo, hi = ((0, z_off), (z_off, hint_off), None, (hint_off, len(sig)))[kind]
    return level, pk, msg, _flip(sig, lo + r[2] * (hi - lo) // 256, r[3]), False


def _flip(data: bytes, pos: int, bits: int) -> bytes:
    out = bytearray(data)
    out[pos] ^= (bits | 1) & 0xFF
    return bytes(out)


def verify_pool(client, seed: int) -> None:
    """Per generation: 24 fresh keys sign a pool, which is then verified round-robin.

    Signing and verifying both cycle through all 24 keys, so expand_a never
    hits. The verification passes never sign.
    Generations spread the keygens and signatures over the whole run.
    """
    for g in client.rounds(POOL_GENERATIONS):
        keys = [(level, j, *client.keygen(level, derive(seed, "pool", "key", g, level, j)))
                for level in LEVELS for j in range(POOL_KEYS_PER_LEVEL)]
        entries = []
        for m in range(POOL_SIGS_PER_KEY):
            for level, j, pk, sk in keys:
                msg = message(seed, "pool", g, level, j, m)
                sig = client.sign(level, sk, msg)
                entries.append(tamper(seed, (g, level, j, m, pk, msg, sig)))
        for _ in range(POOL_VERIFY_PASSES):
            for entry in entries:
                client.verify(*entry)


WORKLOADS = {"sign-resident": sign_resident, "verify-pool": verify_pool,
             "keygen-churn": keygen_churn}
