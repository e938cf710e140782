"""KeyGen / Sign / Verify with a selectable challenge-multiplication backend.

Signing is deterministic by default. The rejection loop follows the classic
structure; a backend is a way to compute c*s1, c*s2 and c*t0 plus the order
in which the z and r0 checks run (`_CHECK_ORDER`). c*s1 and c*s2 are each
computed inside their check, so an attempt that fails its first check never
computes the other, as in the round-3 reference signer:

  ntt           all three products through the NTT (the paper's baseline);
                z check first, then r0
  sparse        each product is one gather of the tau challenge windows
                over all predecoded extended rows, summed in their lanes
                (int8, int16 at level 3, int32 for t0); c*s1 and c*s2 are
                checked as whole vectors (`fused_z`, `fused_r0`); z first
  sparse_fused  the same products with r0 FIRST, then z (restarts are
                cheaper when the more selective check leads)

The products are exact at every level, so all three backends produce
byte-identical signatures, and sparse_fused is the default everywhere.
The r0 check is |LowBits(w) - c*s2| < gamma2 - beta, exact as |c*s2| <= beta;
every backend passes it the LowBits(w) that the w1 decomposition left.

Attempts run in speculative blocks of SIGN_BLOCK[level]. Attempts are
independent until their checks run, so a block draws all its masks into
one int32 array, computes every w = A*y as keygen and verify do,
`intt_values(matvec_hat(A, ntt_values(y)))`, decomposes every w and packs
every w1 at once. The hash, the challenge and the checks then run one
attempt at a time in kappa order, and the first attempt that passes is
signed: the output is the sequential signer's, and a trace lists only the
attempts up to the accepted one. The loop calls its backend's two checks
directly, computes c*t0 only once both pass, and enters a counting scope
only when a trace is given.

The tail of an attempt runs in the round-3 reference signer's order: c*t0,
its check |c*t0| < gamma2, then MakeHint(w0 - c*s2 + c*t0, w1) as
`make_hint(c*t0 - c*s2, w, alpha, low=w0)`. Neither (w - c*s2) mod q nor
its decomposition is formed. The bits are those of the hint of c*t0 on
w - c*s2: the r0 check has passed, so |w0 - c*s2| < gamma2 - beta keeps
w - c*s2 in w's bucket, HighBits(w - c*s2) = HighBits(w) = w1 and
LowBits(w - c*s2) = w0 - c*s2, the q-1 fold of bucket 0 included.

A block makes one `expand_mask` call for its attempts 1.. and one
`decompose` call for them, but attempt 0 gets a call of each on its own:
its mask is the block's last `expand_mask` call and its w the block's
first `decompose` call. The benchmark's tracer pairs a block's last mask,
its first decomposition and the `sample_in_ball` call after them as one
attempt's kernel inputs, so those two calls must hold attempt 0 alone.
"""

import contextlib
import enum
import os
from dataclasses import dataclass, field

import numpy as np

from . import codec, instrumentation
from .keccak import shake256
from .params import N, Q, ParameterSet
from .ring import center, intt_values, matvec_hat, ntt_product, ntt_values
from .rounding import (decompose, hint_weight, make_hint, norm_inf_exceeds,
                       power2round, use_hint)
from .sampling import expand_a, expand_mask, expand_s, sample_in_ball
from .sparse import (encode_challenge, fused_r0, fused_z, r0_check,
                     sparse_mul_branchless_vec, z_check)


# Every level accepts an attempt with probability about 0.2 or more (1/5.1 at
# level 3 in the round-3 analysis), so (1 - 1/5.1)**1000 < 2**-300 bounds the
# chance that a valid key exhausts the limit. The largest mask nonce,
# MAX_SIGN_ATTEMPTS * l - 1 < 7000, stays below its 2-byte ceiling of 65536.
MAX_SIGN_ATTEMPTS = 1000

# Attempts computed together before their checks run, per level. At about
# 4.5 attempts per signature a block amortizes the per-call overhead of the
# mask, w = A*y, decomposition and w1 packing stages; larger blocks waste
# more work on attempts never checked. Level 5 keeps blocks of 2: blocks of
# 3 there raise signing's transient heap enough that glibc trims and
# re-faults it between signatures. In a loop of fresh keys (keygen, sign,
# verify per level) that was about 43 minor page faults per level 5
# signature, against about 1 with blocks of 2; blocks of 4 faulted 24 to
# 101 times per signature at every level.
SIGN_BLOCK = {2: 3, 3: 3, 5: 2}


class SigningAttemptsExceeded(RuntimeError):
    """No attempt within MAX_SIGN_ATTEMPTS passed the checks; nothing is signed."""


class Backend(enum.Enum):
    NTT = "ntt"
    SPARSE = "sparse"
    SPARSE_FUSED = "sparse_fused"


def default_backend(level: int) -> Backend:
    """The backend `sign` uses when none is given: sparse_fused at every level.

    Its lane products are exact at every level (int16 lanes at level 3), and
    the benchmark's backend sweep picks it: the `backend.*.sign_ms.lN`
    records of the newest `BENCH_*.json` hold the measured times.
    """
    return Backend.SPARSE_FUSED


@dataclass
class SignTrace:
    """Optional per-call instrumentation filled in by sign()."""

    decode_calls: int = 0
    restarts: int = 0
    iterations: list = field(default_factory=list)   # executed check names per attempt
    cs1_modmuls: int = 0     # modular multiplications inside c*s1 (0 on byte lanes)
    cs2_modmuls: int = 0     # the same for c*s2
    accepted_z_max: int = 0  # |z|_inf of the signed attempt
    accepted_r0_max: int = 0  # |LowBits(w) - c*s2|_inf of the signed attempt


def keygen(params: ParameterSet, zeta: bytes) -> tuple[bytes, bytes]:
    """Expand a 32-byte seed into an encoded (public, secret) key pair."""
    if len(zeta) != 32:
        raise ValueError("keygen seed must be 32 bytes")
    seed = shake256(zeta, 128)
    rho, rho_prime, key = seed[:32], seed[32:96], seed[96:128]
    A = expand_a(rho, params)
    s1, s2 = expand_s(rho_prime, params)
    t = (intt_values(matvec_hat(A.coeffs, ntt_values(s1))) + s2) % Q
    t1, t0 = power2round(t)
    pk = codec.pk_encode(rho, t1)
    tr = shake256(pk, 32)
    sk = codec.sk_encode(rho, key, tr, s1, s2, t0, params)
    return pk, sk


def sign(params: ParameterSet, sk: bytes, message: bytes,
         backend=None, randomized: bool = False,
         trace: SignTrace | None = None) -> bytes:
    """Produce a signature; loops internally until an attempt is accepted.

    `backend` is a Backend or its value. Raises SigningAttemptsExceeded, and
    returns nothing, if MAX_SIGN_ATTEMPTS attempts all fail; with a valid
    key the odds are below 2**-300.
    """
    backend = default_backend(params.level) if backend is None else Backend(backend)
    dec = codec.sk_decode_extended(sk, params)
    if trace is not None:
        trace.decode_calls += 1

    a_hat = expand_a(dec.rho, params).coeffs.astype(np.float64)
    mu = shake256(dec.tr + message, 64)
    rho_pp = os.urandom(64) if randomized else shake256(dec.key + mu, 64)

    # per-call precomputation; restarts reuse all of it untouched
    ntt = backend is Backend.NTT
    if ntt:
        s1_hat, s2_hat, t0_hat = (ntt_values(ext[:, N:])
                                  for ext in (dec.s1_ext, dec.s2_ext, dec.t0_ext))

    gamma2, alpha, tau = params.gamma2, params.alpha, params.tau
    z_bound, r0_bound = params.gamma1 - params.beta, gamma2 - params.beta
    with instrumentation.counting() if trace is not None else contextlib.nullcontext() as cn:
        for y, w, w0, w1_packed in _speculative_attempts(params, a_hat, rho_pp):
            checks: list[str] = []
            if trace is not None:
                trace.iterations.append(checks)
            c_tilde = shake256(mu + w1_packed, 32)
            c = sample_in_ball(c_tilde, tau)
            if ntt:
                c_hat = ntt_values(c)
            else:
                index = encode_challenge(c, tau)

            for check in _CHECK_ORDER[backend]:
                checks.append(check)
                spent = 0 if cn is None else cn.modmul
                if check == "z":
                    z = (z_check(y, _ntt_cs(c_hat, s1_hat), z_bound) if ntt
                         else fused_z(index, dec.s1_ext, y, z_bound))
                    ok = z.ok
                else:
                    r0 = (r0_check(w0, _ntt_cs(c_hat, s2_hat), gamma2, r0_bound) if ntt
                          else fused_r0(index, dec.s2_ext, w0, gamma2, r0_bound))
                    ok = r0.ok
                if cn is not None:      # z owns the modmuls of c*s1, r0 those of c*s2
                    if check == "z":
                        trace.cs1_modmuls += cn.modmul - spent
                    else:
                        trace.cs2_modmuls += cn.modmul - spent
                if not ok:
                    break
            else:
                ct0 = (_ntt_cs(c_hat, t0_hat) if ntt
                       else sparse_mul_branchless_vec(index, dec.t0_ext, tau))
                checks.append("ct0")
                if not norm_inf_exceeds(ct0, gamma2):
                    h = make_hint(ct0 - r0.cs2, w, alpha, low=w0)
                    checks.append("hint")
                    if hint_weight(h) <= params.omega:
                        if trace is not None:
                            trace.accepted_z_max = int(np.max(np.abs(z.z)))
                            trace.accepted_r0_max = int(np.max(np.abs(w0 - r0.cs2)))
                        return codec.sig_encode(c_tilde, z.z, h, params)

            if trace is not None:
                trace.restarts += 1
    raise SigningAttemptsExceeded(f"no signature after {MAX_SIGN_ATTEMPTS} attempts")


def _speculative_attempts(params, a_hat, rho_pp):
    """Yield (y, w, w0, packed w1) of attempts 0 .. MAX_SIGN_ATTEMPTS-1 in kappa order.

    Each block of SIGN_BLOCK[level] attempts is computed when its first
    attempt is asked for, into one int32 mask block: the masks of attempts
    1.. in one `expand_mask` call, then attempt 0's alone; w = A*y for all
    of them in one chain; (w1, w0) = Decompose(w) of attempt 0 alone, then
    of the others in one call; and one packing of their w1, sliced per
    attempt.
    """
    l, block = params.l, SIGN_BLOCK[params.level]
    for first in range(0, MAX_SIGN_ATTEMPTS, block):
        n = min(block, MAX_SIGN_ATTEMPTS - first)
        ys = np.empty((n, l, N), np.int32)
        if n > 1:
            ys[1:] = expand_mask(rho_pp, (first + 1) * l, params, n - 1).coeffs.reshape(-1, l, N)
        ys[0] = expand_mask(rho_pp, first * l, params).coeffs
        ws = intt_values(matvec_hat(a_hat, ntt_values(ys)))
        w1_bytes, w0s = _packed_high_low(ws, params)
        size = len(w1_bytes) // n
        for i in range(n):
            yield ys[i], ws[i], w0s[i], w1_bytes[i * size:(i + 1) * size]


def _packed_high_low(ws, params):
    """Decompose each w of a block: all their w1 packed at once, and each w0.

    Attempt 0's w is decomposed alone and the others' in one call. The w1
    go into one block array that only the packing reads. It is freed on
    return, before the block's checks run: held through them, it raised
    signing's minor page faults per signature.
    """
    alpha, w1s = params.alpha, np.empty(ws.shape, np.int64)
    w1s[0], w0 = decompose(ws[0], alpha)
    w0s = [w0]
    if len(ws) > 1:
        w1s[1:], rest = decompose(ws[1:], alpha)
        w0s.extend(rest)
    return codec.pack_w1(w1s, params), w0s


_CHECK_ORDER = {
    Backend.NTT: ("z", "r0"),
    Backend.SPARSE: ("z", "r0"),
    Backend.SPARSE_FUSED: ("r0", "z"),
}


def _ntt_cs(c_hat, s_hat):
    """c*s1, c*s2 or c*t0 through the NTT from ntt(c) and ntt(s); centered int64."""
    return center(intt_values(ntt_product(c_hat, s_hat)))


def verify(params: ParameterSet, pk: bytes, message: bytes, sig: bytes) -> bool:
    """Check a signature: True iff `sig` is valid for `message` under `pk`.

    Malformed `pk` or `sig` bytes make verify return False; it never raises
    on them. `message` must be bytes (or bytes-like): a str is a caller
    error and raises TypeError.

    Each verify makes one `ntt_values` call. Under a key whose decoded form
    already holds NTT(t1 * 2^d) it transforms the 1 + l rows of c and z;
    otherwise it transforms c, z and t1 * 2^d together, 1 + l + k rows, and
    stores the t1 rows in the decoded key for the verifies after it. Input
    rejected before the transform stores nothing.
    """
    message = memoryview(message)          # a str raises TypeError here
    try:
        pub = codec.pk_decode(pk, params)
        mu = shake256(pub.tr + message, 64)
        c_tilde, z, h = codec.sig_decode(sig, params)
    except codec.DecodeError:
        return False
    if norm_inf_exceeds(z, params.gamma1 - params.beta):
        return False
    A = expand_a(pub.rho, params)
    c = sample_in_ball(c_tilde, params.tau)[None]
    t1_hat = pub.t1_hat
    if t1_hat is None:                     # c, z and t1 * 2^d, all centered
        rows_hat = ntt_values(np.concatenate((c, z, pub.t1)))
        t1_hat = rows_hat[1 + params.l:]
        pub.hold_t1_hat(t1_hat)            # an int32 copy; this verify uses its own rows
    else:                                  # c and z
        rows_hat = ntt_values(np.concatenate((c, z)))
    c_hat, z_hat = rows_hat[0], rows_hat[1:1 + params.l]
    w_approx = intt_values(matvec_hat(A.coeffs, z_hat) - ntt_product(c_hat, t1_hat))
    w1 = use_hint(h, w_approx, params.alpha)
    return c_tilde == shake256(mu + codec.pack_w1(w1, params), 32)
