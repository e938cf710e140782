"""KeyGen / Sign / Verify with a selectable challenge-multiplication backend.

Signing is deterministic by default. The rejection loop follows the classic
structure; the backends differ only in how c*s1 and c*s2 are produced and
when the two norm checks run:

  ntt           c*s1, c*s2 through the NTT; z check first, then r0
  sparse        one gather of the tau challenge windows per product on the
                predecoded extended secrets, summed in their lanes (int8,
                int16 at level 3); same check order as ntt
  sparse_fused  the same gather, one polynomial at a time, with the check
                on each polynomial right after its product: r0 over c*s2
                runs FIRST and stops at the first failing polynomial, then
                z over c*s1 (restarts are cheaper when the more selective
                check leads)

c*t0 always goes through the NTT: t0 coefficients do not fit signed bytes.
The byte-lane backends transform c only once z and r0 have accepted.
The lane products are exact at every level, so all three backends produce
byte-identical signatures, and sparse_fused is the default everywhere.
"""

import enum
import os
from dataclasses import dataclass, field

import numpy as np

from . import codec, instrumentation
from .keccak import shake256
from .params import N, Q, ParameterSet, param_set
from .ring import center, intt_values, ntt_values
from .rounding import (decompose, hint_weight, lowbits_exceeds, make_hint,
                       norm_inf_exceeds, power2round, use_hint)
from .sampling import expand_a, expand_mask, expand_s, sample_in_ball
from .sparse import encode_challenge, fused_r0, fused_z, sparse_mul_branchless_vec


class Backend(enum.Enum):
    NTT = "ntt"
    SPARSE = "sparse"
    SPARSE_FUSED = "sparse_fused"


def default_backend(level: int) -> Backend:
    """The backend `sign` uses when none is given: sparse_fused at every level.

    Its lane products are exact at every level (int16 lanes at level 3),
    and in the benchmark's backend sweep it signs as fast as sparse and
    about a third faster than ntt at each level.
    """
    return Backend.SPARSE_FUSED


def _coerce_backend(backend) -> Backend:
    if isinstance(backend, Backend):
        return backend
    return Backend(str(backend).replace("-", "_"))


@dataclass
class SignTrace:
    """Optional per-call instrumentation filled in by sign()."""

    decode_calls: int = 0
    restarts: int = 0
    iterations: list = field(default_factory=list)   # executed check names per attempt
    cs1_modmuls: int = 0
    cs2_modmuls: int = 0
    accepted_z_max: int = 0
    accepted_r0_max: int = 0
    accepted_cs1: np.ndarray | None = None
    accepted_cs2: np.ndarray | None = None


def _matvec_intt(A_coeffs: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
    """inv_ntt(A * v_hat) for an NTT-domain matrix and vector, rows in [0, q)."""
    prod = A_coeffs.astype(np.int64) * v_hat[None, :, :]
    instrumentation.add_modmul(prod.size)
    return intt_values(prod.sum(axis=1) % Q)


def keygen(params: ParameterSet, zeta: bytes) -> tuple[bytes, bytes]:
    """Expand a 32-byte seed into an encoded (public, secret) key pair."""
    if len(zeta) != 32:
        raise ValueError("keygen seed must be 32 bytes")
    seed = shake256(zeta, 128)
    rho, rho_prime, key = seed[:32], seed[32:96], seed[96:128]
    A = expand_a(rho, params)
    s1, s2 = expand_s(rho_prime, params)
    t = (_matvec_intt(A.coeffs, ntt_values(s1)) + s2) % Q
    t1, t0 = power2round(t)
    pk = codec.pk_encode(rho, t1, params)
    tr = shake256(pk, 32)
    sk = codec.sk_encode(rho, key, tr, s1, s2, t0, params)
    return pk, sk


def sign(params: ParameterSet, sk: bytes, message: bytes,
         backend=None, randomized: bool = False,
         trace: SignTrace | None = None) -> bytes:
    """Produce a signature; loops internally until an attempt is accepted."""
    backend = _coerce_backend(backend if backend is not None else default_backend(params.level))
    dec = codec.sk_decode_extended(sk, params)
    if trace is not None:
        trace.decode_calls += 1

    A = expand_a(dec.rho, params)
    mu = shake256(dec.tr + message, 64)
    rho_pp = os.urandom(64) if randomized else shake256(dec.key + mu, 64)

    # per-call precomputation; restarts reuse all of it untouched
    t0_hat = ntt_values(dec.t0)
    s1_hat = s2_hat = None
    ntt_products = backend is Backend.NTT
    if ntt_products:
        s1_hat = ntt_values(dec.s1_ext[:, N:])
        s2_hat = ntt_values(dec.s2_ext[:, N:])

    gamma2, alpha = params.gamma2, params.alpha
    kappa = 0
    while True:
        checks: list[str] = []
        y = expand_mask(rho_pp, kappa, params).coeffs.astype(np.int64)
        kappa += params.l
        w = _matvec_intt(A.coeffs, ntt_values(y))
        w1 = decompose(w, alpha)[0]
        c_tilde = shake256(mu + codec.pack_w1(w1, params), 32)
        c = sample_in_ball(c_tilde, params.tau)
        # byte-lane backends need ntt(c) only for c*t0, after z and r0 accept
        c_hat = ntt_values(c) if ntt_products else None

        ok, z, cs2 = _attempt(params, backend, dec, y, w, c, c_hat,
                              s1_hat, s2_hat, checks, trace)
        if ok:
            if c_hat is None:
                c_hat = ntt_values(c)
            # c*t0 stays on the NTT path (t0 exceeds the 8-bit range)
            ct0 = center(intt_values(c_hat[None, :] * t0_hat % Q))
            instrumentation.add_modmul(t0_hat.size)
            h = make_hint(-ct0, (w - cs2 + ct0) % Q, alpha)
            checks.append("ct0")
            if not norm_inf_exceeds(ct0, gamma2):
                checks.append("hint")
                if hint_weight(h) <= params.omega:
                    if trace is not None:
                        trace.iterations.append(checks)
                        trace.accepted_z_max = int(np.max(np.abs(z)))
                        r0 = decompose((w - cs2) % Q, alpha)[1]
                        trace.accepted_r0_max = int(np.max(np.abs(r0)))
                        trace.accepted_cs1 = (z - y).copy()
                        trace.accepted_cs2 = np.asarray(cs2).copy()
                    return codec.sig_encode(c_tilde, z, h, params)

        if trace is not None:
            trace.iterations.append(checks)
            trace.restarts += 1


def _attempt(params, backend, dec, y, w, c, c_hat, s1_hat, s2_hat,
             checks, trace):
    """One attempt's z / r0 checks. Returns (accepted, z, cs2)."""
    gamma1, gamma2, beta, alpha = params.gamma1, params.gamma2, params.beta, params.alpha

    if backend is Backend.SPARSE_FUSED:
        index = encode_challenge(c, params.tau)
        checks.append("r0")
        with instrumentation.counting() as cn:
            res_r0 = fused_r0(index, dec.s2_ext, w, gamma2, gamma2 - beta)
        if trace is not None:
            trace.cs2_modmuls += cn.modmul
        if not res_r0.ok:
            return False, None, None
        checks.append("z")
        with instrumentation.counting() as cn:
            res_z = fused_z(index, dec.s1_ext, y, gamma1 - beta)
        if trace is not None:
            trace.cs1_modmuls += cn.modmul
        if res_z.rejected:
            return False, None, None
        return True, res_z.z, res_r0.cs2

    if backend is Backend.SPARSE:
        index = encode_challenge(c, params.tau)
        with instrumentation.counting() as cn1:
            cs1 = sparse_mul_branchless_vec(index, dec.s1_ext, params.tau).astype(np.int64)
        with instrumentation.counting() as cn2:
            cs2 = sparse_mul_branchless_vec(index, dec.s2_ext, params.tau).astype(np.int64)
        if trace is not None:
            trace.cs1_modmuls += cn1.modmul
            trace.cs2_modmuls += cn2.modmul
    else:
        with instrumentation.counting() as cn1:
            cs1 = center(intt_values(c_hat[None, :] * s1_hat % Q))
            instrumentation.add_modmul(s1_hat.size)
        with instrumentation.counting() as cn2:
            cs2 = center(intt_values(c_hat[None, :] * s2_hat % Q))
            instrumentation.add_modmul(s2_hat.size)
        if trace is not None:
            trace.cs1_modmuls += cn1.modmul
            trace.cs2_modmuls += cn2.modmul

    z = y + cs1
    checks.append("z")
    if norm_inf_exceeds(z, gamma1 - beta):
        return False, None, None
    checks.append("r0")
    if lowbits_exceeds((w - cs2) % Q, alpha, gamma2 - beta).any():
        return False, None, None
    return True, z, cs2


def verify(params: ParameterSet, pk: bytes, message: bytes, sig: bytes) -> bool:
    """Check a signature; malformed inputs simply fail."""
    try:
        rho, t1 = codec.pk_decode(pk, params)
        c_tilde, z, h = codec.sig_decode(sig, params)
    except codec.DecodeError:
        return False
    if norm_inf_exceeds(z, params.gamma1 - params.beta):
        return False
    A = expand_a(rho, params)
    mu = shake256(shake256(pk, 32) + message, 64)
    c = sample_in_ball(c_tilde, params.tau)
    az = (A.coeffs.astype(np.int64) * ntt_values(z)[None, :, :]).sum(axis=1) % Q
    ct1 = ntt_values(c)[None, :] * ntt_values(t1.astype(np.int64) << params.d) % Q
    w_approx = intt_values((az - ct1) % Q)
    w1 = use_hint(h, w_approx, params.alpha)
    return c_tilde == shake256(mu + codec.pack_w1(w1, params), 32)


class Dilithium:
    """Convenience wrapper binding a security level and default backend."""

    def __init__(self, level: int, backend=None):
        self.params = param_set(level)
        self.backend = _coerce_backend(backend) if backend is not None else default_backend(level)

    def keygen(self, seed: bytes | None = None) -> tuple[bytes, bytes]:
        return keygen(self.params, seed if seed is not None else os.urandom(32))

    def sign(self, sk: bytes, message: bytes, backend=None, **kw) -> bytes:
        return sign(self.params, sk, message,
                    backend=backend if backend is not None else self.backend, **kw)

    def verify(self, pk: bytes, message: bytes, sig: bytes) -> bool:
        return verify(self.params, pk, message, sig)
