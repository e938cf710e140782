import numpy as np
import pytest

from sparsedil import codec, scheme, sparse
from sparsedil.keccak import shake256
from sparsedil.params import LEVELS, N, Q, param_set
from sparsedil.ring import intt_values, ntt_values
from sparsedil.sampling import expand_a, expand_mask, sample_in_ball
from sparsedil.scheme import Backend, Dilithium, SignTrace

BACKENDS = list(Backend)


def test_keygen_deterministic(keypairs):
    for lv in LEVELS:
        p = param_set(lv)
        again = scheme.keygen(p, bytes([lv]) * 32)
        assert again == keypairs[lv]


def test_keygen_lengths(keypairs):
    for lv in LEVELS:
        p = param_set(lv)
        pk, sk = keypairs[lv]
        assert len(pk) == codec.pk_size(p)
        assert len(sk) == codec.sk_size(p)


def test_keygen_seed_length_check():
    with pytest.raises(ValueError, match="32 bytes"):
        scheme.keygen(param_set(2), bytes(31))


def test_t_reconstruction(keypairs):
    # t1 * 2^d + t0 == A s1 + s2 over Z_q
    for lv in LEVELS:
        p = param_set(lv)
        pk, sk = keypairs[lv]
        dec = codec.sk_decode_extended(sk, p)
        _, t1 = codec.pk_decode(pk, p)
        A = expand_a(dec.rho, p)
        s1 = dec.s1_ext[:, N:].astype(np.int64)
        s2 = dec.s2_ext[:, N:].astype(np.int64)
        t = (intt_values((A.coeffs.astype(np.int64)
                          * ntt_values(s1)[None, :, :]).sum(axis=1) % Q) + s2) % Q
        assert np.array_equal((t1 * (1 << p.d) + dec.t0) % Q, t)


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.value)
def test_sign_verify_roundtrip(keypairs, params, backend):
    pk, sk = keypairs[params.level]
    for i in range(30):
        msg = b"message %d" % i
        sig = scheme.sign(params, sk, msg, backend=backend)
        assert len(sig) == codec.sig_size(params)
        assert scheme.verify(params, pk, msg, sig)


def test_cross_backend_signatures_identical(keypairs, params):
    pk, sk = keypairs[params.level]
    for i in range(30):
        msg = b"equal %d" % i
        sigs = {b: scheme.sign(params, sk, msg, backend=b) for b in BACKENDS}
        assert len(set(sigs.values())) == 1, f"msg {i}"


def test_deterministic_signing(keypairs, params):
    pk, sk = keypairs[params.level]
    assert scheme.sign(params, sk, b"x") == scheme.sign(params, sk, b"x")


def test_randomized_signing_differs_but_verifies(keypairs):
    p = param_set(2)
    pk, sk = keypairs[2]
    a = scheme.sign(p, sk, b"r", randomized=True)
    b = scheme.sign(p, sk, b"r", randomized=True)
    assert a != b
    assert scheme.verify(p, pk, b"r", a) and scheme.verify(p, pk, b"r", b)


def test_flipped_message_bit_rejected(keypairs, params):
    pk, sk = keypairs[params.level]
    msg = bytearray(b"the quick brown fox")
    sig = scheme.sign(params, sk, bytes(msg))
    rng = np.random.default_rng(params.level)
    for _ in range(20):
        i = int(rng.integers(0, len(msg) * 8))
        msg[i // 8] ^= 1 << (i % 8)
        assert not scheme.verify(params, pk, bytes(msg), sig)
        msg[i // 8] ^= 1 << (i % 8)


def test_flipped_signature_bit_rejected(keypairs, params):
    pk, sk = keypairs[params.level]
    sig = bytearray(scheme.sign(params, sk, b"target"))
    rng = np.random.default_rng(params.level + 10)
    for _ in range(20):
        i = int(rng.integers(0, len(sig) * 8))
        sig[i // 8] ^= 1 << (i % 8)
        assert not scheme.verify(params, pk, b"target", bytes(sig))
        sig[i // 8] ^= 1 << (i % 8)


def test_real_signature_codec_roundtrip(keypairs, params):
    pk, sk = keypairs[params.level]
    for i in range(50):
        sig = scheme.sign(params, sk, b"codec %d" % i)
        c_tilde, z, h = codec.sig_decode(sig, params)
        assert codec.sig_encode(c_tilde, z, h, params) == sig


def test_truncated_signature_rejected(keypairs):
    p = param_set(2)
    pk, sk = keypairs[2]
    sig = scheme.sign(p, sk, b"m")
    assert not scheme.verify(p, pk, b"m", sig[:-1])
    assert not scheme.verify(p, pk, b"m", sig + b"\x00")


def test_wrong_key_rejected(keypairs):
    p = param_set(2)
    pk, sk = keypairs[2]
    pk2, _ = scheme.keygen(p, b"\xaa" * 32)
    sig = scheme.sign(p, sk, b"m")
    assert not scheme.verify(p, pk2, b"m", sig)


def _sign_with_restarts(params, sk, backend, min_restarts=1, tries=200):
    """Find a message whose signing restarts at least once; return its trace."""
    for i in range(tries):
        tr = SignTrace()
        msg = b"restart search %d" % i
        sig = scheme.sign(params, sk, msg, backend=backend, trace=tr)
        if tr.restarts >= min_restarts:
            return msg, sig, tr
    raise AssertionError("no restarting message found")


def test_decode_once_per_sign_despite_restarts(keypairs, params):
    pk, sk = keypairs[params.level]
    _, _, tr = _sign_with_restarts(params, sk, Backend.SPARSE_FUSED)
    assert tr.decode_calls == 1
    assert tr.restarts >= 1
    assert len(tr.iterations) == tr.restarts + 1


def test_sparse_fused_transforms_challenge_once(keypairs, monkeypatch):
    # ntt(c) is needed only for c*t0, so attempts rejected by z or r0 skip it
    p = param_set(2)
    _, sk = keypairs[2]
    challenge_ntts = []
    real = scheme.ntt_values

    def counting_ntt(a):
        if np.ndim(a) == 1:
            challenge_ntts.append(a)
        return real(a)

    monkeypatch.setattr(scheme, "ntt_values", counting_ntt)
    restarted = False
    for i in range(8):
        challenge_ntts.clear()
        tr = SignTrace()
        scheme.sign(p, sk, b"lazy ntt %d" % i, backend=Backend.SPARSE_FUSED, trace=tr)
        assert len(challenge_ntts) == sum("ct0" in checks for checks in tr.iterations)
        restarted |= tr.restarts > 0 and len(challenge_ntts) == 1
    assert restarted


def test_accepted_iteration_bounds(keypairs, params):
    pk, sk = keypairs[params.level]
    _, _, tr = _sign_with_restarts(params, sk, Backend.NTT)
    assert tr.accepted_z_max < params.gamma1 - params.beta
    assert tr.accepted_r0_max < params.gamma2 - params.beta


def test_check_order_per_backend(keypairs):
    p = param_set(2)
    pk, sk = keypairs[2]
    for backend, first in ((Backend.NTT, "z"), (Backend.SPARSE, "z"),
                           (Backend.SPARSE_FUSED, "r0")):
        tr = SignTrace()
        scheme.sign(p, sk, b"order", backend=backend, trace=tr)
        for checks in tr.iterations:
            assert checks[0] == first
        accepted = tr.iterations[-1]
        assert accepted[:2] == [first, "z" if first == "r0" else "r0"]
        assert accepted[2:] == ["ct0", "hint"]


def test_sparse_backends_use_no_modular_multiplications(keypairs, params):
    pk, sk = keypairs[params.level]
    for backend in (Backend.SPARSE, Backend.SPARSE_FUSED):
        tr = SignTrace()
        scheme.sign(params, sk, b"count", backend=backend, trace=tr)
        assert tr.cs1_modmuls == 0 and tr.cs2_modmuls == 0, backend


def test_ntt_backend_counts_nlogn_multiplications(keypairs, params):
    pk, sk = keypairs[params.level]
    tr = SignTrace()
    scheme.sign(params, sk, b"count", backend=Backend.NTT, trace=tr)
    attempts = len(tr.iterations)
    # per attempt: l (or k) pointwise products plus inverse transforms
    per_poly = N + (128 * 8 + N)
    assert tr.cs1_modmuls >= attempts * params.l * per_poly
    assert tr.cs2_modmuls >= attempts * params.k * per_poly


def test_fused_r0_failure_skips_z(keypairs):
    p = param_set(2)
    pk, sk = keypairs[2]
    _, _, tr = _sign_with_restarts(p, sk, Backend.SPARSE_FUSED)
    rejected = [c for c in tr.iterations if c and c[-1] == "r0" and len(c) == 1]
    assert rejected, "expected at least one r0-first rejection"


def _recompute_attempt(params, sk, msg, attempt):
    """Independent reconstruction of one attempt's y, w, c via the oracles."""
    dec = codec.sk_decode_extended(sk, params)
    A = expand_a(dec.rho, params)
    mu = shake256(dec.tr + msg, 64)
    rho_pp = shake256(dec.key + mu, 64)
    y = expand_mask(rho_pp, attempt * params.l, params).coeffs.astype(np.int64)
    w = intt_values((A.coeffs.astype(np.int64)
                     * ntt_values(y)[None, :, :]).sum(axis=1) % Q)
    from sparsedil.rounding import decompose
    w1 = decompose(w, params.alpha)[0]
    c_tilde = shake256(mu + codec.pack_w1(w1, params), 32)
    c = sample_in_ball(c_tilde, params.tau)
    return dec, y, w, c


def test_both_checks_failing_runs_only_r0(keypairs):
    from sparsedil.ring import Poly
    from sparsedil.rounding import decompose, norm_inf_exceeds
    p = param_set(2)
    pk, sk = keypairs[2]
    found = False
    for i in range(300):
        msg = b"both-fail probe %d" % i
        tr = SignTrace()
        scheme.sign(p, sk, msg, backend=Backend.SPARSE_FUSED, trace=tr)
        for attempt, checks in enumerate(tr.iterations):
            if checks != ["r0"]:
                continue
            # r0 failed and z never ran; recompute z's verdict independently
            dec, y, w, c = _recompute_attempt(p, sk, msg, attempt)
            cs1 = np.stack([sparse.sparse_mul_indexed(c, Poly(dec.s1_ext[j, N:].astype(np.int64) % Q)).coeffs
                            for j in range(p.l)])
            cs1 = np.where(cs1 > Q // 2, cs1 - Q, cs1)
            z_fails = norm_inf_exceeds(y + cs1, p.gamma1 - p.beta)
            if z_fails:
                found = True     # both would fail, yet only r0 executed
                break
        if found:
            break
    assert found, "no attempt found where both checks fail"


def test_level3_wrap_check_clean(keypairs):
    p = param_set(3)
    pk, sk = keypairs[3]
    tr = SignTrace()
    sig = scheme.sign(p, sk, b"wrapwatch", backend=Backend.SPARSE, trace=tr,
                      debug_wrap_check=True)
    assert tr.wrap_events == 0
    assert scheme.verify(p, pk, b"wrapwatch", sig)


def test_accepted_products_match_oracle(keypairs):
    from sparsedil.ring import Poly
    p = param_set(5)
    pk, sk = keypairs[5]
    tr = SignTrace()
    scheme.sign(p, sk, b"products", backend=Backend.SPARSE_FUSED, trace=tr)
    dec, y, w, c = _recompute_attempt(p, sk, b"products", len(tr.iterations) - 1)
    want_cs1 = np.stack([sparse.sparse_mul_indexed(c, Poly(dec.s1_ext[j, N:].astype(np.int64) % Q)).coeffs
                         for j in range(p.l)])
    want_cs1 = np.where(want_cs1 > Q // 2, want_cs1 - Q, want_cs1)
    assert np.array_equal(tr.accepted_cs1, want_cs1)


def test_backend_coercion_and_default():
    assert scheme.default_backend(2) is Backend.SPARSE_FUSED
    assert scheme.default_backend(3) is Backend.NTT
    assert scheme.default_backend(5) is Backend.SPARSE_FUSED
    assert scheme._coerce_backend("sparse-fused") is Backend.SPARSE_FUSED
    with pytest.raises(ValueError):
        scheme._coerce_backend("fft")


def test_dilithium_wrapper_roundtrip():
    d = Dilithium(2)
    pk, sk = d.keygen(seed=bytes(32))
    sig = d.sign(sk, b"wrapped")
    assert d.verify(pk, b"wrapped", sig)
    assert d.backend is Backend.SPARSE_FUSED
    assert Dilithium(3).backend is Backend.NTT
