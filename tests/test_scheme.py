import dataclasses
import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import sparsedil
from sparsedil import codec, instrumentation, ring, rounding, scheme, sparse
from sparsedil.keccak import shake256
from sparsedil.params import D, LEVELS, N, Q, param_set
from sparsedil.ring import intt_values, ntt_values
from sparsedil.sampling import expand_a, expand_mask, sample_in_ball
from sparsedil.scheme import Backend, SignTrace

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
        t1 = codec.pk_decode(pk, p).t1         # centered t1 * 2^d
        A = expand_a(dec.rho, p)
        s1 = dec.s1_ext[:, N:].astype(np.int64)
        s2 = dec.s2_ext[:, N:].astype(np.int64)
        t = (intt_values((A.coeffs.astype(np.int64)
                          * ntt_values(s1)[None, :, :]).sum(axis=1) % Q) + s2) % Q
        assert np.array_equal((t1.astype(np.int64) + dec.t0_ext[:, N:]) % Q, t)


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


# sha256(pk + sk + sig) for keygen(bytes([level]) * 32) and a default-backend
# signature of b"sparsedil KAT". Pinned, so a transform that is wrong but still
# invertible (every backend and verify share it) cannot pass unnoticed.
KAT_DIGESTS = {
    2: "c98ad13cc5cf2e6b4bf5ee87d406d1f2dae19531367cc002f89a8609cf01d3fa",
    3: "2b0cf4962c82bff727229a44c6bc19bd874ecc0bf9e02b31b5710f4287b5ffc8",
    5: "e4d9fb95de3f3e7bad2d9c55a50f4f0d66cd9837e0a78b1361fd523364811475",
}


def test_known_answer_digests(keypairs, params):
    pk, sk = keypairs[params.level]
    sig = scheme.sign(params, sk, b"sparsedil KAT")
    assert hashlib.sha256(pk + sk + sig).hexdigest() == KAT_DIGESTS[params.level]


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


def test_every_hint_byte_change_fails_closed(keypairs, params):
    # every other value of every byte of the hint section, then a truncated
    # and an extended signature: verify returns False and never raises
    pk, sk = keypairs[params.level]
    sig = scheme.sign(params, sk, b"hints")
    assert scheme.verify(params, pk, b"hints", sig)
    bad = bytearray(sig)
    for i in range(len(sig) - params.omega - params.k, len(sig)):
        for value in range(256):
            if value != sig[i]:
                bad[i] = value
                assert scheme.verify(params, pk, b"hints", bytes(bad)) is False, (i, value)
        bad[i] = sig[i]
    assert scheme.verify(params, pk, b"hints", sig[:-1]) is False
    assert scheme.verify(params, pk, b"hints", sig + b"\x00") is False


def test_wrong_key_rejected(keypairs):
    p = param_set(2)
    pk, sk = keypairs[2]
    pk2, _ = scheme.keygen(p, b"\xaa" * 32)
    sig = scheme.sign(p, sk, b"m")
    assert not scheme.verify(p, pk2, b"m", sig)


def _corrupted(rng, data, n):
    """n malformed copies of data: a flipped byte, a truncation, an extension, noise."""
    for i in range(n):
        kind = i % 4
        if kind == 0:
            out = bytearray(data)
            out[rng.integers(len(out))] ^= int(rng.integers(1, 256))
            yield bytes(out)
        elif kind == 1:
            yield data[:rng.integers(len(data))]
        elif kind == 2:
            yield data + rng.bytes(int(rng.integers(1, 64)))
        else:
            yield rng.bytes(len(data))


def test_verify_fails_closed(keypairs, params):
    pk, sk = keypairs[params.level]
    msg = b"fail closed"
    sig = scheme.sign(params, sk, msg)
    rng = np.random.default_rng(params.level + 20)
    for bad_pk in _corrupted(rng, pk, 60):
        assert scheme.verify(params, bad_pk, msg, sig) is False
    for bad_sig in _corrupted(rng, sig, 100):
        assert scheme.verify(params, pk, msg, bad_sig) is False


def test_verify_str_message_is_caller_error(keypairs):
    p = param_set(2)
    pk, sk = keypairs[2]
    sig = scheme.sign(p, sk, b"text")
    assert scheme.verify(p, pk, bytearray(b"text"), sig)
    with pytest.raises(TypeError):
        scheme.verify(p, pk, "text", sig)
    with pytest.raises(TypeError):       # before the signature is even decoded
        scheme.verify(p, pk, "text", sig[:-1])


def test_verify_hashes_a_resident_key_once(keypairs, params):
    # tr = H(pk, 32) comes from the memoized pk_decode: a verify under a
    # resident key hashes only mu, the recomputed c_tilde and c's stream
    pk, sk = keypairs[params.level]
    sig = scheme.sign(params, sk, b"tr")
    codec.pk_decode.cache_clear()
    counts = []
    for _ in range(2):
        with instrumentation.counting() as cn:
            assert scheme.verify(params, pk, b"tr", sig)
        counts.append(cn.xof_bytes)
    assert counts[0] - counts[1] == 32
    assert codec.pk_decode(pk, params).tr == shake256(pk, 32)


def _tampered(params, msg, sig, rng):
    """Seeded single-byte flips of c_tilde, z, the hint section and the message."""
    zend = 32 + params.l * codec.z_packed_bytes(params)
    out = []
    for lo, hi in ((0, 32), (32, zend), (zend, len(sig))):
        bad = bytearray(sig)
        bad[int(rng.integers(lo, hi))] ^= int(rng.integers(1, 256))
        out.append((msg, bytes(bad)))
    bad = bytearray(msg)
    bad[int(rng.integers(len(msg)))] ^= int(rng.integers(1, 256))
    return out + [(bytes(bad), sig)]


def _verify_cases(params, sk, n, seed):
    """n valid (message, signature) pairs, each followed by its four tampered ones."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        msg = b"residency %d" % i
        sig = scheme.sign(params, sk, msg)
        cases += [(msg, sig)] + _tampered(params, msg, sig, rng)
    return cases


def _t1_hat(pk, params):
    return ntt_values(codec.pk_decode(pk, params).t1)      # t1 * 2^d


def test_verdicts_do_not_depend_on_key_residency(keypairs, params):
    pk, sk = keypairs[params.level]
    cases = _verify_cases(params, sk, 3, params.level)
    expected = [True, False, False, False, False] * 3

    codec.pk_decode.cache_clear()
    assert scheme.verify(params, pk, *cases[0])             # the key now holds its rows
    resident = [scheme.verify(params, pk, msg, sig) for msg, sig in cases]
    cleared = []
    for msg, sig in cases:
        codec.pk_decode.cache_clear()
        cleared.append(scheme.verify(params, pk, msg, sig))
    assert resident == cleared == expected

    # a tampered signature as the first verify under a fresh key: whatever it
    # stores is NTT(t1 * 2^d), so the valid signature after it still verifies
    want = _t1_hat(pk, params)
    for i, (msg, sig) in enumerate(cases):
        if expected[i]:
            valid = (msg, sig)
            continue
        codec.pk_decode.cache_clear()
        assert scheme.verify(params, pk, msg, sig) is False
        assert scheme.verify(params, pk, *valid) is True
        assert np.array_equal(codec.pk_decode(pk, params).t1_hat, want)


def test_resident_key_verify_transforms_only_c_and_z(keypairs, params, monkeypatch):
    # one ntt_values call per verify: c, z and t1 * 2^d on the first verify
    # under a key, then only c and z; input rejected before it stores nothing
    pk, sk = keypairs[params.level]
    sig = scheme.sign(params, sk, b"rows")
    zend = 32 + params.l * codec.z_packed_bytes(params)
    too_long_z = sig[:32] + bytes(zend - 32) + sig[zend:]   # every z is gamma1
    calls = []
    real = ring.ntt_values

    def watched(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(scheme, "ntt_values", watched)
    codec.pk_decode.cache_clear()
    for bad in (sig[:-1], too_long_z):
        assert not scheme.verify(params, pk, b"rows", bad)
    assert calls == [] and codec.pk_decode(pk, params).t1_hat is None
    for _ in range(2):
        assert scheme.verify(params, pk, b"rows", sig)
    assert calls == [(1 + params.l + params.k, N), (1 + params.l, N)]
    held = codec.pk_decode(pk, params).t1_hat
    assert held.dtype == np.int32 and not held.flags.writeable
    assert np.array_equal(held, _t1_hat(pk, params))


def test_threads_verifying_under_a_fresh_key_verify_as_one_thread(keypairs, monkeypatch):
    p = param_set(3)
    pk, sk = keypairs[3]
    cases = _verify_cases(p, sk, 2, 33)
    serial = [scheme.verify(p, pk, msg, sig) for msg, sig in cases]
    stored = []
    real = codec.DecodedPublic.hold_t1_hat

    def watched(self, rows):
        held = real(self, rows)
        stored.append((self, held))
        return held

    monkeypatch.setattr(codec.DecodedPublic, "hold_t1_hat", watched)
    codec.pk_decode.cache_clear()
    # three threads, each verifying every case in its own order
    orders = [np.random.default_rng(i).permutation(len(cases)) for i in range(3)]
    start = threading.Barrier(len(orders))

    def verdicts(order):
        start.wait(timeout=60)
        return [scheme.verify(p, pk, *cases[i]) for i in order]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(orders)) as pool:
            futures = [pool.submit(verdicts, order) for order in orders]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    assert results == [[serial[i] for i in order] for order in orders]
    # misses are serialized: the key is decoded once, into one DecodedPublic,
    # whose holder is filled once with NTT(t1 * 2^d)
    assert codec.pk_decode.cache_info().misses == 1
    pub, held = stored[0]
    assert all(other is pub and rows is held for other, rows in stored)
    assert codec.pk_decode(pk, p) is pub and pub.t1_hat is held
    assert np.array_equal(held, _t1_hat(pk, p))


@pytest.mark.parametrize("op", ["keygen", "sign", "verify"])
def test_default_operations_make_no_center_call(keypairs, params, op, monkeypatch):
    # every operand the default path transforms or norm-checks is centered
    # already: c, the masks, s1, t1 * 2^d and z enter the NTT as they are
    pk, sk = keypairs[params.level]
    sig = scheme.sign(params, sk, b"no center")
    calls = []
    real = ring.center

    def counted(values):
        calls.append(np.shape(values))
        return real(values)

    for module in (ring, codec, scheme):
        monkeypatch.setattr(module, "center", counted)
    for i in range(3):
        if op == "keygen":
            scheme.keygen(params, bytes([i, 7]) * 16)
        elif op == "sign":
            scheme.sign(params, sk, b"no center %d" % i)
        else:
            assert scheme.verify(params, pk, b"no center", sig)
    assert calls == []


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.value)
def test_signer_makes_no_decompose_call_in_sparse(keypairs, params, backend, monkeypatch):
    # the r0 check reads the LowBits(w) left by the w1 decomposition, so
    # sparse never decomposes w again (every backend's r0 check is sparse's)
    _, sk = keypairs[params.level]
    calls = []
    real = sparse.decompose

    def counted(r, alpha):
        calls.append(np.shape(r))
        return real(r, alpha)

    monkeypatch.setattr(sparse, "decompose", counted)
    tr = SignTrace()
    for i in range(3):
        scheme.sign(params, sk, b"no decompose %d" % i, backend=backend, trace=tr)
    assert sum("r0" in checks for checks in tr.iterations) > 3
    assert calls == []


def test_accepted_r0_max_is_lowbits_of_w_minus_cs2(keypairs, params):
    # w - c*s2 = A*z - c*t, rebuilt from the signature and both keys
    pk, sk = keypairs[params.level]
    pub = codec.pk_decode(pk, params)
    rho, t1 = pub.rho, pub.t1
    t = t1.astype(np.int64) + codec.sk_decode_extended(sk, params).t0_ext[:, N:]
    a64 = expand_a(rho, params).coeffs.astype(np.int64)
    t_hat = ntt_values(t)
    for i in range(4):
        tr = SignTrace()
        sig = scheme.sign(params, sk, b"r0 max %d" % i, trace=tr)
        c_tilde, z, _ = codec.sig_decode(sig, params)
        c_hat = ntt_values(sample_in_ball(c_tilde, params.tau))
        w_cs2 = intt_values(((a64 * ntt_values(z)).sum(axis=1) - c_hat * t_hat) % Q)
        r0 = rounding.decompose(w_cs2, params.alpha)[1]
        assert tr.accepted_r0_max == int(np.abs(r0).max()) < params.gamma2 - params.beta


def test_signer_hint_from_lowbits_of_w_equals_hint_of_w_minus_cs2(params):
    # constructed attempts that pass the r0 and c*t0 checks: w on bucket
    # edges and centres (the q-1 fold included), c*s2 at -beta and +beta,
    # c*t0 near 0, +-gamma2 and at the ties LowBits(w) - c*s2 + c*t0 == -gamma2
    alpha, gamma2, beta = params.alpha, params.gamma2, params.beta
    lanes = np.int16 if params.level == 3 else np.int8
    edges = np.arange(0, Q + alpha, alpha)[:, None] + [-gamma2, -gamma2 + 2 * beta, 0,
                                                       gamma2 - 2 * beta, gamma2]
    w = np.unique((edges.reshape(-1, 1) + np.arange(-3, 4)) % Q)
    w1, w0 = rounding.decompose(w, alpha)
    olds, news = [], []
    for cs2 in (-beta, beta):
        passed = np.abs(w0 - cs2) < gamma2 - beta
        wp, w0p = w[passed], w0[passed]
        ct0s = [np.full_like(wp, v) for v in (0, 1, -1, gamma2 - 1, -gamma2 + 1)]
        tied = np.clip(-gamma2 - (w0p - cs2), -gamma2 + 1, gamma2 - 1)
        ct0s.append(tied)
        for ct0 in ct0s:
            ct0 = ct0.astype(np.int32)
            cs2_v = np.full(wp.shape, cs2, lanes)
            news.append(rounding.make_hint(ct0 - cs2_v, wp, alpha, low=w0p))
            olds.append(rounding.make_hint(ct0, (wp - cs2_v) % Q, alpha))
        # ties in the q-1 fold, where HighBits(w) is 0, and outside bucket 0
        tie = w0p - cs2 + tied == -gamma2
        assert np.any(tie & (wp >= Q - gamma2)) and np.any(tie & (w1[passed] != 0))
    assert np.array_equal(np.concatenate(news), np.concatenate(olds))
    assert np.concatenate(news).any()


# Mean attempts per signature in the round-3 analysis
ROUND3_ATTEMPTS = {2: 4.25, 3: 5.1, 5: 3.85}


def test_mean_attempts_per_signature_matches_round3(params):
    # attempts are geometric with p = 1 / mean: over n signatures the mean
    # has standard error sqrt((1 - p) / p**2 / n); fixed keys and messages
    attempts = []
    for key in range(6):
        _, sk = scheme.keygen(params, bytes([key, params.level]) * 16)
        for i in range(100):
            tr = SignTrace()
            scheme.sign(params, sk, b"attempts %d" % i, trace=tr)
            attempts.append(tr.restarts + 1)
    expected = ROUND3_ATTEMPTS[params.level]
    p = 1 / expected
    stderr = np.sqrt((1 - p) / p**2 / len(attempts))
    assert abs(np.mean(attempts) - expected) < 4 * stderr, (np.mean(attempts), expected, stderr)


def test_byte_like_keys_sign_and_verify(keypairs, params):
    pk, sk = keypairs[params.level]
    msg = b"byte-like keys"
    sigs = {scheme.sign(params, key, msg) for key in (sk, bytearray(sk), memoryview(sk))}
    assert len(sigs) == 1
    sig = sigs.pop()
    for key in (pk, bytearray(pk), memoryview(pk)):
        assert scheme.verify(params, key, msg, sig) is True
    for _ in range(2):                     # a malformed key is rejected on every call
        assert scheme.verify(params, bytearray(pk[:-1]), msg, sig) is False


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


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.value)
def test_only_ntt_transforms_outside_the_w_chain(keypairs, params, backend, monkeypatch):
    # on the byte lanes every transform and every modmul of `sign` belongs to
    # the w = A*y chain, so c*s1, c*s2 and c*t0 are all gathers; ntt, the
    # paper's baseline, also transforms c once per attempt
    _, sk = keypairs[params.level]
    calls, inside = [], []

    def watched(fn):
        def wrapper(*args):
            calls.append((fn.__name__, np.shape(args[-1])))
            with instrumentation.counting() as cn:
                out = fn(*args)
            inside.append(cn.modmul)
            return out
        return wrapper

    for name in ("ntt_values", "intt_values", "matvec_hat"):
        monkeypatch.setattr(scheme, name, watched(getattr(scheme, name)))
    b, l, k = scheme.SIGN_BLOCK[params.level], params.l, params.k
    chain = [("ntt_values", (b, l, N)), ("matvec_hat", (b, l, N)), ("intt_values", (b, k, N))]
    restarted = False
    for i in range(6):
        calls.clear()
        inside.clear()
        tr = SignTrace()
        with instrumentation.counting() as total:
            scheme.sign(params, sk, b"w chain %d" % i, backend=backend, trace=tr)
        attempts = len(tr.iterations)
        restarted |= attempts > 1
        if backend is Backend.NTT:
            assert calls.count(("ntt_values", (N,))) == attempts
        else:
            assert calls == chain * -(-attempts // b)
            assert total.modmul == sum(inside) > 0
    assert restarted


def test_attempt_zero_keeps_its_own_mask_and_decompose_calls(keypairs, params, monkeypatch):
    # the benchmark's tracer pairs a block's last expand_mask call, its first
    # decompose call and the sample_in_ball call after them as one attempt's
    # kernel inputs; those calls must hold attempt 0 alone, and the block's
    # other attempts share one call of each
    _, sk = keypairs[params.level]
    calls = []

    def watched(fn, shape_of):
        def wrapper(*args):
            out = fn(*args)
            calls.append((fn.__name__, shape_of(args, out)))
            return out
        return wrapper

    for name, shape_of in (("expand_mask", lambda args, out: out.coeffs.shape),
                           ("decompose", lambda args, out: np.shape(args[0])),
                           ("sample_in_ball", lambda args, out: None)):
        monkeypatch.setattr(scheme, name, watched(getattr(scheme, name), shape_of))
    b, l, k = scheme.SIGN_BLOCK[params.level], params.l, params.k
    block_calls = [("expand_mask", ((b - 1) * l, N)), ("expand_mask", (l, N)),
                   ("decompose", (k, N)), ("decompose", (b - 1, k, N))]
    restarts = 0
    for i in range(6):
        calls.clear()
        tr = SignTrace()
        scheme.sign(params, sk, b"block calls %d" % i, trace=tr)
        attempts = len(tr.iterations)
        restarts = max(restarts, tr.restarts)
        want = []
        for first in range(0, attempts, b):
            want += block_calls + [("sample_in_ball", None)] * min(b, attempts - first)
        assert calls == want
    assert restarts >= b                  # some signature needed a second block


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


# The SignTrace of four pinned signatures per level (the session key of each
# level, messages b"trace 0" .. b"trace 3"): how the loop runs its checks may
# change, these fields may not. Per message: the checks of each attempt in
# z-first order ("/" between attempts), restarts, the ntt backend's c*s1 and
# c*s2 modmuls, and the accepted |z| and |LowBits(w) - c*s2| maxima.
PINNED_TRACES = {
    2: [("z+r0/z/z+r0+ct0+hint", 2, 18432, 12288, 130806, 94972),
        ("z+r0+ct0+hint", 0, 6144, 6144, 130912, 94928),
        ("z+r0/z+r0/z/z/z+r0/z+r0+ct0+hint", 5, 36864, 24576, 130991, 95142),
        ("z+r0+ct0+hint", 0, 6144, 6144, 130735, 95032)],
    3: [("z+r0+ct0+hint", 0, 7680, 9216, 523275, 261666),
        ("z+r0+ct0+hint", 0, 7680, 9216, 523684, 261502),
        ("z/z/z/z/z+r0+ct0+hint", 4, 38400, 9216, 523744, 261513),
        ("z+r0/z+r0/z/z/z+r0/z+r0/z+r0+ct0+hint", 6, 53760, 46080, 524088, 261327)],
    5: [("z+r0+ct0+hint", 0, 10752, 12288, 524054, 261551),
        ("z+r0/z/z+r0/z+r0/z/z/z/z+r0+ct0+hint", 7, 86016, 49152, 523994, 261615),
        ("z/z+r0/z/z+r0+ct0+hint", 3, 43008, 24576, 524042, 261719),
        ("z+r0/z+r0+ct0+hint", 1, 21504, 24576, 523987, 261681)],
}
# sparse_fused runs r0 first; the same attempts then record these checks
PINNED_R0_FIRST = {
    2: ["r0/r0/r0+z+ct0+hint", "r0+z+ct0+hint", "r0/r0/r0/r0/r0/r0+z+ct0+hint", "r0+z+ct0+hint"],
    3: ["r0+z+ct0+hint", "r0+z+ct0+hint", "r0/r0+z/r0+z/r0+z/r0+z+ct0+hint",
        "r0/r0/r0/r0/r0/r0/r0+z+ct0+hint"],
    5: ["r0+z+ct0+hint", "r0/r0/r0/r0/r0/r0/r0/r0+z+ct0+hint", "r0/r0/r0/r0+z+ct0+hint",
        "r0/r0+z+ct0+hint"],
}


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.value)
def test_sign_trace_matches_pinned_fields(keypairs, params, backend):
    _, sk = keypairs[params.level]
    for i, (checks, restarts, cs1, cs2, z_max, r0_max) in enumerate(PINNED_TRACES[params.level]):
        if backend is Backend.SPARSE_FUSED:
            checks = PINNED_R0_FIRST[params.level][i]
        if backend is not Backend.NTT:
            cs1 = cs2 = 0
        tr = SignTrace()
        scheme.sign(params, sk, b"trace %d" % i, backend=backend, trace=tr)
        assert "/".join("+".join(c) for c in tr.iterations) == checks, i
        assert (tr.decode_calls, tr.restarts, tr.cs1_modmuls, tr.cs2_modmuls,
                tr.accepted_z_max, tr.accepted_r0_max) == (1, restarts, cs1, cs2, z_max, r0_max), i


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
    # a z-rejected attempt must not compute (or charge) c*s2
    assert ["z"] in tr.iterations
    ran = {check: sum(check in checks for checks in tr.iterations) for check in ("z", "r0")}
    # per product row: one pointwise product plus one inverse transform
    per_poly = N + (128 * 8 + N)
    assert tr.cs1_modmuls == ran["z"] * params.l * per_poly
    assert tr.cs2_modmuls == ran["r0"] * params.k * per_poly


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


def test_level3_signing_layout_is_exact_on_worst_case():
    # constructed worst case: 49 aligned +1 windows over an all-4 secret
    from sparsedil.ring import Poly, center
    p = param_set(3)
    c = np.zeros(N, dtype=np.int8)
    c[:p.tau] = 1
    s = np.full((p.k, N), p.eta, dtype=np.int8)
    sk = codec.sk_encode(bytes(32), bytes(32), bytes(32), s[:p.l], s,
                         np.zeros((p.k, N), dtype=np.int64), p)
    dec = codec.sk_decode_extended(sk, p)
    idx = sparse.encode_challenge(c, p.tau)
    exact = center(sparse.sparse_mul_indexed(c, Poly(s[0].astype(np.int64))).coeffs)
    assert exact.max() == p.tau * p.eta == 196
    want = np.broadcast_to(exact, (p.k, N))

    assert np.array_equal(sparse.sparse_mul_branchless_vec(idx, dec.s1_ext, p.tau), want[:p.l])
    w = want % Q                         # w - c*s2 == 0: the r0 check passes
    res = sparse.fused_r0(idx, dec.s2_ext, w, p.gamma2, p.gamma2 - p.beta)
    assert res.ok and np.array_equal(res.cs2, want)
    # the paper's int8 rows still hold 196 as 196 - 256
    ext8 = sparse.extend_secret(s, p.eta)
    assert np.all(sparse.sparse_mul_branchless_vec(idx, ext8, p.tau)[:, exact == 196] == -60)


def test_accepted_products_match_oracle(keypairs):
    from sparsedil.ring import Poly
    p = param_set(5)
    pk, sk = keypairs[5]
    tr = SignTrace()
    sig = scheme.sign(p, sk, b"products", backend=Backend.SPARSE_FUSED, trace=tr)
    dec, y, w, c = _recompute_attempt(p, sk, b"products", len(tr.iterations) - 1)
    want_cs1 = np.stack([sparse.sparse_mul_indexed(c, Poly(dec.s1_ext[j, N:].astype(np.int64) % Q)).coeffs
                         for j in range(p.l)])
    want_cs1 = np.where(want_cs1 > Q // 2, want_cs1 - Q, want_cs1)
    _, z, _ = codec.sig_decode(sig, p)
    assert np.array_equal(z - y, want_cs1)


def test_backend_coercion_and_default(keypairs):
    assert scheme.default_backend(2) is Backend.SPARSE_FUSED
    assert scheme.default_backend(3) is Backend.SPARSE_FUSED
    assert scheme.default_backend(5) is Backend.SPARSE_FUSED
    # sign takes a Backend or its value; the CLI's "sparse-fused" is bench's to parse
    p, (_, sk) = param_set(2), keypairs[2]
    for text in ("fft", "sparse-fused"):
        with pytest.raises(ValueError):
            scheme.sign(p, sk, b"backend text", backend=text)
    assert (scheme.sign(p, sk, b"backend text", backend="sparse_fused")
            == scheme.sign(p, sk, b"backend text"))


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.value)
def test_r0_product_stays_in_its_lanes(keypairs, params, backend):
    # worst case: tau aligned +1s over an all-eta s2 reach |c*s2| = beta
    c = np.zeros(N, dtype=np.int8)
    c[:params.tau] = 1
    s = np.full((params.k, N), params.eta, dtype=np.int8)
    sk = codec.sk_encode(bytes(32), bytes(32), bytes(32), s[:params.l], s,
                         np.zeros((params.k, N), dtype=np.int64), params)
    s2_ext = codec.sk_decode_extended(sk, params).s2_ext
    want = scheme._ntt_cs(ntt_values(c), ntt_values(s))     # int64 through the NTT
    assert want.dtype == np.int64 and want.max() == params.beta
    w0 = np.zeros((params.k, N), dtype=np.int64)
    gamma2, bound = params.gamma2, params.gamma2 - params.beta
    if backend is Backend.NTT:
        res, lanes = sparse.r0_check(w0, want, gamma2, bound), np.int64
    else:
        index = sparse.encode_challenge(c, params.tau)
        res, lanes = sparse.fused_r0(index, s2_ext, w0, gamma2, bound), s2_ext.dtype
        assert lanes == (np.int16 if params.level == 3 else np.int8)
    assert res.ok and res.cs2.dtype == lanes and np.array_equal(res.cs2, want)
    # the signer reads c*s2 in int64 on every backend: the ntt route's r0 max is everyone's
    _, key = keypairs[params.level]
    for i in range(2):
        got, ref = SignTrace(), SignTrace()
        scheme.sign(params, key, b"r0 lanes %d" % i, backend=backend, trace=got)
        scheme.sign(params, key, b"r0 lanes %d" % i, backend=Backend.NTT, trace=ref)
        assert got.accepted_r0_max == ref.accepted_r0_max > 0


def test_exported_names_exist():
    # a deleted API must not leave its name behind in the package's exports
    for name in sparsedil.__all__:
        assert hasattr(sparsedil, name), name


def test_sign_fails_closed_after_attempt_limit(keypairs, monkeypatch):
    calls = []

    def always_reject(index, ext, w, gamma2, bound):
        calls.append(1)
        return sparse.FusedR0(False, None, 0)

    monkeypatch.setattr(scheme, "fused_r0", always_reject)
    for lv in LEVELS:
        p = param_set(lv)
        # neither limit is a multiple of the block size: the last block is cut short
        block = scheme.SIGN_BLOCK[lv]
        for limit in (block + 1, 1):
            assert limit % block
            calls.clear()
            monkeypatch.setattr(scheme, "MAX_SIGN_ATTEMPTS", limit)
            tr = SignTrace()
            with pytest.raises(scheme.SigningAttemptsExceeded, match=f"{limit} attempts"):
                scheme.sign(p, keypairs[lv][1], b"m", trace=tr)
            assert len(calls) == limit
            assert tr.iterations == [["r0"]] * limit and tr.restarts == limit


def test_attempt_limit_fits_nonce_and_odds():
    # the largest mask nonce fits 2 bytes at every level; with acceptance
    # >= 1/5.1 per attempt a valid key exhausts the limit with odds < 2^-128
    assert max(param_set(lv).l for lv in LEVELS) * scheme.MAX_SIGN_ATTEMPTS <= 65536
    assert (1 - 1 / 5.1) ** scheme.MAX_SIGN_ATTEMPTS < 2.0 ** -128


def test_block_size_does_not_change_signatures(keypairs, params, monkeypatch):
    pk, sk = keypairs[params.level]
    runs = {}
    for block in (1, 2, 3, 4):          # 4: one merged call over three attempts
        monkeypatch.setitem(scheme.SIGN_BLOCK, params.level, block)
        sig = scheme.sign(params, sk, b"sparsedil KAT")
        assert hashlib.sha256(pk + sk + sig).hexdigest() == KAT_DIGESTS[params.level]
        out = []
        for i in range(6):
            for backend in (BACKENDS if i == 0 else [None]):
                tr = SignTrace()
                out.append((scheme.sign(params, sk, b"block %d" % i, backend=backend, trace=tr),
                            tr.iterations, tr.restarts))
        runs[block] = out
    assert runs[1] == runs[2] == runs[3] == runs[4]
    assert any(restarts >= 2 for _, _, restarts in runs[1])


def test_untraced_sign_enters_no_counting_scope(keypairs, monkeypatch):
    from sparsedil import instrumentation
    p = param_set(2)
    scopes = []
    real = instrumentation.counting

    def recording():
        scopes.append(1)
        return real()

    monkeypatch.setattr(instrumentation, "counting", recording)
    for backend in BACKENDS:
        scheme.sign(p, keypairs[2][1], b"untraced", backend=backend)
    assert scopes == []
    scheme.sign(p, keypairs[2][1], b"untraced", trace=SignTrace())
    assert scopes


def test_cached_matrix_cannot_be_rebound(keypairs):
    # expand_a hands every caller the same cached Poly
    p = param_set(2)
    pk, sk = keypairs[2]
    sig = scheme.sign(p, sk, b"frozen")
    A = expand_a(codec.pk_decode(pk, p).rho, p)
    with pytest.raises(dataclasses.FrozenInstanceError):
        A.coeffs = np.zeros_like(A.coeffs)
    assert scheme.verify(p, pk, b"frozen", sig)
    assert scheme.sign(p, sk, b"frozen") == sig


def test_threads_sharing_a_key_sign_as_one_thread(keypairs):
    p = param_set(3)
    _, sk = keypairs[3]
    jobs = [(b"thread %d" % i, backend) for i, backend in enumerate(BACKENDS)]
    start = threading.Barrier(len(jobs))

    def signed(msg, backend, barrier=None):
        tr = SignTrace()
        if barrier is not None:
            barrier.wait(timeout=60)
        sig = scheme.sign(p, sk, msg, backend=backend, trace=tr)
        return sig, tr.iterations, tr.cs1_modmuls, tr.cs2_modmuls

    serial = [signed(msg, backend) for msg, backend in jobs]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(signed, msg, backend, start) for msg, backend in jobs]
            assert [f.result(timeout=120) for f in futures] == serial
    finally:
        sys.setswitchinterval(switch)
    assert any(cs1 > 0 for _, _, cs1, _ in serial)


def test_t0_lanes_are_exact_on_worst_case(params):
    # tau aligned +1 windows over t0 = 2^12 everywhere reach tau*2^12, beyond
    # int16 at every level; the decoded t0 rows must hold it exactly
    from sparsedil.ring import Poly, center, schoolbook_negacyclic
    c = np.zeros(N, dtype=np.int8)
    c[:params.tau] = 1
    t0 = np.full((params.k, N), 1 << (D - 1))
    sk = codec.sk_encode(bytes(32), bytes(32), bytes(32), np.zeros((params.l, N)),
                         np.zeros((params.k, N)), t0, params)
    dec = codec.sk_decode_extended(sk, params)
    want = schoolbook_negacyclic(Poly(c.astype(np.int64)), Poly(t0[0])).coeffs
    assert center(want).max() == params.tau << (D - 1) > 2**15
    idx = sparse.encode_challenge(c, params.tau)
    got = sparse.sparse_mul_branchless_vec(idx, dec.t0_ext, params.tau)
    assert np.array_equal(got.astype(np.int64) % Q, np.broadcast_to(want, (params.k, N)))
