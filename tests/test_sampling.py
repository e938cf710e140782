import hashlib

import numpy as np

from sparsedil import sampling, sparse
from sparsedil.params import LEVELS, N, Q, param_set
from sparsedil.ring import Domain


def test_expand_a_deterministic_and_in_range():
    p = param_set(2)
    rho = bytes(32)
    a1 = sampling.expand_a(rho, p)
    a2 = sampling.expand_a(rho, p)
    assert a1.domain == Domain.NTT
    assert np.array_equal(a1.coeffs, a2.coeffs)
    assert a1.coeffs.shape == (p.k, p.l, N)
    assert np.all((a1.coeffs >= 0) & (a1.coeffs < Q))


def test_expand_a_range_over_seeds():
    p = param_set(3)
    rng = np.random.default_rng(0)
    for _ in range(100):
        rho = rng.integers(0, 256, 32, dtype=np.uint8).tobytes()
        a = sampling.expand_a(rho, p)
        assert np.all((a.coeffs >= 0) & (a.coeffs < Q))


def test_expand_a_nonces_give_distinct_polys():
    p = param_set(2)
    rng = np.random.default_rng(1)
    for _ in range(100):
        rho = rng.integers(0, 256, 32, dtype=np.uint8).tobytes()
        a = sampling.expand_a(rho, p)
        blobs = {a.coeffs[i, j].tobytes() for i in range(p.k) for j in range(p.l)}
        assert len(blobs) == p.k * p.l


def test_expand_s_range_and_determinism():
    rng = np.random.default_rng(2)
    for lv in LEVELS:
        p = param_set(lv)
        for _ in range(100 // len(LEVELS)):
            seed = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
            s1, s2 = sampling.expand_s(seed, p)
            assert s1.shape == (p.l, N) and s2.shape == (p.k, N)
            assert np.all(np.abs(s1) <= p.eta) and np.all(np.abs(s2) <= p.eta)
            s1b, s2b = sampling.expand_s(seed, p)
            assert np.array_equal(s1, s1b) and np.array_equal(s2, s2b)


def test_expand_s_distribution_uniform():
    # ~1e6 coefficients per eta; each value's count within 3 sigma of uniform
    for lv in (2, 3):
        p = param_set(lv)
        samples = []
        for i in range(4000 // (p.l + p.k)):
            s1, s2 = sampling.expand_s(i.to_bytes(8, "little") + bytes(56), p)
            samples.append(s1.reshape(-1))
            samples.append(s2.reshape(-1))
        vals = np.concatenate(samples)
        n = len(vals)
        prob = 1.0 / (2 * p.eta + 1)
        sigma = (n * prob * (1 - prob)) ** 0.5
        for v in range(-p.eta, p.eta + 1):
            count = int(np.count_nonzero(vals == v))
            assert abs(count - n * prob) <= 3 * sigma, (lv, v, count, n * prob)


def test_expand_mask_range_and_nonce_sensitivity():
    rng = np.random.default_rng(3)
    for lv in LEVELS:
        p = param_set(lv)
        seed = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
        for kappa in (0, p.l, 17 * p.l):
            y = sampling.expand_mask(seed, kappa, p)
            assert y.coeffs.shape == (p.l, N)
            assert np.all((y.coeffs > -p.gamma1) & (y.coeffs <= p.gamma1))
        y0 = sampling.expand_mask(seed, 0, p)
        y1 = sampling.expand_mask(seed, p.l, p)
        assert not np.array_equal(y0.coeffs, y1.coeffs)
        assert np.array_equal(y0.coeffs, sampling.expand_mask(seed, 0, p).coeffs)


def test_expand_mask_nonce_overlap_shifts_rows():
    # successive kappa values share the overlapping per-entry streams
    p = param_set(2)
    seed = bytes(64)
    y0 = sampling.expand_mask(seed, 0, p)
    y1 = sampling.expand_mask(seed, 1, p)
    assert np.array_equal(y0.coeffs[1:], y1.coeffs[:-1])


def test_sample_in_ball_properties():
    for lv in LEVELS:
        p = param_set(lv)
        for i in range(10000):
            c = sampling.sample_in_ball(i.to_bytes(4, "little") + bytes(28), p.tau)
            nz = c[c != 0]
            assert len(nz) == p.tau
            assert np.all(np.abs(nz) == 1)


def test_sample_in_ball_deterministic():
    c1 = sampling.sample_in_ball(bytes(32), 39)
    c2 = sampling.sample_in_ball(bytes(32), 39)
    assert np.array_equal(c1, c2)


def test_sample_in_ball_encodes_cleanly():
    rng = np.random.default_rng(5)
    for lv in LEVELS:
        p = param_set(lv)
        for _ in range(50):
            seed = rng.integers(0, 256, 32, dtype=np.uint8).tobytes()
            c = sampling.sample_in_ball(seed, p.tau)
            idx = sparse.encode_challenge(c, p.tau)
            poscnt = int(idx[0])
            rebuilt = np.zeros(N, dtype=np.int8)
            rebuilt[idx[1:1 + poscnt]] = 1
            rebuilt[idx[1 + poscnt:]] = -1
            assert np.array_equal(rebuilt, c)


def _sampler_digest(level: int) -> str:
    """sha256 over every sampler's output for fixed seeds, values as int64."""
    p = param_set(level)
    h = hashlib.sha256()
    for s in range(3):
        seed = bytes([level, s]) * 32
        h.update(sampling.expand_a(seed[:32], p).coeffs.astype(np.int64).tobytes())
        for part in sampling.expand_s(seed, p):
            h.update(part.astype(np.int64).tobytes())
        for kappa in (0, 1, p.l, 17 * p.l, 65536 - p.l):
            h.update(sampling.expand_mask(seed, kappa, p).coeffs.astype(np.int64).tobytes())
        h.update(sampling.sample_in_ball(seed[:32], p.tau).astype(np.int64).tobytes())
    return h.hexdigest()


SAMPLER_DIGESTS = {
    2: "7d398482d6b2e453d54d33fa42f0fb4b184831d8ac365cc07eb261c2369c7cb5",
    3: "e1ada4194c7daf4b04fb1688a891e6cdbc0021a00e96d8c7b6a9ad4da8c66717",
    5: "b0a43aea71ab0c9e8d5050a3abe668915baf1b217135eb25e134f2afc656d263",
}


def test_sampler_known_answer_digests(params):
    assert _sampler_digest(params.level) == SAMPLER_DIGESTS[params.level]


def _reference_samplers(seed: bytes, p):
    """Scalar spec-order samplers, one row at a time, over a long stream prefix."""
    def stream(xof, msg):
        return xof(msg).digest(4096)

    def uniform(nonce):
        buf, out = stream(hashlib.shake_128, seed[:32] + nonce.to_bytes(2, "little")), []
        for i in range(0, len(buf), 3):
            t = int.from_bytes(buf[i:i + 3], "little") & 0x7FFFFF
            if t < Q and len(out) < N:
                out.append(t)
        return out

    def eta_row(nonce):
        out = []
        for byte in stream(hashlib.shake_256, seed + nonce.to_bytes(2, "little")):
            for nib in (byte & 0xF, byte >> 4):
                if p.eta == 2 and nib < 15 and len(out) < N:
                    out.append(2 - nib % 5)
                elif p.eta == 4 and nib < 9 and len(out) < N:
                    out.append(4 - nib)
        return out

    def ball():
        buf = stream(hashlib.shake_256, seed[:32])
        signs, pos, c = int.from_bytes(buf[:8], "little"), 8, [0] * N
        for i in range(N - p.tau, N):
            while buf[pos] > i:
                pos += 1
            j = buf[pos]
            pos += 1
            c[i], c[j] = c[j], 1 - 2 * (signs & 1)
            signs >>= 1
        return c

    a = [[uniform((i << 8) + j) for j in range(p.l)] for i in range(p.k)]
    s = [eta_row(r) for r in range(p.l + p.k)]
    return a, s[:p.l], s[p.l:], ball()


def test_one_pass_samplers_match_scalar_reference():
    rng = np.random.default_rng(6)
    for lv in LEVELS:
        p = param_set(lv)
        for _ in range(3):
            seed = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
            a, s1, s2, c = _reference_samplers(seed, p)
            assert sampling.expand_a.__wrapped__(seed[:32], p).coeffs.tolist() == a
            got1, got2 = sampling.expand_s(seed, p)
            assert got1.tolist() == s1 and got2.tolist() == s2
            assert sampling.sample_in_ball(seed[:32], p.tau).tolist() == c


def test_short_prefix_extends_to_the_same_output(params, monkeypatch):
    # Real seeds almost never run short; a tiny first digest forces every
    # row through the extension path, which must reproduce the default.
    expand_a = sampling.expand_a.__wrapped__       # bypass the cache
    rng = np.random.default_rng(params.level)
    seeds = [rng.integers(0, 256, 64, dtype=np.uint8).tobytes() for _ in range(3)]
    want = [(expand_a(s[:32], params).coeffs, sampling.expand_s(s, params),
             sampling.sample_in_ball(s[:32], params.tau)) for s in seeds]
    monkeypatch.setattr(sampling, "_A_BYTES", 3)
    monkeypatch.setattr(sampling, "_S_BYTES", {2: 1, 4: 1})
    monkeypatch.setattr(sampling, "_BALL_BYTES", 9)
    for s, (a, (s1, s2), c) in zip(seeds, want):
        got_a = expand_a(s[:32], params).coeffs
        got_s1, got_s2 = sampling.expand_s(s, params)
        got_c = sampling.sample_in_ball(s[:32], params.tau)
        for got, ref in ((got_a, a), (got_s1, s1), (got_s2, s2), (got_c, c)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
