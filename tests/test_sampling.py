import hashlib

import numpy as np
from hypothesis import given, strategies as st

from sparsedil import sampling, sparse
from sparsedil.keccak import RATES
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


@given(st.integers(0, 65536 - 4 * max(param_set(lv).l for lv in LEVELS)))
def test_expand_mask_attempts_stack_single_draws(kappa):
    seed = kappa.to_bytes(4, "little") * 16
    for lv in LEVELS:
        p = param_set(lv)
        for attempts in range(1, 5):
            y = sampling.expand_mask(seed, kappa, p, attempts).coeffs
            singles = [sampling.expand_mask(seed, kappa + i * p.l, p).coeffs
                       for i in range(attempts)]
            assert y.shape == (attempts * p.l, N)
            assert np.array_equal(y, np.concatenate(singles))


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


def _reference_uniform(buf: bytes) -> list:
    """The scalar ExpandA reader: 3-byte draws masked to 23 bits, the first N below q."""
    out = []
    for i in range(0, len(buf) - 2, 3):
        t = int.from_bytes(buf[i:i + 3], "little") & 0x7FFFFF
        if t < Q and len(out) < N:
            out.append(t)
    return out


def _reference_eta(buf: bytes, eta: int) -> list:
    """The scalar ExpandS reader: nibbles low first, the first N accepted, onto [-eta, eta]."""
    out = []
    for byte in buf:
        for nib in (byte & 0xF, byte >> 4):
            if eta == 2 and nib < 15 and len(out) < N:
                out.append(2 - nib % 5)
            elif eta == 4 and nib < 9 and len(out) < N:
                out.append(4 - nib)
    return out


def _reference_samplers(seed: bytes, p):
    """Scalar spec-order samplers, one row at a time, over a long stream prefix."""
    def stream(xof, msg):
        return xof(msg).digest(4096)

    def uniform(nonce):
        return _reference_uniform(stream(hashlib.shake_128, seed[:32] + nonce.to_bytes(2, "little")))

    def eta_row(nonce):
        return _reference_eta(stream(hashlib.shake_256, seed + nonce.to_bytes(2, "little")), p.eta)

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


# -- the selection step on constructed streams ---------------------------------
# A stub XOF serves chosen byte streams (prefixes of one fixed stream per
# message, as SHAKE would) so that the rejections fall where a case needs them.

STREAM_BYTES = 4200


def _stub_xof(streams, asked):
    def xof(data, count):
        asked.append(count)
        return streams[bytes(data)][:count]
    return xof


def _draw_bytes(values) -> bytes:
    return b"".join(int(v).to_bytes(3, "little") for v in values)


def _clean_draws(rng, count):
    """Draws below q, each with a random bit 23 that the sampler masks off."""
    return rng.integers(0, Q, count) | (rng.integers(0, 2, count) << 23)


def _nibble_bytes(nibbles) -> bytes:
    nib = np.asarray(nibbles, dtype=np.uint8)
    return (nib[0::2] | (nib[1::2] << 4)).tobytes()           # low nibble first


def _expand_a_on(streams, params, monkeypatch):
    asked = []
    monkeypatch.setattr(sampling, "shake128", _stub_xof(streams, asked))
    return sampling.expand_a.__wrapped__(bytes(32), params).coeffs, asked


def _a_streams(params, rng, rows):
    """Clean draws for every (i, j) of A, with `rows` replacing chosen ones."""
    nonces = [(i << 8) + j for i in range(params.k) for j in range(params.l)]
    streams = {bytes(32) + n.to_bytes(2, "little"): _draw_bytes(_clean_draws(rng, STREAM_BYTES // 3))
               for n in nonces}
    for n, draws in rows.items():
        streams[bytes(32) + n.to_bytes(2, "little")] = _draw_bytes(
            np.concatenate((draws, _clean_draws(rng, STREAM_BYTES // 3 - len(draws)))))
    return streams


def _check_a(coeffs, streams, params):
    assert coeffs.dtype == np.int32
    for i in range(params.k):
        for j in range(params.l):
            buf = streams[bytes(32) + ((i << 8) + j).to_bytes(2, "little")]
            assert coeffs[i, j].tolist() == _reference_uniform(buf), (i, j)


def test_expand_a_selection_on_constructed_rejections(params, monkeypatch):
    rng = np.random.default_rng(190 + params.level)
    last = (params.k - 1 << 8) + params.l - 1
    at_n_1 = _clean_draws(rng, N)
    at_n_1[N - 1] = Q + 5                               # draw N-1 rejected
    masked = [Q | 1 << 23, Q - 1 | 1 << 23, 0x7FFFFF, 0xFFFFFF, Q - 1, 1 << 23]
    rows = {0: np.array([Q]),                           # draw 0 rejected
            1: at_n_1,
            1 << 8: np.array(masked),                   # q rejected, q - 1 kept, top bit set or not
            last: np.array([Q, Q + 1, Q - 1])}
    streams = _a_streams(params, rng, rows)
    coeffs, asked = _expand_a_on(streams, params, monkeypatch)
    _check_a(coeffs, streams, params)
    assert coeffs[1, 0, :3].tolist() == [Q - 1, Q - 1, 0]
    assert coeffs[0, 1, :N - 1].tolist() == (at_n_1[:N - 1] & 0x7FFFFF).tolist()
    assert set(asked) == {sampling._A_BYTES}


def test_expand_a_row_one_draw_short_extends(params, monkeypatch):
    # one row has N - 1 draws below q in its first digest, every other row
    # none rejected: the sampler must read one more block, and only that
    # row changes from its first N draws
    rng = np.random.default_rng(191 + params.level)
    first = sampling._A_BYTES // 3
    short = _clean_draws(rng, first)
    short[rng.choice(first, first - (N - 1), replace=False)] = Q
    row = params.l + 1 if params.k > 1 else 0
    nonce = (row // params.l << 8) + row % params.l
    streams = _a_streams(params, rng, {nonce: short})
    coeffs, asked = _expand_a_on(streams, params, monkeypatch)
    _check_a(coeffs, streams, params)
    assert asked == [sampling._A_BYTES] * (params.k * params.l) + \
        [sampling._A_BYTES + RATES["shake128"]] * (params.k * params.l)
    clean = np.ones(params.k * params.l, dtype=bool)
    clean[row] = False
    heads = np.array([_reference_uniform(streams[bytes(32) + ((i << 8) + j).to_bytes(2, "little")]
                                         [:3 * N]) for i in range(params.k) for j in range(params.l)],
                     dtype=object)
    assert all(len(h) == N for h in heads[clean])
    assert len(heads[row]) < N


def _eta_streams(params, rng, rows):
    """Accepted nibbles for every row of (s1, s2), with `rows` replacing chosen ones."""
    limit = {2: 15, 4: 9}[params.eta]
    count = 2 * STREAM_BYTES
    streams = {}
    for r in range(params.l + params.k):
        nib = rng.integers(0, limit, count)
        if r in rows:
            nib[:len(rows[r])] = rows[r]
        streams[bytes(64) + r.to_bytes(2, "little")] = _nibble_bytes(nib)
    return streams


def _check_s(streams, params, monkeypatch):
    asked = []
    monkeypatch.setattr(sampling, "shake256", _stub_xof(streams, asked))
    s1, s2 = sampling.expand_s(bytes(64), params)
    assert s1.dtype == s2.dtype == np.int8
    for r, got in enumerate(np.concatenate((s1, s2))):
        assert got.tolist() == _reference_eta(streams[bytes(64) + r.to_bytes(2, "little")],
                                              params.eta), r
    return s1, s2, asked


def test_expand_s_selection_on_constructed_rejections(params, monkeypatch):
    rng = np.random.default_rng(192 + params.level)
    eta, limit = params.eta, {2: 15, 4: 9}[params.eta]
    at_n_1 = rng.integers(0, limit, N)
    at_n_1[N - 1] = limit                               # nibble N-1 (a high one) rejected
    rows = {0: [limit, 0],                              # nibble 0 (a low one) rejected
            1: at_n_1,
            2: [limit, limit - 1, limit - 1, limit, 15, 0]}   # the first rejected value, both halves
    s1, s2, asked = _check_s(_eta_streams(params, rng, rows), params, monkeypatch)
    s = np.concatenate((s1, s2))
    low = eta - (limit - 1) % (2 * eta + 1)             # -2 at eta 2, -4 at eta 4
    assert s[0, 0] == eta and s[2, :3].tolist() == [low, low, eta]
    assert set(asked) == {sampling._S_BYTES[eta]}


def test_expand_s_row_one_nibble_short_extends(params, monkeypatch):
    rng = np.random.default_rng(193 + params.level)
    limit = {2: 15, 4: 9}[params.eta]
    first = 2 * sampling._S_BYTES[params.eta]
    short = rng.integers(0, limit, first)
    short[rng.choice(first, first - (N - 1), replace=False)] = 15
    rows = params.l + params.k
    _, _, asked = _check_s(_eta_streams(params, rng, {rows - 1: short}), params, monkeypatch)
    assert asked == [sampling._S_BYTES[params.eta]] * rows + \
        [sampling._S_BYTES[params.eta] + RATES["shake256"]] * rows
