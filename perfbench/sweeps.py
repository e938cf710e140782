"""The two sweeps of a --trace 1 run: signing backends, and kernels alone.

Backend sweep: the sign-resident messages (first key of each level) are
signed with each backend in turn, message by message, so that every
backend signs the same messages with the same attempt counts. The default
backend also signs each message once more under a `Tracer`, which gives
`trace.overhead_ratio` and captures the kernel inputs of its attempts.

Kernel sweep: one attempt's c*s1 + c*s2 by each route on those captured
inputs, and the NTT / inverse NTT alone at batch sizes 1, 4 and 8.
"""

import statistics
import time

import numpy as np

from sparsedil import ring, scheme, sparse
from sparsedil.params import N, Q, param_set

import spans
import workloads

SWEEP_MIN_MESSAGES = 4           # per level, even when the deadline has passed
CAPTURED_ATTEMPTS = 8            # per level, for the kernel sweep
BATCHES = (1, 4, 8)
KERNEL_REPEATS = 5
TRANSFORM_REPEATS = 60


def backend_sweep(client, seed: int, deadline: float):
    """Sign sign-resident messages with every backend until the deadline.

    Returns (metrics, tracer holding the captured attempts). Signatures that
    differ between backends are counted as failures on `client`.
    """
    tracer = spans.Tracer(capture_limit=CAPTURED_ATTEMPTS)
    keys = {lv: scheme.keygen(param_set(lv), workloads.derive(seed, "resident", "key", lv, 0))
            for lv in workloads.LEVELS}
    times = {(b, lv): [] for b in scheme.Backend for lv in workloads.LEVELS}
    plain = traced = 0.0
    r = 0
    while r < SWEEP_MIN_MESSAGES or time.perf_counter() < deadline:
        for lv in workloads.LEVELS:
            p, (_, sk) = param_set(lv), keys[lv]
            msg = workloads.message(seed, "resident", lv, r)
            sigs = set()
            for b in scheme.Backend:
                t0 = time.perf_counter()
                sigs.add(scheme.sign(p, sk, msg, backend=b))
                times[b, lv].append(time.perf_counter() - t0)
            default = scheme.default_backend(lv)
            with tracer.installed():
                t0 = time.perf_counter()
                sigs.add(tracer.run_op("sign", lv, False, scheme.sign, p, sk, msg))
                traced += time.perf_counter() - t0
            plain += times[default, lv][-1]
            client.check(len(sigs) == 1, f"backends disagree on level {lv} message {r}")
        r += 1
    m = {f"backend.{b.value}.sign_ms.l{lv}": (statistics.fmean(times[b, lv]) * 1e3, "ms")
         for b in scheme.Backend for lv in workloads.LEVELS}
    m["trace.overhead_ratio"] = (traced / plain, "ratio")
    return m, tracer


def _cs_ntt(att, s1_hat, s2_hat):
    c_hat = ring.ntt_values(att.c)
    cs1 = ring.center(ring.intt_values(c_hat[None, :] * s1_hat % Q))
    cs2 = ring.center(ring.intt_values(c_hat[None, :] * s2_hat % Q))
    return cs1, cs2


def _cs_swar(p, att):
    index = sparse.encode_challenge(att.c, p.tau)
    return (sparse.sparse_mul_branchless_vec(index, att.dec.s1_ext, p.tau),
            sparse.sparse_mul_branchless_vec(index, att.dec.s2_ext, p.tau))


def _cs_fused(p, att):
    """r0 check fused into c*s2 first, then z fused into c*s1 if r0 passed."""
    index = sparse.encode_challenge(att.c, p.tau)
    r0 = sparse.fused_r0(index, att.dec.s2_ext, att.w, p.gamma2, p.gamma2 - p.beta)
    z = sparse.fused_z(index, att.dec.s1_ext, att.y, p.gamma1 - p.beta) if r0.ok else None
    return r0, z


def kernel_sweep(client, captured: dict, seed: int) -> dict:
    """Time each c*s route per captured attempt, and the transforms alone."""
    samples = {}
    for lv, attempts in captured.items():
        p = param_set(lv)
        client.check(bool(attempts), f"no attempts captured on level {lv}")
        hats = [(ring.ntt_values(a.dec.s1_ext[:, N:]), ring.ntt_values(a.dec.s2_ext[:, N:]))
                for a in attempts]
        for att, (s1_hat, s2_hat) in zip(attempts, hats):
            ref1, ref2 = _cs_ntt(att, s1_hat, s2_hat)
            swar1, swar2 = _cs_swar(p, att)
            client.check(np.array_equal(swar1, ref1) and np.array_equal(swar2, ref2),
                         f"byte-lane c*s differs from the NTT on level {lv}")
            r0, z = _cs_fused(p, att)
            if r0.ok:
                client.check(np.array_equal(r0.cs2, ref2), f"fused c*s2 differs on level {lv}")
            if z is not None and not z.rejected:
                client.check(np.array_equal(z.z, att.y + ref1), f"fused z differs on level {lv}")
        routes = {"ntt": lambda a, h: _cs_ntt(a, *h),
                  "swar": lambda a, h: _cs_swar(p, a),
                  "fused": lambda a, h: _cs_fused(p, a)}
        for route in routes:
            samples[f"kernel.cs.{route}.l{lv}"] = []
        for _ in range(KERNEL_REPEATS):
            for att, h in zip(attempts, hats):
                for route, fn in routes.items():
                    t0 = time.perf_counter()
                    fn(att, h)
                    samples[f"kernel.cs.{route}.l{lv}"].append(time.perf_counter() - t0)

    rng = np.random.default_rng(seed)
    for b in BATCHES:
        x = rng.integers(0, Q, (b, N))
        for fn in (ring.ntt_values, ring.intt_values):
            key = f"kernel.{fn.__name__}.b{b}"
            samples[key] = []
            for _ in range(TRANSFORM_REPEATS):
                t0 = time.perf_counter()
                fn(x)
                samples[key].append(time.perf_counter() - t0)
    return {k: (statistics.median(v) * 1e3, "ms") for k, v in samples.items()}
