"""The benchmark's per-layer spans still find the calls they time.

`perfbench/spans.Tracer` wraps, by name, the functions `scheme` calls in
the other layers, and silently skips a name `scheme` no longer has; a
metric built on that span then reads 0. One keygen, sign and verify per
level under the tracer must give every timed per-layer metric in
BENCHMARK.json a positive value. The tracer also pairs each signing
attempt's `expand_mask`, `decompose` and `sample_in_ball` calls into the
kernel sweep's inputs, which must all come from one real attempt.
"""

import importlib
import json
from pathlib import Path

import numpy as np

from sparsedil import codec, scheme
from sparsedil.keccak import shake256
from sparsedil.params import LEVELS, Q, param_set
from sparsedil.ring import intt_values, ntt_values
from sparsedil.rounding import decompose
from sparsedil.sampling import expand_a, sample_in_ball

ROOT = Path(__file__).resolve().parent.parent


def test_every_timed_layer_metric_is_positive(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    timed = [m["name"] for m in declared if ".ms_per_" in m["name"]]
    assert timed

    tracer = spans.Tracer()
    with tracer.installed():
        for lv in LEVELS:
            p = param_set(lv)
            pk, sk = tracer.run_op("keygen", lv, True, scheme.keygen, p, bytes([lv, 7]) * 16)
            sig = tracer.run_op("sign", lv, True, scheme.sign, p, sk, b"layer spans")
            assert tracer.run_op("verify", lv, True, scheme.verify, p, pk, b"layer spans", sig)
    metrics = spans.layer_metrics(tracer)
    assert [n for n in timed if not metrics[n][0] > 0] == []


def test_captured_attempts_are_consistent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer(capture_limit=8)
    for lv in LEVELS:
        p = param_set(lv)
        _, sk = scheme.keygen(p, bytes([lv, 9]) * 16)
        dec = codec.sk_decode_extended(sk, p)
        a64 = expand_a(dec.rho, p).coeffs.astype(np.int64)
        i = 0
        while len(tracer.captured[lv]) < 8:
            before = len(tracer.captured[lv])
            msg = b"capture %d" % i
            with tracer.installed():
                tracer.run_op("sign", lv, True, scheme.sign, p, sk, msg)
            mu = shake256(dec.tr + msg, 64)
            for att in tracer.captured[lv][before:]:
                assert np.array_equal(att.w, intt_values((a64 * ntt_values(att.y)).sum(axis=1) % Q))
                w1 = decompose(att.w, p.alpha)[0]
                c = sample_in_ball(shake256(mu + codec.pack_w1(w1, p), 32), p.tau)
                assert np.array_equal(att.c, c)
            i += 1
