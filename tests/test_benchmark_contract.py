"""The benchmark's per-layer spans still find the calls they time.

`perfbench/spans.Tracer` wraps, by name, the functions `scheme` calls in
the other layers, and silently skips a name `scheme` no longer has; a
metric built on that span then reads 0. One keygen, sign and verify per
level under the tracer must give every timed per-layer metric in
BENCHMARK.json a positive value.
"""

import importlib
import json
from pathlib import Path

from sparsedil import scheme
from sparsedil.params import LEVELS, param_set

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
