"""Spans around the calls `scheme` makes into the other layers (--trace 1 only).

`Tracer.installed()` replaces, for its duration, every module-level name
that `scheme` looks up at call time (and the `codec` functions it calls as
`scheme.codec.*`) by a wrapper that records a span: name, start, end,
parent span and operation id. Each keygen/sign/verify issued through
`Tracer.run_op` is the root span of its operation and runs inside
`instrumentation.counting()`, and sign also gets a `SignTrace`. Spans stay
in memory until `write()`.

A layer's time per operation is the self time of its spans (duration minus
the part covered by child spans), summed over the operations of one kind
and divided by their number.
"""

import contextlib
import gzip
import json
import time
from collections import defaultdict

from sparsedil import codec, instrumentation, sampling, scheme

from workloads import LEVELS

KINDS = ("sign", "verify", "keygen")

# The names scheme looks up in its own namespace, by the layer defining them.
SCHEME_CALLS = {
    "keccak": ("shake256",),
    "ring": ("ntt_values", "intt_values", "center"),
    "rounding": ("decompose", "make_hint", "hint_weight", "norm_inf_exceeds",
                 "power2round", "use_hint"),
    "sampling": ("expand_a", "expand_mask", "expand_s", "sample_in_ball"),
    "sparse": ("encode_challenge", "fused_r0", "fused_z", "sparse_mul_branchless_vec"),
}
# The codec functions scheme calls through its `codec` module attribute.
CODEC_CALLS = ("sk_decode_extended", "pack_w1", "sig_encode", "pk_decode",
               "sig_decode", "pk_encode", "sk_encode")


class Op:
    """One keygen/sign/verify: its kind, level and exact counters."""

    __slots__ = ("kind", "level", "exact", "count")

    def __init__(self, kind, level, exact):
        self.kind, self.level, self.exact = kind, level, exact
        self.count = defaultdict(int)


class Attempt:
    """Kernel inputs of one signing attempt: challenge, secrets, y and w."""

    __slots__ = ("level", "dec", "y", "w", "c")

    def __init__(self, level, dec, y):
        self.level, self.dec, self.y, self.w, self.c = level, dec, y, None, None


class Tracer:
    def __init__(self, capture_limit: int = 0):
        self.spans = []            # (name, start, end, parent index, op index)
        self.ops = []
        self._stack = []
        self._hits = 0
        self._misses = 0
        # attempts captured per level for the kernel sweep, up to capture_limit
        self.captured = {lv: [] for lv in LEVELS}
        self._capture_limit = capture_limit
        self._dec = None
        self._attempt = None

    @contextlib.contextmanager
    def installed(self):
        layer_of = {n: layer for layer, names in SCHEME_CALLS.items() for n in names}
        saved = [(scheme, n, getattr(scheme, n)) for n in layer_of if hasattr(scheme, n)]
        saved += [(codec, n, getattr(codec, n)) for n in CODEC_CALLS if hasattr(codec, n)]
        info = sampling.expand_a.cache_info()
        self._hits, self._misses = info.hits, info.misses
        try:
            for module, name, fn in saved:
                layer = "codec" if module is codec else layer_of[name]
                setattr(module, name, self._wrap(f"{layer}.{name}", fn))
            yield self
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    def _wrap(self, name, fn):
        probe = getattr(self, "_probe_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, len(self.ops) - 1)
            if probe is not None:
                probe(args, out)
            return out

        return wrapper

    # -- probes: counters and kernel inputs read at the layer boundary --------

    def _rows(self, args):
        shape = getattr(args[0], "shape", ())
        rows = 1
        for d in shape[:-1]:
            rows *= d
        self.ops[-1].count["ntt_rows"] += rows

    def _probe_ring_ntt_values(self, args, out):
        self._rows(args)

    def _probe_ring_intt_values(self, args, out):
        self._rows(args)

    def _probe_sparse_fused_r0(self, args, out):
        op = self.ops[-1]
        op.count["r0_calls"] += 1
        op.count["r0_blocks"] += out.blocks

    def _probe_sparse_fused_z(self, args, out):
        op = self.ops[-1]
        op.count["z_calls"] += 1
        op.count["z_blocks"] += out.blocks

    def _probe_sampling_expand_a(self, args, out):
        info = sampling.expand_a.cache_info()
        op = self.ops[-1]
        op.count["a_hits"] += info.hits - self._hits
        op.count["a_misses"] += info.misses - self._misses
        self._hits, self._misses = info.hits, info.misses

    def _capturing(self):
        op = self.ops[-1]
        return op.kind == "sign" and len(self.captured[op.level]) < self._capture_limit

    def _probe_codec_sk_decode_extended(self, args, out):
        self._dec = out

    def _probe_sampling_expand_mask(self, args, out):
        if self._capturing():
            self._attempt = Attempt(self.ops[-1].level, self._dec, out.coeffs.astype("int64"))

    def _probe_rounding_decompose(self, args, out):
        if self._attempt is not None and self._attempt.w is None:
            self._attempt.w = args[0]

    def _probe_sampling_sample_in_ball(self, args, out):
        att, self._attempt = self._attempt, None
        if att is not None and self._capturing():
            att.c = out
            self.captured[att.level].append(att)

    # -- operations -----------------------------------------------------------

    def run_op(self, kind, level, exact, fn, *args):
        """Run one operation as a root span with counters; returns its output."""
        op = Op(kind, level, exact)
        self.ops.append(op)
        kwargs = {}
        if kind == "sign":
            kwargs["trace"] = tr = scheme.SignTrace()
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        with instrumentation.counting() as cn:
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = ("scheme." + kind, t0, t1, -1, len(self.ops) - 1)
                self._attempt = None
        op.count["modmul"] = cn.modmul
        op.count["xof_bytes"] = cn.xof_bytes
        if kind == "sign":
            op.count["attempts"] = tr.restarts + 1
            op.count["cs_modmul"] = tr.cs1_modmuls + tr.cs2_modmuls
            for checks in tr.iterations[:-1]:
                op.count["reject." + checks[-1]] += 1
        return out

    def write(self, path) -> None:
        """Write spans and per-operation counters as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            for i, op in enumerate(self.ops):
                f.write(json.dumps({"op": i, "kind": op.kind, "level": op.level,
                                    "exact": op.exact, "count": dict(op.count)}) + "\n")
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"span": i, "name": name, "start": t0, "end": t1,
                                    "parent": parent, "op": op}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics that come from spans and counters, as name -> (value, unit)."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, t0, t1, parent, op in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_ms = defaultdict(float)           # (kind, level, span name) -> ms
    root_ms = defaultdict(float)           # kind -> ms
    covered_ms = defaultdict(float)        # kind -> ms
    for i, (name, t0, t1, parent, op) in enumerate(spans):
        o = tracer.ops[op]
        self_ms[o.kind, o.level, name] += (t1 - t0 - child[i]) * 1e3
        if parent < 0:
            root_ms[o.kind] += (t1 - t0) * 1e3
            covered_ms[o.kind] += child[i] * 1e3

    n_ops = defaultdict(int)               # (kind, level) -> operations, all of them
    exact = defaultdict(int)               # (kind, level, counter) -> sum over the exact prefix
    n_exact = defaultdict(int)
    for o in tracer.ops:
        n_ops[o.kind, o.level] += 1
        if o.exact:
            n_exact[o.kind, o.level] += 1
            for key, v in o.count.items():
                exact[o.kind, o.level, key] += v

    def ms_per(name, kind, level=None):
        levels = LEVELS if level is None else (level,)
        return _ratio(sum(self_ms[kind, lv, name] for lv in levels),
                      sum(n_ops[kind, lv] for lv in levels))

    def count_per(key, kind, level=None):
        levels = LEVELS if level is None else (level,)
        return _ratio(sum(exact[kind, lv, key] for lv in levels),
                      sum(n_exact[kind, lv] for lv in levels))

    def exact_sum(key, level=None):
        levels = LEVELS if level is None else (level,)
        return sum(exact[k, lv, key] for k in KINDS for lv in levels)

    m = {}
    for lv in LEVELS:
        m[f"scheme.attempts_per_sign.l{lv}"] = (count_per("attempts", "sign", lv), "count")
    for check in ("z", "r0"):
        for lv in LEVELS:
            m[f"scheme.reject.{check}.l{lv}"] = (
                _ratio(exact_sum("reject." + check, lv), exact_sum("attempts", lv)), "ratio")
    for check in ("ct0", "hint"):
        m[f"scheme.reject.{check}"] = (
            _ratio(exact_sum("reject." + check), exact_sum("attempts")), "ratio")
    for lv in LEVELS:
        m[f"scheme.cs_modmul_per_sign.l{lv}"] = (count_per("cs_modmul", "sign", lv), "count")
    for kind in KINDS:
        m[f"scheme.{kind}.self_ms"] = (ms_per("scheme." + kind, kind), "ms")

    for lv in (2, 5):
        for fn in ("fused_r0", "fused_z", "encode_challenge"):
            m[f"sparse.{fn}.ms_per_sign.l{lv}"] = (ms_per("sparse." + fn, "sign", lv), "ms")
        for fn, key in (("fused_r0", "r0"), ("fused_z", "z")):
            m[f"sparse.{fn}.blocks_per_call.l{lv}"] = (
                _ratio(exact["sign", lv, key + "_blocks"], exact["sign", lv, key + "_calls"]),
                "blocks")

    for kind in KINDS:
        for fn in ("ntt_values", "intt_values"):
            m[f"ring.{fn}.ms_per_{kind}"] = (ms_per("ring." + fn, kind), "ms")
        m[f"ring.ntt_rows_per_{kind}"] = (count_per("ntt_rows", kind), "rows")
        m[f"ring.modmul_per_{kind}"] = (count_per("modmul", kind), "count")

    for kind in KINDS:
        m[f"sampling.expand_a.ms_per_{kind}"] = (ms_per("sampling.expand_a", kind), "ms")
    hits, misses = exact_sum("a_hits"), exact_sum("a_misses")
    m["sampling.expand_a.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    m["sampling.expand_mask.ms_per_sign"] = (ms_per("sampling.expand_mask", "sign"), "ms")
    for kind in ("sign", "verify"):
        m[f"sampling.sample_in_ball.ms_per_{kind}"] = (ms_per("sampling.sample_in_ball", kind), "ms")
    m["sampling.expand_s.ms_per_keygen"] = (ms_per("sampling.expand_s", "keygen"), "ms")

    for kind in KINDS:
        m[f"keccak.xof_bytes_per_{kind}"] = (count_per("xof_bytes", kind), "bytes")
    for kind in ("sign", "verify"):
        m[f"keccak.shake256.ms_per_{kind}"] = (ms_per("keccak.shake256", kind), "ms")

    for name, kind in (("decompose", "sign"), ("make_hint", "sign"),
                       ("norm_inf_exceeds", "sign"), ("norm_inf_exceeds", "verify"),
                       ("use_hint", "verify"), ("power2round", "keygen")):
        m[f"rounding.{name}.ms_per_{kind}"] = (ms_per("rounding." + name, kind), "ms")

    for name, kind in (("sk_decode_extended", "sign"), ("pack_w1", "sign"),
                       ("pack_w1", "verify"), ("sig_encode", "sign"),
                       ("pk_decode", "verify"), ("sig_decode", "verify"),
                       ("pk_encode", "keygen"), ("sk_encode", "keygen")):
        m[f"codec.{name}.ms_per_{kind}"] = (ms_per("codec." + name, kind), "ms")

    for kind in KINDS:
        m[f"trace.coverage.{kind}"] = (_ratio(covered_ms[kind], root_ms[kind]), "ratio")
    return m
