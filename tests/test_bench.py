import pytest

from sparsedil import bench, scheme
from sparsedil.scheme import Backend


def test_run_bench_signs_each_message_once(monkeypatch):
    signed, verified = [], []
    sign, verify = scheme.sign, scheme.verify

    def recording_sign(*args, **kwargs):
        signed.append(sign(*args, **kwargs))
        return signed[-1]

    def recording_verify(params, pk, message, sig):
        verified.append(sig)
        return verify(params, pk, message, sig)

    monkeypatch.setattr(scheme, "sign", recording_sign)
    monkeypatch.setattr(scheme, "verify", recording_verify)
    backends = ["ntt", "sparse-fused"]
    rows = bench.run_bench(2, backends=backends, iterations=3)
    assert len(signed) == len(backends) * (bench.WARMUP + 3)
    assert verified == signed         # the verify rows check the sign rows' signatures
    assert [r.iterations for r in rows] == [3] * 3 * len(backends)


def test_run_bench_backend_selection():
    rows = bench.run_bench(2, iterations=1)
    assert [(r.procedure, r.backend) for r in rows] == [
        (proc, b.value) for b in Backend for proc in ("keygen", "sign", "verify")]
    assert bench.run_bench(2, backends=[], iterations=1) == []


def test_run_bench_parses_backend_text():
    # the CLI's hyphen spelling, the value and the member all select one backend
    for backend in ("sparse-fused", "sparse_fused", Backend.SPARSE_FUSED):
        rows = bench.run_bench(2, backends=[backend], iterations=1)
        assert [r.backend for r in rows] == ["sparse_fused"] * 3
    with pytest.raises(ValueError):
        bench.run_bench(2, backends=["fft"], iterations=1)
    with pytest.raises(TypeError):
        bench.run_bench(2, [])        # the count has no default


def test_parse_csv_rejects_wrong_field_count():
    text = bench.format_csv(bench.run_bench(2, backends=["sparse"], iterations=1))
    assert bench.parse_csv(text)[1].procedure == "sign"
    with pytest.raises(ValueError):
        bench.parse_csv(text + ",0.0")
    with pytest.raises(ValueError):
        bench.parse_csv(text.rsplit(",", 1)[0])
