import subprocess
import sys

import pytest

from sparsedil import bench, cli, sparse

SEED_HEX = "00" * 32


def run(argv):
    return cli.main(argv)


def test_keygen_reproducible(tmp_path, capsys):
    for run_dir in ("a", "b"):
        d = tmp_path / run_dir
        d.mkdir()
        rc = run(["keygen", "--level", "2", "--seed", SEED_HEX,
                  "--pk", str(d / "pk"), "--sk", str(d / "sk")])
        assert rc == 0
    assert (tmp_path / "a/pk").read_bytes() == (tmp_path / "b/pk").read_bytes()
    assert (tmp_path / "a/sk").read_bytes() == (tmp_path / "b/sk").read_bytes()
    assert len((tmp_path / "a/pk").read_bytes()) == 1312
    out = capsys.readouterr().out
    assert "1312" in out


def test_keygen_fresh_seed_differs(tmp_path):
    for name in ("x", "y"):
        rc = run(["keygen", "--level", "2",
                  "--pk", str(tmp_path / f"pk{name}"), "--sk", str(tmp_path / f"sk{name}")])
        assert rc == 0
    assert (tmp_path / "pkx").read_bytes() != (tmp_path / "pky").read_bytes()


def test_keygen_missing_dir_no_partial_files(tmp_path, capsys):
    missing = tmp_path / "nope" / "pk"
    rc = run(["keygen", "--level", "2", "--pk", str(missing),
              "--sk", str(tmp_path / "sk")])
    assert rc == 2
    assert not (tmp_path / "sk").exists()
    assert "directory" in capsys.readouterr().err


def test_keygen_bad_seed(tmp_path, capsys):
    rc = run(["keygen", "--level", "2", "--seed", "abc",
              "--pk", str(tmp_path / "pk"), "--sk", str(tmp_path / "sk")])
    assert rc == 2


def _keygen_sign(tmp_path, level="2", backend=None):
    rc = run(["keygen", "--level", level, "--seed", SEED_HEX,
              "--pk", str(tmp_path / "pk"), "--sk", str(tmp_path / "sk")])
    assert rc == 0
    (tmp_path / "msg").write_bytes(b"attack at dawn")
    argv = ["sign", "--sk", str(tmp_path / "sk"), "--in", str(tmp_path / "msg"),
            "--out", str(tmp_path / "sig")]
    if backend:
        argv += ["--backend", backend]
    assert run(argv) == 0


def test_sign_verify_roundtrip(tmp_path):
    _keygen_sign(tmp_path)
    rc = run(["verify", "--pk", str(tmp_path / "pk"), "--in", str(tmp_path / "msg"),
              "--sig", str(tmp_path / "sig")])
    assert rc == 0


def test_verify_rejects_corruption(tmp_path):
    _keygen_sign(tmp_path)
    sig = bytearray((tmp_path / "sig").read_bytes())
    sig[100] ^= 1
    (tmp_path / "sig").write_bytes(bytes(sig))
    rc = run(["verify", "--pk", str(tmp_path / "pk"), "--in", str(tmp_path / "msg"),
              "--sig", str(tmp_path / "sig")])
    assert rc == 1


def test_verify_rejects_truncation(tmp_path):
    _keygen_sign(tmp_path)
    (tmp_path / "sig").write_bytes((tmp_path / "sig").read_bytes()[:-3])
    rc = run(["verify", "--pk", str(tmp_path / "pk"), "--in", str(tmp_path / "msg"),
              "--sig", str(tmp_path / "sig")])
    assert rc == 1


def test_verify_rejects_wrong_message(tmp_path):
    _keygen_sign(tmp_path)
    (tmp_path / "msg2").write_bytes(b"attack at dusk")
    rc = run(["verify", "--pk", str(tmp_path / "pk"), "--in", str(tmp_path / "msg2"),
              "--sig", str(tmp_path / "sig")])
    assert rc == 1


@pytest.mark.parametrize("level", ["2", "5"])
def test_backends_produce_identical_signature_files(tmp_path, level):
    sigs = []
    for backend in ("ntt", "sparse", "sparse-fused"):
        d = tmp_path / backend
        d.mkdir()
        _keygen_sign(d, level=level, backend=backend)
        sigs.append((d / "sig").read_bytes())
    assert sigs[0] == sigs[1] == sigs[2]


def test_sign_reads_stdin_message(tmp_path):
    rc = run(["keygen", "--level", "2", "--seed", SEED_HEX,
              "--pk", str(tmp_path / "pk"), "--sk", str(tmp_path / "sk")])
    assert rc == 0
    proc = subprocess.run(
        [sys.executable, "-m", "sparsedil.cli", "sign", "--sk", str(tmp_path / "sk"),
         "--in", "-", "--out", str(tmp_path / "sig")],
        input=b"from stdin", capture_output=True)
    assert proc.returncode == 0
    (tmp_path / "msg").write_bytes(b"from stdin")
    assert run(["verify", "--pk", str(tmp_path / "pk"), "--in", str(tmp_path / "msg"),
                "--sig", str(tmp_path / "sig")]) == 0


def test_hex_mode_roundtrip(tmp_path):
    rc = run(["keygen", "--level", "2", "--seed", SEED_HEX, "--hex",
              "--pk", str(tmp_path / "pk.hex"), "--sk", str(tmp_path / "sk.hex")])
    assert rc == 0
    text = (tmp_path / "pk.hex").read_bytes()
    assert len(text.strip()) == 2 * 1312
    bytes.fromhex(text.strip().decode())
    (tmp_path / "msg").write_bytes(b"hex mode")
    assert run(["sign", "--sk", str(tmp_path / "sk.hex"), "--hex",
                "--in", str(tmp_path / "msg"), "--out", str(tmp_path / "sig.hex")]) == 0
    assert run(["verify", "--pk", str(tmp_path / "pk.hex"), "--hex",
                "--in", str(tmp_path / "msg"), "--sig", str(tmp_path / "sig.hex")]) == 0


def test_env_var_backend_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_BACKEND, "ntt")
    _keygen_sign(tmp_path)
    err = capsys.readouterr().err
    assert "ntt" in err


def test_malformed_sk_is_usage_error(tmp_path, capsys):
    (tmp_path / "sk").write_bytes(b"not a key")
    (tmp_path / "msg").write_bytes(b"m")
    rc = run(["sign", "--sk", str(tmp_path / "sk"), "--in", str(tmp_path / "msg"),
              "--out", str(tmp_path / "sig")])
    assert rc == 2
    assert "secret key" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["keygen", "--level", "9"])
    assert exc.value.code == 2


def test_selftest_passes(capsys):
    rc = run(["selftest", "--level", "2", "--trials", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "oracle-chain-level2" in out
    assert "trials=10" in out
    assert "all self-tests passed" in out


def test_selftest_names_broken_oracle(monkeypatch, capsys):
    real = sparse.sparse_mul_branchless

    def corrupted(index, ext, tau):
        out = real(index, ext, tau).copy()
        out[0] += 1
        return out

    monkeypatch.setattr(sparse, "sparse_mul_branchless", corrupted)
    rc = run(["selftest", "--level", "2", "--trials", "5"])
    assert rc == 3
    out = capsys.readouterr().out
    assert "[FAIL] oracle-chain-level2" in out
    assert "branchless" in out


def test_bench_text_and_csv(capsys):
    rc = run(["bench", "--level", "2", "--backend", "sparse", "--backend", "ntt",
              "--iterations", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    for proc in ("keygen", "sign", "verify"):
        assert sum(proc in line for line in out.splitlines()) == 2  # one per backend
    rc = run(["bench", "--level", "2", "--backend", "sparse", "--iterations", "2",
              "--format", "csv"])
    assert rc == 0
    csv_text = capsys.readouterr().out
    rows = bench.parse_csv(csv_text)
    assert [r.procedure for r in rows] == ["keygen", "sign", "verify"]
    assert rows[1].backend == "sparse" and rows[1].cs_modmuls == 0
    assert bench.format_csv(rows) == csv_text.strip()


def test_analyze_default_prints_frozen_figures(capsys):
    rc = run(["analyze"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "6.706350411547372e-14" in out
    assert "1.716671249596402e-11" in out
    assert "l=5" in out


def test_analyze_strict_tail_zero_beyond_support(capsys):
    rc = run(["analyze", "--eta", "1", "--tau", "2", "--bound", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "P(|u| > 2)  exact = 0" in out


def test_analyze_hand_convolution_case(capsys):
    rc = run(["analyze", "--eta", "1", "--tau", "2", "--bound", "1", "--trials", "20000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "P(|u| > 1)  exact = 2/9" in out
    assert "monte carlo" in out
