import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparsedil import bench, cli, codec, ring, rounding, scheme, sparse
from sparsedil.params import N, Q, param_set
from sparsedil.scheme import Backend

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
    err = capsys.readouterr().err
    assert "1312" in err


@pytest.mark.parametrize("flags", [[], ["--hex"]], ids=["raw", "hex"])
def test_keygen_public_key_on_stdout_is_only_the_key(tmp_path, capsysbinary, flags):
    # status and seed lines go to stderr, so `--pk - > pk.bin` is a usable key
    rc = run(["keygen", "--level", "2", "--pk", "-", "--sk", str(tmp_path / "sk"), *flags])
    assert rc == 0
    captured = capsysbinary.readouterr()
    size = codec.pk_size(param_set(2))
    if flags:
        assert captured.out.count(b"\n") == 1 and captured.out.endswith(b"\n")
        assert len(bytes.fromhex(captured.out.decode())) == size
    else:
        assert len(captured.out) == size
    assert b"seed: " in captured.err and b"1312-byte public key" in captured.err
    (tmp_path / "pk").write_bytes(captured.out)
    (tmp_path / "msg").write_bytes(b"piped key")
    assert run(["sign", "--sk", str(tmp_path / "sk"), *flags, "--in", str(tmp_path / "msg"),
                "--out", str(tmp_path / "sig")]) == 0
    assert run(["verify", "--pk", str(tmp_path / "pk"), *flags, "--in", str(tmp_path / "msg"),
                "--sig", str(tmp_path / "sig")]) == 0


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


def _keygen_sign(tmp_path, level="2"):
    rc = run(["keygen", "--level", level, "--seed", SEED_HEX,
              "--pk", str(tmp_path / "pk"), "--sk", str(tmp_path / "sk")])
    assert rc == 0
    (tmp_path / "msg").write_bytes(b"attack at dawn")
    assert run(["sign", "--sk", str(tmp_path / "sk"), "--in", str(tmp_path / "msg"),
                "--out", str(tmp_path / "sig")]) == 0


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
def test_signature_file_equals_every_backends_signature(tmp_path, level):
    _keygen_sign(tmp_path, level=level)
    p, sk = param_set(int(level)), (tmp_path / "sk").read_bytes()
    sig = (tmp_path / "sig").read_bytes()
    for backend in Backend:
        assert sig == scheme.sign(p, sk, b"attack at dawn", backend=backend), backend


def test_sign_backend_flag_is_usage_error(tmp_path):
    _keygen_sign(tmp_path)
    (tmp_path / "sig").unlink()
    with pytest.raises(SystemExit) as exc:
        run(["sign", "--sk", str(tmp_path / "sk"), "--in", str(tmp_path / "msg"),
             "--out", str(tmp_path / "sig"), "--backend", "ntt"])
    assert exc.value.code == 2
    assert not (tmp_path / "sig").exists()


def test_sign_reads_stdin_message(tmp_path):
    rc = run(["keygen", "--level", "2", "--seed", SEED_HEX,
              "--pk", str(tmp_path / "pk"), "--sk", str(tmp_path / "sk")])
    assert rc == 0
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sparsedil.cli", "sign", "--sk", str(tmp_path / "sk"),
         "--in", "-", "--out", str(tmp_path / "sig")],
        input=b"from stdin", capture_output=True, env=env)
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


def test_selftest_names_lossy_transform(monkeypatch, capsys):
    # a BLAS that keeps 47 significant bits instead of 53: exact on the stage
    # sums that signing produces, wrong only near the 2^48 worst case
    real = ring._product

    def forty_seven_bit_product(a, b):
        m, e = np.frexp(real(a, b))
        return np.ldexp(np.round(m * 2.0**47) / 2.0**47, e)

    monkeypatch.setattr(ring, "_product", forty_seven_bit_product)
    rc = run(["selftest", "--level", "2", "--trials", "2"])
    assert rc == 3
    out = capsys.readouterr().out
    assert "[FAIL] ntt-exactness" in out
    assert "differs from its definition" in out
    assert "1 self-test section(s) failed" in out


def test_selftest_names_unpacker_that_drops_a_top_bit(monkeypatch, capsys):
    real = codec.unpack_bits

    def top_bit_lost(data, width, count):
        return real(data, width, count) & ((1 << (width - 1)) - 1)

    monkeypatch.setattr(codec, "unpack_bits", top_bit_lost)
    rc = run(["selftest", "--level", "2", "--trials", "2"])
    assert rc == 3
    out = capsys.readouterr().out
    assert "[FAIL] codec-level2" in out
    assert "differs from a bit reader at width 10" in out


def test_selftest_reports_any_exception_and_continues(monkeypatch, capsys):
    def overflow(*args):
        raise OverflowError("int too big to convert")

    monkeypatch.setattr(rounding, "make_hint", overflow)
    rc = run(["selftest", "--level", "2", "--trials", "2"])
    assert rc == 3
    out = capsys.readouterr().out
    assert "[FAIL] hint-recovery-level2: OverflowError: int too big to convert" in out
    assert "[ok] sign-verify-level2" in out
    assert "1 self-test section(s) failed" in out


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


@pytest.mark.parametrize("argv", [["selftest", "--level", "2", "--trials", "-1"],
                                  ["selftest", "--trials", "0"],
                                  ["bench", "--level", "2", "--iterations", "0"],
                                  ["bench", "--level", "2", "--iterations", "many"],
                                  ["analyze", "--trials", "-5"],
                                  ["analyze", "--trials", "0"],
                                  ["analyze", "--bound", "0"],
                                  ["analyze", "--eta", "0"],
                                  ["analyze", "--tau", "-1"]])
def test_vacuous_counts_are_usage_errors(argv, capsys):
    # --trials -1 used to pass selftest without multiplying anything,
    # --iterations 0 ended in a statistics error, and analyze printed its
    # whole report before it rejected --trials -5 or --bound 0
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "expected an integer >= 1" in err


def test_selftest_names_codec_pair_sharing_a_bug(monkeypatch, capsys):
    # an encoder and decoder that both swap hint rows 0 and 1 roundtrip and
    # sign-verify fine; only the byte-image check of the codec section sees it
    real_encode, real_decode = codec._encode_hints, codec._decode_hints

    def swapped(h):
        return np.asarray(h)[[1, 0, *range(2, len(h))]]

    monkeypatch.setattr(codec, "_encode_hints", lambda h, p: real_encode(swapped(h), p))
    monkeypatch.setattr(codec, "_decode_hints", lambda data, p: swapped(real_decode(data, p)))
    rc = run(["selftest", "--trials", "2"])
    assert rc == 3
    out = capsys.readouterr().out
    failed = [line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("[FAIL]")]
    assert failed == ["codec-level2", "codec-level3", "codec-level5"]
    assert "round-3 layout" in out
