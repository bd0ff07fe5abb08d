import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tubal
from tubal import (
    RngStream,
    frobenius_norm,
    gaussian_tensor,
    identity_tensor,
    load_pgm_stack,
    load_tns,
    reconstruct,
    save_tns,
    tprod,
    transpose,
)
from tubal.cli import main
from tubal.decomp import TSVDFactors
from tubal.tio import save_pgm_stack


def run_cli(*args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path) as f:
        return json.load(f)


def test_bench_synthetic_writes_report(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli("bench", "synthetic", "--case", "1", "--n", "30", "--rank", "5",
                   "--delta", "0.01", "--eps", "0.05", "--rel", "--block", "10",
                   "--power", "1", "--seed", "3", "--out", out)
    assert code == 0
    data = read_json(out)
    assert data["method"] == "adaptive"
    assert data["estimated_rank"] == 5
    assert data["relative_error"] <= 0.05 * (1 + 1e-6)


def test_bench_synthetic_deterministic_modulo_walltime(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = run_cli("bench", "synthetic", "--case", "2", "--n", "20",
                       "--rank", "4", "--delta", "0.01", "--eps", "0.1", "--rel",
                       "--block", "5", "--power", "1", "--seed", "7", "--out", out)
        assert code == 0
        outs.append(out)
    texts = [p.read_text().splitlines() for p in outs]
    kept = [[ln for ln in t if "wall_time_ms" not in ln] for t in texts]
    assert kept[0] == kept[1]
    assert len(kept[0]) == len(texts[0]) - 1


def test_bench_hilbert(tmp_path):
    out = tmp_path / "h.json"
    code = run_cli("bench", "hilbert", "--kind", "1", "--n", "40", "--eps", "0.01",
                   "--rel", "--block", "8", "--power", "1", "--seed", "0",
                   "--out", out)
    assert code == 0
    data = read_json(out)
    assert data["relative_error"] <= 0.01 * (1 + 1e-6)
    assert data["dims"] == [40, 40, 40]


def test_adaptive_with_factors(tmp_path):
    x = gaussian_tensor(16, 12, 4, RngStream(5))
    tns = tmp_path / "x.tns"
    save_tns(x, tns)
    out = tmp_path / "r.json"
    prefix = tmp_path / "fac"
    code = run_cli("adaptive", "--in", tns, "--eps", "0.2", "--rel", "--block", "4",
                   "--power", "1", "--seed", "1", "--out", out,
                   "--save-factors", prefix)
    assert code == 0
    data = read_json(out)
    f = TSVDFactors(u=load_tns(f"{prefix}.U.tns"), s=load_tns(f"{prefix}.S.tns"),
                    v=load_tns(f"{prefix}.V.tns"), rank=data["estimated_rank"])
    err = frobenius_norm(x - reconstruct(f)) / frobenius_norm(x)
    assert err <= 0.2 * (1 + 1e-6)


def test_adaptive_exit_2_when_bound_unreachable(tmp_path):
    tns = tmp_path / "x.tns"
    save_tns(np.zeros((10, 10, 3)), tns)
    out = tmp_path / "r.json"
    # a zero residual is not below a bound of 0: the first sketch is
    # degenerate, so the run ends at rank 0 without meeting the bound
    code = run_cli("adaptive", "--in", tns, "--eps", "0", "--block", "7",
                   "--power", "0", "--seed", "1", "--out", out)
    assert code == 2
    report = read_json(out)
    assert report["estimated_rank"] == 0 and report["relative_error"] == 0.0


def test_tsvd_command(tmp_path):
    x = gaussian_tensor(10, 8, 3, RngStream(7))
    tns = tmp_path / "x.tns"
    save_tns(x, tns)
    out = tmp_path / "r.json"
    prefix = tmp_path / "fac"
    code = run_cli("tsvd", "--in", tns, "--rank", "8", "--out", out,
                   "--save-factors", prefix)
    assert code == 0
    data = read_json(out)
    assert data["method"] == "tsvd"
    assert data["relative_error"] <= 1e-10
    u = load_tns(f"{prefix}.U.tns")
    s = load_tns(f"{prefix}.S.tns")
    v = load_tns(f"{prefix}.V.tns")
    recon = tprod(tprod(u, s), transpose(v))
    assert frobenius_norm(x - recon) <= 1e-9 * frobenius_norm(x)


def test_compress_round_trip(tmp_path):
    # a visually simple stack: smooth low-rank images
    r = np.linspace(0, 1, 12)[:, None]
    c = np.linspace(0, 1, 10)[None, :]
    imgs = np.stack([0.5 + 0.4 * np.sin(2 * np.pi * (r + c + k / 5)) for k in range(5)],
                    axis=2) * 0.5
    src = tmp_path / "src"
    save_pgm_stack(src, imgs)
    out = tmp_path / "r.json"
    recon_dir = tmp_path / "recon"
    code = run_cli("compress", "--images", src, "--eps", "0.2", "--rel",
                   "--block", "2", "--power", "1", "--seed", "2", "--out", out,
                   "--save-recon", recon_dir)
    assert code == 0
    data = read_json(out)
    assert data["dims"] == [12, 10, 5]
    recon = load_pgm_stack(recon_dir)
    assert recon.shape == (12, 10, 5)
    src_stack = load_pgm_stack(src)
    err = frobenius_norm(src_stack - recon) / frobenius_norm(src_stack)
    assert err <= 0.25  # bound plus 8-bit quantization slack


def test_info_output(tmp_path, capsys):
    tns = tmp_path / "e.tns"
    save_tns(identity_tensor(4, 3), tns)
    assert run_cli("info", "--in", tns) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "dims: 4 x 4 x 3"
    assert lines[1].startswith("frobenius_norm: 2.0")
    assert lines[2] == "tubal_rank: 4"


def test_missing_file_exits_1(tmp_path, capsys):
    assert run_cli("info", "--in", tmp_path / "absent.tns") == 1
    assert "error" in capsys.readouterr().err


def test_bad_magic_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.tns"
    bad.write_bytes(b"JUNKJUNKJUNK" + b"\x00" * 40)
    assert run_cli("info", "--in", bad) == 1
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("adaptive", "--nonsense")
    assert exc.value.code == 1


def test_repeated_process_runs_identical_modulo_walltime(tmp_path):
    x = gaussian_tensor(14, 11, 4, RngStream(17))
    tns = tmp_path / "x.tns"
    save_tns(x, tns)
    # The child imports tubal from where this process did.
    src = str(Path(tubal.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    texts = []
    for name in ("p1.json", "p2.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "tubal.cli", "adaptive", "--in", str(tns),
             "--eps", "0.15", "--rel", "--block", "3", "--power", "1",
             "--seed", "5", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        texts.append(out.read_text().splitlines())
    kept = [[ln for ln in t if "wall_time_ms" not in ln] for t in texts]
    assert kept[0] == kept[1]


def test_csv_flag_appends(tmp_path):
    x = gaussian_tensor(10, 8, 3, RngStream(8))
    tns = tmp_path / "x.tns"
    save_tns(x, tns)
    csv_path = tmp_path / "runs.csv"
    for _ in range(2):
        code = run_cli("tsvd", "--in", tns, "--rank", "4",
                       "--out", tmp_path / "r.json", "--csv", csv_path)
        assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3
