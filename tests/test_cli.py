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


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def read_json(path):
    # Strict: a NaN or Infinity in a report fails the test that reads it.
    with open(path) as f:
        return json.load(f, parse_constant=_refuse_constant)


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


def test_bench_hilbert_power_2_meets_its_bound(tmp_path):
    # With power rounds on x itself, not on the residual, this job exited 0
    # with a relative error of 4.91e-6.
    out = tmp_path / "h.json"
    code = run_cli("bench", "hilbert", "--kind", "1", "--n", "80", "--eps", "1e-6",
                   "--rel", "--block", "5", "--power", "2", "--seed", "5", "--out", out)
    assert code == 0
    assert read_json(out)["relative_error"] <= 1e-6


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
                    v=load_tns(f"{prefix}.V.tns"))
    assert f.rank == data["estimated_rank"]
    err = frobenius_norm(x - reconstruct(f)) / frobenius_norm(x)
    assert err <= 0.2 * (1 + 1e-6)


def test_adaptive_factors_are_the_library_lift_of_its_qb(tmp_path):
    # --save-factors lifts the run's spectral pair; qb_to_tsvd lifts the same
    # pair after adaptive_qb inverted it, so the two differ by rounding only.
    x = gaussian_tensor(16, 12, 6, RngStream(9))
    tns = tmp_path / "x.tns"
    save_tns(x, tns)
    prefix = tmp_path / "fac"
    code = run_cli("adaptive", "--in", tns, "--eps", "0.3", "--rel", "--block", "3",
                   "--power", "1", "--seed", "4", "--out", tmp_path / "r.json",
                   "--save-factors", prefix)
    assert code == 0
    got = reconstruct(TSVDFactors(u=load_tns(f"{prefix}.U.tns"), s=load_tns(f"{prefix}.S.tns"),
                                  v=load_tns(f"{prefix}.V.tns")))
    cfg = tubal.AdaptiveConfig(epsilon=0.3 * frobenius_norm(x), block_size=3, power_iters=1,
                               seed=RngStream(4))
    want = reconstruct(tubal.qb_to_tsvd(tubal.adaptive_qb(x, cfg)))
    assert frobenius_norm(got - want) <= 1e-12 * frobenius_norm(want)


def test_adaptive_saves_no_factors_at_rank_0(tmp_path, capsys):
    # ||x||_F is below the bound, so the run succeeds at rank 0 with nothing to lift.
    tns = tmp_path / "x.tns"
    save_tns(gaussian_tensor(6, 5, 4, RngStream(1)), tns)
    out = tmp_path / "r.json"
    code = run_cli("adaptive", "--in", tns, "--eps", "2", "--rel", "--out", out,
                   "--save-factors", tmp_path / "fac")
    assert code == 0
    assert "no factors to save: estimated rank is 0" in capsys.readouterr().err
    report = read_json(out)
    assert report["estimated_rank"] == 0 and report["relative_error"] == 1.0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "x.tns"]


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


@pytest.mark.parametrize("flag, value", [("--block", "0"), ("--eps", "-1"),
                                         ("--power", "-1"), ("--eps", "nan"),
                                         ("--eps", "inf"), ("--eps", "1e160")])
def test_invalid_adaptive_flag_exits_1(flag, value, tmp_path, capsys):
    tns = tmp_path / "x.tns"
    save_tns(gaussian_tensor(6, 5, 3, RngStream(8)), tns)
    out = tmp_path / "r.json"
    flags = {"--eps": "0.1", "--block": "2", "--power": "1", flag: value}
    code = run_cli("adaptive", "--in", tns, "--out", out, *sum(flags.items(), ()))
    assert code == 1 and not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tubal: error:")


@pytest.mark.parametrize("eps", ["1e308", "1e300"])
def test_relative_eps_overflow_exits_1(eps, tmp_path, capsys):
    # eps * ||x||_F overflows to inf, which once went into the report as
    # Infinity; at 1e300 the product is finite but its square overflowed
    # into a traceback.
    tns = tmp_path / "x.tns"
    save_tns(gaussian_tensor(12, 10, 3, RngStream(8)), tns)
    out = tmp_path / "r.json"
    code = run_cli("adaptive", "--in", tns, "--out", out, "--eps", eps, "--rel")
    assert code == 1 and not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tubal: error:")


# numpy warns as the sum of squares overflows; the job then refuses x.
@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
def test_tsvd_job_refuses_norm_overflow(tmp_path, capsys):
    # The job once exited 0 with "relative_error": NaN.
    tns = tmp_path / "x.tns"
    save_tns(gaussian_tensor(12, 10, 3, RngStream(8)) * 1e160, tns)
    out = tmp_path / "r.json"
    code = run_cli("tsvd", "--in", tns, "--rank", "3", "--out", out)
    assert code == 1 and not out.exists()
    assert "overflows float64" in capsys.readouterr().err


# The transform of x overflows, and numpy warns; tubal_rank then refuses x.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_info_refuses_a_spectrum_that_overflows(tmp_path, capsys):
    # Finite entries whose spectrum is not: info printed numpy's LinAlgError
    # traceback after the dims and the norm.
    tns = tmp_path / "x.tns"
    save_tns(np.full((3, 3, 4), 1e308), tns)
    assert run_cli("info", "--in", tns) == 1
    err = capsys.readouterr().err
    assert err.startswith("tubal: error:") and "Traceback" not in err


@pytest.mark.parametrize("delta", ["nan", "inf", "-1"])
def test_invalid_delta_exits_1(delta, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run_cli("bench", "synthetic", "--case", "1", "--n", "8", "--rank", "2",
                   "--delta", delta, "--eps", "0.1", "--rel", "--out", out)
    assert code == 1 and not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tubal: error:")


def test_usage_error_exits_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("adaptive", "--nonsense")
    assert exc.value.code == 1


def _child(*args, **env):
    """``python -m tubal.cli *args`` in a child process, which imports tubal from where this one did."""
    src = str(Path(tubal.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "tubal.cli", *map(str, args)],
                          capture_output=True, text=True, env=env)


def _child_report(out, *args, **env):
    """The --out report of ``python -m tubal.cli *args`` in a child process, less wall_time_ms."""
    proc = _child(*args, "--out", out, **env)
    assert proc.returncode == 0, proc.stderr
    return [ln for ln in out.read_text().splitlines() if "wall_time_ms" not in ln]


def test_module_entry_runs_info(tmp_path):
    # python -m tubal.cli runs main, the console entry, through the module's __main__ guard.
    save_tns(gaussian_tensor(5, 4, 3, RngStream(3)), tmp_path / "x.tns")
    proc = _child("info", "--in", tmp_path / "x.tns")
    assert proc.returncode == 0, proc.stderr
    assert "dims: 5 x 4 x 3" in proc.stdout.splitlines()


def test_repeated_process_runs_identical_modulo_walltime(tmp_path):
    x = gaussian_tensor(14, 11, 4, RngStream(17))
    tns = tmp_path / "x.tns"
    save_tns(x, tns)
    kept = [_child_report(tmp_path / name, "adaptive", "--in", tns, "--eps", "0.15", "--rel",
                          "--block", "3", "--power", "1", "--seed", "5")
            for name in ("p1.json", "p2.json")]
    assert kept[0] == kept[1]


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_report_is_independent_of_the_blas_thread_count(tmp_path):
    # With the norm a threaded BLAS dot, the noise scaling, epsilon.absolute,
    # energy_trace and relative_error differed in their last digits between
    # 1 and 2 threads at n = 100.
    args = ("bench", "synthetic", "--case", "1", "--n", "100", "--eps", "0.01", "--rel",
            "--block", "5", "--seed", "3")
    kept = [_child_report(tmp_path / f"t{n}.json", *args, **dict.fromkeys(THREAD_VARS, n))
            for n in ("1", "2")]
    assert kept[0] == kept[1]


def test_tsvd_report_is_independent_of_the_blas_thread_count(tmp_path):
    # With one batched eigh at the BLAS thread count, relative_error differed
    # in its last digits between 1 and 2 threads; the slice walk runs every
    # eigh at one thread.
    tns = tmp_path / "x.tns"
    save_tns(gaussian_tensor(200, 200, 8, RngStream(11)), tns)
    kept = [_child_report(tmp_path / f"t{n}.json", "tsvd", "--in", tns, "--rank", "10",
                          **dict.fromkeys(THREAD_VARS, n))
            for n in ("1", "2")]
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
