"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by.  Two of the rank-recovery cases in criterion 1 encode a target that
the underlying singular-value profiles cannot meet at the stated tolerance
(the optimal rank-10 relative error of the decay profiles exceeds 0.01);
they are asserted as stated and fail honestly rather than being loosened.
"""

import json
import time

import numpy as np
import pytest

from tubal import (
    AdaptiveConfig,
    RngStream,
    SyntheticSpec,
    adaptive_qb,
    frobenius_norm,
    gaussian_tensor,
    gen_synthetic,
    run_adaptive,
    run_tsvd,
    save_tns,
    tprod,
    truncated_tsvd,
    reconstruct,
)
from tubal.cli import main as cli_main
from references import blocked_randqb_matrix, tprod_oracle


def check(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ------------------------------------------------------------- criterion 1

@pytest.mark.parametrize("case", ["1", "2", "3"])
def test_criterion_1_rank_recovery(case, tmp_path):
    ranks = {}
    for n in (100, 200):
        for seed in range(5):
            out = tmp_path / f"c{case}_n{n}_s{seed}.json"
            code = cli_main([
                "bench", "synthetic", "--case", case, "--n", str(n),
                "--rank", "10", "--delta", "0.01", "--eps", "0.01", "--rel",
                "--block", "25", "--power", "1", "--seed", str(seed),
                "--out", str(out),
            ])
            assert code == 0
            ranks[(n, seed)] = json.loads(out.read_text())["estimated_rank"]
    ok = all(r == 10 for r in ranks.values())
    seen = sorted(set(ranks.values()))
    check(f"1 (case {case})", ok,
          f"estimated ranks over n in {{100,200}} x 5 seeds: {seen}")


# ------------------------------------------------------------- criterion 2

def test_criterion_2_tolerance_contract():
    gen = RngStream(202).generator()
    eps_grid = [0.3, 0.1, 0.01]
    achieved_runs = 0
    worst = 0.0
    for run in range(100):
        i1 = int(gen.integers(5, 61))
        i2 = int(gen.integers(5, 61))
        i3 = int(gen.integers(1, 11))
        x = gaussian_tensor(i1, i2, i3, gen)
        eps_rel = eps_grid[run % 3]
        nx = frobenius_norm(x)
        cfg = AdaptiveConfig(epsilon=eps_rel * nx, block_size=5, power_iters=1,
                             seed=RngStream(1000 + run))
        qb = adaptive_qb(x, cfg)
        if qb.achieved:
            achieved_runs += 1
            err = frobenius_norm(x - tprod(qb.q, qb.b))
            ratio = err / (eps_rel * nx) if eps_rel * nx > 0 else 0.0
            worst = max(worst, ratio)
            if err > eps_rel * nx * (1 + 1e-6):
                check("2", False,
                      f"run {run}: error {err:.3e} above bound {eps_rel * nx:.3e}")
    check("2", achieved_runs > 0,
          f"{achieved_runs}/100 runs achieved; worst error/bound = {worst:.6f}")


# ------------------------------------------------------------- criterion 3

def test_criterion_3_energy_recursion_identity():
    gen = RngStream(303).generator()
    worst = 0.0
    for run in range(50):
        i1 = int(gen.integers(10, 45))
        i2 = int(gen.integers(10, 45))
        i3 = int(gen.integers(2, 9))
        x = gaussian_tensor(i1, i2, i3, gen)
        nx2 = frobenius_norm(x) ** 2
        b = int(gen.integers(2, 8))
        q = run % 3
        cfg = AdaptiveConfig(epsilon=0.25 * frobenius_norm(x), block_size=b,
                             power_iters=q, seed=RngStream(2000 + run))
        qb = adaptive_qb(x, cfg, trim=False)
        for i, energy in enumerate(qb.energy_trace, start=1):
            k = i * b
            direct = frobenius_norm(x - tprod(qb.q[:, :k, :], qb.b[:k, :, :])) ** 2
            gap = abs(energy - direct) / nx2
            worst = max(worst, gap)
            if gap > 1e-7:
                check("3", False, f"run {run} iter {i}: |E - direct|/||x||^2 = {gap:.2e}")
    check("3", True, f"50 tensors, worst |E - direct|/||x||^2 = {worst:.2e}")


# ------------------------------------------------------------- criterion 4

def test_criterion_4_tprod_oracle_equivalence():
    gen = RngStream(404).generator()
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        i1, i2, i3, i4 = (int(v) for v in gen.integers(1, 9, size=4))
        x = gaussian_tensor(i1, i2, i3, gen)
        y = gaussian_tensor(i2, i4, i3, gen)
        ref = tprod_oracle(x, y)
        gap = frobenius_norm(tprod(x, y) - ref) / (1 + frobenius_norm(ref))
        worst = max(worst, gap)
        if gap > 1e-11:
            check("4", False, f"pair dims {(i1, i2, i3, i4)}: rel gap {gap:.2e}")
    elapsed = time.perf_counter() - t0
    check("4", elapsed < 10.0,
          f"200 pairs, worst rel gap {worst:.2e}, {elapsed:.2f}s (< 10s)")


# ------------------------------------------------------------- criterion 5

def test_criterion_5_matrix_degeneration():
    gen = RngStream(505).generator()
    u = np.linalg.qr(gen.standard_normal((200, 150)))[0]
    v = np.linalg.qr(gen.standard_normal((150, 150)))[0]
    sigma = 0.8 ** np.arange(150)
    a = (u * sigma) @ v.T
    eps = 1e-3 * np.linalg.norm(a)

    seed = RngStream(506)
    q, b, rank = blocked_randqb_matrix(a, eps, block_size=10, power_iters=1,
                                       rng=seed)
    err_matrix = np.linalg.norm(a - q @ b)

    cfg = AdaptiveConfig(epsilon=eps, block_size=10, power_iters=1, seed=seed)
    qb = adaptive_qb(a[:, :, None].copy(), cfg, trim=False)
    err_tensor = frobenius_norm(a[:, :, None] - tprod(qb.q, qb.b))
    gap = abs(err_tensor - err_matrix)
    check("5", gap <= 1e-8 and qb.rank == rank,
          f"ranks {qb.rank}/{rank}, |err_tensor - err_matrix| = {gap:.2e}")


# ------------------------------------------------------------- criterion 6

def test_criterion_6_speed_ordering():
    x = gen_synthetic(SyntheticSpec(case="exact-lowrank", n=300, rank=10,
                                    delta=0.01, seed=RngStream(606)))
    cfg = AdaptiveConfig(epsilon=0.01, block_size=25, power_iters=1,
                         seed=RngStream(607))
    rep_a = run_adaptive(x, cfg, rel=True)
    rep_t = run_tsvd(x, rep_a.estimated_rank)
    ok = rep_a.wall_time_ms < rep_t.wall_time_ms and rep_a.estimated_rank == 10
    check("6", ok,
          f"adaptive {rep_a.wall_time_ms:.0f}ms (rank {rep_a.estimated_rank}) "
          f"vs tsvd {rep_t.wall_time_ms:.0f}ms")


# ------------------------------------------------------------- criterion 7

@pytest.mark.parametrize("kind", ["hilbert-1", "hilbert-2"])
def test_criterion_7_hilbert(kind):
    x = gen_synthetic(SyntheticSpec(case=kind, n=100))
    ranks = []
    for eps_rel in (0.001, 0.01, 0.1):
        cfg = AdaptiveConfig(epsilon=eps_rel, block_size=20, power_iters=1,
                             seed=RngStream(707))
        rep = run_adaptive(x, cfg, rel=True)
        if not (rep.result.achieved and rep.relative_error <= eps_rel * (1 + 1e-6)):
            check(f"7 ({kind})", False,
                  f"eps {eps_rel}: achieved={rep.result.achieved}, "
                  f"err={rep.relative_error:.2e}")
        ranks.append(rep.estimated_rank)
    ok = ranks[0] >= ranks[1] >= ranks[2]
    check(f"7 ({kind})", ok, f"ranks at eps 0.001/0.01/0.1: {ranks}")


# ------------------------------------------------------------- criterion 8

def test_criterion_8_eckart_young_ordering():
    gen = RngStream(808).generator()
    worst = -np.inf
    for run in range(50):
        i1 = int(gen.integers(8, 31))
        i2 = int(gen.integers(8, 31))
        i3 = int(gen.integers(1, 7))
        x = gaussian_tensor(i1, i2, i3, gen)
        nx = frobenius_norm(x)
        cfg = AdaptiveConfig(epsilon=0.4 * nx, block_size=4, power_iters=1,
                             seed=RngStream(3000 + run))
        qb = adaptive_qb(x, cfg)
        if qb.rank == 0:
            continue
        err_qb = frobenius_norm(x - tprod(qb.q, qb.b))
        err_t = frobenius_norm(x - reconstruct(truncated_tsvd(x, qb.rank)))
        excess = (err_t - err_qb) / nx
        worst = max(worst, excess)
        if err_t > err_qb + 1e-9 * nx:
            check("8", False, f"run {run}: tsvd error above QB error by {excess:.2e}")
    check("8", True, f"50 tensors, max (tsvd - qb)/||x|| = {worst:.2e}")


# ------------------------------------------------------------- criterion 9

def test_criterion_9_cli_determinism(tmp_path):
    x = gaussian_tensor(24, 18, 5, RngStream(909))
    tns = tmp_path / "x.tns"
    save_tns(x, tns)
    texts = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = cli_main(["adaptive", "--in", str(tns), "--eps", "0.1", "--rel",
                         "--block", "6", "--power", "1", "--seed", "11",
                         "--out", str(out)])
        assert code == 0
        texts.append(out.read_text().splitlines())
    kept = [[ln for ln in t if "wall_time_ms" not in ln] for t in texts]
    dropped = [len(t) - len(k) for t, k in zip(texts, kept)]
    ok = kept[0] == kept[1] and dropped == [1, 1]
    check("9", ok, "reports byte-identical apart from the wall_time_ms line")
