"""Closed-loop benchmark of one workload: timed phases, correctness gate, metrics.

A run repeats one round of phases, each waiting for the previous one
(closed loop, one client):

  setup   build the workload's input from the seed and write its files
  solve   adaptive_qb on the in-memory tensor
  verify  recompute ||x - Q*B||_F / ||x||_F with the library
  cli     the same job as one in-process ``tubal.cli.main([...])`` call
  tsvd    truncated_tsvd at the workload's fixed rank r_w
  rtsvd   randomized_tsvd at r_w (oversample 5, power 1)

Every phase is checked against the NumPy-only oracle in ``reference``;
a failed check or an exception counts as a failed operation and the run
goes on.  Timings are medians over rounds, so set-up is sampled across
the whole run like every other phase.  The traced run reports per-layer
numbers.

In the untraced run, set-up runs in a forked child each round; the first
one also computes the oracle's singular-value tail and hands x over in a
``.npy`` file.  The measuring process's ``ru_maxrss`` (``peak_rss_mb``)
then covers the timed phases, the loaded input and the oracle's
row-blocked checks only.
"""

import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference
import tubal
import tubal.cli
from tracing import Tracer
from workloads import OVERSAMPLE, POWER, Workload

# A phase repeats within a round until it has run MIN_PHASE_SECONDS, so
# cheap phases yield more samples for their medians.  The minimum
# shrinks to PHASE_SHARE of a short --seconds, so that a zero-second
# smoke run makes one call per phase.
MIN_PHASE_SECONDS = 0.5
PHASE_SHARE = 0.02
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
PHASES = ("solve", "verify", "cli", "tsvd", "rtsvd")
LAYER_UNITS = {"calls": "count", "x_calls": "count", "self_s": "s",
               "bytes": "bytes_computed", "flops": "flop_computed"}
# Library errors must match the oracle's to rounding; both sides are
# accurate to ~1e-12 relative at these sizes.
ORACLE_RTOL = 1e-8


class Bench:
    """State of one run: the input, the oracle's answers, timings and failures."""

    def __init__(self, w: Workload, seed: int, workdir: Path):
        self.w = w
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.attempted = 0
        self.failures = []
        self.failed_ops = set()
        self.samples = defaultdict(list)
        self.round_wall = defaultdict(float)
        self.quality = {}
        self.min_phase_seconds = 0.0
        self.x = None
        self.cli_report = workdir / "cli.json"
        common = ["--eps", repr(w.eps), "--rel", "--block", str(w.block),
                  "--power", str(POWER), "--seed", str(seed), "--out", str(self.cli_report)]
        if w.files == "pgm":
            self.cli_argv = ["compress", "--images", str(workdir / "images"), *common,
                             "--save-recon", str(workdir / "recon")]
        else:
            self.cli_argv = ["adaptive", "--in", str(workdir / "x.tns"), *common,
                             "--save-factors", str(workdir / "factors")]

    def fail(self, what: str) -> None:
        """Record a failure of the operation attempted last."""
        self.failures.append(what)
        self.failed_ops.add(self.attempted)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)

    def timed(self, phase: str, fn):
        """Run one operation, timing it and counting it; an exception is a failure."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.phase = phase
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # noqa: BLE001 - any error is a failed operation
            self.fail(f"{phase}: {type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.phase = None
                self.round_wall[self.tracer.round] += elapsed
        self.samples[phase].append(elapsed)
        return out

    def build(self):
        """Build the input and write its files (one setup)."""
        x = self.w.make(self.seed)
        if self.w.files == "pgm":
            tubal.save_pgm_stack(self.workdir / "images", x)
        else:
            tubal.save_tns(x, self.workdir / "x.tns")
        return x

    def prepare(self, tail: np.ndarray) -> None:
        """Untimed oracle work from the singular-value tail of x: norms, the optimal rank."""
        self.norm = float(np.linalg.norm(self.x))
        self.x_size = self.x.size
        self.eps_abs = self.w.eps * self.norm
        self.optimal_rank = reference.optimal_rank(tail, self.eps_abs)
        self.tsvd_err = float(np.sqrt(tail[self.w.rank])) / self.norm
        self.cfg = tubal.AdaptiveConfig(epsilon=self.eps_abs, block_size=self.w.block,
                                        power_iters=POWER, seed=tubal.RngStream(self.seed))

    def solve(self, phase: str = "solve"):
        qb = self.timed(phase, lambda: tubal.adaptive_qb(self.x, self.cfg))
        if qb is None:
            return None
        self.check(qb.achieved, "solve: achieved=False")
        first = self.quality.setdefault("rank", qb.rank)
        self.check(qb.rank == first, f"solve: rank {qb.rank} differs from first round's {first}")
        self.quality.setdefault("blocks", len(qb.energy_trace))
        return qb

    def verify(self, qb) -> None:
        x = self.x
        err = self.timed("verify",
                         lambda: tubal.frobenius_norm(x - tubal.tprod(qb.q, qb.b)) / self.norm)
        if err is None:
            return
        self.check(err <= self.w.eps, f"verify: error {err:.6g} above eps {self.w.eps}")
        if "err_ratio" not in self.quality:
            self.quality["err_ratio"] = err / self.w.eps
            oracle = reference.tprod_error(x, qb.q, qb.b)
            self.check(abs(oracle - err) <= ORACLE_RTOL * err,
                       f"verify: library error {err!r} != oracle {oracle!r}")

    def cli(self, qb) -> None:
        self.cli_report.unlink(missing_ok=True)
        code = self.timed("cli", lambda: tubal.cli.main(self.cli_argv))
        if code is None:
            return
        self.check(code == 0, f"cli: exit code {code}")
        if code != 0:
            return
        report = json.loads(self.cli_report.read_text())
        if qb is not None:
            self.check(report["estimated_rank"] == qb.rank,
                       f"cli: rank {report['estimated_rank']} != in-process rank {qb.rank}")
        self.check(report["relative_error"] <= self.w.eps,
                   f"cli: error {report['relative_error']:.6g} above eps {self.w.eps}")

    def tsvd(self) -> None:
        f = self.timed("tsvd", lambda: tubal.truncated_tsvd(self.x, self.w.rank))
        if f is None:
            return
        err = reference.tprod_error(self.x, f.u, f.s, f.v, adjoint_last=True)
        self.check(abs(err - self.tsvd_err) <= ORACLE_RTOL * self.tsvd_err,
                   f"tsvd: error {err!r} != oracle {self.tsvd_err!r}")

    def rtsvd(self) -> None:
        rng = tubal.RngStream(self.seed, 1)
        f = self.timed("rtsvd", lambda: tubal.randomized_tsvd(
            self.x, self.w.rank, OVERSAMPLE, POWER, rng))
        if f is None:
            return
        err = reference.tprod_error(self.x, f.u, f.s, f.v, adjoint_last=True)
        ratio = err / self.tsvd_err
        # No rank-r_w approximation beats the truncated t-SVD (Eckart-Young).
        self.check(ratio >= 1.0 - ORACLE_RTOL, f"rtsvd: error ratio {ratio!r} below 1")
        self.quality.setdefault("rtsvd_err_ratio", ratio)

    def repeat(self, phase):
        """Run a phase once, then again while it has run less than min_phase_seconds."""
        start = time.perf_counter()
        out = phase()
        while time.perf_counter() - start < self.min_phase_seconds:
            out = phase()
        return out

    def round(self) -> None:
        self.rest(self.repeat(self.solve))

    def rest(self, qb) -> None:
        """The phases after solve, on its result."""
        if qb is not None:
            self.repeat(lambda: self.verify(qb))
        self.repeat(lambda: self.cli(qb))
        self.repeat(self.tsvd)
        self.repeat(self.rtsvd)


def _median(values):
    return statistics.median(values) if values else None


def _loop(seconds: float, min_rounds: int, body) -> int:
    """Repeat body until min_rounds are done and another would overrun the budget."""
    start = time.perf_counter()
    rounds = 0
    while True:
        body(rounds)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            return rounds


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(x: np.ndarray) -> dict:
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    layout = ("C" if x.flags.c_contiguous else "F" if x.flags.f_contiguous else "strided")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "input": {"shape": list(x.shape), "dtype": str(x.dtype), "layout": layout},
    }


def _set_up(conn, bench: Bench, first: bool) -> None:
    """Child process: time the set-up repetitions and send the times.

    The first child of a run also saves x and sends the oracle's tail.
    """
    setups = []

    def once():
        start = time.perf_counter()
        x = bench.build()
        setups.append(time.perf_counter() - start)
        return x

    x = bench.repeat(once)
    tail = None
    if first:
        np.save(bench.workdir / "x.npy", x)
        tail = reference.tail_energy(x)
    conn.send((setups, tail))
    conn.close()


def set_up(bench: Bench) -> list:
    """Run one round's set-up repetitions in a forked child; return their times.

    The child's memory does not count toward this process's ``ru_maxrss``.
    On the first call, load the x the child made and prepare the oracle.
    """
    first = bench.x is None
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_set_up, args=(sender, bench, first))
    child.start()
    sender.close()
    try:
        setups, tail = receiver.recv()
    except EOFError:
        setups = None
    finally:
        receiver.close()
        child.join()
    if setups is None or child.exitcode != 0:
        raise RuntimeError(f"set-up child failed with exit code {child.exitcode}")
    if first:
        x_file = bench.workdir / "x.npy"
        bench.x = np.load(x_file)
        x_file.unlink()
        bench.prepare(tail)
    return setups


def run(w: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Untraced run: every end-to-end metric as {name: (value, unit, samples)}."""
    bench = Bench(w, seed, workdir)
    bench.min_phase_seconds = min(MIN_PHASE_SECONDS, PHASE_SHARE * seconds)
    setups = []

    def round_(_):
        setups.extend(set_up(bench))
        bench.round()

    rounds = _loop(seconds, MIN_ROUNDS, round_)

    metrics = {"setup_s": (_median(setups), "s", len(setups))}
    for phase in PHASES:
        metrics[f"{phase}_s"] = (_median(bench.samples[phase]), "s", len(bench.samples[phase]))
    metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB", 1)
    q = bench.quality
    if "rank" in q:
        metrics["rank"] = (q["rank"], "count", 1)
        metrics["rank_excess"] = (q["rank"] - bench.optimal_rank, "count", 1)
    if "err_ratio" in q:
        metrics["err_ratio"] = (q["err_ratio"], "ratio", 1)
    if "rtsvd_err_ratio" in q:
        metrics["rtsvd_err_ratio"] = (q["rtsvd_err_ratio"], "ratio", 1)
    metrics["fail_frac"] = (len(bench.failed_ops) / bench.attempted, "ratio", bench.attempted)
    return {"metrics": metrics, "bench": bench, "rounds": rounds,
            "fingerprint": fingerprint(bench.x)}


def run_traced(w: Workload, seed: int, seconds: float, workdir: Path,
               spans_path: Path | None = None) -> dict:
    """Traced run: per-layer metrics as {name: (value, unit, samples)}.

    Whole rounds (setup included, one call per phase, so that per-round
    counts do not depend on speed) are traced.  Each round also makes
    one solve with the tracer uninstalled, next to the traced one and
    alternately before and after it; ``tracing.overhead_s`` is the median
    over rounds of the traced minus the untraced time.  Values are
    medians over rounds.
    """
    tracer = Tracer()
    bench = Bench(w, seed, workdir)
    bench.x = bench.build()
    bench.prepare(reference.tail_energy(bench.x))

    def untraced_solve():
        tracer.uninstall()
        bench.tracer = None
        try:
            bench.solve("untraced_solve")
        finally:
            tracer.install()
            bench.tracer = tracer

    overheads = []

    def traced_round(index):
        tracer.round = index
        bench.x = None
        bench.x = bench.timed("setup", bench.build)
        if bench.x is None:
            return
        traced, untraced = bench.samples["solve"], bench.samples["untraced_solve"]
        before = len(traced), len(untraced)
        if index % 2:
            qb = bench.solve()
            untraced_solve()
        else:
            untraced_solve()
            qb = bench.solve()
        if (len(traced), len(untraced)) == (before[0] + 1, before[1] + 1):
            overheads.append(traced[-1] - untraced[-1])
        bench.rest(qb)

    tracer.install()
    bench.tracer = tracer
    try:
        rounds = _loop(seconds, MIN_TRACED_ROUNDS, traced_round)
    finally:
        tracer.uninstall()
    if spans_path is not None:
        tracer.write(spans_path)

    per = tracer.layer_metrics(bench.round_wall, bench.x_size)
    traced_solve = _median(bench.samples["solve"])
    metrics = {}
    for name, by_round in per.items():
        values = [by_round.get(r, 0.0) for r in range(rounds)]
        unit = LAYER_UNITS[name.rsplit(".", 1)[1]]
        value = statistics.median(values)
        metrics[name] = (value if unit == "s" else int(value), unit, rounds)
    metrics["tracing.solve_s"] = (traced_solve, "s", len(bench.samples["solve"]))
    metrics["tracing.overhead_s"] = (_median(overheads), "s", len(overheads))
    return {"metrics": metrics, "bench": bench, "rounds": rounds, "tracer": tracer,
            "fingerprint": fingerprint(bench.x)}


def is_layer_metric(name: str, functions: set) -> bool:
    """Whether a traced run can report ``name``, even as 0 on a workload that never calls it."""
    head, _, stat = name.rpartition(".")
    modules = {f.split(".")[0] for f in functions}
    return (head in functions and stat in LAYER_UNITS) or (head in modules and stat == "self_s")


def select(computed: dict, wanted: list, functions: set) -> dict:
    """Pick the metrics BENCHMARK.json lists, as {name: {"value", "unit"}}.

    ``functions`` are the traced layer functions; a per-layer metric of
    one that this workload never called reads 0.
    """
    out = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in computed:
            value, got_unit, _ = computed[name]
            if got_unit != unit:
                raise ValueError(f"{name} is measured in {got_unit}, "
                                 f"BENCHMARK.json says {unit}")
        elif is_layer_metric(name, functions):
            value = 0  # a layer function this workload never calls
        else:
            raise ValueError(f"BENCHMARK.json lists {name}, which is not measured")
        if value is None:
            raise ValueError(f"no successful sample of {name}")
        out[name] = {"value": value, "unit": unit}
    return out


def make_workdir(root: Path, name: str, seed: int) -> Path:
    workdir = root / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir
