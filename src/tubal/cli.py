"""Command-line interface.

Subcommands: ``bench synthetic``, ``bench hilbert``, ``adaptive``,
``tsvd``, ``compress``, ``info``.  Reports are JSON, one object per run;
``--csv`` additionally appends a flat row.  Exit status is 0 on success,
2 when an adaptive run stopped at the rank cap without reaching the
requested error bound, and 1 on any error.
"""

import argparse
import sys

from .bench import (
    RunReport,
    SyntheticSpec,
    append_csv,
    gen_synthetic,
    run_adaptive,
    run_tsvd,
    write_report,
)
from .core import RngStream, frobenius_norm, irfft_tubes
from .decomp import tsvd_factors, tubal_rank
from .errors import TubalError
from .randomized import AdaptiveConfig, qb_spectral
from .tio import load_pgm_stack, load_tns, pgm_files, save_pgm_stack, save_tns

_CASE_NAMES = {"1": "exact-lowrank", "2": "poly-decay", "3": "exp-decay"}


class _Parser(argparse.ArgumentParser):
    # Usage mistakes exit 1; code 2 is reserved for "bound not reached".
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _config(args) -> AdaptiveConfig:
    return AdaptiveConfig(epsilon=args.eps, block_size=args.block,
                          power_iters=args.power, seed=RngStream(args.seed))


def _emit(report: RunReport, args) -> None:
    write_report(report, args.out)
    if args.csv:
        append_csv(report, args.csv)


def _run(x, args) -> RunReport:
    """The adaptive run on x that the command's flags describe, with its report written."""
    report = run_adaptive(x, _config(args), rel=args.rel)
    _emit(report, args)
    return report


def _save_factors(prefix: str, factors) -> None:
    save_tns(factors.u, f"{prefix}.U.tns")
    save_tns(factors.s, f"{prefix}.S.tns")
    save_tns(factors.v, f"{prefix}.V.tns")


def _adaptive_exit(report: RunReport) -> int:
    return 0 if report.result.achieved else 2


def _cmd_bench_synthetic(args) -> int:
    spec = SyntheticSpec(case=_CASE_NAMES[args.case], n=args.n, rank=args.rank,
                         delta=args.delta, seed=RngStream(args.seed))
    return _adaptive_exit(_run(gen_synthetic(spec), args))


def _cmd_bench_hilbert(args) -> int:
    case = "hilbert-1" if args.kind == "1" else "hilbert-2"
    return _adaptive_exit(_run(gen_synthetic(SyntheticSpec(case=case, n=args.n)), args))


def _cmd_adaptive(args) -> int:
    report = _run(load_tns(args.infile), args)
    if args.save_factors:
        qb = report.result
        if qb.rank:
            _save_factors(args.save_factors,
                          tsvd_factors(*qb_spectral(qb.qh, qb.bh, qb.rank), report.dims[2]))
        else:
            print("no factors to save: estimated rank is 0", file=sys.stderr)
    return _adaptive_exit(report)


def _cmd_tsvd(args) -> int:
    x = load_tns(args.infile)
    report = run_tsvd(x, args.rank)
    _emit(report, args)
    if args.save_factors:
        _save_factors(args.save_factors, report.result)
    return 0


def _cmd_compress(args) -> int:
    files = pgm_files(args.images)
    report = _run(load_pgm_stack(files), args)
    # Built once the report is made, when x and its spectrum are gone.
    qb = report.result
    save_pgm_stack(args.save_recon, irfft_tubes(qb.qh @ qb.bh, report.dims[2]),
                   names=[p.name for p in files])
    return _adaptive_exit(report)


def _cmd_info(args) -> int:
    x = load_tns(args.infile)
    i1, i2, i3 = x.shape
    print(f"dims: {i1} x {i2} x {i3}")
    print(f"frobenius_norm: {frobenius_norm(x)!r}")
    print(f"tubal_rank: {tubal_rank(x)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tubal",
                     description="Low tubal-rank tensor approximation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--out", required=True, help="JSON report path")
    report.add_argument("--csv", help="also append a CSV row here")
    adaptive = argparse.ArgumentParser(add_help=False, parents=[report])
    adaptive.add_argument("--eps", type=float, required=True,
                          help="error bound on the residual Frobenius norm")
    adaptive.add_argument("--rel", action="store_true",
                          help="interpret --eps relative to the input norm")
    adaptive.add_argument("--block", type=int, default=25, help="block size per iteration")
    adaptive.add_argument("--power", type=int, default=1, help="power iteration rounds")
    adaptive.add_argument("--seed", type=int, default=0, help="random seed")

    bench = sub.add_parser("bench", help="synthetic experiment runner")
    bsub = bench.add_subparsers(dest="bench_command", required=True)

    syn = bsub.add_parser("synthetic", parents=[adaptive],
                          help="plateau-plus-decay random tensors")
    syn.add_argument("--case", choices=sorted(_CASE_NAMES), required=True,
                     help="1 exact low rank, 2 polynomial decay, 3 exponential decay")
    syn.add_argument("--n", type=int, default=100)
    syn.add_argument("--rank", type=int, default=10, help="plateau width R")
    syn.add_argument("--delta", type=float, default=0.01, help="noise norm")
    syn.set_defaults(func=_cmd_bench_synthetic)

    hil = bsub.add_parser("hilbert", parents=[adaptive],
                          help="Hilbert-type deterministic tensors")
    hil.add_argument("--kind", choices=("1", "2"), required=True)
    hil.add_argument("--n", type=int, default=100)
    hil.set_defaults(func=_cmd_bench_hilbert)

    ada = sub.add_parser("adaptive", parents=[adaptive], help="adaptive run on a TNS1 file")
    ada.add_argument("--in", dest="infile", required=True, metavar="FILE")
    ada.add_argument("--save-factors", metavar="PREFIX",
                     help="write PREFIX.U.tns / .S.tns / .V.tns")
    ada.set_defaults(func=_cmd_adaptive)

    tsv = sub.add_parser("tsvd", parents=[report], help="deterministic truncated tubal SVD")
    tsv.add_argument("--in", dest="infile", required=True, metavar="FILE")
    tsv.add_argument("--rank", type=int, required=True)
    tsv.add_argument("--save-factors", metavar="PREFIX")
    tsv.set_defaults(func=_cmd_tsvd)

    cmp_ = sub.add_parser("compress", parents=[adaptive],
                          help="compress a directory of PGM images")
    cmp_.add_argument("--images", required=True, metavar="DIR")
    cmp_.add_argument("--save-recon", required=True, metavar="DIR",
                      help="directory for reconstructed images")
    cmp_.set_defaults(func=_cmd_compress)

    inf = sub.add_parser("info", help="print dims, norm, and tubal rank")
    inf.add_argument("--in", dest="infile", required=True, metavar="FILE")
    inf.set_defaults(func=_cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TubalError, OSError) as exc:
        print(f"tubal: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
