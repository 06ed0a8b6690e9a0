"""Command-line front end.

Subcommands: ``simulate`` (Monte Carlo experiments to CSV), ``bounds``
(closed-form bound report), ``lowerbound`` (minimax floor for the
two-level pair, with optional exhaustive verification), ``verify-decode``
(randomized decodability fuzzer), and ``ingest`` (counts file to a
normalized popularity table).

Exit codes: 0 success, 2 usage or validation error, 4 bound inapplicable
on this instance.
"""
from __future__ import annotations

import argparse
import sys

from .bounds import (
    DegenerateGapError,
    oracle_rate_upper,
    rate_lower_bound,
    regret_lower_bound,
    switch_count_bound,
    tracking_regret_bound,
    verify_bad_set_gap,
)
from .engine import run_decode_fuzz
from .harness import LFU_ACCOUNTINGS, RATE_MODES, REFERENCES
from .harness import ExperimentConfig, emit_csv, run_experiment
from .model import (
    PopularityDistribution,
    SystemParams,
    make_two_level_pair,
    make_zipf,
    popularity_from_counts,
    read_counts_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INAPPLICABLE = 4


def _parse_dist(spec: str, n_files: int) -> PopularityDistribution:
    kind, _, rest = spec.partition(":")
    if kind == "zipf":
        return make_zipf(n_files, float(rest))
    if kind == "counts":
        dist, _ = popularity_from_counts(read_counts_csv(rest))
        if dist.n_files != n_files:
            raise ValueError(
                f"counts file has {dist.n_files} files, expected {n_files}"
            )
        return dist
    if kind == "lbpair":
        a_str, _, b_str = rest.partition(",")
        head, _ = make_two_level_pair(n_files, float(a_str), float(b_str))
        return head
    raise ValueError(f"unknown distribution spec: {spec}")


def _config_tokens(path: str) -> list[str]:
    """key=value lines become --key value flag pairs; # comments skipped."""
    tokens: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep or not key.strip():
                raise ValueError(f"bad config line: {line}")
            tokens.extend([f"--{key.strip()}", value.strip()])
    return tokens


def _splice_config(argv: list[str]) -> list[str]:
    """Insert config-file flags right after the subcommand, so explicit
    command-line flags parse later and win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ValueError("--config needs a path")
    tokens = _config_tokens(argv[i + 1])
    rest = argv[:i] + argv[i + 2 :]
    if not rest:
        raise ValueError("--config needs a subcommand")
    return rest[:1] + tokens + rest[1:]


def _add_system_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="number of files")
    sub.add_argument("--k", type=int, required=True, help="number of users")
    sub.add_argument("--m", type=float, required=True, help="cache size in files")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codedcache",
        description="coded-caching simulation and bound calculators",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run a Monte Carlo experiment")
    _add_system_flags(sim)
    sim.add_argument("--f", type=int, default=1000, help="subpackets per file")
    sim.add_argument("--dist", required=True, help="zipf:s | counts:path | lbpair:a,b")
    sim.add_argument("--policies", required=True, help="comma-separated policy names")
    sim.add_argument("--horizon", type=int, required=True)
    sim.add_argument("--trials", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--rate-mode", choices=RATE_MODES, default="analytic")
    sim.add_argument("--reference", choices=REFERENCES, default="closed-form")
    sim.add_argument("--lfu-accounting", choices=LFU_ACCOUNTINGS, default="auto")
    sim.add_argument("--out", help="CSV destination (default stdout)")

    bnd = subs.add_parser("bounds", help="print the closed-form bound report")
    _add_system_flags(bnd)
    bnd.add_argument("--dist", required=True, help="zipf:s | counts:path | lbpair:a,b")
    bnd.add_argument(
        "--reference",
        choices=("lower", "upper"),
        default="lower",
        help="benchmark rate subtracted in the regret bound",
    )

    low = subs.add_parser("lowerbound", help="minimax floor on the two-level pair")
    _add_system_flags(low)
    low.add_argument("--a", type=float, required=True, help="popular-level parameter")
    low.add_argument("--b", type=float, required=True, help="unpopular-level parameter")
    low.add_argument("--verify", action="store_true", help="exhaustive gap check")

    fuzz = subs.add_parser("verify-decode", help="randomized decodability fuzzer")
    fuzz.add_argument("--trials", type=int, default=1000)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--corrupt", action="store_true", help="negative control")

    ing = subs.add_parser("ingest", help="counts CSV to sorted popularity CSV")
    ing.add_argument("--counts", required=True, help="input id,count CSV")
    ing.add_argument("--out", required=True, help="output rank,prob,orig_id CSV")

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = SystemParams(args.n, args.k, args.m, args.f)
    cfg = ExperimentConfig(
        params=params,
        dist=_parse_dist(args.dist, args.n),
        policies=tuple(p.strip() for p in args.policies.split(",") if p.strip()),
        horizon=args.horizon,
        trials=args.trials,
        seed=args.seed,
        rate_mode=args.rate_mode,
        reference=args.reference,
        lfu_accounting=args.lfu_accounting,
        dist_label=args.dist,
    )
    result = run_experiment(cfg)
    emit_csv(result, args.out if args.out else sys.stdout)
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    params = SystemParams(args.n, args.k, args.m)
    dist = _parse_dist(args.dist, args.n)
    upper = oracle_rate_upper(dist, params)
    lower = rate_lower_bound(dist, params)
    reference = lower if args.reference == "lower" else upper
    report = tracking_regret_bound(dist, params, reference)
    switch = switch_count_bound(dist, params)
    for key, value in [
        ("oracle_rate_upper", upper),
        ("oracle_rate_lower", lower),
        ("reference_rate", reference),
        ("chernoff_route", report.chernoff_route),
        ("dkw_route", report.dkw_route),
        ("first_slot", report.first_slot),
        ("regret_bound", report.total),
        ("switch_bound", switch),
    ]:
        print(f"{key}={value:.6g}")
    return EXIT_OK


def _cmd_lowerbound(args: argparse.Namespace) -> int:
    params = SystemParams(args.n, args.k, args.m)
    report = regret_lower_bound(params, args.a, args.b)
    for key, value in [
        ("bound", report.value),
        ("oracle_rate", report.oracle_rate),
        ("gap", report.gap),
        ("kl_per_slot", report.kl_per_slot),
        ("peak_horizon", report.peak_horizon),
        ("peak_value", report.peak_value),
    ]:
        print(f"{key}={value:.6g}")
    if args.verify:
        ok = verify_bad_set_gap(params, args.a, args.b)
        print(f"verify={'PASS' if ok else 'FAIL'}")
        if not ok:
            return 1
    return EXIT_OK


def _cmd_verify_decode(args: argparse.Namespace) -> int:
    if args.trials < 0:
        raise ValueError("need a nonnegative trial count")
    result = run_decode_fuzz(args.trials, args.seed, corrupt=args.corrupt)
    print(
        f"trials={result.trials} users_checked={result.users_checked} "
        f"failures={result.failures}"
    )
    if args.corrupt:
        ok = result.failures > 0
        print("corrupt-control=" + ("PASS" if ok else "FAIL"))
    else:
        ok = result.failures == 0
        print("decode=" + ("PASS" if ok else "FAIL"))
    return EXIT_OK if ok else 1


def _cmd_ingest(args: argparse.Namespace) -> int:
    dist, ranks = popularity_from_counts(read_counts_csv(args.counts))
    by_rank = sorted(ranks.items(), key=lambda item: item[1])
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("rank,prob,orig_id\n")
        for orig_id, rank in by_rank:
            fh.write(f"{rank + 1},{dist.probs[rank]:.10g},{orig_id}\n")
    return EXIT_OK


_DISPATCH = {
    "simulate": _cmd_simulate,
    "bounds": _cmd_bounds,
    "lowerbound": _cmd_lowerbound,
    "verify-decode": _cmd_verify_decode,
    "ingest": _cmd_ingest,
}


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    try:
        spliced = _splice_config(raw)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    args = _build_parser().parse_args(spliced)
    try:
        return _DISPATCH[args.command](args)
    except DegenerateGapError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
