"""Benchmark command line: ifsmp-bench.

Example:
    ifsmp-bench --nt 2,4 --pdb 2:2:16 --trials 200 --seed 1 --out rates.csv
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .bench import BenchConfig, db_text, run_benchmark, write_csv, write_json
from .errors import ConfigError, IfsmpError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
MAX_GRID_POINTS = 10_000


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def _parse_grid(text: str) -> tuple[float, ...]:
    """Either a comma list ('2,4,8') or start:step:stop ('2:2:16', inclusive)
    of finite values spanning at most MAX_GRID_POINTS points."""
    if ":" in text:
        start, step, stop = (float(tok) for tok in text.split(":"))
        if not all(map(math.isfinite, (start, step, stop))):
            raise ConfigError("grid start, step and stop must be finite")
        if step <= 0:
            raise ConfigError("grid step must be positive")
        if start + step == start:
            raise ConfigError(f"grid step {step} does not advance from {start}")
        # points past start; the stop gets the 1e-9 slack of the rounding
        span = (stop + 1e-9 - start) / step
        if span >= MAX_GRID_POINTS:
            raise ConfigError(f"grid {text} has more than {MAX_GRID_POINTS} points")
        count = math.floor(span) + 1 if span >= 0 else 0
        return tuple(round(start + k * step, 9) for k in range(count))
    return tuple(float(tok) for tok in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifsmp-bench",
        description="Monte-Carlo rate/runtime benchmark of the SMP solvers.",
    )
    parser.add_argument("--nt", default="2,4", help="antenna counts, e.g. 2,4,8")
    parser.add_argument(
        "--pdb", default="2:2:16", help="power grid in dB: comma list or start:step:stop"
    )
    parser.add_argument("--trials", type=int, default=200,
                        help="trials per (nt, P) cell; >= 30 recommended for stable means")
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument("--algs", default="new,baseline",
                        help="subset of new,baseline,oracle")
    parser.add_argument("--out", default=None, help="output path; *.json gets JSON, else CSV")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = BenchConfig(
            nt_list=_parse_int_list(args.nt),
            p_list_db=_parse_grid(args.pdb),
            trials=args.trials,
            seed=args.seed,
            algorithms=tuple(args.algs.split(",")),
        )
        config.validate()
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    created = args.out is not None and not os.path.exists(args.out)
    if args.out is not None:
        try:  # an unwritable path fails before the first trial, not after the run
            open(args.out, "a").close()
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO

    try:
        records, summary = run_benchmark(config)
    except IfsmpError as exc:  # a channel the solver rejects, e.g. an indefinite G
        if created:  # leave no empty file that this run made
            os.remove(args.out)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    width = max(6, *(len(db_text(row['p_db'])) for row in summary))
    print(f"{'algorithm':<10} {'nt':>3} {'P(dB)':>{width}} {'trials':>6} "
          f"{'mean rate':>12} {'mean time (s)':>14} {'median time (s)':>16}")
    for row in summary:
        print(f"{row['algorithm']:<10} {row['nt']:>3} {db_text(row['p_db']):>{width}} "
              f"{row['trials']:>6} {row['mean_rate']:>12.6f} "
              f"{row['mean_wall_time_s']:>14.6e} "
              f"{row['median_wall_time_s']:>16.6e}")

    if args.out is not None:
        try:
            if args.out.endswith(".json"):
                write_json(records, summary, args.out)
            else:
                write_csv(records, args.out)
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
