"""Monte-Carlo benchmark harness for the three SMP solvers.

Each trial draws one square Gaussian channel (N_r = N_t), builds the Gram
matrix once, and runs every enabled algorithm on the same G through the
solve pipeline of `solve_smp`; algorithms differ only in the reduced solver
`REDUCED_SOLVERS` maps them to.  Wall time is measured around the solve
only.  Per-trial RNGs are derived from the config seed plus the
(nt, p, trial) indices, so results do not depend on execution order.
"""

from __future__ import annotations

import csv
import json
import statistics
import time
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigError
from .receiver import gram_matrix, total_rate
from .smp import ORACLE_MAX_DIM, _pipeline, baseline_smp, brute_force_smp, solve_rsmp

REDUCED_SOLVERS = {"new": solve_rsmp, "baseline": baseline_smp, "oracle": brute_force_smp}
CSV_HEADER = ["algorithm", "nt", "p_db", "trial", "rate_total", "wall_time_s", "seed"]


@dataclass(frozen=True)
class BenchConfig:
    nt_list: tuple[int, ...]
    p_list_db: tuple[float, ...]
    trials: int = 2000
    seed: int = 0
    algorithms: tuple[str, ...] = ("new", "baseline")

    def validate(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.nt_list or any(nt < 1 for nt in self.nt_list):
            raise ConfigError("nt_list must contain positive dimensions")
        if not self.p_list_db:
            raise ConfigError("p_list_db must not be empty")
        unknown = set(self.algorithms) - set(REDUCED_SOLVERS)
        if unknown or not self.algorithms:
            raise ConfigError(f"unknown algorithms: {sorted(unknown)}")
        if "oracle" in self.algorithms and max(self.nt_list) > ORACLE_MAX_DIM:
            raise ConfigError(f"oracle allowed only for nt <= {ORACLE_MAX_DIM}")


@dataclass(frozen=True)
class BenchRecord:
    algorithm: str
    nt: int
    p_db: float
    trial: int
    rate_total: float
    wall_time_s: float
    seed_used: int


def db_to_linear(p_db: float) -> float:
    """P = 10^(dB/10)."""
    return 10.0 ** (p_db / 10.0)


def generate_channel(nt: int, rng: np.random.Generator) -> np.ndarray:
    """nt x nt channel of i.i.d. standard normal entries (N_r = N_t)."""
    return rng.standard_normal((nt, nt))


def _trial_seed_sequence(seed: int, nt: int, p_idx: int, trial: int):
    return np.random.SeedSequence([seed, nt, p_idx, trial])


def run_benchmark(config: BenchConfig) -> tuple[list[BenchRecord], list[dict]]:
    """Run all configured (nt, p, trial) cells; returns records and summary.

    The summary holds mean rate and mean wall time per (algorithm, nt, p).
    """
    config.validate()
    records: list[BenchRecord] = []
    for nt in config.nt_list:
        for p_idx, p_db in enumerate(config.p_list_db):
            p = db_to_linear(p_db)
            for trial in range(config.trials):
                ss = _trial_seed_sequence(config.seed, nt, p_idx, trial)
                seed_used = int(ss.generate_state(1)[0])
                rng = np.random.default_rng(ss)
                h = generate_channel(nt, rng)
                g = gram_matrix(h, p)
                for algorithm in config.algorithms:
                    t0 = time.perf_counter()
                    a_star, _ = _pipeline(g, REDUCED_SOLVERS[algorithm])
                    elapsed = time.perf_counter() - t0
                    rate = total_rate(a_star.T, g)
                    records.append(
                        BenchRecord(
                            algorithm=algorithm,
                            nt=nt,
                            p_db=p_db,
                            trial=trial,
                            rate_total=rate,
                            wall_time_s=elapsed,
                            seed_used=seed_used,
                        )
                    )
    return records, summarize(records)


def summarize(records: list[BenchRecord]) -> list[dict]:
    """Mean rate and mean/median wall time per (algorithm, nt, p_db) cell.

    The median time is reported alongside the mean because solve times are
    heavy-tailed (rare channels with a large spread of successive minima
    enumerate far more lattice points than typical ones).
    """
    cells: dict[tuple, list[BenchRecord]] = {}
    for rec in records:
        cells.setdefault((rec.algorithm, rec.nt, rec.p_db), []).append(rec)
    summary = []
    for (algorithm, nt, p_db), recs in sorted(cells.items()):
        summary.append(
            {
                "algorithm": algorithm,
                "nt": nt,
                "p_db": p_db,
                "trials": len(recs),
                "mean_rate": sum(r.rate_total for r in recs) / len(recs),
                "mean_wall_time_s": sum(r.wall_time_s for r in recs) / len(recs),
                "median_wall_time_s": statistics.median(r.wall_time_s for r in recs),
            }
        )
    return summary


def write_csv(records: list[BenchRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(
                [
                    rec.algorithm,
                    rec.nt,
                    f"{rec.p_db:g}",
                    rec.trial,
                    f"{rec.rate_total:.12g}",
                    f"{rec.wall_time_s:.6e}",
                    rec.seed_used,
                ]
            )


def write_json(records: list[BenchRecord], summary: list[dict], path: str) -> None:
    payload = {"records": [asdict(rec) for rec in records], "summary": summary}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
