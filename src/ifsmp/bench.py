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

from .errors import ConfigError, InvalidPower
from .matrixcore import _real
from .receiver import _check_power, gram_matrix, total_rate
from .smp import ORACLE_MAX_DIM, _baseline, _brute_force, _pipeline, _rsmp

# the kernels of solve_rsmp, baseline_smp and brute_force_smp
REDUCED_SOLVERS = {"new": _rsmp, "baseline": _baseline, "oracle": _brute_force}
CSV_HEADER = ["algorithm", "nt", "p_db", "trial", "rate_total", "wall_time_s", "seed"]
MAX_NT = 32  # no search budget bounds a solve yet, so cap its size


@dataclass(frozen=True)
class BenchConfig:
    nt_list: tuple[int, ...]
    p_list_db: tuple[float, ...]
    trials: int = 2000
    seed: int = 0
    algorithms: tuple[str, ...] = ("new", "baseline")

    def validate(self) -> None:
        if not _is_int(self.trials) or self.trials < 1:
            raise ConfigError(f"trials must be >= 1 and an integer, got {self.trials!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be >= 0 and an integer, got {self.seed!r}")
        if not all(isinstance(v, (tuple, list))
                   for v in (self.nt_list, self.p_list_db, self.algorithms)):
            raise ConfigError("nt_list, p_list_db and algorithms must be tuples or lists")
        if not self.nt_list or not all(_is_int(nt) and 1 <= nt <= MAX_NT for nt in self.nt_list):
            raise ConfigError(f"nt_list must contain integer dimensions from 1 to {MAX_NT}")
        if not self.p_list_db:
            raise ConfigError("p_list_db must not be empty")
        for p_db in self.p_list_db:
            try:
                _check_power(db_to_linear(_real(p_db)))
            except (InvalidPower, OverflowError):
                raise ConfigError(f"power {p_db!r} dB is not a valid linear power") from None
        unknown = [a for a in self.algorithms if not (isinstance(a, str) and a in REDUCED_SOLVERS)]
        if unknown or not self.algorithms:
            raise ConfigError(f"unknown algorithms: {unknown}")
        if "oracle" in self.algorithms and max(self.nt_list) > ORACLE_MAX_DIM:
            raise ConfigError(f"oracle allowed only for nt <= {ORACLE_MAX_DIM}")
        # a repeat would draw or solve a cell's channels twice under one key
        for name, values in (("nt_list", self.nt_list), ("algorithms", self.algorithms),
                             ("p_list_db", [*map(_real, self.p_list_db)])):
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} has a repeated entry")


@dataclass(frozen=True)
class BenchRecord:
    algorithm: str
    nt: int
    p_db: float
    trial: int
    rate_total: float
    wall_time_s: float
    seed_used: int


def _is_int(v) -> bool:
    """Whether v is an integer: a Python or numpy int (a bool is an int)."""
    return isinstance(v, (int, np.integer))


def db_text(p_db: float) -> str:
    """p_db as text that ``float`` reads back as p_db: the ``:g`` form
    where it is exact (2, 0.1, 12.5), else the shortest repr."""
    return f"{p_db:g}" if float(f"{p_db:g}") == p_db else repr(p_db)


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
    trials, seed = int(config.trials), int(config.seed)  # Python ints, which json writes
    for nt in map(int, config.nt_list):
        for p_idx, p_db in enumerate(map(_real, config.p_list_db)):
            p = db_to_linear(p_db)
            for trial in range(trials):
                ss = _trial_seed_sequence(seed, nt, p_idx, trial)
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
            writer.writerow([rec.algorithm, rec.nt, db_text(rec.p_db), rec.trial,
                             f"{rec.rate_total:.12g}", f"{rec.wall_time_s:.6e}", rec.seed_used])


def write_json(records: list[BenchRecord], summary: list[dict], path: str) -> None:
    payload = {"records": [asdict(rec) for rec in records], "summary": summary}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
