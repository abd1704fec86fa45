"""Run orchestration: objectives from configs, metric persistence, manifests,
and the figure-reproduction grids.

Stream layout for a run with root seed K (paths never mention the
algorithm, so variants compared under one seed consume identical
randomness):

    SeededStream(K).child("targets")      quadratic target matrix
    SeededStream(K).child("data")         synthetic dataset generation
    SeededStream(K).child("sim", "links", "bern")    link draws, all rounds
    SeededStream(K).child("sim", "links", "p")       Zipf counts, all rounds
    SeededStream(K).child("sim", "batches", <client>)  mini-batch order
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .algorithms import (LOCAL_COMPUTE_MODES, VARIANTS, ExperimentResult, MetricsRow,
                         run_experiment)
from .config import ExperimentConfig, make_link_process, reference_config, serialize_config
from .errors import ConfigError, DivergedRunError
from .link_model import TraceRound, build_trace, write_trace_csv
from .mixing import (entrywise_lower_bound, ergodicity_bound,
                     expected_square_exact, rho)
from .numerics import csv_records, format_real
from .objectives import QuadraticObjective, SoftmaxObjective, generate_synthetic
from .oracles import fedavg_limit_integral
from .streams import GENERATOR_ID, SeededStream

ARTIFACT_VERSION = f"fedsim {__version__}"
METRICS_HEADER = "round,grad_norm,consensus_error,train_loss,test_accuracy,active_count"

SEED_ENV_VAR = "FEDSIM_SEED"

# The reproduction grids run the config defaults (``reference_config``)
# on these links: halves:p0,p1 for each (p0, p1) pair, and the Zipf schedule.
FIG2_GRID = ((0.9, 0.9), (0.9, 0.5), (0.9, 0.1), (0.5, 0.1))
FIG3_LINK = "zipf:3,20000,0.1"


def write_metrics_csv(path, rows: Sequence[MetricsRow]) -> None:
    """Stable schema: the column set never varies; unused fields stay empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(METRICS_HEADER + "\n")
        for r in rows:
            acc = "" if r.test_accuracy is None else format_real(r.test_accuracy)
            fh.write(",".join([str(r.round), format_real(r.grad_norm),
                               format_real(r.consensus_error), format_real(r.train_loss),
                               acc, str(r.active_count)]) + "\n")


def read_metrics_csv(path) -> List[MetricsRow]:
    """Read a file written by ``write_metrics_csv``; a row that it could not
    have written raises ``ConfigError`` naming the line."""
    records = csv_records(path, "metrics", METRICS_HEADER.count(",") + 1)
    _, header = next(records, (None, []))
    if header != METRICS_HEADER.split(","):
        raise ConfigError(f"unexpected metrics header {','.join(header)!r}")
    rows = []
    for where, f in records:
        try:
            rows.append(MetricsRow(
                round=int(f[0]), grad_norm=float(f[1]), consensus_error=float(f[2]),
                train_loss=float(f[3]), test_accuracy=None if f[4] == "" else float(f[4]),
                active_count=int(f[5])))
        except ValueError:
            raise ConfigError(f"{where}: malformed field") from None
    return rows


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()


def build_quadratic_targets(m: int, d: int, stream: SeededStream) -> np.ndarray:
    """Counterexample targets: client i's target is N((i+1) * ones, 0.01 I)."""
    gen = stream.generator()
    U = np.empty((d, m))
    for i in range(m):
        U[:, i] = gen.normal(i + 1.0, 0.1, size=d)
    return U


def build_objective(cfg: ExperimentConfig, root: SeededStream):
    if cfg.experiment == "counterexample":
        targets = build_quadratic_targets(cfg.m, cfg.d, root.child("targets"))
        return QuadraticObjective(targets)
    dataset = generate_synthetic(cfg.alpha, cfg.beta, cfg.m, cfg.samples_per_client,
                                 root.child("data"))
    return SoftmaxObjective(dataset)


@dataclass
class RunOutput:
    result: Optional[ExperimentResult]
    rows: List[MetricsRow]
    manifest: dict
    exit_code: int


def _manifest(cfg: ExperimentConfig, seed_source: str, rows: int, completed: bool,
              failure_round: Optional[int], wall: float,
              trace_sha: Optional[str]) -> dict:
    return {
        "artifact": ARTIFACT_VERSION,
        "config_hash": config_hash(cfg),
        "config_text": serialize_config(cfg),
        "root_seed": cfg.seed,
        "seed_source": seed_source,
        "prng": f"{GENERATOR_ID}; numpy {np.__version__}",
        "start_round": 0,
        "end_round": rows,
        "completed": completed,
        "failure_round": failure_round,
        "trace_sha256": trace_sha,
        "wall_time_sec": wall,
    }


def run_simulation(cfg: ExperimentConfig, *, seed_source: str = "config",
                   objective=None,
                   trace: Optional[Sequence[TraceRound]] = None,
                   trace_sha: Optional[str] = None) -> RunOutput:
    """Execute one configured run; on divergence, keep the partial rows.

    ``objective`` defaults to ``build_objective(cfg, SeededStream(cfg.seed))``;
    a grid that runs several variants of one experiment and seed builds it
    once and passes it in, as it does the shared trace.
    """
    root = SeededStream(cfg.seed)
    if objective is None:
        objective = build_objective(cfg, root)
    process = make_link_process(cfg.link, cfg.m)
    algo = cfg.algorithm_config()
    started = time.monotonic()
    try:
        result = run_experiment(algo, objective, process, cfg.T, root.child("sim"),
                                trace=trace, batch_size=cfg.batch_size)
        rows, completed, failure = result.rows, True, None
        code = 0
    except DivergedRunError as err:
        result, rows, completed, failure = None, err.rows, False, err.round_index
        code = 2
    wall = time.monotonic() - started
    manifest = _manifest(cfg, seed_source, len(rows), completed, failure, wall, trace_sha)
    return RunOutput(result=result, rows=rows, manifest=manifest, exit_code=code)


def write_run_outputs(out_dir, output: RunOutput, name: str = "") -> dict:
    os.makedirs(out_dir, exist_ok=True)
    prefix = f"{name}_" if name else ""
    metrics_path = os.path.join(out_dir, f"{prefix}metrics.csv")
    manifest_path = os.path.join(out_dir, f"{prefix}manifest.json")
    write_metrics_csv(metrics_path, output.rows)
    with open(manifest_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(output.manifest, fh, indent=2)
        fh.write("\n")
    return {"metrics": metrics_path, "manifest": manifest_path}


def resolve_seed_override(cfg: ExperimentConfig) -> tuple:
    """Apply the FEDSIM_SEED environment override, if present."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return cfg, "config"
    try:
        seed = int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    return replace(cfg, seed=seed), "env"


# ---------------------------------------------------------------------------
# Reproduction grids
# ---------------------------------------------------------------------------

def reproduce_fig2(scale: float, out_dir, seed: int = 1234) -> dict:
    """Bias comparison grid on the quadratic counterexample.

    Grid: four (p0, p1) pairs x {fedavg, fedpbc} x {all, active_only},
    each pair sharing one link trace across the four variants.  Emits
    per-run metrics and a comparison table against the closed-form
    stationary point of the broadcast-first algorithm.
    """
    links = [f"halves:{p0:g},{p1:g}" for p0, p1 in FIG2_GRID]
    base = reference_config("counterexample", VARIANTS[0], links[0], seed,
                            scale=scale, out=str(out_dir))
    os.makedirs(out_dir, exist_ok=True)
    root = SeededStream(seed)
    objective = build_objective(base, root)
    x_star = objective.global_optimum()

    summary = []
    for (p0, p1), link in zip(FIG2_GRID, links):
        tag = f"p{p0:g}-{p1:g}".replace(".", "")
        process = make_link_process(link, base.m)
        trace = build_trace(process, base.T, root.child("trace", tag))
        trace_path = os.path.join(out_dir, f"{tag}_trace.csv")
        sha = write_trace_csv(trace_path, trace)

        weights = fedavg_limit_integral(process.p)
        predicted = weights.limit_point(objective.targets)
        oracle_gap = float(np.linalg.norm(predicted - x_star))

        for variant in VARIANTS:
            for mode in LOCAL_COMPUTE_MODES:
                cfg = replace(base, algorithm=variant, local_compute=mode, link=link)
                out = run_simulation(cfg, objective=objective, trace=trace, trace_sha=sha)
                name = f"{tag}_{variant}_{mode}"
                write_run_outputs(out_dir, out, name=name)
                summary.append({
                    "p0": p0, "p1": p1, "algorithm": variant, "local_compute": mode,
                    "final_grad_norm": out.rows[-1].grad_norm,
                    "oracle_gap": oracle_gap,
                    "final_global_distance_to_prediction": (
                        None if out.result is None else
                        float(np.linalg.norm(out.result.final_state.global_model - predicted))),
                })

    table_path = os.path.join(out_dir, "comparison.csv")
    with open(table_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("p0,p1,algorithm,local_compute,final_grad_norm,oracle_gap,"
                 "final_global_distance_to_prediction\n")
        for row in summary:
            fh.write(",".join([
                format_real(row["p0"]), format_real(row["p1"]), row["algorithm"],
                row["local_compute"], format_real(row["final_grad_norm"]),
                format_real(row["oracle_gap"]),
                "" if row["final_global_distance_to_prediction"] is None
                else format_real(row["final_global_distance_to_prediction"]),
            ]) + "\n")
    return {"summary": summary, "table": table_path}


def reproduce_fig3(scale: float, out_dir, seed: int = 1234) -> dict:
    """Softmax-regression comparison under the time-varying Zipf schedule.

    Generates the heterogeneous dataset and samples one shared link trace
    once, runs both algorithms on them through ``run_simulation``, and
    writes a summary of the final train loss and test accuracy of each.
    """
    base = reference_config("synthetic", VARIANTS[0], FIG3_LINK, seed,
                            scale=scale, out=str(out_dir))
    os.makedirs(out_dir, exist_ok=True)
    root = SeededStream(seed)
    objective = build_objective(base, root)
    trace = build_trace(make_link_process(base.link, base.m), base.T, root.child("trace"))
    trace_path = os.path.join(out_dir, "trace.csv")
    sha = write_trace_csv(trace_path, trace)

    finals = {}
    for variant in VARIANTS:
        out = run_simulation(replace(base, algorithm=variant), objective=objective,
                             trace=trace, trace_sha=sha)
        write_run_outputs(out_dir, out, name=variant)
        last = out.rows[-1]
        finals[variant] = {"train_loss": last.train_loss,
                           "test_accuracy": last.test_accuracy}

    # No verdict on which is lower: both runs start at zero and stop at a
    # fixed horizon, which compares speed, not the fixed points the paper's
    # claim is about (acceptance criterion C11 compares those).
    summary = {"m": base.m, "T": base.T, "link": base.link, "seed": seed,
               "fedavg": finals["fedavg"], "fedpbc": finals["fedpbc"]}
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary


# ---------------------------------------------------------------------------
# Mixing / oracle reports (depth behind the CLI subcommands)
# ---------------------------------------------------------------------------

def mixing_report(p_rounds: Sequence[np.ndarray]) -> List[dict]:
    """Per-round spectral diagnostics plus a summary with the running max.

    Each round record's ``entries`` is ``E[W^2]`` as a list of row lists of
    floats (``M.tolist()``); ``fedsim mixing`` writes it through
    ``cli._emit_json_lines``, which formats each distinct entry once.
    The product of per-round rho values is reported as an optional tighter
    diagnostic only; the certified quantity is the maximum against the
    activation-floor bound.
    """
    records = []
    rho_max = 0.0
    rho_prod = 1.0
    floor = 1.0
    for t, p in enumerate(p_rounds):
        M = expected_square_exact(p)
        r = rho(M)
        c = float(np.min(p))
        floor = min(floor, c)
        bound = ergodicity_bound(c, p.size)
        lower = entrywise_lower_bound(c, p.size)
        rho_max = max(rho_max, r)
        rho_prod *= r
        records.append({
            "type": "round", "round": t, "m": int(p.size), "floor": c,
            "entries": M.tolist(),
            "rho": r, "ergodicity_bound": bound,
            "rho_within_bound": bool(r <= bound),
            "entry_lower_bound": lower,
            "entries_above_lower_bound": bool(np.all(M >= lower - 1e-12)),
        })
    bound = ergodicity_bound(floor, p_rounds[0].size)
    records.append({
        "type": "summary", "rounds": len(records), "rho_max": rho_max,
        "ergodicity_bound": bound, "rho_max_within_bound": bool(rho_max <= bound),
        "rho_product_diagnostic": rho_prod,
    })
    return records


def oracle_report(p: np.ndarray, targets: Optional[np.ndarray] = None) -> List[dict]:
    weights = fedavg_limit_integral(p)
    records = [{"type": "weights", "method": weights.method,
                "w": [float(v) for v in weights.w]}]
    if targets is not None:
        # Finite targets near 1e308 can still overflow the sums below.  A
        # non-finite optimum or limit point makes the distance non-finite too.
        with np.errstate(over="ignore", invalid="ignore"):
            objective = QuadraticObjective(targets)  # finite, one column per client
            if objective.num_clients != weights.w.size:
                raise ConfigError(f"need one target per client: {weights.w.size} clients, "
                                  f"{objective.num_clients} targets")
            predicted = weights.limit_point(objective.targets)
            x_star = objective.global_optimum()
            distance = float(np.linalg.norm(predicted - x_star))
        if not np.isfinite(distance):
            raise ConfigError("targets too large: the optimum, the limit point or their "
                              "distance overflows float64")
        records.append({
            "type": "limit", "point": [float(v) for v in predicted],
            "distance_to_optimum": distance,
        })
    return records
