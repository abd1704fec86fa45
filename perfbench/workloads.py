"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed in ``setup``, runs
one round of operations in ``run_round`` (a replicate, a variant pair or a
batch of probability vectors; the runner repeats rounds until the time is
up) and checks that round's outputs in ``check_round``, untimed.  fedsim is
reached only through public module attributes, so that the tracer's
wrappers see every call.  Checks compare with ``reference`` or with
properties the method must have, never with stored outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import fedsim.algorithms as algorithms
import fedsim.cli as cli
import fedsim.config as config
import fedsim.harness as harness
import fedsim.link_model as link_model
import fedsim.objectives as objectives
from fedsim.streams import SeededStream

import reference

LN10 = math.log(10.0)
VARIANTS = ("fedavg", "fedpbc")
# Agreement with the reference softmax loss and gradient, relative to
# max(1, magnitude): summation order differs, so allow a few hundred ulps
# of the 610-dimensional float64 sums.
SOFTMAX_RTOL = 1e-10
# E[W^2] and the limit weights are exact up to rounding on both routes.
EXACT_TOL = 1e-12
# fedsim's power iteration stops at residual 1e-12; eigvalsh is exact up
# to rounding, so rho may differ by the residual's order.
RHO_TOL = 1e-10


@dataclass
class RoundResult:
    attempted: int
    failed: int
    seconds: float
    outputs: object
    # Removed by the runner once the round is checked.
    directory: str | None = None

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


class Workload:
    name = ""
    min_rounds = 1

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.root = SeededStream(seed)
        self.workdir = workdir
        self.tracer = tracer
        self.problems: list = []
        self.failures: dict = {}
        self.notes: list = []

    def fresh_dir(self) -> str:
        """A new, empty directory under the work directory.  Outputs go to
        new files: overwriting a file that was just written can stall on a
        flush, which is file-system noise rather than fedsim's work."""
        return tempfile.mkdtemp(dir=self.workdir)

    def expect(self, ok, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, k: int) -> RoundResult:
        raise NotImplementedError

    def check_round(self, k: int, result: RoundResult) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks over the whole run, after its last round."""

    # -- shared checks -----------------------------------------------------

    def check_rows(self, rows, T: int, counts, label: str) -> None:
        self.expect(len(rows) == T, f"{label}: {len(rows)} metrics rows, expected {T}")
        values = [[r.grad_norm, r.consensus_error, r.train_loss,
                   0.0 if r.test_accuracy is None else r.test_accuracy] for r in rows]
        self.expect(np.all(np.isfinite(values)), f"{label}: non-finite metrics row")
        self.expect([r.active_count for r in rows] == list(counts),
                    f"{label}: active counts differ from the link trace")

    def check_multicast(self, state, last_active, label: str) -> None:
        """FedPBC's postponed multicast: the last round's active clients
        hold the new global model."""
        members = list(last_active)
        self.expect(np.array_equal(state.X[:, members],
                                   np.repeat(state.global_model[:, None], len(members),
                                             axis=1)),
                    f"{label}: last-round active columns differ from the global model")

    def check_softmax_final(self, objective, state, variant: str, last_active,
                            label: str, never_active=()) -> None:
        """Loss and gradient at the final mean iterate against the reference,
        FedPBC's postponed multicast, and frozen never-active clients."""
        x_bar = state.X.mean(axis=1)
        clients = [(cl.train_x, cl.train_y) for cl in objective.dataset.clients]
        ref_loss, ref_grad = reference.stacked_softmax(x_bar, clients)
        self.expect(ref_loss < LN10, f"{label}: final loss {ref_loss} not below ln 10")
        loss = objective.train_loss(x_bar)
        self.expect(abs(loss - ref_loss) <= SOFTMAX_RTOL * max(1.0, abs(ref_loss)),
                    f"{label}: train loss {loss!r} vs reference {ref_loss!r}")
        grad = objective.global_gradient(x_bar)
        scale = max(1.0, float(np.max(np.abs(ref_grad))))
        self.expect(np.max(np.abs(grad - ref_grad)) <= SOFTMAX_RTOL * scale,
                    f"{label}: global gradient differs from the reference")
        if variant == "fedpbc":
            self.check_multicast(state, last_active, label)
        never = list(never_active)
        if never:
            self.expect(not np.any(state.X[:, never]),
                        f"{label}: a never-active client left its start column")


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


class QuadEnsemble(Workload):
    """Monte Carlo ensemble of the quadratic counterexample (C02/C03 shape)."""

    name = "quad-ensemble"
    M, D, S, ETA, T = 20, 20, 30, 3e-4, 2000
    LINK = "halves:0.9,0.1"
    P = np.array([0.9] * (M // 2) + [0.1] * (M - M // 2))
    # Enough replicates for the ensemble-mean check to have a stable
    # standard error even on a short run.
    min_rounds = 16
    # The ensemble check allows Z standard errors per coordinate.  A correct
    # program fails it with probability at most 3e-3 at 16 replicates and
    # 1e-4 at the 64 or more of a 20 s run (Student t, union over D).
    Z = 5.0
    # FedPBC's mean final distance must be below this share of FedAvg's.
    PBC_SHARE = 0.05

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.targets = rng.normal(np.arange(1.0, self.M + 1.0), 0.1, size=(self.D, self.M))
        self.objective = objectives.QuadraticObjective(self.targets)
        self.process = config.make_link_process(self.LINK, self.M)
        self.configs = [algorithms.AlgorithmConfig(v, s=self.S, eta=self.ETA)
                        for v in VARIANTS]
        self.finals = []
        self.distances = {v: [] for v in VARIANTS}

    def run_round(self, k: int) -> RoundResult:
        def replicate():
            trace = link_model.build_trace(self.process, self.T, self.root.child("trace", k))
            runs = [algorithms.run_experiment(cfg, self.objective, self.process, self.T,
                                              self.root.child("sim", k), trace=trace)
                    for cfg in self.configs]
            return trace, runs
        outputs, seconds = _timed(replicate)
        return RoundResult(2 * self.T, 0, seconds, outputs)

    def check_round(self, k: int, result: RoundResult) -> None:
        trace, runs = result.outputs
        counts = [len(r.active) for r in trace]
        x_star = self.targets.mean(axis=1)
        for variant, res in zip(VARIANTS, runs):
            self.check_rows(res.rows, self.T, counts, f"{variant} replicate {k}")
            dist = np.linalg.norm(res.final_state.mean_iterate() - x_star)
            self.distances[variant].append(dist)
        self.check_multicast(runs[1].final_state, trace[-1].active.members,
                             f"fedpbc replicate {k}")
        self.finals.append(runs[0].final_state.global_model)

    def finish(self) -> None:
        finals = np.array(self.finals)
        predicted = self.targets @ reference.limit_weights(self.P)
        se = finals.std(axis=0, ddof=1) / math.sqrt(len(finals))
        gap = np.abs(finals.mean(axis=0) - predicted)
        self.notes.append(f"fedavg ensemble mean within {np.max(gap / se):.2f} standard "
                          f"errors of the limit point over {len(finals)} replicates")
        self.expect(np.all(gap <= self.Z * se),
                    f"fedavg ensemble mean is {np.max(gap / se):.2f} standard errors "
                    "from the closed-form limit point")
        avg = float(np.mean(self.distances["fedavg"]))
        pbc = float(np.mean(self.distances["fedpbc"]))
        self.notes.append(f"mean final distance to the target mean: fedavg {avg:.4g}, "
                          f"fedpbc {pbc:.4g}")
        self.expect(pbc <= self.PBC_SHARE * avg,
                    f"fedpbc mean final distance {pbc:.3g} is not small next to "
                    f"fedavg's {avg:.3g}")


class SoftmaxWorkload(Workload):
    """The fig3 fleet: synthetic(1, 1), 250 samples per client, m=150."""

    M, S, ETA, B, SAMPLES = 150, 10, 0.005, 32, 250
    LINK = "zipf:3,20000,0.1"


class SoftmaxDense(SoftmaxWorkload):
    """Both variants through the path `fedsim simulate` takes."""

    name = "softmax-dense"
    T = 20
    min_rounds = 2
    CONFIG = """\
experiment = synthetic
algorithm = {variant}
local_compute = all
m = {m}
s = {s}
eta = {eta!r}
T = {T}
batch_size = {b}
alpha = 1
beta = 1
samples_per_client = {samples}
link = {link}
seed = {seed}
"""

    def setup(self) -> None:
        # Config texts stay in memory: file-system time would swamp a
        # set-up this small.
        self.config_texts = {
            variant: self.CONFIG.format(variant=variant, m=self.M, s=self.S, eta=self.ETA,
                                        T=self.T, b=self.B, samples=self.SAMPLES,
                                        link=self.LINK, seed=self.seed)
            for variant in VARIANTS}
        for text in self.config_texts.values():
            config.parse_config(text)
        self.first_outputs: dict = {}

    def run_round(self, k: int) -> RoundResult:
        out_dir = self.fresh_dir()

        def pair():
            outs = []
            for variant in VARIANTS:
                cfg = config.parse_config(self.config_texts[variant])
                out = harness.run_simulation(cfg)
                paths = harness.write_run_outputs(out_dir, out, name=variant)
                outs.append((cfg, out, paths))
            return outs
        outputs, seconds = _timed(pair)
        self.tracer.count("harness.bytes_written",
                          sum(os.path.getsize(p) for *_, paths in outputs
                              for p in paths.values()))
        return RoundResult(2 * self.T, 0, seconds, outputs, out_dir)

    def check_round(self, k: int, result: RoundResult) -> None:
        for cfg, out, paths in result.outputs:
            label = f"{cfg.algorithm} pair {k}"
            with open(paths["metrics"], "rb") as fh:
                metrics_bytes = fh.read()
            with open(paths["manifest"], encoding="utf-8") as fh:
                manifest = json.load(fh)
            self.expect(out.exit_code == 0 and manifest["completed"]
                        and manifest["end_round"] == self.T,
                        f"{label}: run did not complete")
            if cfg.algorithm in self.first_outputs:
                # Every pair reruns the same configs: outputs must repeat byte for byte.
                self.expect(metrics_bytes == self.first_outputs[cfg.algorithm],
                            f"{label}: metrics.csv differs from the first pair's")
                continue
            self.first_outputs[cfg.algorithm] = metrics_bytes
            self.expect(harness.read_metrics_csv(paths["metrics"]) == out.rows,
                        f"{label}: metrics.csv does not read back as the run's rows")
            self.expect(abs(out.rows[0].train_loss - LN10) <= 1e-12,
                        f"{label}: first-row train loss {out.rows[0].train_loss!r} is not ln 10")
            # The links drawn during the run, re-drawn from the run's stream path.
            trace = link_model.build_trace(config.make_link_process(cfg.link, cfg.m),
                                           self.T, SeededStream(cfg.seed).child("sim", "links"))
            self.check_rows(out.rows, self.T, [len(r.active) for r in trace], label)
            objective = harness.build_objective(cfg, SeededStream(cfg.seed))
            self.check_softmax_final(objective, out.result.final_state, cfg.algorithm,
                                     trace[-1].active.members, label)


class SoftmaxSparse(SoftmaxWorkload):
    """Active-only local computation on ragged clients, one shared trace.

    T is short so that a few clients are never active (each floor-rate
    client with probability 0.9^T), which the frozen-column check needs.
    """

    name = "softmax-sparse"
    T = 25
    min_rounds = 4

    def setup(self) -> None:
        dataset = objectives.generate_synthetic(1.0, 1.0, self.M, self.SAMPLES,
                                                self.root.child("data"),
                                                count_mode="lognormal")
        self.objective = objectives.SoftmaxObjective(dataset)
        self.process = config.make_link_process(self.LINK, self.M)
        self.trace = link_model.build_trace(self.process, self.T, self.root.child("trace"))
        self.configs = [algorithms.AlgorithmConfig(v, s=self.S, eta=self.ETA,
                                                   local_compute="active_only")
                        for v in VARIANTS]

    def run_round(self, k: int) -> RoundResult:
        def pair():
            return [algorithms.run_experiment(cfg, self.objective, self.process, self.T,
                                              self.root.child("sim", k), trace=self.trace,
                                              batch_size=self.B)
                    for cfg in self.configs]
        outputs, seconds = _timed(pair)
        return RoundResult(2 * self.T, 0, seconds, outputs)

    def check_round(self, k: int, result: RoundResult) -> None:
        counts = [len(r.active) for r in self.trace]
        ever = np.zeros(self.M, dtype=bool)
        for r in self.trace:
            ever[list(r.active.members)] = True
        for variant, res in zip(VARIANTS, result.outputs):
            label = f"{variant} pair {k}"
            self.check_rows(res.rows, self.T, counts, label)
            self.expect(abs(res.rows[0].train_loss - LN10) <= 1e-12,
                        f"{label}: first-row train loss {res.rows[0].train_loss!r} is not ln 10")
            self.check_softmax_final(self.objective, res.final_state, variant,
                                     self.trace[-1].active.members, label,
                                     never_active=np.nonzero(~ever)[0])


class MixingSpectrum(Workload):
    """`fedsim mixing` and `fedsim oracle` on one probability vector each.

    The Zipf vectors use floor 0.05: at the fig3 floor 0.1 the second-ranked
    client's rate lands within 5e-4 above the floor in about 2% of rounds,
    where the power iteration fails depending on the seed (see CHANGES.md).
    The near-uniform vectors do not depend on the seed and fail every time.
    """

    name = "mixing-spectrum"
    M = 60
    LINK = "zipf:3,20000,0.05"
    ZIPF_VECTORS = 48
    ZIPF_PER_ROUND = 4
    NEAR_UNIFORM_BASES = (0.1, 0.3, 0.5)
    NEAR_UNIFORM_SPREAD = 0.01
    min_rounds = 3

    def setup(self) -> None:
        process = config.make_link_process(self.LINK, self.M)
        trace = link_model.build_trace(process, self.ZIPF_VECTORS, self.root.child("mixing"))
        ramp = 1.0 + self.NEAR_UNIFORM_SPREAD * np.arange(self.M) / (self.M - 1)
        vectors = ([("zipf", r.p) for r in trace]
                   + [("near-uniform", base * ramp) for base in self.NEAR_UNIFORM_BASES])
        self.vectors = []
        p_dir = self.fresh_dir()
        for i, (kind, p) in enumerate(vectors):
            path = os.path.join(p_dir, f"p{i}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(",".join(f"{v:.17g}" for v in p) + "\n")
            self.vectors.append((kind, p, path))

    def round_vectors(self, k: int) -> list:
        n = self.ZIPF_VECTORS
        picks = [(self.ZIPF_PER_ROUND * k + i) % n for i in range(self.ZIPF_PER_ROUND)]
        return [self.vectors[i] for i in picks] + [
            self.vectors[n + k % len(self.NEAR_UNIFORM_BASES)]]

    def run_round(self, k: int) -> RoundResult:
        outputs = []
        seconds = 0.0
        out_dir = self.fresh_dir()
        for j, (kind, p, path) in enumerate(self.round_vectors(k)):
            mix_out = os.path.join(out_dir, f"mixing{j}.jsonl")
            oracle_out = os.path.join(out_dir, f"oracle{j}.jsonl")
            err = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stderr(err):
                ok = (cli.main(["mixing", "--p-file", path, "--out", mix_out]) == 0
                      and cli.main(["oracle", "--p-file", path, "--out", oracle_out]) == 0)
            seconds += time.perf_counter() - start
            if ok:
                self.tracer.count("harness.bytes_written",
                                  os.path.getsize(mix_out) + os.path.getsize(oracle_out))
            outputs.append((kind, p, ok, mix_out, oracle_out, err.getvalue().strip()))
        failed = sum(1 for _, _, ok, *_ in outputs if not ok)
        return RoundResult(len(outputs), failed, seconds, outputs, out_dir)

    def check_round(self, k: int, result: RoundResult) -> None:
        for kind, p, ok, mix_out, oracle_out, message in result.outputs:
            label = f"{kind} vector (round {k})"
            if not ok:
                key = f"{kind}: {message}"
                self.failures[key] = self.failures.get(key, 0) + 1
                continue
            with open(mix_out, encoding="utf-8") as fh:
                report = json.loads(fh.readline())
            with open(oracle_out, encoding="utf-8") as fh:
                weights = np.array(json.loads(fh.readline())["w"])
            E = np.array(report["entries"])
            rho = report["rho"]
            m, c = p.size, float(p.min())
            self.expect(E.shape == (m, m) and np.array_equal(E, E.T),
                        f"{label}: E[W^2] is not a symmetric {m}x{m} matrix")
            self.expect(np.max(np.abs(E.sum(axis=1) - 1.0)) <= EXACT_TOL,
                        f"{label}: E[W^2] rows do not sum to 1")
            self.expect(E.min() >= reference.entrywise_lower_bound(c, m) - EXACT_TOL,
                        f"{label}: an E[W^2] entry is below the entrywise bound")
            self.expect(rho <= reference.ergodicity_bound(c, m) + EXACT_TOL,
                        f"{label}: rho {rho} above the ergodicity bound")
            self.expect(np.all((weights >= 0.0) & (weights <= 1.0))
                        and abs(weights.sum() - 1.0) <= EXACT_TOL,
                        f"{label}: limit weights are not a probability vector")
            ref_E = reference.expected_square(p)
            self.expect(np.max(np.abs(E - ref_E)) <= EXACT_TOL,
                        f"{label}: E[W^2] differs from the reference")
            self.expect(abs(rho - reference.deflated_top_eigenvalue(ref_E)) <= RHO_TOL,
                        f"{label}: rho differs from the reference")
            self.expect(np.max(np.abs(weights - reference.limit_weights(p))) <= EXACT_TOL,
                        f"{label}: limit weights differ from the reference")


WORKLOADS = {w.name: w for w in (QuadEnsemble, SoftmaxDense, SoftmaxSparse, MixingSpectrum)}
