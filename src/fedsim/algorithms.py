"""One round engine for federated averaging under intermittent links.

``run_round`` builds each round, and ``run_experiment`` calls it once per
round of a link trace and collects the metrics rows.  A round, in order:

1. FedAvg's broadcast: clients with active links restart from the server
   model; the rest continue from their own.  FedPBC postpones it, so
   every client continues from its own model.
2. The round's part of the metrics row of that start fleet, which is also
   the exact state FedPBC carries between rounds: the mean iterate x_bar,
   the consensus error (1/m) sum_i ||x_i - x_bar||^2 and the active
   count.  The rest of the row, the gradient norm and train loss at x_bar
   and its test accuracy, is one full pass over the train and test sets
   per model; ``metrics_rows`` takes it for a window of up to
   ``MEASURE_WINDOW`` rounds at once, in one stacked pass over their
   x_bar columns.
3. The computing clients (all of them, or only the active ones under
   ``local_compute="active_only"``, whose inactive columns stay frozen)
   draw the round's mini-batches and take s gradient steps at a fixed
   step size, all of them in one call of the objective's ``local_steps``
   (on the quadratic, the closed form of the s steps: one affine map).
4. The server averages the clients whose links were up, and a non-finite
   iterate or server model raises ``DivergedRunError`` carrying the rows
   so far, the diverging round's included.
5. FedPBC multicasts the new server model to the active clients only,
   overwriting their columns; under FedAvg every column keeps its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DivergedRunError
from .link_model import ActiveSet, TraceRound, build_trace
from .mixing import build_mixing
from .objectives import MEASURE_WINDOW
from .streams import SeededStream

VARIANTS = ("fedavg", "fedpbc")
LOCAL_COMPUTE_MODES = ("all", "active_only")


@dataclass(frozen=True)
class AlgorithmConfig:
    variant: str
    s: int
    eta: float
    local_compute: str = "all"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"key 'algorithm' must be one of {VARIANTS}, got {self.variant!r}")
        if self.local_compute not in LOCAL_COMPUTE_MODES:
            raise ConfigError(f"key 'local_compute' must be one of {LOCAL_COMPUTE_MODES}, "
                              f"got {self.local_compute!r}")
        if self.s < 1:
            raise ConfigError("key 's' must be >= 1")
        if not (0 < self.eta < np.inf):
            raise ConfigError("key 'eta' must be finite and > 0")


@dataclass
class FleetState:
    """Per-client parameter columns, the server model, and the round count."""

    X: np.ndarray
    global_model: np.ndarray
    round: int

    @staticmethod
    def initial(x0: np.ndarray, m: int) -> "FleetState":
        x0 = np.asarray(x0, dtype=float)
        return FleetState(X=np.repeat(x0[:, None], m, axis=1),
                          global_model=x0.copy(), round=0)

    @property
    def num_clients(self) -> int:
        return self.X.shape[1]

    def mean_iterate(self) -> np.ndarray:
        return self.X.mean(axis=1)


@dataclass(frozen=True)
class MetricsRow:
    round: int
    grad_norm: float
    consensus_error: float
    train_loss: float
    test_accuracy: Optional[float]
    active_count: int


@dataclass(frozen=True)
class RoundStart:
    """The part of a round's metrics row that ``run_round`` takes: the start
    fleet's mean iterate, its consensus error and the active count."""

    round: int
    x_bar: np.ndarray
    consensus_error: float
    active_count: int


def _round_start(t: int, starts: np.ndarray, active_count: int) -> RoundStart:
    """The ``RoundStart`` of the fleet ``starts``; the caller holds the errstate.

    ``sum / m`` is bit for bit ``mean``, without its Python-level overhead."""
    m = starts.shape[1]
    x_bar = starts.sum(axis=1) / m
    dev = starts - x_bar[:, None]
    dev *= dev
    return RoundStart(round=t, x_bar=x_bar, consensus_error=float(dev.sum() / m),
                      active_count=active_count)


def metrics_rows(starts: Sequence[RoundStart], objective) -> List[MetricsRow]:
    """The metrics rows of ``starts``, from one ``loss_and_gradient`` and one
    ``test_accuracy`` call on the d x K matrix of their mean iterates.

    A column's results do not depend on the other columns, so each row is
    the one its round's start alone would give.  ``sqrt(g . g)`` is how
    ``np.linalg.norm`` computes a vector's norm, without its Python-level
    overhead."""
    if not starts:
        return []
    with np.errstate(over="ignore", invalid="ignore"):
        x_bars = np.stack([start.x_bar for start in starts], axis=1)
        losses, grads = objective.loss_and_gradient(x_bars)
        accuracies = objective.test_accuracy(x_bars)
        norms = [math.sqrt(g.dot(g)) for g in np.ascontiguousarray(grads.T)]
    accuracies = [None] * len(starts) if accuracies is None else accuracies.tolist()
    return [MetricsRow(round=start.round, grad_norm=norm,
                       consensus_error=start.consensus_error, train_loss=loss,
                       test_accuracy=accuracy, active_count=start.active_count)
            for start, norm, loss, accuracy in zip(starts, norms, losses.tolist(), accuracies)]


def _check_finite(X: np.ndarray, server: np.ndarray, start: RoundStart, objective) -> None:
    """Raise ``DivergedRunError``, carrying the round's row, on a non-finite
    iterate or server model."""
    t = start.round
    if not np.isfinite(X).all():
        client = int(np.nonzero(~np.isfinite(X).all(axis=0))[0][0])
        message = f"non-finite iterate at round {t}, client {client}"
    elif not np.isfinite(server).all():
        client, message = None, f"non-finite server model at round {t}"
    else:
        return
    raise DivergedRunError(message, round_index=t, client=client,
                           rows=metrics_rows([start], objective))


def run_round(state: FleetState, active: ActiveSet, cfg: AlgorithmConfig,
              objective, batchers) -> Tuple[FleetState, RoundStart]:
    """One round of either variant: the next state and the ``RoundStart``
    of its start fleet, which ``metrics_rows`` turns into its row.

    The steps of the module docstring, on a copy of ``state.X``.  The
    computing clients draw their batches from ``batchers`` (the
    objective's ``make_batchers``; ``None`` for the quadratic) through
    ``objective.fleet_batch``, and ``objective.local_steps`` takes the
    round's s steps on their columns in place.  A ``DivergedRunError``
    carries this round's row only.
    """
    m = state.num_clients
    members = np.array(active.members, dtype=np.intp)
    k = members.size
    X = state.X.copy()
    if cfg.variant == "fedavg":
        X[:, members] = state.global_model[:, None]  # the broadcast
    clients = np.arange(m) if cfg.local_compute == "all" else members
    with np.errstate(over="ignore", invalid="ignore"):
        start = _round_start(state.round, X, k)
        if clients.size:
            batch = objective.fleet_batch(clients, batchers)
            local = X if clients.size == m else X[:, clients]
            objective.local_steps(local, batch, cfg.s, cfg.eta)
            if local is not X:
                X[:, clients] = local
        # sum / k is bit for bit the mean of the active columns.
        new_global = X[:, members].sum(axis=1) / k if k else state.global_model.copy()
    _check_finite(X, new_global, start, objective)
    if cfg.variant == "fedpbc":
        X[:, members] = new_global[:, None]  # the postponed multicast
    return FleetState(X=X, global_model=new_global, round=state.round + 1), start


def matrix_form_check(state_before: FleetState, active: ActiveSet,
                      cfg: AlgorithmConfig, objective,
                      state_after: FleetState, batch) -> float:
    """Largest entry-wise deviation of one FedPBC round from X' = (X - eta G) W.

    G's columns are the per-client sums of the s per-step gradients on the
    round's ``batch`` (from ``objective.fleet_batch``), so X - eta G is X
    after the objective's ``local_steps``, and W is the gossip matrix of
    the realized active set.  Requires local_compute="all" (otherwise the
    identity does not describe the frozen columns).
    """
    if cfg.variant != "fedpbc" or cfg.local_compute != "all":
        raise ConfigError("matrix-form identity applies to fedpbc with local_compute='all'")
    X = state_before.X.copy()
    objective.local_steps(X, batch, cfg.s, cfg.eta)
    W = build_mixing(active, state_before.num_clients)
    return float(np.max(np.abs(X @ W - state_after.X)))


@dataclass
class ExperimentResult:
    final_state: FleetState
    rows: List[MetricsRow]


def run_experiment(cfg: AlgorithmConfig, objective, link_process, T: int,
                   stream: SeededStream, *, trace: Optional[Sequence[TraceRound]] = None,
                   batch_size: int = 32, x0: Optional[np.ndarray] = None) -> ExperimentResult:
    """``run_round`` over the first T rounds of a trace; one row per round,
    taken by ``metrics_rows`` once a window of ``MEASURE_WINDOW`` rounds
    has run and after the last round.

    Randomness is addressed by purpose: link draws under ``links`` and
    mini-batches under ``batches``/client id, so the two algorithm
    variants driven by the same stream consume identical link traces and
    identical batches.  Without ``trace``, the links are drawn up front by
    ``build_trace`` under ``links``; either way the run replays a trace.
    A ``DivergedRunError`` leaves with every row so far, its window's
    measured first, the diverging round's last.
    """
    if T < 1:
        raise ConfigError("round count T must be >= 1")
    if trace is None:
        trace = build_trace(link_process, T, stream.child("links"))
    if len(trace) < T:
        raise ConfigError(f"trace has {len(trace)} rounds, need {T}")
    if x0 is None:
        x0 = np.zeros(objective.dim)
    state = FleetState.initial(x0, objective.num_clients)

    batchers = objective.make_batchers(batch_size, stream.child("batches"))
    rows: List[MetricsRow] = []
    window: List[RoundStart] = []
    for t in range(T):
        try:
            state, start = run_round(state, trace[t].active, cfg, objective, batchers)
        except DivergedRunError as err:
            err.rows = rows + metrics_rows(window, objective) + err.rows
            raise
        window.append(start)
        if len(window) == MEASURE_WINDOW or t == T - 1:
            rows += metrics_rows(window, objective)
            window = []
    return ExperimentResult(final_state=state, rows=rows)
