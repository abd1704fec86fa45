"""Client objectives with gradient access.

Two families:

* ``QuadraticObjective`` — client i holds F_i(x) = 0.5 ||x - u_i||^2 with
  exact gradient x - u_i.  The global optimum is the mean of the targets,
  which makes averaging bias directly measurable.

* ``SoftmaxObjective`` — per-client softmax regression (60 features, 10
  classes, 610 flattened parameters) over a heterogeneous synthetic
  dataset: client i labels its features with its own ground-truth linear
  model, whose weights are drawn around a client-specific level, and draws
  features around a client-specific mean with decaying per-coordinate
  variance.  ``alpha`` scales model heterogeneity across clients and
  ``beta`` scales feature heterogeneity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigError
from .numerics import csv_records, integer, real, write_csv
from .streams import SeededStream

N_FEATURES = 60
N_CLASSES = 10
PARAM_DIM = N_CLASSES * N_FEATURES + N_CLASSES

# Per-coordinate feature variances decay polynomially in the coordinate.
_FEATURE_VAR = (np.arange(1, N_FEATURES + 1, dtype=float)) ** -1.2
_FEATURE_STD = np.sqrt(_FEATURE_VAR)
# Spread of a client's true-model entries around its model level u_i.
_MODEL_STD = 1.0

DATASET_MAGIC = "synthetic-v1"


class QuadraticObjective:
    """Mean of per-client squared distances to fixed targets.

    Gradients are exact, so a round's batch is only the target columns of
    the clients that compute.  The targets are fixed once constructed: the
    optimum is computed from them once.
    """

    def __init__(self, targets: np.ndarray):
        targets = np.asarray(targets, dtype=float)
        if targets.ndim != 2:
            raise ConfigError("targets must be a d x m matrix (one column per client)")
        if not np.all(np.isfinite(targets)):
            raise ConfigError("targets must be finite")
        self.targets = targets
        self.dim, self.num_clients = targets.shape
        # Bit for bit targets.mean(axis=1), without its Python-level overhead.
        self._optimum = targets.sum(axis=1) / self.num_clients
        self._optimum.flags.writeable = False

    def gradient(self, i: int, x: np.ndarray, batch=None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ConfigError(f"model vector must have dimension {self.dim}")
        return x - self.targets[:, i]

    def make_batchers(self, batch_size: int, stream: SeededStream) -> None:
        """Exact gradients draw no mini-batches."""
        return None

    def fleet_batch(self, clients: np.ndarray, batchers=None) -> np.ndarray:
        """Target columns of ``clients``; the whole matrix, uncopied, when
        every client computes."""
        if len(clients) == self.num_clients:
            return self.targets
        return self.targets[:, clients]

    def gradient_fleet(self, X: np.ndarray, batch: np.ndarray, out=None) -> np.ndarray:
        """Gradients of the clients whose targets are the columns of ``batch``."""
        return np.subtract(X, batch, out=out)

    def local_steps(self, X: np.ndarray, batch: np.ndarray, s: int, eta: float) -> None:
        """``s`` gradient steps of size ``eta``, in place, for the clients
        whose models are the columns of ``X`` and whose targets are the
        columns of ``batch``.

        A step is ``x -> x - eta (x - u)``, so the ``s`` steps are the one
        affine map ``x -> u + a (x - u)`` with ``a = (1 - eta)^s``: three
        in-place ops on ``X`` whatever ``s`` is.  The results differ from
        the stepwise loop by rounding only.  ``a`` is a numpy power, so an
        overflow gives ``inf`` (under the caller's ``errstate``), not
        ``OverflowError``; a client exactly at its target then stays there,
        as it would step by step, and any other client turns non-finite.
        """
        a = np.float64(1.0 - eta) ** s
        X -= batch
        if math.isfinite(a):
            X *= a
        else:
            np.multiply(X, a, out=X, where=X != 0)  # 0 * inf would be nan
        X += batch

    def global_optimum(self) -> np.ndarray:
        """Column mean of the targets, the unique global minimizer (read-only)."""
        return self._optimum

    def loss_and_gradient(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        """Mean loss over the clients at ``x`` and its gradient."""
        diffs = x[:, None] - self.targets
        diffs *= diffs
        return (float(0.5 * diffs.sum() / self.num_clients),
                x - self._optimum)

    def global_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.loss_and_gradient(x)[1]

    def train_loss(self, x: np.ndarray) -> float:
        return self.loss_and_gradient(x)[0]

    def test_accuracy(self, x: np.ndarray) -> Optional[float]:
        return None


def _split(vec: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The 10 x 60 weights and the bias of a flattened parameter vector."""
    n_w = N_CLASSES * N_FEATURES
    return vec[:n_w].reshape(N_CLASSES, N_FEATURES), vec[n_w:]


def softmax_loss_grad(vec: np.ndarray, features: np.ndarray,
                      labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch at the flattened 610-parameter
    ``vec`` (weights row-major, then bias) and its exact gradient.

    Logits are stabilized by max subtraction, so overflow cannot produce
    non-finite intermediates.
    """
    vec = np.asarray(vec, float)
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[1] != N_FEATURES:
        raise ConfigError(f"features must be n x {N_FEATURES}")
    n = features.shape[0]
    if n == 0:
        raise ConfigError("batch must be non-empty")
    w, b = _split(vec)
    z = features @ w.T + b
    z -= z.max(axis=1, keepdims=True)
    expz = np.exp(z)
    denom = expz.sum(axis=1, keepdims=True)
    logp = z - np.log(denom)
    loss = float(-logp[np.arange(n), labels].mean())
    delta = expz / denom
    delta[np.arange(n), labels] -= 1.0
    grad_w = delta.T @ features / n
    grad_b = delta.mean(axis=0)
    return loss, np.concatenate([grad_w.ravel(), grad_b])


@dataclass
class ClientData:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


@dataclass
class FederatedDataset:
    """Per-client train/test partitions plus generation metadata."""

    clients: List[ClientData]
    alpha: float
    beta: float
    seed: int

    @property
    def num_clients(self) -> int:
        return len(self.clients)


def check_synthetic(alpha: float, beta: float, samples_per_client: int) -> None:
    """The generator's rules on its variances and sample count, which a
    synthetic config must meet before its run starts."""
    if samples_per_client < 2:
        raise ConfigError("need at least 2 samples per client")
    if not (0 <= alpha < np.inf and 0 <= beta < np.inf):
        raise ConfigError("alpha and beta are variances and must be finite and >= 0")


def generate_synthetic(alpha: float, beta: float, m: int, samples_per_client: int,
                       stream: SeededStream, *, count_mode: str = "fixed") -> FederatedDataset:
    """Generate the heterogeneous softmax-regression dataset.

    Per client i (all draws from the client's own sub-stream, in a fixed
    order): a scalar model level u_i ~ N(0, alpha); ground-truth weights
    and bias with entries ~ N(u_i, 1); a scalar feature level
    B_i ~ N(0, beta); a feature mean vector with entries ~ N(B_i, 1);
    features ~ N(mean, diag(j^-1.2)); labels by argmax of the true model's
    logits.

    ``count_mode="lognormal"`` replaces the fixed per-client count with
    round(lognormal(4, 0.5)), floored at 2.
    """
    if m < 1:
        raise ConfigError("client count must be >= 1")
    check_synthetic(alpha, beta, samples_per_client)
    if count_mode not in ("fixed", "lognormal"):
        raise ConfigError(f"unknown count_mode {count_mode!r}")

    clients = []
    for i in range(m):
        gen = stream.child("client", i).generator()
        if count_mode == "lognormal":
            n_i = max(2, int(round(gen.lognormal(4.0, 0.5))))
        else:
            n_i = samples_per_client
        u_i = gen.normal(0.0, np.sqrt(alpha))
        w_true = gen.normal(u_i, _MODEL_STD, size=(N_CLASSES, N_FEATURES))
        b_true = gen.normal(u_i, _MODEL_STD, size=N_CLASSES)
        level = gen.normal(0.0, np.sqrt(beta))
        mean_vec = gen.normal(level, 1.0, size=N_FEATURES)
        features = gen.normal(mean_vec, _FEATURE_STD, size=(n_i, N_FEATURES))
        labels = np.argmax(features @ w_true.T + b_true, axis=1).astype(np.int64)

        split_gen = stream.child("split", i).generator()
        order = split_gen.permutation(n_i)
        n_test = max(1, int(np.floor(0.2 * n_i)))
        test_idx = order[:n_test]
        train_idx = order[n_test:]
        clients.append(ClientData(
            train_x=features[train_idx], train_y=labels[train_idx],
            test_x=features[test_idx], test_y=labels[test_idx]))
    return FederatedDataset(clients=clients, alpha=alpha, beta=beta,
                            seed=stream.root_seed)


def save_dataset_csv(path, dataset: FederatedDataset) -> str:
    """One header line holding the generation metadata, then per-sample rows;
    returns the file's SHA-256 hex digest."""
    def rows():
        for cid, cl in enumerate(dataset.clients):
            for split, xs, ys in (("train", cl.train_x, cl.train_y),
                                  ("test", cl.test_x, cl.test_y)):
                for x, y in zip(xs, ys.tolist()):
                    yield [cid, split, y, *x.tolist()]

    header = (DATASET_MAGIC, dataset.alpha, dataset.beta, dataset.num_clients, dataset.seed)
    return write_csv(path, header, rows())


def load_dataset_csv(path) -> FederatedDataset:
    """Read a file written by ``save_dataset_csv``; a header or row that it
    could not have written, or a header ``alpha``/``beta`` that
    ``generate_synthetic`` refuses, raises ``ConfigError`` naming the line."""
    records = csv_records(path, "dataset", 3 + N_FEATURES)
    where, header = next(records, (None, []))
    if len(header) != 5 or header[0] != DATASET_MAGIC:
        raise ConfigError(f"not a {DATASET_MAGIC} dataset file")
    try:
        alpha, beta = real(header[1]), real(header[2])
        m, seed = integer(header[3]), integer(header[4])
        if m < 1:
            raise ConfigError(f"client count must be >= 1, got {m}")
        check_synthetic(alpha, beta, 2)  # a client's rows are at least 2 samples
    except ValueError:
        raise ConfigError(f"{where}: malformed header field in {header!r}") from None
    except ConfigError as err:
        raise ConfigError(f"{where}: {err}") from None
    rows: dict = {}  # (split, client) -> (features, labels), keyed as rows arrive
    for where, rec in records:
        try:
            cid, split, label = integer(rec[0]), rec[1], integer(rec[2])
            feats = [real(v) for v in rec[3:]]
        except ValueError:
            raise ConfigError(f"{where}: malformed field") from None
        if split not in ("train", "test") or not 0 <= cid < m:
            raise ConfigError(f"{where}: need split 'train' or 'test' and a client "
                              f"id in 0..{m - 1}, got {split!r} and {cid}")
        if not 0 <= label < N_CLASSES:
            raise ConfigError(f"{where}: label {label} outside 0..{N_CLASSES - 1}")
        xs, ys = rows.setdefault((split, cid), ([], []))
        xs.append(feats)
        ys.append(label)
    clients = []
    for i in range(m):
        if ("train", i) not in rows or ("test", i) not in rows:
            raise ConfigError(f"client {i} is missing a train or test partition")
        (tx, ty), (ex, ey) = rows.pop(("train", i)), rows.pop(("test", i))
        clients.append(ClientData(
            train_x=np.array(tx), train_y=np.array(ty, dtype=np.int64),
            test_x=np.array(ex), test_y=np.array(ey, dtype=np.int64)))
    return FederatedDataset(clients=clients, alpha=alpha, beta=beta, seed=seed)


class MiniBatcher:
    """Without-replacement mini-batches, reshuffled each epoch.

    A tail shorter than one batch is dropped at the reshuffle; if the
    client holds fewer samples than the batch size, every batch is the
    full set in shuffled order.
    """

    def __init__(self, n: int, batch_size: int, stream: SeededStream):
        if n < 1 or batch_size < 1:
            raise ConfigError("batcher needs n >= 1 and batch_size >= 1")
        self.n = n
        self.batch_size = min(batch_size, n)
        self._gen = stream.generator()
        self._order = self._gen.permutation(self.n)
        self._pos = 0

    def next_indices(self) -> np.ndarray:
        if self._pos + self.batch_size > self.n:
            self._order = self._gen.permutation(self.n)
            self._pos = 0
        out = self._order[self._pos:self._pos + self.batch_size]
        self._pos += self.batch_size
        return out


# Rows per block of the stacked full-data passes.  A block of 400 makes
# 10 x 60 x 400 = 240k multiply-adds per product, under the 4 * 65536 from
# which OpenBLAS splits a GEMM across threads.  numpy and scipy each load
# their own OpenBLAS with its own thread pool, and one product over every
# row, threaded inside scipy's L-BFGS-B, makes the pools fight: on two
# cores an L-BFGS solve over 6,000 rows took 16.6 s that way and 1.5 s in
# blocks.  Threads gained nothing on these passes where they did not fight.
# The passes are class-major: a block's logits are 10 x 400 and the
# reductions over the classes run along the leading axis, across 400-long
# rows.  numpy reduces short rows slowly: the max over the classes of one
# block took 30 us on 400 x 10 logits and 4.5 us on 10 x 400 (2-core x86-64).
FULL_PASS_BLOCK = 400


def _blocks(n: int):
    """Slices of ``range(n)`` of at most ``FULL_PASS_BLOCK`` rows each."""
    return (slice(start, start + FULL_PASS_BLOCK) for start in range(0, n, FULL_PASS_BLOCK))


def _stack(features: List[np.ndarray], labels: List[np.ndarray]):
    """Every client's rows stacked feature-major, as one C-contiguous
    60 x n array whose columns are the samples, with per-sample weights
    1/(m n_i), so a weighted sum over the columns is the mean over clients
    of per-client means; then per-client n_i x 60 views of the stacked
    features (transposed, so the rows are held once) and labels."""
    sizes = np.array([len(y) for y in labels])
    stacked_x = np.concatenate([f.T for f in features], axis=1,
                               out=np.empty((N_FEATURES, sizes.sum())))
    stacked_y = np.concatenate(labels)
    weights = np.repeat(1.0 / (len(sizes) * sizes), sizes)
    ends = np.cumsum(sizes).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    return ((stacked_x, stacked_y, weights),
            [stacked_x[:, a:b].T for a, b in spans], [stacked_y[a:b] for a, b in spans])


class SoftmaxObjective:
    """Softmax regression over a federated dataset, one loss per client."""

    def __init__(self, dataset: FederatedDataset):
        self.dim = PARAM_DIM
        self.num_clients = dataset.num_clients
        clients = dataset.clients
        self._train, train_x, train_y = _stack([cl.train_x for cl in clients],
                                               [cl.train_y for cl in clients])
        self._test, test_x, test_y = _stack([cl.test_x for cl in clients],
                                            [cl.test_y for cl in clients])
        sizes = [len(y) for y in train_y]
        self._train_start = np.cumsum([0] + sizes[:-1])
        # The same dataset, its client arrays views of the stacked rows, so
        # that once the caller lets go of the original the rows are held once.
        self.dataset = replace(dataset, clients=[
            ClientData(*arrays) for arrays in zip(train_x, train_y, test_x, test_y)])

    def gradient(self, i: int, x: np.ndarray, batch) -> np.ndarray:
        features, labels = batch
        _, grad = softmax_loss_grad(x, features, labels)
        return grad

    def make_batchers(self, batch_size: int, stream: SeededStream) -> List[MiniBatcher]:
        return [MiniBatcher(len(cl.train_y), batch_size, stream.child("client", i))
                for i, cl in enumerate(self.dataset.clients)]

    def batch_for(self, i: int, batcher: MiniBatcher):
        idx = batcher.next_indices()
        cl = self.dataset.clients[i]
        return cl.train_x[idx], cl.train_y[idx]

    def fleet_batch(self, clients: np.ndarray, batchers: List[MiniBatcher]):
        """The round's batches of ``clients`` (at least one), each drawn from
        the client's own batcher in the order given and gathered at once
        from the stacked train columns: (k, 61, b) features, each client's
        60 x b batch over a row of ones (the bias's feature), (k, b) labels,
        and per-sample weights 1/b_i.  A client holding fewer than b samples
        is padded with all-zero columns of weight 0."""
        lengths = np.array([batchers[i].batch_size for i in clients])
        valid = np.arange(lengths.max()) < lengths[:, None]
        columns = np.zeros(valid.shape, dtype=np.intp)
        columns[valid] = np.concatenate([batchers[i].next_indices() for i in clients])
        columns += self._train_start[clients][:, None]
        features, labels, _ = self._train
        batch_x = np.empty((len(clients), N_FEATURES + 1, valid.shape[1]))
        np.multiply(np.take(features, columns, axis=1).transpose(1, 0, 2),
                    valid[:, None, :], out=batch_x[:, :N_FEATURES])
        batch_x[:, N_FEATURES] = valid
        return batch_x, labels[columns], valid / lengths[:, None]

    def local_steps(self, X: np.ndarray, batch, s: int, eta: float) -> None:
        """``s`` mini-batch gradient steps of size ``eta``, in place, for the
        k clients whose models are the columns of the 610 x k ``X``, on a
        batch from ``fleet_batch``: the same sums as ``gradient``, taken in
        another order.

        The steps run on a (k, 10, 61) copy of the models, each class's
        weights beside its bias, so that one product with the batch's
        features (ones row included) gives the logits and one gives the
        gradient.  The logits are class-leading, (10, k, b), so the max and
        sum over the classes run along the leading axis.
        """
        features, labels, weights = batch
        k, b = weights.shape
        n_w = N_CLASSES * N_FEATURES
        model = np.empty((k, N_CLASSES, N_FEATURES + 1))
        model[:, :, :N_FEATURES] = X[:n_w].T.reshape(k, N_CLASSES, N_FEATURES)
        model[:, :, N_FEATURES] = X[n_w:].T
        target = np.zeros((N_CLASSES, k, b))
        target[labels, np.arange(k)[:, None], np.arange(b)] = weights
        z = np.empty((N_CLASSES, k, b))
        z_by_client = z.transpose(1, 0, 2)
        step = np.empty_like(model)
        for _ in range(s):
            np.matmul(model, features, out=z_by_client)
            # A shift per sample leaves its softmax unchanged and keeps exp finite.
            z -= z.max(axis=0)
            np.exp(z, out=z)
            # Weighted softmax probabilities less the weighted one-hot labels.
            z *= weights / z.sum(axis=0)
            z -= target
            z *= eta
            np.matmul(z_by_client, features.transpose(0, 2, 1), out=step)
            model -= step
        X[:n_w] = model[:, :, :N_FEATURES].reshape(k, n_w).T
        X[n_w:] = model[:, :, N_FEATURES].T

    def loss_and_gradient(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        """The mean over clients of each client's mean train loss at ``x``,
        and its gradient, in one class-major pass over the stacked train
        columns."""
        features, labels, weights = self._train
        w, b = _split(np.asarray(x, float))
        bias = b[:, None]
        loss = 0.0
        grad_w = np.zeros((N_CLASSES, N_FEATURES))
        grad_b = np.zeros(N_CLASSES)
        for rows in _blocks(len(labels)):
            f, y, wt = features[:, rows], labels[rows], weights[rows]
            z = w @ f
            z += bias
            z -= z.max(axis=0)
            delta = np.exp(z)
            denom = delta.sum(axis=0)
            picked = y, np.arange(len(y))
            loss -= wt @ (z[picked] - np.log(denom))
            # Weighted softmax probabilities less the weighted one-hot labels.
            delta *= wt / denom
            delta[picked] -= wt
            grad_w += delta @ f.T
            grad_b += delta.sum(axis=1)
        return float(loss), np.concatenate([grad_w.ravel(), grad_b])

    def global_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.loss_and_gradient(x)[1]

    def train_loss(self, x: np.ndarray) -> float:
        return self.loss_and_gradient(x)[0]

    def test_accuracy(self, x: np.ndarray) -> float:
        """The mean over clients of each client's test accuracy at ``x``."""
        features, labels, weights = self._test
        w, b = _split(np.asarray(x, float))
        bias = b[:, None]
        accuracy = 0.0
        for rows in _blocks(len(labels)):
            z = w @ features[:, rows]
            z += bias
            accuracy += weights[rows] @ (z.argmax(axis=0) == labels[rows])
        return float(accuracy)
