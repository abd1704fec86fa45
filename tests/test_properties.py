"""Property tests for invariants that example tests pin only at a few
points: the gossip matrix of any active set, FedPBC on an empty round, and
exact round trips of the trace and dataset files."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.algorithms import AlgorithmConfig, FleetState, run_round
from fedsim.link_model import ActiveSet, TraceRound, read_trace_csv, write_trace_csv
from fedsim.mixing import build_mixing
from fedsim.objectives import (N_CLASSES, N_FEATURES, ClientData, FederatedDataset,
                               QuadraticObjective, load_dataset_csv, save_dataset_csv)

PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def active_sets(draw, max_m=40):
    m = draw(st.integers(1, max_m))
    members = draw(st.lists(st.integers(0, m - 1), unique=True))
    return m, ActiveSet(0, tuple(sorted(members)))


@PROPERTIES
@given(active_sets())
def test_mixing_matrix_is_symmetric_stochastic_projection(case):
    m, active = case
    W = build_mixing(active, m)
    assert np.array_equal(W, W.T)
    assert W.min() >= 0.0
    assert np.max(np.abs(W.sum(axis=0) - 1.0)) <= 1e-13
    assert np.max(np.abs(W.sum(axis=1) - 1.0)) <= 1e-13
    # W^2 = W: one multicast of the active mean is idempotent.
    assert np.max(np.abs(W @ W - W)) <= 1e-15


@PROPERTIES
@given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 5),
       st.floats(1e-3, 0.5), st.integers(0, 2**32 - 1))
def test_fedpbc_empty_round_moves_each_column_by_its_own_steps(d, m, s, eta, seed):
    rng = np.random.default_rng(seed)
    obj = QuadraticObjective(rng.normal(size=(d, m)))
    state = FleetState(X=rng.normal(size=(d, m)), global_model=rng.normal(size=d), round=3)
    empty = ActiveSet(3, ())

    nxt, _ = run_round(state, empty, AlgorithmConfig("fedpbc", s=s, eta=eta), obj, None)
    assert np.array_equal(nxt.global_model, state.global_model)
    assert nxt.round == 4
    for i in range(m):
        x = state.X[:, i].copy()
        for _ in range(s):
            x = x - (x - obj.targets[:, i]) * eta
        assert np.array_equal(nxt.X[:, i], x)

    # Under active_only no client computes, so nothing moves at all.
    frozen, _ = run_round(state, empty, AlgorithmConfig("fedpbc", s=s, eta=eta,
                                                        local_compute="active_only"),
                          obj, None)
    assert np.array_equal(frozen.X, state.X)
    assert np.array_equal(frozen.global_model, state.global_model)


@st.composite
def traces(draw):
    m = draw(st.integers(1, 6))
    T = draw(st.integers(1, 5))
    rounds = []
    for t in range(T):
        p = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=m, max_size=m))
        up = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        members = tuple(i for i in range(m) if up[i])
        rounds.append(TraceRound(round=t, p=np.array(p), active=ActiveSet(t, members)))
    return rounds


@PROPERTIES
@given(traces())
def test_trace_csv_round_trips_exactly(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        write_trace_csv(path, trace)
        back = read_trace_csv(path)
    assert len(back) == len(trace)
    for orig, loaded in zip(trace, back):
        assert loaded.round == orig.round
        assert np.array_equal(loaded.p, orig.p)
        assert loaded.active.members == orig.active.members


def samples(draw, n):
    x = draw(st.lists(st.lists(finite, min_size=N_FEATURES, max_size=N_FEATURES),
                      min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, N_CLASSES - 1), min_size=n, max_size=n))
    return np.array(x), np.array(y, dtype=np.int64)


@st.composite
def datasets(draw):
    clients = []
    for _ in range(draw(st.integers(1, 3))):
        train_x, train_y = samples(draw, draw(st.integers(1, 3)))
        test_x, test_y = samples(draw, draw(st.integers(1, 2)))
        clients.append(ClientData(train_x, train_y, test_x, test_y))
    return FederatedDataset(clients=clients, alpha=draw(st.floats(0.0, 1e6)),
                            beta=draw(st.floats(0.0, 1e6)),
                            seed=draw(st.integers(0, 2**63 - 1)))


@settings(PROPERTIES, max_examples=30)
@given(datasets())
def test_dataset_csv_round_trips_exactly(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        save_dataset_csv(path, dataset)
        back = load_dataset_csv(path)
    assert (back.alpha, back.beta, back.seed) == (dataset.alpha, dataset.beta, dataset.seed)
    assert back.num_clients == dataset.num_clients
    for orig, loaded in zip(dataset.clients, back.clients):
        for field in ("train_x", "train_y", "test_x", "test_y"):
            assert np.array_equal(getattr(loaded, field), getattr(orig, field))
            assert getattr(loaded, field).dtype == getattr(orig, field).dtype
