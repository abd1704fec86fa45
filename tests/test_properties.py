"""Property tests for invariants that example tests pin only at a few
points: the gossip matrix of any active set, FedPBC on an empty round, the
quadratic's closed-form local steps against the step-by-step loop, exact
round trips of the trace and dataset files, and the JSON-lines writer
against ``json.dumps``."""

import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim.algorithms import AlgorithmConfig, FleetState, run_round
from fedsim.cli import _emit_json_lines
from fedsim.config import make_link_process
from fedsim.errors import DivergedRunError
from fedsim.harness import mixing_report
from fedsim.link_model import (ActiveSet, TraceRound, build_trace, read_trace_csv,
                               write_trace_csv)
from fedsim.mixing import build_mixing
from fedsim.objectives import (N_CLASSES, N_FEATURES, ClientData, FederatedDataset,
                               QuadraticObjective, load_dataset_csv, save_dataset_csv)
from fedsim.streams import SeededStream

PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def active_sets(draw, max_m=40):
    m = draw(st.integers(1, max_m))
    members = draw(st.lists(st.integers(0, m - 1), unique=True))
    return m, ActiveSet(tuple(sorted(members)))


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
    empty = ActiveSet(())

    nxt, _ = run_round(state, empty, AlgorithmConfig("fedpbc", s=s, eta=eta), obj, None)
    assert np.array_equal(nxt.global_model, state.global_model)
    assert nxt.round == 4
    # Each column moves by its own steps, and no multicast touches it.
    for i in range(m):
        x = state.X[:, i:i + 1].copy()
        obj.local_steps(x, obj.targets[:, i:i + 1], s, eta)
        assert np.array_equal(nxt.X[:, i], x[:, 0])

    # Under active_only no client computes, so nothing moves at all.
    frozen, _ = run_round(state, empty, AlgorithmConfig("fedpbc", s=s, eta=eta,
                                                        local_compute="active_only"),
                          obj, None)
    assert np.array_equal(frozen.X, state.X)
    assert np.array_equal(frozen.global_model, state.global_model)


magnitudes = st.floats(-1e6, 1e6, allow_subnormal=False)


@PROPERTIES
@given(st.integers(1, 4), st.integers(1, 300),
       st.one_of(st.floats(1e-6, 1.0), st.floats(1.0, 2.0, exclude_min=True, exclude_max=True)),
       st.data())
@example(d=2, s=7, eta=1.5, data=None)
@example(d=3, s=300, eta=1.999, data=None)
def test_quad_local_steps_match_the_literal_loop(d, s, eta, data):
    if data is None:
        x0, u = np.linspace(-3.0, 5.0, d), np.linspace(7.0, -1.0, d)
    else:
        x0 = np.array(data.draw(st.lists(magnitudes, min_size=d, max_size=d)))
        u = np.array(data.draw(st.lists(magnitudes, min_size=d, max_size=d)))
    X = x0[:, None].copy()
    QuadraticObjective(u[:, None]).local_steps(X, u[:, None], s, eta)

    x = x0.copy()
    for _ in range(s):
        x = x - (x - u) * eta
    # For eta in (0, 2) a step contracts x - u, so no step amplifies an
    # earlier rounding error.  Each step of the loop rounds three times and
    # adds at most 3 eps (|x0| + |u|); the closed form rounds 1 - eta and
    # the power (at most (s + 1) eps relative in a, so (s + 1) eps
    # (|x0| + |u|) in a (x0 - u)) and its three ops.  That is under
    # 4 (s + 1) eps (|x0| + |u|) in all.  Results among the subnormals
    # round absolutely instead, by at most one smallest subnormal an op.
    tiny = np.finfo(float).smallest_subnormal
    bound = 4 * (s + 1) * (np.finfo(float).eps * (np.abs(x0) + np.abs(u)) + tiny)
    assert np.all(np.abs(X[:, 0] - x) <= bound)


class _Counted(np.ndarray):
    """An array that counts the numpy ufunc calls that take it in or out."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        _Counted.calls += 1
        plain = [a.view(np.ndarray) if isinstance(a, _Counted) else a for a in inputs]
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) for o in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        return out[0] if out is not None else result


@pytest.mark.parametrize("eta", [0.5, 3.0])  # at s = 2000, a underflows to 0 or overflows
@pytest.mark.parametrize("s", [1, 2000])
def test_quad_local_steps_make_at_most_four_numpy_calls(s, eta):
    obj = QuadraticObjective(np.array([[1.0, -2.0, 3.0]]))
    X = np.array([[1.0, 1.0, -4.0]]).view(_Counted)
    _Counted.calls = 0
    with np.errstate(over="ignore"):
        obj.local_steps(X, obj.targets, s, eta)
    assert _Counted.calls <= 4
    assert X[0, 0] == 1.0  # at its target


@pytest.mark.parametrize("s", [1100, 1101])
def test_quad_local_steps_past_overflow(s):
    # (1 - 3)^1100 is past the largest double: Python's float power raises
    # OverflowError there, numpy's gives +-inf.
    targets = np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 5.0]])
    obj = QuadraticObjective(targets)
    cfg = AlgorithmConfig("fedpbc", s=s, eta=3.0)
    at_target = FleetState(X=targets.copy(), global_model=np.zeros(2), round=0)
    nxt, _ = run_round(at_target, ActiveSet(()), cfg, obj, None)
    assert np.array_equal(nxt.X, targets)

    off_target = FleetState(X=targets.copy(), global_model=np.zeros(2), round=0)
    off_target.X[1, 2] = np.nextafter(5.0, 6.0)
    with pytest.raises(DivergedRunError) as err:
        run_round(off_target, ActiveSet((0, 1, 2)), cfg, obj, None)
    assert err.value.client == 2


@st.composite
def traces(draw):
    m = draw(st.integers(1, 6))
    T = draw(st.integers(1, 5))
    rounds = []
    for t in range(T):
        p = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=m, max_size=m))
        up = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        members = tuple(i for i in range(m) if up[i])
        rounds.append(TraceRound(round=t, p=np.array(p), active=ActiveSet(members)))
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


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Values whose text or identity a careless writer would get wrong: both
# signed zeros (equal, spelled apart), NaNs with other sign and payload
# bits, both infinities, and the smallest subnormals.
AWKWARD_FLOATS = (0.0, -0.0, float("nan"), bits_to_float(0xFFF8000000000001),
                  bits_to_float(0x7FF0000000000123), float("inf"), float("-inf"),
                  5e-324, -5e-324, 2.2250738585072009e-308, 0.1, 0.5000000000000001)


@st.composite
def float_matrices(draw):
    """Square matrices drawn from a small pool, so that values repeat."""
    m = draw(st.integers(1, 7))
    pool = draw(st.lists(st.sampled_from(AWKWARD_FLOATS) | st.floats(width=64),
                         min_size=1, max_size=5))
    return [[draw(st.sampled_from(pool)) for _ in range(m)] for _ in range(m)]


json_scalars = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
                | st.floats(width=64) | st.text(max_size=5))


@st.composite
def json_records(draw):
    """A dict of JSON values; with ``entries`` at any key position, or none."""
    fields = draw(st.dictionaries(st.text(max_size=6).filter(lambda k: k != "entries"),
                                  json_scalars | st.lists(json_scalars, max_size=3),
                                  max_size=4))
    items = list(fields.items())
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), ("entries", draw(float_matrices())))
    return dict(items)


def assert_writes_json_dumps(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.jsonl")
        _emit_json_lines(records, path)
        with open(path, "r", encoding="utf-8", newline="") as fh:
            written = fh.read()
    assert written == "\n".join(json.dumps(r) for r in records) + "\n"


@PROPERTIES
@example([{"entries": [[-0.0]]}, {"entries": [[0.0, -0.0], [-0.0, 0.0]], "m": 2}])
@given(st.lists(json_records(), min_size=1, max_size=3))
def test_json_lines_are_json_dumps(records):
    assert_writes_json_dumps(records)


def near_uniform_p(m=60):
    return 0.3 * (1.0 + 0.01 * np.arange(m) / (m - 1))


def zipf_floor_p(m=60):
    """One round of the clipped Zipf schedule: most clients sit at the floor."""
    process = make_link_process("zipf:3,20000,0.05", m)
    return build_trace(process, 1, SeededStream(3).child("links"))[0].p


@pytest.mark.parametrize("make_p", [zipf_floor_p, near_uniform_p])
def test_mixing_report_json_lines_are_json_dumps(make_p):
    assert_writes_json_dumps(mixing_report([make_p()]))
