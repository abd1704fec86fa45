import warnings

import numpy as np
import pytest

from fedsim.algorithms import (AlgorithmConfig, FleetState, MetricsRow, matrix_form_check,
                               run_experiment, run_round)
from fedsim.errors import ConfigError, DivergedRunError
from fedsim.link_model import (ActiveSet, StaticLinkProcess, TraceRound,
                               ZipfCountLinkProcess, build_trace, sample_active_set)
from fedsim.objectives import QuadraticObjective, SoftmaxObjective, generate_synthetic
from fedsim.streams import SeededStream


def two_client_objective():
    return QuadraticObjective(np.array([[0.0, 2.0]]))


def test_local_steps_reference_values():
    # One client with target 2: each step moves x by eta (2 - x).
    obj = QuadraticObjective(np.array([[2.0]]))
    # AlgorithmConfig requires eta > 0, so the fixed point stands in for a
    # zero step: a client at its target stays there.
    for x0, s, eta, expected in [(0.0, 1, 0.5, 1.0), (0.0, 2, 0.5, 1.5), (2.0, 5, 0.5, 2.0)]:
        for variant in ("fedavg", "fedpbc"):
            cfg = AlgorithmConfig(variant, s=s, eta=eta)
            nxt, _ = run_round(FleetState.initial(np.array([x0]), 1), ActiveSet((0,)),
                               cfg, obj, None)
            assert nxt.X[0, 0] == pytest.approx(expected)
            assert nxt.global_model == pytest.approx([expected])


def test_local_steps_divergence_detection():
    obj = QuadraticObjective(np.array([[1.0]]))
    cfg = AlgorithmConfig("fedavg", s=400, eta=3.0)
    state = FleetState.initial(np.array([1e300]), 1)
    with pytest.raises(DivergedRunError) as err:
        run_round(state, ActiveSet((0,)), cfg, obj, None)
    assert err.value.client == 0


def test_fedavg_round_all_active():
    obj = two_client_objective()
    cfg = AlgorithmConfig("fedavg", s=1, eta=0.5)
    state = FleetState.initial(np.zeros(1), 2)
    nxt, _ = run_round(state, ActiveSet((0, 1)), cfg, obj, None)
    assert nxt.global_model == pytest.approx([0.5])
    assert nxt.X[0].tolist() == [0.0, 1.0]  # columns keep local results
    assert nxt.round == 1


def test_fedavg_round_empty_active_set():
    obj = two_client_objective()
    cfg = AlgorithmConfig("fedavg", s=1, eta=0.5)
    state = FleetState.initial(np.array([1.0]), 2)
    nxt, _ = run_round(state, ActiveSet(()), cfg, obj, None)
    assert nxt.global_model == pytest.approx([1.0])  # unchanged
    # with local_compute=all every column still advances
    assert nxt.X[0] == pytest.approx([0.5, 1.5])


def test_fedavg_active_only_freezes_inactive():
    obj = two_client_objective()
    cfg = AlgorithmConfig("fedavg", s=1, eta=0.5, local_compute="active_only")
    state = FleetState.initial(np.array([1.0]), 2)
    nxt, _ = run_round(state, ActiveSet((1,)), cfg, obj, None)
    assert nxt.X[0, 0] == 1.0          # frozen
    assert nxt.X[0, 1] == pytest.approx(1.5)
    assert nxt.global_model == pytest.approx([1.5])


def test_fedpbc_round_single_active_client():
    obj = two_client_objective()
    cfg = AlgorithmConfig("fedpbc", s=1, eta=0.5)
    state = FleetState.initial(np.zeros(1), 2)
    nxt, _ = run_round(state, ActiveSet((1,)), cfg, obj, None)
    # client 1 stepped 0 -> 1; |A| = 1 so the global adopts it and the
    # multicast overwrites client 1's column; client 0 keeps its result.
    assert nxt.global_model == pytest.approx([1.0])
    assert nxt.X[0].tolist() == [0.0, 1.0]


def test_fedpbc_round_empty_active_set():
    obj = two_client_objective()
    cfg = AlgorithmConfig("fedpbc", s=1, eta=0.5)
    state = FleetState.initial(np.array([1.0]), 2)
    nxt, _ = run_round(state, ActiveSet(()), cfg, obj, None)
    assert nxt.global_model == pytest.approx([1.0])
    assert nxt.X[0] == pytest.approx([0.5, 1.5])


def test_fedpbc_active_clients_reach_consensus():
    rng = np.random.default_rng(3)
    obj = QuadraticObjective(rng.normal(size=(3, 6)))
    cfg = AlgorithmConfig("fedpbc", s=4, eta=0.1)
    state = FleetState.initial(np.zeros(3), 6)
    stream = SeededStream(10).child("links")
    for t in range(30):
        active = sample_active_set(np.full(6, 0.5), t, stream)
        state, _ = run_round(state, active, cfg, obj, None)
        for i in active.members:
            assert np.array_equal(state.X[:, i], state.global_model)


def test_full_participation_equivalence_bitwise():
    rng = np.random.default_rng(4)
    obj = QuadraticObjective(rng.normal(size=(2, 5)))
    proc = StaticLinkProcess(np.ones(5))
    results = {}
    for variant in ("fedavg", "fedpbc"):
        cfg = AlgorithmConfig(variant, s=3, eta=0.07)
        res = run_experiment(cfg, obj, proc, 200, SeededStream(42).child("sim"))
        results[variant] = res
    a, b = results["fedavg"], results["fedpbc"]
    assert np.array_equal(a.final_state.global_model, b.final_state.global_model)
    for ra, rb in zip(a.rows, b.rows):
        assert ra == rb


def test_fedpbc_conserves_global_on_empty_rounds():
    obj = two_client_objective()
    cfg = AlgorithmConfig("fedpbc", s=2, eta=0.1)
    state = FleetState.initial(np.array([0.7]), 2)
    for t in range(5):
        state, _ = run_round(state, ActiveSet(()), cfg, obj, None)
    assert state.global_model == pytest.approx([0.7])


def test_matrix_form_identity_trivial_cases():
    rng = np.random.default_rng(6)
    obj = QuadraticObjective(rng.normal(size=(3, 4)))
    cfg = AlgorithmConfig("fedpbc", s=3, eta=0.05)
    state = FleetState.initial(np.zeros(3), 4)
    for members in [(0, 1, 2, 3), ()]:
        active = ActiveSet(members)
        nxt, _ = run_round(state, active, cfg, obj, None)
        assert matrix_form_check(state, active, cfg, obj, nxt, obj.targets) <= 1e-10


def test_matrix_form_identity_random_rounds():
    rng = np.random.default_rng(7)
    obj = QuadraticObjective(rng.normal(size=(4, 7)))
    cfg = AlgorithmConfig("fedpbc", s=5, eta=0.03)
    state = FleetState.initial(rng.normal(size=4), 7)
    stream = SeededStream(70).child("links")
    for t in range(100):
        active = sample_active_set(np.full(7, 0.4), t, stream)
        nxt, _ = run_round(state, active, cfg, obj, None)
        assert matrix_form_check(state, active, cfg, obj, nxt, obj.targets) <= 1e-10
        state = nxt


def test_matrix_form_identity_softmax_round():
    ds = generate_synthetic(1.0, 1.0, 6, 60, SeededStream(71).child("data"),
                            count_mode="lognormal")
    obj = SoftmaxObjective(ds)
    cfg = AlgorithmConfig("fedpbc", s=3, eta=0.05)
    rng = np.random.default_rng(71)
    state = FleetState(X=rng.normal(scale=0.3, size=(obj.dim, 6)),
                       global_model=np.zeros(obj.dim), round=0)
    active = ActiveSet((1, 2, 4))
    nxt, _ = run_round(state, active, cfg, obj,
                       obj.make_batchers(16, SeededStream(72).child("b")))
    batch = obj.fleet_batch(np.arange(6), obj.make_batchers(16, SeededStream(72).child("b")))
    assert matrix_form_check(state, active, cfg, obj, nxt, batch) <= 1e-12
    assert np.max(np.abs(nxt.X - state.X)) > 1e-3


def test_matrix_form_check_requires_fedpbc_all():
    obj = two_client_objective()
    cfg = AlgorithmConfig("fedavg", s=1, eta=0.1)
    state = FleetState.initial(np.zeros(1), 2)
    with pytest.raises(ConfigError):
        matrix_form_check(state, ActiveSet(()), cfg, obj, state, obj.targets)


def test_uniform_rate_fedavg_converges_to_optimum():
    # Seed-averaged final server model approaches the target mean.
    rng = np.random.default_rng(11)
    obj = QuadraticObjective(rng.normal(loc=[[1.0], [2.0], [6.0]], scale=0.2, size=(3, 3)).T)
    obj = QuadraticObjective(np.array([[1.0, 2.0, 6.0]]))
    proc = StaticLinkProcess(np.full(3, 0.7))
    cfg = AlgorithmConfig("fedavg", s=5, eta=0.01)
    finals = []
    for r in range(40):
        res = run_experiment(cfg, obj, proc, 1500, SeededStream(100 + r).child("sim"))
        finals.append(res.final_state.global_model[0])
    mean = np.mean(finals)
    se = np.std(finals, ddof=1) / np.sqrt(len(finals))
    assert abs(mean - 3.0) <= 3 * se + 1e-9


def test_run_experiment_rows_and_determinism():
    obj = two_client_objective()
    proc = StaticLinkProcess([0.9, 0.4])
    cfg = AlgorithmConfig("fedpbc", s=2, eta=0.2)
    res1 = run_experiment(cfg, obj, proc, 1, SeededStream(9).child("sim"))
    assert len(res1.rows) == 1
    res2 = run_experiment(cfg, obj, proc, 40, SeededStream(9).child("sim"))
    res3 = run_experiment(cfg, obj, proc, 40, SeededStream(9).child("sim"))
    assert res2.rows == res3.rows
    assert np.array_equal(res2.final_state.X, res3.final_state.X)


def test_run_experiment_replays_trace():
    obj = two_client_objective()
    proc = StaticLinkProcess([0.6, 0.6])
    trace = build_trace(proc, 25, SeededStream(13).child("links"))
    cfg = AlgorithmConfig("fedavg", s=1, eta=0.3)
    res = run_experiment(cfg, obj, proc, 25, SeededStream(14).child("sim"), trace=trace)
    for row, tr in zip(res.rows, trace):
        assert row.active_count == len(tr.active)


def test_run_experiment_without_trace_replays_links_stream():
    obj = QuadraticObjective(np.random.default_rng(5).normal(size=(2, 6)))
    proc = ZipfCountLinkProcess(a=3.0, n=200, floor=0.1, m=6)
    cfg = AlgorithmConfig("fedpbc", s=2, eta=0.1)
    sim = SeededStream(15).child("sim")
    drawn = run_experiment(cfg, obj, proc, 30, sim)
    replayed = run_experiment(cfg, obj, proc, 30, sim,
                              trace=build_trace(proc, 30, sim.child("links")))
    assert drawn.rows == replayed.rows
    assert np.array_equal(drawn.final_state.X, replayed.final_state.X)


def test_run_experiment_divergence_carries_partial_rows():
    obj = QuadraticObjective(np.array([[1.0, 3.0]]))
    proc = StaticLinkProcess([1.0, 1.0])
    cfg = AlgorithmConfig("fedavg", s=60, eta=3.0)  # (1 - eta) = -2 explodes
    with pytest.raises(DivergedRunError) as err:
        run_experiment(cfg, obj, proc, 50, SeededStream(3).child("sim"))
    assert err.value.round_index >= 0
    # the failing round's start-of-round row is already recorded
    assert len(err.value.rows) == err.value.round_index + 1
    assert err.value.rows[-1].round == err.value.round_index


def test_run_experiment_softmax_records_accuracy():
    ds = generate_synthetic(1.0, 1.0, 3, 20, SeededStream(19).child("data"))
    obj = SoftmaxObjective(ds)
    proc = StaticLinkProcess(np.full(3, 0.8))
    cfg = AlgorithmConfig("fedpbc", s=2, eta=0.01)
    res = run_experiment(cfg, obj, proc, 5, SeededStream(19).child("sim"), batch_size=8)
    for row in res.rows:
        assert row.test_accuracy is not None
        assert 0.0 <= row.test_accuracy <= 1.0
        assert row.consensus_error >= 0.0


def test_active_only_does_not_consume_inactive_randomness():
    # With identical streams, an all-frozen round must leave the batch
    # cursors of inactive clients untouched, so a later identical round
    # sequence yields identical batches.
    ds = generate_synthetic(1.0, 1.0, 2, 20, SeededStream(23).child("data"))
    obj = SoftmaxObjective(ds)
    batchers1 = obj.make_batchers(4, SeededStream(23).child("b"))
    batchers2 = obj.make_batchers(4, SeededStream(23).child("b"))
    obj.batch_for(0, batchers1[0])  # client 0 active once in run 1 only
    b1 = obj.batch_for(1, batchers1[1])
    b2 = obj.batch_for(1, batchers2[1])
    assert np.array_equal(b1[0], b2[0])


def ragged_softmax_fleet(m: int) -> SoftmaxObjective:
    ds = generate_synthetic(1.0, 1.0, m, 40, SeededStream(41).child("data"),
                            count_mode="lognormal")
    return SoftmaxObjective(ds)


def partial_trace(p: np.ndarray, T: int, seed: int):
    stream = SeededStream(seed).child("links")
    return [TraceRound(t, p, sample_active_set(p, t, stream)) for t in range(T)]


def test_softmax_active_only_freezes_never_active_columns():
    obj = ragged_softmax_fleet(12)
    # Active sets drawn over clients 0..8 only, so clients 9..11 never join.
    trace = partial_trace(np.full(9, 0.6), 8, 43)
    x0 = np.random.default_rng(43).normal(scale=0.1, size=obj.dim)
    for variant in ("fedavg", "fedpbc"):
        cfg = AlgorithmConfig(variant, s=3, eta=0.05, local_compute="active_only")
        res = run_experiment(cfg, obj, StaticLinkProcess(np.ones(12)), 8,
                             SeededStream(44).child("sim"), trace=trace,
                             batch_size=48, x0=x0)
        X = res.final_state.X
        assert np.array_equal(X[:, 9:], np.repeat(x0[:, None], 3, axis=1))
        assert not np.array_equal(X[:, :9], np.repeat(x0[:, None], 9, axis=1))


def test_softmax_fedpbc_multicasts_to_last_round_active_clients():
    obj = ragged_softmax_fleet(10)
    trace = partial_trace(np.full(10, 0.5), 6, 47)
    assert 0 < len(trace[-1].active) < 10
    for mode in ("all", "active_only"):
        cfg = AlgorithmConfig("fedpbc", s=3, eta=0.05, local_compute=mode)
        res = run_experiment(cfg, obj, StaticLinkProcess(np.ones(10)), 6,
                             SeededStream(48).child("sim"), trace=trace, batch_size=48)
        state = res.final_state
        members = list(trace[-1].active.members)
        assert np.array_equal(state.X[:, members],
                              np.repeat(state.global_model[:, None], len(members), axis=1))
        others = [i for i in range(10) if i not in members]
        assert not np.any(np.all(state.X[:, others] == state.global_model[:, None], axis=0))


def run_round_loop(cfg, obj, trace, T, stream, batch_size=32, x0=None):
    """What run_experiment must amount to: T run_round calls on its trace
    and on batchers drawn from its stream path."""
    state = FleetState.initial(np.zeros(obj.dim) if x0 is None else x0, obj.num_clients)
    batchers = obj.make_batchers(batch_size, stream.child("batches"))
    rows = []
    for t in range(T):
        state, row = run_round(state, trace[t].active, cfg, obj, batchers)
        rows.append(row)
    return state, rows


def assert_same_run(res, state, rows):
    assert res.rows == rows
    assert np.array_equal(res.final_state.X, state.X)
    assert np.array_equal(res.final_state.global_model, state.global_model)
    assert res.final_state.round == state.round


@pytest.mark.parametrize("variant", ["fedavg", "fedpbc"])
@pytest.mark.parametrize("mode", ["all", "active_only"])
def test_run_experiment_is_run_round_in_a_loop_quadratic(variant, mode):
    obj = QuadraticObjective(np.random.default_rng(61).normal(size=(3, 8)))
    trace = partial_trace(np.linspace(0.1, 0.9, 8), 40, 62)
    cfg = AlgorithmConfig(variant, s=3, eta=0.1, local_compute=mode)
    sim = SeededStream(63).child("sim")
    res = run_experiment(cfg, obj, StaticLinkProcess(np.ones(8)), 40, sim, trace=trace)
    assert_same_run(res, *run_round_loop(cfg, obj, trace, 40, sim))


def test_run_experiment_is_run_round_in_a_loop_softmax_active_only():
    obj = ragged_softmax_fleet(10)
    trace = partial_trace(np.full(10, 0.4), 6, 64)
    x0 = np.random.default_rng(64).normal(scale=0.1, size=obj.dim)
    for variant in ("fedavg", "fedpbc"):
        cfg = AlgorithmConfig(variant, s=2, eta=0.05, local_compute="active_only")
        sim = SeededStream(65).child("sim")
        res = run_experiment(cfg, obj, StaticLinkProcess(np.ones(10)), 6, sim,
                             trace=trace, batch_size=48, x0=x0)
        assert_same_run(res, *run_round_loop(cfg, obj, trace, 6, sim, 48, x0))


def literal_round(state, active, cfg, obj, batchers):
    """One round written with the textbook forms: ``np.mean``,
    ``np.linalg.norm``, squared deviations, a copied column block per
    step call and the mean of the active columns."""
    m = state.num_clients
    members = list(active.members)
    X = state.X.copy()
    if cfg.variant == "fedavg":
        X[:, members] = state.global_model[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        x_bar = np.mean(X, axis=1)
        loss, grad = obj.loss_and_gradient(x_bar)
        if isinstance(obj, QuadraticObjective):
            loss = float(0.5 * ((x_bar[:, None] - obj.targets) ** 2).sum() / m)
        row = MetricsRow(round=state.round, grad_norm=float(np.linalg.norm(grad)),
                         consensus_error=float(((X - x_bar[:, None]) ** 2).sum() / m),
                         train_loss=loss, test_accuracy=obj.test_accuracy(x_bar),
                         active_count=len(members))
        clients = list(range(m)) if cfg.local_compute == "all" else members
        if clients:
            local = X[:, clients]
            obj.local_steps(local, obj.fleet_batch(np.array(clients), batchers), cfg.s, cfg.eta)
            X[:, clients] = local
    new_global = np.mean(X[:, members], axis=1) if members else state.global_model.copy()
    if cfg.variant == "fedpbc":
        X[:, members] = new_global[:, None]
    return FleetState(X, new_global, state.round + 1), row


def engine_case(name: str):
    """The objective, start fleet and rounds' active sets of one case."""
    rng = np.random.default_rng(81)
    quad = QuadraticObjective(rng.normal(size=(4, 7)))
    rounds = [(), (0, 2, 3), (1,), (0, 1, 2, 3, 4)]
    if name == "quadratic":
        return quad, rng.normal(scale=3.0, size=(4, 7)), rounds + [tuple(range(7))]
    if name == "overflow":
        # Deviations of 1e200 overflow the squares of the consensus error,
        # the norm and the loss: the first row reads inf on both routes.
        return quad, np.array([[1e200] * 6 + [-1e200]] * 4), rounds
    soft = ragged_softmax_fleet(5)
    return soft, rng.normal(scale=0.1, size=(soft.dim, 5)), rounds


@pytest.mark.parametrize("variant", ["fedavg", "fedpbc"])
@pytest.mark.parametrize("mode", ["all", "active_only"])
@pytest.mark.parametrize("case", ["quadratic", "overflow", "softmax"])
def test_run_round_matches_the_literal_formulas_bit_for_bit(variant, mode, case):
    obj, X0, rounds = engine_case(case)
    cfg = AlgorithmConfig(variant, s=3, eta=0.05, local_compute=mode)
    mine = theirs = FleetState(X0.copy(), X0[:, -1].copy(), 0)
    batchers_mine = obj.make_batchers(4, SeededStream(82).child("batches"))
    batchers_theirs = obj.make_batchers(4, SeededStream(82).child("batches"))
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for members in rounds:
            mine, row = run_round(mine, ActiveSet(members), cfg, obj, batchers_mine)
            theirs, ref = literal_round(theirs, ActiveSet(members), cfg, obj, batchers_theirs)
            assert row == ref  # every field with ==; no field is nan here
            assert np.array_equal(mine.X, theirs.X)
            assert np.array_equal(mine.global_model, theirs.global_model)
            rows.append(row)
    if case == "overflow":
        assert rows[0].consensus_error == rows[0].grad_norm == rows[0].train_loss == np.inf
