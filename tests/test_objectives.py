import filecmp
import math
import warnings

import numpy as np
import pytest

from fedsim.errors import ConfigError
from fedsim.objectives import (FULL_PASS_BLOCK, N_CLASSES, N_FEATURES, PARAM_DIM,
                               QUAD_GROUP_ELEMENTS, MiniBatcher, QuadraticObjective,
                               SoftmaxObjective, generate_synthetic, load_dataset_csv,
                               save_dataset_csv, softmax_loss_grad)
from fedsim.streams import SeededStream

# Label histogram over 10^4 samples at alpha=beta=1, frozen at generator
# bring-up (seed 424242, m=40, 250 samples per client).
BRINGUP_LABEL_HISTOGRAM = [397, 511, 1049, 1381, 1895, 553, 1176, 745, 749, 1544]


def test_quad_gradient_values():
    obj = QuadraticObjective(np.array([[2.0, 0.0]]))
    assert obj.gradient(0, np.array([2.0])) == pytest.approx([0.0])
    assert obj.gradient(1, np.array([7.0])) == pytest.approx([7.0])
    assert obj.gradient(0, np.array([0.5])) == pytest.approx([-1.5])


def test_quad_global_optimum():
    assert QuadraticObjective(np.array([[0.0, 2.0]])).global_optimum() == pytest.approx([1.0])
    obj = QuadraticObjective(np.array([[1.0, 2.0, 6.0]]))
    assert obj.global_optimum() == pytest.approx([3.0])
    same = QuadraticObjective(np.repeat([[1.5], [2.5]], 4, axis=1))
    assert same.global_optimum() == pytest.approx([1.5, 2.5])


def test_quad_global_gradient_norm():
    obj = QuadraticObjective(np.array([[0.0, 2.0]]))
    assert np.linalg.norm(obj.global_gradient(np.array([1.0]))) == pytest.approx(0.0)
    assert np.linalg.norm(obj.global_gradient(np.array([0.0]))) == pytest.approx(1.0)


def test_quad_optimum_is_minimum():
    rng = np.random.default_rng(8)
    obj = QuadraticObjective(rng.normal(size=(4, 6)))
    x_star = obj.global_optimum()
    f_star = obj.train_loss(x_star)
    for _ in range(20):
        delta = rng.normal(size=4) * 0.3
        assert obj.train_loss(x_star + delta) > f_star


def test_softmax_zero_params_uniform_loss():
    x = np.zeros(PARAM_DIM)
    features = np.random.default_rng(0).normal(size=(1, N_FEATURES))
    loss, _ = softmax_loss_grad(x, features, np.array([3]))
    assert loss == pytest.approx(math.log(10), abs=1e-12)


def test_softmax_gradient_matches_central_differences():
    rng = np.random.default_rng(5)
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        vec = rng.normal(scale=0.5, size=PARAM_DIM)
        feats = rng.normal(size=(6, N_FEATURES))
        labels = rng.integers(0, N_CLASSES, size=6)
        _, grad = softmax_loss_grad(vec, feats, labels)
        idx = rng.choice(PARAM_DIM, size=40, replace=False)
        for j in idx:
            e = np.zeros(PARAM_DIM)
            e[j] = h
            lp, _ = softmax_loss_grad(vec + e, feats, labels)
            lm, _ = softmax_loss_grad(vec - e, feats, labels)
            fd = (lp - lm) / (2 * h)
            denom = max(abs(grad[j]), 1e-8)
            worst = max(worst, abs(grad[j] - fd) / denom)
    assert worst <= 1e-5


def test_softmax_duplication_invariance():
    rng = np.random.default_rng(9)
    vec = rng.normal(size=PARAM_DIM)
    feats = rng.normal(size=(5, N_FEATURES))
    labels = rng.integers(0, N_CLASSES, size=5)
    loss1, grad1 = softmax_loss_grad(vec, feats, labels)
    loss2, grad2 = softmax_loss_grad(vec, np.vstack([feats, feats]),
                                     np.concatenate([labels, labels]))
    assert loss2 == pytest.approx(loss1, rel=1e-14)
    assert np.allclose(grad1, grad2, atol=1e-14)


def test_softmax_overflow_stabilized():
    vec = np.full(PARAM_DIM, 500.0)
    feats = np.random.default_rng(1).normal(size=(3, N_FEATURES)) * 10
    loss, grad = softmax_loss_grad(vec, feats, np.array([0, 1, 2]))
    assert math.isfinite(loss) and np.all(np.isfinite(grad))


def test_bias_shift_preserves_predictions():
    rng = np.random.default_rng(12)
    weight = rng.normal(size=(N_CLASSES, N_FEATURES))
    bias = rng.normal(size=N_CLASSES)
    feats = rng.normal(size=(50, N_FEATURES))
    logits = feats @ weight.T + bias
    shifted = feats @ weight.T + (bias + 3.7)
    assert np.array_equal(np.argmax(logits, axis=1), np.argmax(shifted, axis=1))


def test_generate_synthetic_shapes_and_partitions():
    ds = generate_synthetic(1.0, 1.0, 5, 40, SeededStream(3).child("data"))
    assert ds.num_clients == 5
    for cl in ds.clients:
        assert cl.train_x.shape[1] == N_FEATURES
        assert cl.test_x.shape[1] == N_FEATURES
        assert len(cl.train_y) + len(cl.test_y) == 40
        assert len(cl.test_y) == 8  # 20% split
        assert set(np.concatenate([cl.train_y, cl.test_y])) <= set(range(N_CLASSES))


def test_generate_synthetic_label_histogram_nondegenerate():
    ds = generate_synthetic(1.0, 1.0, 40, 250, SeededStream(424242).child("data"))
    labels = np.concatenate([np.concatenate([c.train_y, c.test_y]) for c in ds.clients])
    assert labels.size == 10_000
    hist = np.bincount(labels, minlength=N_CLASSES)
    assert hist.tolist() == BRINGUP_LABEL_HISTOGRAM
    assert hist.max() / labels.size < 0.95


def test_generate_synthetic_lognormal_counts():
    ds = generate_synthetic(1.0, 1.0, 6, 30, SeededStream(7).child("data"),
                            count_mode="lognormal")
    sizes = [len(c.train_y) + len(c.test_y) for c in ds.clients]
    assert all(n >= 2 for n in sizes)
    assert len(set(sizes)) > 1


def test_generate_synthetic_validation():
    with pytest.raises(ConfigError):
        generate_synthetic(1.0, 1.0, 0, 10, SeededStream(1).child("d"))
    with pytest.raises(ConfigError):
        generate_synthetic(1.0, 1.0, 3, 1, SeededStream(1).child("d"))


@pytest.mark.parametrize("alpha, beta", [(math.nan, 1.0), (1.0, math.nan),
                                         (math.inf, 1.0), (1.0, math.inf), (-1.0, 1.0)])
def test_generate_synthetic_rejects_non_finite_variance(alpha, beta):
    # NaN fails every comparison: alpha = nan once labelled every sample 0.
    with pytest.raises(ConfigError, match="finite"):
        generate_synthetic(alpha, beta, 3, 10, SeededStream(1).child("d"))


def test_dataset_file_roundtrip_and_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    save_dataset_csv(a, generate_synthetic(1.0, 0.5, 3, 12, SeededStream(99).child("data")))
    save_dataset_csv(b, generate_synthetic(1.0, 0.5, 3, 12, SeededStream(99).child("data")))
    assert filecmp.cmp(a, b, shallow=False)

    ds = load_dataset_csv(a)
    orig = generate_synthetic(1.0, 0.5, 3, 12, SeededStream(99).child("data"))
    assert ds.alpha == orig.alpha and ds.beta == orig.beta and ds.seed == 99
    for lc, oc in zip(ds.clients, orig.clients):
        assert np.array_equal(lc.train_x, oc.train_x)
        assert np.array_equal(lc.train_y, oc.train_y)
        assert np.array_equal(lc.test_x, oc.test_x)
        assert np.array_equal(lc.test_y, oc.test_y)


def corrupt_dataset(tmp_path, line, edit):
    """A two-client dataset file with ``edit`` applied to the fields of one
    line (0 is the header)."""
    path = tmp_path / "d.csv"
    save_dataset_csv(path, generate_synthetic(1.0, 1.0, 2, 5, SeededStream(4).child("data")))
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[line].split(",")
    edit(fields)
    lines[line] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def set_field(i, value):
    def edit(fields):
        fields[i] = value
    return edit


@pytest.mark.parametrize("line,edit,message", [
    (3, set_field(0, "2"), "client id in 0..1"),
    (3, set_field(0, "-1"), "client id in 0..1"),
    (3, set_field(1, "valid"), "'train' or 'test'"),
    (3, set_field(0, "x"), "malformed field"),
    (3, set_field(2, "1.5"), "malformed field"),
    (3, lambda fields: fields.pop(), "expected 63 fields, got 62"),
    (0, set_field(3, "two"), "malformed header field"),
    (0, set_field(3, "0"), "client count must be >= 1"),
    (3, set_field(2, "12"), "label 12 outside 0..9"),
    (3, set_field(2, "-1"), "label -1 outside 0..9"),
    (0, set_field(1, "nan"), "alpha and beta are variances"),
    (0, set_field(2, "-1"), "alpha and beta are variances"),
    (0, set_field(2, "inf"), "alpha and beta are variances"),
], ids=["client-above-m", "client-negative", "split", "id-not-integer",
        "label-not-integer", "short-row", "header-field", "header-m-zero", "label-12",
        "label-minus-1", "header-alpha-nan", "header-beta-negative", "header-beta-inf"])
def test_load_dataset_rejects_bad_row(tmp_path, line, edit, message):
    path = corrupt_dataset(tmp_path, line, edit)
    where = "dataset line 1" if line == 0 else f"dataset line {line + 1}:"
    with pytest.raises(ConfigError, match=f"{where}.*{message}"):
        load_dataset_csv(path)


def test_load_dataset_huge_client_count_fails_at_the_first_missing_client(tmp_path):
    # The header claims 10**12 clients and the rows hold only client 0's: the
    # reader keys rows as they arrive, so it stops at client 1 without
    # building anything per claimed client.
    path = corrupt_dataset(tmp_path, 0, set_field(3, str(10**12)))
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(line for line in lines if not line.startswith("1,")) + "\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="client 1 is missing"):
        load_dataset_csv(path)


def test_quad_loss_and_gradient_is_the_separate_terms_bit_for_bit():
    targets = np.random.default_rng(7).normal(size=(5, 9))
    obj = QuadraticObjective(targets)
    x = np.random.default_rng(8).normal(size=5)
    loss, grad = obj.loss_and_gradient(x)
    diffs = x[:, None] - targets
    assert loss == float(0.5 * (diffs * diffs).sum() / 9) == obj.train_loss(x)
    assert np.array_equal(grad, x - targets.mean(axis=1))
    assert np.array_equal(grad, obj.global_gradient(x))


def test_quad_global_optimum_is_cached_read_only():
    obj = QuadraticObjective(np.random.default_rng(9).normal(size=(4, 6)))
    assert obj.global_optimum() is obj.global_optimum()
    with pytest.raises(ValueError):
        obj.global_optimum()[0] = 1.0


def per_client_means(dataset, x):
    """Train loss, gradient and test accuracy as means of per-client passes."""
    results = [softmax_loss_grad(x, cl.train_x, cl.train_y) for cl in dataset.clients]
    w, b = x[:N_CLASSES * N_FEATURES].reshape(N_CLASSES, N_FEATURES), x[N_CLASSES * N_FEATURES:]
    accs = [np.mean(np.argmax(cl.test_x @ w.T + b, axis=1) == cl.test_y)
            for cl in dataset.clients]
    return (np.mean([loss for loss, _ in results]),
            np.mean([grad for _, grad in results], axis=0), np.mean(accs))


@pytest.mark.parametrize("m, count_mode", [(20, "lognormal"), (1, "fixed")])
def test_stacked_pass_matches_per_client_means(m, count_mode):
    ds = generate_synthetic(1.0, 1.0, m, 250, SeededStream(61).child("data"),
                            count_mode=count_mode)
    obj = SoftmaxObjective(ds)
    for mine, theirs in zip(obj.dataset.clients, ds.clients, strict=True):
        for field in ("train_x", "train_y", "test_x", "test_y"):
            assert np.array_equal(getattr(mine, field), getattr(theirs, field))
    if m > 1:
        sizes = [len(cl.train_y) for cl in ds.clients]
        assert len(set(sizes)) > 1 and sum(sizes) > 2 * FULL_PASS_BLOCK
        assert sum(sizes) % FULL_PASS_BLOCK
    rng = np.random.default_rng(62)
    for scale in (0.0, 0.5, 3.0):
        x = rng.normal(scale=scale, size=PARAM_DIM)
        ref_loss, ref_grad, ref_acc = per_client_means(ds, x)
        loss, grad = obj.loss_and_gradient(x)
        assert abs(loss - ref_loss) <= 1e-13 * abs(ref_loss)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-13 * np.max(np.abs(ref_grad))
        assert abs(obj.test_accuracy(x) - ref_acc) <= 1e-15
        assert obj.train_loss(x) == loss
        assert np.array_equal(obj.global_gradient(x), grad)


def batch_case(name: str):
    """An objective and 33 models, the columns of a d x 33 matrix."""
    rng = np.random.default_rng(66)
    if name in ("quadratic", "overflow"):
        # test_algorithms.engine_case's quadratic fleet; its overflow start
        # fleet's deviations of 1e200 overflow the squares of the loss.
        obj = QuadraticObjective(np.random.default_rng(81).normal(size=(4, 7)))
        if name == "overflow":
            return obj, np.tile(np.array([[1e200] * 6 + [-1e200]] * 4), 5)[:, :33]
        return obj, rng.normal(scale=3.0, size=(4, 33))
    if name == "grouped":  # fig2's reference size: 33 models span several groups
        obj = QuadraticObjective(rng.normal(size=(100, 100)))
        assert QUAD_GROUP_ELEMENTS // obj.targets.size < 7
        return obj, rng.normal(scale=3.0, size=(100, 33))
    m, samples, count_mode = {"ragged": (20, 250, "lognormal"),
                              "under_a_block": (2, 20, "fixed"),
                              "over_a_block": (3, 250, "fixed")}[name]
    obj = SoftmaxObjective(generate_synthetic(1.0, 1.0, m, samples,
                                              SeededStream(67).child("data"),
                                              count_mode=count_mode))
    sizes = [len(cl.train_y) for cl in obj.dataset.clients]
    assert {"ragged": len(set(sizes)) > 1 and sum(sizes) % FULL_PASS_BLOCK,
            "under_a_block": sum(sizes) < FULL_PASS_BLOCK,
            "over_a_block": sum(sizes) > FULL_PASS_BLOCK}[name]
    models = rng.normal(scale=0.5, size=(PARAM_DIM, 33))
    models[:, 0] = 0.0
    return obj, models


@pytest.mark.parametrize("K", [1, 2, 7, 33])
@pytest.mark.parametrize("case", ["ragged", "under_a_block", "over_a_block", "quadratic",
                                  "overflow", "grouped"])
def test_stacked_columns_are_the_vector_calls_bit_for_bit(case, K):
    """Each column of a (d, K) call is the (d,) call on that column alone,
    whatever the other columns hold."""
    obj, models = batch_case(case)
    X = models[:, :K]
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        losses, grads = obj.loss_and_gradient(X)
        accuracies = obj.test_accuracy(X)
        assert losses.shape == (K,) and grads.shape == (obj.dim, K)
        for j in range(K):
            loss, grad = obj.loss_and_gradient(X[:, j])
            assert type(loss) is float and losses[j] == loss
            assert np.array_equal(grads[:, j], grad)
            accuracy = obj.test_accuracy(X[:, j])
            if accuracies is None:
                assert accuracy is None
            else:
                assert type(accuracy) is float and accuracies[j] == accuracy
    if case == "overflow":
        assert np.all(losses == np.inf)


def test_objective_holds_feature_rows_once():
    ds = generate_synthetic(1.0, 1.0, 12, 250, SeededStream(63).child("data"),
                            count_mode="lognormal")
    obj = SoftmaxObjective(ds)
    for split, stacked in (("train", obj._train[0]), ("test", obj._test[0])):
        assert stacked.shape == (N_FEATURES, sum(len(getattr(cl, f"{split}_y"))
                                                 for cl in ds.clients))
        assert stacked.flags.c_contiguous
        for mine, theirs in zip(obj.dataset.clients, ds.clients, strict=True):
            rows = getattr(mine, f"{split}_x")
            assert np.shares_memory(rows, stacked)
            assert np.array_equal(rows, getattr(theirs, f"{split}_x"))


def test_test_accuracy_ties_go_to_the_first_class():
    """At x = 0 every logit ties and argmax takes class 0, so the accuracy is
    the mean over clients of each client's share of test label 0.  Eight
    test rows per client and eight clients keep every term a dyadic
    fraction, so any summation order gives the same float."""
    ds = generate_synthetic(1.0, 1.0, 8, 40, SeededStream(65).child("data"))
    assert all(len(cl.test_y) == 8 for cl in ds.clients)
    shares = [np.mean(cl.test_y == 0) for cl in ds.clients]
    assert 0 < np.mean(shares) != np.mean([np.mean(cl.test_y == 9) for cl in ds.clients])
    assert SoftmaxObjective(ds).test_accuracy(np.zeros(PARAM_DIM)) == np.mean(shares)


def test_softmax_objective_metrics():
    ds = generate_synthetic(1.0, 1.0, 4, 30, SeededStream(31).child("data"))
    obj = SoftmaxObjective(ds)
    x = np.zeros(PARAM_DIM)
    assert obj.train_loss(x) == pytest.approx(math.log(10), abs=1e-9)
    acc = obj.test_accuracy(x)
    assert 0.0 <= acc <= 1.0


def test_softmax_descent_reduces_gradient_norm():
    ds = generate_synthetic(1.0, 1.0, 3, 30, SeededStream(17).child("data"))
    obj = SoftmaxObjective(ds)
    x = np.zeros(PARAM_DIM)
    g0 = np.linalg.norm(obj.global_gradient(x))
    for _ in range(1000):
        x = x - 0.5 * obj.global_gradient(x)
    assert np.linalg.norm(obj.global_gradient(x)) < g0


def ragged_subset():
    """A lognormal fleet and two thirds of its clients, some holding fewer
    train samples than the batch size 48 and some more."""
    ds = generate_synthetic(1.0, 1.0, 30, 250, SeededStream(53).child("data"),
                            count_mode="lognormal")
    clients = np.array([i for i in range(30) if i % 3 != 1])
    short = [i for i in clients if len(ds.clients[i].train_y) < 48]
    assert short and len(short) < len(clients)
    return SoftmaxObjective(ds), clients, 48


def test_softmax_fleet_batch_is_the_per_client_draws_on_ragged_subset():
    obj, clients, b = ragged_subset()
    features, labels, weights = obj.fleet_batch(
        clients, obj.make_batchers(b, SeededStream(54).child("b")))
    assert features.shape == (len(clients), N_FEATURES + 1, b)
    assert labels.shape == weights.shape == (len(clients), b)
    batchers = obj.make_batchers(b, SeededStream(54).child("b"))
    for j, i in enumerate(clients):
        ref_x, ref_y = obj.batch_for(int(i), batchers[i])
        n = len(ref_y)
        assert np.array_equal(features[j, :N_FEATURES, :n], ref_x.T)
        assert np.all(features[j, N_FEATURES, :n] == 1.0)
        assert np.array_equal(labels[j, :n], ref_y)
        assert np.all(weights[j, :n] == 1.0 / n)
        assert np.all(features[j, :, n:] == 0.0) and np.all(weights[j, n:] == 0.0)


def test_softmax_local_steps_match_per_client_steps_on_ragged_subset():
    obj, clients, b = ragged_subset()
    s, eta = 5, 0.05
    X0 = np.random.default_rng(53).normal(scale=0.5, size=(PARAM_DIM, len(clients)))
    X = X0.copy()
    obj.local_steps(X, obj.fleet_batch(clients, obj.make_batchers(
        b, SeededStream(54).child("b"))), s, eta)
    batchers = obj.make_batchers(b, SeededStream(54).child("b"))
    for j, i in enumerate(clients):
        batch = obj.batch_for(int(i), batchers[i])
        x = X0[:, j]
        for _ in range(s):
            x = x - eta * obj.gradient(int(i), x, batch)
        assert np.max(np.abs(X[:, j] - x)) <= 1e-13
        assert np.max(np.abs(X[:, j] - X0[:, j])) > 1e-3  # the steps move each client


def test_minibatcher_epochs_without_replacement():
    batcher = MiniBatcher(10, 3, SeededStream(2).child("b"))
    first_epoch = [batcher.next_indices() for _ in range(3)]
    flat = np.concatenate(first_epoch)
    assert len(set(flat.tolist())) == 9  # no repeats within an epoch
    batcher2 = MiniBatcher(2, 32, SeededStream(2).child("b"))
    assert len(batcher2.next_indices()) == 2
