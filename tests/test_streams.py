import numpy as np
import pytest

from fedsim import streams
from fedsim.streams import SeededStream


def test_identical_identity_identical_draws():
    a = SeededStream(123).child("links", 5).generator().random(16)
    b = SeededStream(123).child("links", 5).generator().random(16)
    assert np.array_equal(a, b)


def test_distinct_paths_differ():
    a = SeededStream(123).child("links", 5).generator().random(16)
    b = SeededStream(123).child("links", 6).generator().random(16)
    assert not np.array_equal(a, b)


def test_int_and_str_labels_are_distinct():
    a = SeededStream(1).child(7).generator().random(8)
    b = SeededStream(1).child("7").generator().random(8)
    assert not np.array_equal(a, b)


def test_single_owner_split_then_generate_rejected():
    s = SeededStream(9)
    s.child("a")
    with pytest.raises(RuntimeError):
        s.generator()


def test_single_owner_generate_then_split_rejected():
    s = SeededStream(9)
    s.generator()
    with pytest.raises(RuntimeError):
        s.child("a")


def test_generator_is_cached_and_stateful():
    s = SeededStream(4).child("x")
    g1 = s.generator()
    first = g1.random(4)
    g2 = s.generator()
    assert g1 is g2
    assert not np.array_equal(first, g2.random(4))


def test_child_streams_look_independent():
    # Crude independence check: correlation of sibling streams is tiny.
    n = 4096
    a = SeededStream(2).child("a").generator().random(n)
    b = SeededStream(2).child("b").generator().random(n)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.05


def test_root_seed_validation():
    with pytest.raises(ValueError):
        SeededStream(-1)
    with pytest.raises(ValueError):
        SeededStream(2**64)
    with pytest.raises(TypeError):
        SeededStream("abc")


def seed_sequence_keys(root, labels):
    """The Philox key numpy's own SeedSequence derives for this path."""
    spawn_key = tuple(streams._label_key(lab) for lab in labels)
    return np.random.SeedSequence(root, spawn_key=spawn_key).generate_state(2, np.uint64)


@pytest.mark.parametrize("root", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("path, label", [((), "bern"), (("trace", 3), "bern"),
                                         (("sim", "links"), 7)])
def test_child_keys_match_seed_sequence(root, path, label):
    keys = SeededStream(root, path).child_keys(label, 40)
    assert keys.shape == (40, 2) and keys.dtype == np.uint64
    for t in range(40):
        assert np.array_equal(keys[t], seed_sequence_keys(root, path + (label, t)))


@pytest.mark.parametrize("root", [0, 2**32 - 1, 2**32, 2**64 - 1])
def test_child_keys_match_seed_sequence_for_label_keys_below_2_32(monkeypatch, root):
    # A key below 2^32 is one entropy word (0 included), as numpy reads it;
    # round t gets t * 2^31, so one pass holds rows of one and two words.
    small = {"trace": 0, "bern": 5, 3: 2**32 - 1}
    monkeypatch.setattr(streams, "_label_key",
                        lambda lab: small.get(lab, lab * 2**31 if isinstance(lab, int) else 1))
    keys = SeededStream(root, ("trace", 3)).child_keys("bern", 6)
    for t in range(6):
        assert np.array_equal(keys[t], seed_sequence_keys(root, ("trace", 3, "bern", t)))


def test_child_keys_seed_each_childs_generator():
    keys = SeededStream(11, ("links",)).child_keys("bern", 5)
    for t, key in enumerate(keys):
        mine = np.random.Generator(np.random.Philox(key=key)).random(9)
        theirs = SeededStream(11, ("links",)).child("bern", t).generator().random(9)
        assert np.array_equal(mine, theirs)


def test_child_keys_split_the_stream_like_child():
    s = SeededStream(9)
    s.child_keys("bern", 3)
    with pytest.raises(RuntimeError):
        s.generator()
    spent = SeededStream(9)
    spent.generator()
    with pytest.raises(RuntimeError, match="can no longer be split"):
        spent.child_keys("bern", 3)
