import numpy as np
import pytest

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
