import hashlib
import math

import numpy as np
import pytest
from scipy.special import zeta

from fedsim.errors import ConfigError
from fedsim.link_model import (ActiveSet, StaticLinkProcess, ZipfCountLinkProcess, _zipf_cdf,
                               build_trace, probabilities_at, read_trace_csv,
                               sample_active_set, write_trace_csv)
from fedsim.streams import SeededStream


def zeta_partial_sum(a: float, terms: int = 1_500_000) -> float:
    """Independent zeta oracle: plain partial sum, tail below 1e-12 for a >= 3."""
    k = np.arange(1, terms + 1, dtype=float)
    return float(np.sum(k ** -a))


def test_static_process_returns_fixed_vector():
    proc = StaticLinkProcess([1.0, 1.0, 1.0])
    p = probabilities_at(proc, 17, SeededStream(3).child("links"))
    assert np.array_equal(p, np.ones(3))


def full_table_zipf_counts(a: float, n: int, m: int, gen: np.random.Generator) -> np.ndarray:
    """Per-rank counts of ranks 1..m among n Zipf(a) draws, from an
    inverse-CDF table reaching a 1e-12 tail mass (draws past it clamp to
    its last rank).  This is an independent oracle for the m-rank table."""
    z = float(zeta(a, 1))
    support = math.ceil(((a - 1.0) * z * 1e-12) ** (-1.0 / (a - 1.0)))
    cdf = np.cumsum(np.arange(1, support + 1, dtype=float) ** -a / z)
    ranks = np.minimum(np.searchsorted(cdf, gen.random(n), side="right"), support - 1) + 1
    return np.bincount(ranks, minlength=m + 1)[1:m + 1]


@pytest.mark.parametrize("a", [3.0, 5.0, 10.0, 40.0])
@pytest.mark.parametrize("m", [1, 2, 30, 150])
def test_zipf_counts_match_the_full_table_oracle(a, m):
    # floor below 1/n, so clipping lifts only zero counts and p fixes the counts.
    n, floor = 5000, 1e-9
    proc = ZipfCountLinkProcess(a=a, n=n, floor=floor, m=m)
    stream = SeededStream(41).child("links")
    for t in range(4):
        counts = full_table_zipf_counts(a, n, m, stream.child("p", t).generator())
        total = counts.sum()
        expected = np.clip(counts / total if total > 0 else np.zeros(m), floor, 1.0)
        assert np.array_equal(proc.probabilities_at(t, stream), expected)


def test_zipf_rank_one_probability_matches_zeta():
    z3 = zeta_partial_sum(3.0)
    assert z3 == pytest.approx(1.2020569, abs=1e-6)
    assert z3 == pytest.approx(float(zeta(3.0, 1)), abs=1e-12)
    assert 1.0 / z3 == pytest.approx(0.831907, abs=1e-5)
    n, m = 1_000_000, 1000
    for a in (3.0, 1.5):
        z = float(zeta(a, 1))
        p = ZipfCountLinkProcess(a=a, n=n, floor=1e-9, m=m).probabilities_at(
            0, SeededStream(11).child("zipf"))
        # p is normalised over the draws that land in the fleet, P(Z <= m) of them.
        in_fleet = float(np.sum(np.arange(1, m + 1, dtype=float) ** -a)) / z
        assert p[0] * in_fleet == pytest.approx(1.0 / z, abs=2e-3)
        assert p[1] * in_fleet == pytest.approx(2.0 ** -a / z, abs=2e-3)


def test_zipf_single_draw_and_exponent_validation():
    p = ZipfCountLinkProcess(a=3.0, n=1, floor=0.1, m=3).probabilities_at(
        0, SeededStream(5).child("one"))
    assert sorted(p.tolist()) in ([0.1, 0.1, 0.1], [0.1, 0.1, 1.0])
    for a in (1.0, 0.5, float("nan")):
        with pytest.raises(ConfigError, match="exponent"):
            ZipfCountLinkProcess(a=a, n=10, floor=0.1, m=3)


def test_zipf_count_process_respects_floor_and_cap():
    # Exponents near 1 put most draws above rank m; they are dropped.
    for a in (3.0, 2.6, 1.5, 1.01, 1.0 + 1e-12):
        proc = ZipfCountLinkProcess(a=a, n=20000, floor=0.1, m=150)
        stream = SeededStream(21).child("links")
        for t in (0, 3, 11):
            p = proc.probabilities_at(t, stream)
            assert p.shape == (150,)
            assert np.all(p >= 0.1) and np.all(p <= 1.0)


def test_zipf_count_rounds_are_independent():
    proc = ZipfCountLinkProcess(a=3.0, n=2000, floor=0.1, m=10)
    stream = SeededStream(33).child("links")
    series = np.array([proc.probabilities_at(t, stream)[0] for t in range(10_000)])
    # lag-1 autocorrelation of the first client's probability
    x = series - series.mean()
    autocorr = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
    assert abs(autocorr) < 0.03


def test_zipf_process_config_errors():
    with pytest.raises(ConfigError):
        ZipfCountLinkProcess(a=0.9, n=100, floor=0.1, m=5)
    with pytest.raises(ConfigError):
        ZipfCountLinkProcess(a=3.0, n=100, floor=0.1, m=0)


def test_sample_active_set_degenerate_probabilities():
    s = SeededStream(1).child("links")
    assert sample_active_set(np.array([1.0, 1.0, 1.0]), 0, s).members == (0, 1, 2)
    with pytest.raises(ConfigError, match=r"\(0, 1\]"):
        sample_active_set(np.array([0.0, 0.0]), 1, s)


@pytest.mark.parametrize("p", [[float("nan"), 0.5, 1.0], [0.5, -0.1], [1.5, 0.5], []])
def test_sample_active_set_rejects_invalid_probabilities(p):
    with pytest.raises(ConfigError):
        sample_active_set(np.array(p), 0, SeededStream(1).child("links"))


def test_sample_active_set_rejects_negative_round():
    # A negative skip would wrap Philox's counter around rather than fail.
    with pytest.raises(ConfigError, match="round index"):
        sample_active_set(np.array([0.5, 0.5]), -1, SeededStream(1).child("links"))


def test_sample_active_set_is_deterministic_per_round():
    a = sample_active_set(np.array([0.4, 0.6]), 9, SeededStream(8).child("links"))
    b = sample_active_set(np.array([0.4, 0.6]), 9, SeededStream(8).child("links"))
    assert a == b


def link_process(kind: str, m: int):
    if kind == "static":
        return StaticLinkProcess(np.linspace(0.05, 1.0, m)[::-1])
    return ZipfCountLinkProcess(a=3.0, n=500, floor=0.1, m=m)


# m = 5 leaves a remainder of t*m uniforms in the Philox counter step
# sample_active_set skips to; m = 8 is always aligned to a whole step.
@pytest.mark.parametrize("kind, m", [
    pytest.param("static", 5, id="static"), pytest.param("zipf", 5, id="zipf"),
    pytest.param("static", 8, id="static-m8"), pytest.param("zipf", 8, id="zipf-m8")])
def test_build_trace_is_sample_active_set_per_round(kind, m):
    process = link_process(kind, m)
    trace = build_trace(process, 60, SeededStream(21).child("links"))
    fresh = SeededStream(21).child("links")
    assert len(trace) == 60
    for t, row in enumerate(trace):
        assert row.round == t
        assert np.array_equal(row.p, process.probabilities_at(t, fresh))
        assert row.active == sample_active_set(row.p, t, fresh)


@pytest.mark.parametrize("kind", ["static", "zipf"])
def test_build_trace_is_one_draw_of_every_round(kind):
    process = link_process(kind, 6)
    T = 40
    trace = build_trace(process, T, SeededStream(22).child("links"))
    fresh = SeededStream(22).child("links")
    P = np.stack([process.probabilities_at(t, fresh) for t in range(T)])
    up = fresh.child("bern").generator().random((T, 6)) < P
    assert [row.active.members for row in trace] == \
        [tuple(np.flatnonzero(mask).tolist()) for mask in up]
    assert np.array_equal(np.stack([row.p for row in trace]), P)


@pytest.mark.parametrize("kind", ["static", "zipf"])
def test_shorter_trace_is_a_prefix_of_a_longer_one(kind):
    process = link_process(kind, 7)
    short = build_trace(process, 30, SeededStream(23).child("links"))
    long = build_trace(process, 37, SeededStream(23).child("links"))
    assert [r.active for r in short] == [r.active for r in long[:30]]
    assert all(np.array_equal(a.p, b.p) for a, b in zip(short, long))


def test_build_trace_on_a_stream_with_a_generator_raises():
    stream = SeededStream(21).child("links")
    stream.generator()
    with pytest.raises(RuntimeError, match="can no longer be split"):
        build_trace(StaticLinkProcess([0.5, 0.5]), 3, stream)


def test_single_active_probability_half_half():
    # P(|A| = 1) = 0.5 for p = (0.5, 0.5); binomial CI at 1e5 trials.
    stream = SeededStream(77).child("links")
    p = np.array([0.5, 0.5])
    hits = sum(len(sample_active_set(p, t, stream)) == 1 for t in range(100_000))
    assert hits / 100_000 == pytest.approx(0.5, abs=0.01)


def test_activation_frequency_matches_probabilities():
    p = np.array([0.15, 0.5, 0.9])
    T = 20_000
    stream = SeededStream(55).child("links")
    counts = np.zeros(3)
    for t in range(T):
        counts[list(sample_active_set(p, t, stream).members)] += 1
    freq = counts / T
    sigma = np.sqrt(p * (1 - p) / T)
    assert np.all(np.abs(freq - p) <= 3 * sigma)


def test_active_set_validation():
    with pytest.raises(ValueError):
        ActiveSet((2, 1))
    with pytest.raises(ValueError):
        ActiveSet((1, 1))
    assert len(ActiveSet(())) == 0


def test_trace_roundtrip(tmp_path):
    proc = StaticLinkProcess([0.3, 0.8])
    trace = build_trace(proc, 7, SeededStream(14).child("links"))
    path = tmp_path / "trace.csv"
    digest = write_trace_csv(path, trace)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    back = read_trace_csv(path)
    assert len(back) == 7
    for orig, loaded in zip(trace, back):
        assert loaded.round == orig.round
        assert np.array_equal(loaded.p, orig.p)
        assert loaded.active.members == orig.active.members


def write_rows(path, rows, header="round,client,p,active"):
    path.write_text(header + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    return path


def test_trace_rejects_rounds_other_than_zero_to_t_minus_one(tmp_path):
    for rows in (["0,0,0.5,1", "2,0,0.5,0"],      # gap: would replay as 0, 1
                 ["1,0,0.5,1", "2,0,0.5,0"],      # no round 0
                 []):
        with pytest.raises(ConfigError):
            read_trace_csv(write_rows(tmp_path / "t.csv", rows))


def test_trace_rejects_missing_duplicate_or_changing_clients(tmp_path):
    for rows in (["0,0,0.5,1", "0,2,0.5,0"],                           # client 1 missing
                 ["0,0,0.5,1", "0,0,0.5,0"],                           # client 0 twice
                 ["0,0,0.5,1", "0,1,0.5,0", "1,0,0.5,1"],              # m drops to 1
                 ["0,0,0.5,1", "1,0,0.5,1", "1,1,0.5,0"]):             # m grows to 2
        with pytest.raises(ConfigError):
            read_trace_csv(write_rows(tmp_path / "t.csv", rows))


def test_trace_rejects_bad_probabilities(tmp_path):
    for p in ("1.7", "-0.1", "nan", "0"):
        with pytest.raises(ConfigError):
            read_trace_csv(write_rows(tmp_path / "t.csv", ["0,0,0.5,1", f"0,1,{p},0"]))


def test_trace_rejects_active_flags_other_than_zero_or_one(tmp_path):
    for act in ("2", "-1"):
        with pytest.raises(ConfigError):
            read_trace_csv(write_rows(tmp_path / "t.csv", ["0,0,0.5,1", f"0,1,0.5,{act}"]))


def test_trace_rejects_malformed_fields(tmp_path):
    for row in ("0,1,abc,0", "0,x,0.5,0", "0,1,0.5,yes", "0,1,0.5", "0,1,0.5,0,7",
                "0.5,1,0.5,0"):
        with pytest.raises(ConfigError):
            read_trace_csv(write_rows(tmp_path / "t.csv", ["0,0,0.5,1", row]))
    with pytest.raises(ConfigError):
        read_trace_csv(write_rows(tmp_path / "t.csv", ["0,0,0.5,1"], header="round,client,p"))


def test_zipf_processes_share_one_read_only_table():
    from fedsim.config import make_link_process
    first = make_link_process("zipf:3,20000,0.1", 30)
    second = make_link_process("zipf:3,500,0.2", 30)
    stream = SeededStream(2).child("links")
    first.probabilities_at(0, stream)
    second.probabilities_at(0, stream)
    table = _zipf_cdf(3.0, 30)
    assert table.shape == (30,)
    assert _zipf_cdf(first.a, first.m) is table is _zipf_cdf(second.a, second.m)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0.0
    # A shorter fleet's table is a bitwise prefix of a longer one's.
    assert np.array_equal(_zipf_cdf(3.0, 150)[:30], table)
