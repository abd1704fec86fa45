from dataclasses import asdict, replace

import numpy as np
import pytest

from fedsim.config import (ExperimentConfig, make_link_process, parse_config,
                           reference_config, serialize_config)
from fedsim.errors import ConfigError
from fedsim.link_model import StaticLinkProcess, ZipfCountLinkProcess

MINIMAL_COUNTEREXAMPLE = """
experiment = counterexample
algorithm = fedavg
link = halves:0.9,0.1
seed = 7
"""

MINIMAL_SYNTHETIC = """
experiment = synthetic
algorithm = fedpbc
link = zipf:3,20000,0.1
seed = 11
"""


def test_minimal_counterexample_defaults():
    cfg = parse_config(MINIMAL_COUNTEREXAMPLE)
    assert cfg.s == 30
    assert cfg.eta == 0.0003
    assert cfg.m == 100 and cfg.d == 100 and cfg.T == 2000
    assert cfg.local_compute == "all"


def test_minimal_synthetic_defaults():
    cfg = parse_config(MINIMAL_SYNTHETIC)
    assert cfg.s == 10 and cfg.eta == 0.005 and cfg.batch_size == 32
    assert cfg.m == 150 and cfg.T == 3000
    assert cfg.alpha == 1.0 and cfg.beta == 1.0


def test_unknown_key_rejected_with_line():
    text = MINIMAL_COUNTEREXAMPLE + "learning_rte = 0.1\n"
    with pytest.raises(ConfigError, match="learning_rte"):
        parse_config(text)


def test_unknown_experiment_rejected_with_line():
    text = MINIMAL_COUNTEREXAMPLE.replace("experiment = counterexample", "experiment = other")
    line = text.splitlines().index("experiment = other") + 1
    with pytest.raises(ConfigError, match=rf"^line {line}: experiment must be one of"):
        parse_config(text)


def test_missing_required_key():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("experiment = counterexample\nalgorithm = fedavg\nlink = uniform:0.5\n")


def test_out_of_range_values_name_key():
    with pytest.raises(ConfigError, match="'T'"):
        parse_config(MINIMAL_COUNTEREXAMPLE + "T = 0\n")
    with pytest.raises(ConfigError, match="'eta'"):
        parse_config(MINIMAL_COUNTEREXAMPLE + "eta = -1\n")
    with pytest.raises(ConfigError, match="'eta'"):
        parse_config(MINIMAL_COUNTEREXAMPLE + "eta = inf\n")
    with pytest.raises(ConfigError, match="integer"):
        parse_config(MINIMAL_COUNTEREXAMPLE + "m = abc\n")
    # The dataset generator's own rules, checked before any run starts.
    with pytest.raises(ConfigError, match="at least 2 samples"):
        parse_config(MINIMAL_SYNTHETIC + "samples_per_client = 1\n")
    with pytest.raises(ConfigError, match="variances"):
        parse_config(MINIMAL_SYNTHETIC + "beta = -1\n")


@pytest.mark.parametrize("key", ["m", "d", "s", "eta", "T", "batch_size", "alpha", "beta",
                                 "samples_per_client", "seed"])
def test_malformed_number_names_key_and_line(key):
    text = MINIMAL_COUNTEREXAMPLE + f"{key} = abc\n"
    if key == "seed":
        text = text.replace("seed = 7\n", "")
    line = text.splitlines().index(f"{key} = abc") + 1
    with pytest.raises(ConfigError, match=rf"^line {line}: key '{key}' expects"):
        parse_config(text)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_rejected(seed):
    with pytest.raises(ConfigError, match="'seed'"):
        parse_config(MINIMAL_COUNTEREXAMPLE.replace("seed = 7", f"seed = {seed}"))


def test_parse_config_is_the_reference_setup_overridden():
    assert parse_config(MINIMAL_SYNTHETIC) == reference_config(
        "synthetic", "fedpbc", "zipf:3,20000,0.1", 11)
    assert parse_config(MINIMAL_COUNTEREXAMPLE + "m = 10\nT = 5\n") == reference_config(
        "counterexample", "fedavg", "halves:0.9,0.1", 7, m=10, T=5)
    with pytest.raises(ConfigError, match="experiment"):
        reference_config("bogus", "fedavg", "uniform:0.5", 1)


@pytest.mark.parametrize("link", ["static:nan,0.5,0.5,0.5", "halves:0.5,nan", "uniform:nan"])
def test_nan_link_probability_rejected(link):
    # NaN fails every comparison, so a client given NaN would never activate.
    with pytest.raises(ConfigError, match=r"\(0, 1\]"):
        parse_config(MINIMAL_COUNTEREXAMPLE.replace("halves:0.9,0.1", link) + "m = 4\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(MINIMAL_COUNTEREXAMPLE + "seed = 8\n")


def test_parse_serialize_parse_fixpoint_randomized():
    rng = np.random.default_rng(20)
    for _ in range(50):
        experiment = rng.choice(["counterexample", "synthetic"])
        link = rng.choice(["halves:0.9,0.1", "uniform:0.37", "zipf:3,5000,0.1"])
        cfg = ExperimentConfig(
            experiment=str(experiment),
            algorithm=str(rng.choice(["fedavg", "fedpbc"])),
            local_compute=str(rng.choice(["all", "active_only"])),
            m=int(rng.integers(2, 200)),
            d=int(rng.integers(1, 100)),
            s=int(rng.integers(1, 40)),
            eta=float(rng.uniform(1e-5, 0.5)),
            T=int(rng.integers(1, 5000)),
            batch_size=int(rng.integers(1, 64)),
            alpha=float(rng.uniform(0, 2)),
            beta=float(rng.uniform(0, 2)),
            samples_per_client=int(rng.integers(2, 500)),
            link=str(link),
            seed=int(rng.integers(0, 2**31)),
            out=".")
        text = serialize_config(cfg)
        once = parse_config(text)
        assert once == cfg
        assert serialize_config(once) == text


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\n" + MINIMAL_COUNTEREXAMPLE + "\nm = 10 # inline\n")
    assert cfg.m == 10


def test_reference_config_scales_m_t_d_before_keys():
    cfg = reference_config("counterexample", "fedavg", "halves:0.9,0.1", 7, scale=0.2)
    assert (cfg.m, cfg.d, cfg.T) == (20, 20, 400)
    assert reference_config("counterexample", "fedavg", "halves:0.9,0.1", 7, scale=0.2,
                            m=7).m == 7
    syn = reference_config("synthetic", "fedavg", "uniform:0.5", 7, scale=0.1)
    assert (syn.m, syn.d, syn.T) == (15, 0, 300)


@pytest.mark.parametrize("scale", [0.0, -0.5, 1.5, float("nan")])
def test_reference_config_rejects_scale_outside_unit_interval(scale):
    with pytest.raises(ConfigError, match="scale"):
        reference_config("synthetic", "fedavg", "uniform:0.5", 7, scale=scale)


def test_link_process_factory():
    uniform = make_link_process("uniform:0.5", 4)
    assert isinstance(uniform, StaticLinkProcess)
    assert uniform.p.tolist() == [0.5] * 4
    assert isinstance(make_link_process("zipf:3,100,0.1", 4), ZipfCountLinkProcess)
    proc = make_link_process("halves:0.9,0.1", 5)
    assert isinstance(proc, StaticLinkProcess)
    assert proc.p.tolist() == [0.9, 0.9, 0.1, 0.1, 0.1]
    full = make_link_process("static:0.2,0.4,0.6", 3)
    assert full.p.tolist() == [0.2, 0.4, 0.6]
    with pytest.raises(ConfigError):
        make_link_process("static:0.2,0.4", 3)
    with pytest.raises(ConfigError):
        make_link_process("bogus:1", 3)
    with pytest.raises(ConfigError):
        make_link_process("zipf:0.5,100,0.1", 3)


@pytest.mark.parametrize("spec", ["static:0.5,,0.5", "static:0.5,0.5,", "static:,0.5,0.5",
                                  "static:0.5, ,0.5", "static:"])
def test_link_process_factory_rejects_empty_static_entry(spec):
    # Dropping the empty entry would run "static:0.5,,0.5" as two clients.
    with pytest.raises(ConfigError, match="static"):
        make_link_process(spec, 2)


@pytest.mark.parametrize("field, value, message", [
    ("experiment", "other", "experiment must be one of"),
    ("algorithm", "fedprox", "key 'algorithm'"),
    ("m", 0, "key 'm' must be >= 1"),
    ("T", 0, "key 'T' must be >= 1"),
    ("d", 0, "key 'd' must be >= 1"),
    ("samples_per_client", 0, "key 'samples_per_client' must be >= 1"),
    ("seed", -1, "key 'seed'"),
    ("seed", 2**64, "key 'seed'"),
    ("link", "uniform:0", r"\(0, 1\]"),
    ("link", "halves:0.9", "two probabilities"),
])
def test_experiment_config_validates_when_built_or_replaced(field, value, message):
    valid = parse_config(MINIMAL_COUNTEREXAMPLE)
    fields = {**asdict(valid), field: value}
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**fields)
    with pytest.raises(ConfigError, match=message):
        replace(valid, **{field: value})


@pytest.mark.parametrize("field, value", [("alpha", float("nan")), ("beta", -1.0),
                                          ("samples_per_client", 1)])
def test_synthetic_config_validates_the_generator_rules_when_replaced(field, value):
    with pytest.raises(ConfigError):
        replace(parse_config(MINIMAL_SYNTHETIC), **{field: value})
