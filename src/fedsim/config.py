"""Key-value experiment configuration.

Config files are UTF-8 text, one ``key = value`` per line, ``#`` comments
and blank lines allowed.  Unknown keys are rejected with their line
number.  ``serialize_config`` emits a canonical form (fixed key order,
floats at 17 significant digits) for which parse-serialize-parse is a
fixpoint; run manifests hash this canonical text.

Required keys: ``experiment``, ``algorithm``, ``link``, ``seed`` (runs
never default to wall-clock seeds).  The ``ExperimentConfig`` fields are
the schema: their order is the canonical key order and their types say
how each value parses.  An ``ExperimentConfig`` checks every value rule
when it is built, ``dataclasses.replace`` included, so no invalid one
exists.  Every other key defaults to the experiment's
reference setup in ``_DEFAULTS``; ``reference_config`` builds that setup,
and the figure grids run it.

A ``link`` value is a spec ``KIND:V1,...,Vk``; ``_LINK_VALUES`` is its
grammar, each kind with the values it takes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import get_type_hints

from .algorithms import AlgorithmConfig
from .errors import ConfigError
from .link_model import StaticLinkProcess, ZipfCountLinkProcess
from .numerics import format_real, integer, real, reals
from .objectives import check_synthetic
from .streams import MAX_SEED

# The reference setup of each experiment: every key but the four required
# ones and ``out`` (whose default is the dataclass's).
_DEFAULTS = {
    "counterexample": dict(local_compute="all", m=100, d=100, s=30, eta=0.0003, T=2000,
                           batch_size=32, alpha=1.0, beta=1.0, samples_per_client=250),
    "synthetic": dict(local_compute="all", m=150, d=0, s=10, eta=0.005, T=3000,
                      batch_size=32, alpha=1.0, beta=1.0, samples_per_client=250),
}

EXPERIMENTS = tuple(_DEFAULTS)


class _UnknownExperiment(ConfigError):
    """The ``experiment`` rule's error, which ``parse_config`` gives its line."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One run.  The field order is the canonical key order of config text."""

    experiment: str
    algorithm: str
    local_compute: str
    m: int
    d: int
    s: int
    eta: float
    T: int
    batch_size: int
    alpha: float
    beta: float
    samples_per_client: int
    link: str
    seed: int
    out: str = "."

    def __post_init__(self):
        """Every rule a run's inputs must meet, so no invalid config exists."""
        if "\0" in self.out:  # the other strings meet grammars that admit no NUL
            raise ConfigError("key 'out' must not contain a NUL character")
        if self.experiment not in EXPERIMENTS:
            raise _UnknownExperiment(f"experiment must be one of {EXPERIMENTS}")
        self.algorithm_config()
        for key in ("m", "T", "batch_size", "samples_per_client"):
            if getattr(self, key) < 1:
                raise ConfigError(f"key '{key}' must be >= 1")
        if self.experiment == "counterexample" and self.d < 1:
            raise ConfigError("key 'd' must be >= 1")
        if self.experiment == "synthetic":
            check_synthetic(self.alpha, self.beta, self.samples_per_client)
        check_seed(self.seed)
        make_link_process(self.link, self.m)  # validates the spec string

    def algorithm_config(self) -> AlgorithmConfig:
        """The round engine's view of this run; checks algorithm, local_compute, s, eta."""
        return AlgorithmConfig(variant=self.algorithm, s=self.s, eta=self.eta,
                               local_compute=self.local_compute)


# Key -> int, float or str, the type its value is parsed to, and how.
_KEY_TYPES = get_type_hints(ExperimentConfig)
_PARSERS = {int: integer, float: real, str: str}
_EXPECTS = {int: "an integer", float: "a number"}


def serialize_config(cfg: ExperimentConfig) -> str:
    return "".join(f"{key} = {format_real(v) if isinstance(v, float) else v}\n"
                   for key, v in asdict(cfg).items())


def parse_config(text: str) -> ExperimentConfig:
    seen: dict = {}  # key -> (line number, raw value)
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        seen[key] = lineno, raw.strip()

    for required in ("experiment", "algorithm", "link", "seed"):
        if required not in seen:
            raise ConfigError(f"missing required key '{required}'")

    keys = {}
    for key, (lineno, raw) in seen.items():
        kind = _KEY_TYPES[key]
        try:
            keys[key] = _PARSERS[kind](raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: key '{key}' expects {_EXPECTS[kind]}, "
                              f"got {raw!r}") from None
    try:
        return reference_config(**keys)
    except _UnknownExperiment as err:
        raise ConfigError(f"line {seen['experiment'][0]}: {err}") from None


def reference_config(experiment: str, algorithm: str, link: str, seed: int, *,
                     scale: float = 1.0, **keys) -> ExperimentConfig:
    """The experiment's reference setup, its m and T (and d on the
    counterexample) multiplied by ``scale``, with ``keys`` overriding it."""
    if not (0 < scale <= 1):
        raise ConfigError(f"scale must lie in (0, 1], got {scale}")
    # An unknown experiment borrows the first setup only for ExperimentConfig
    # to reject it.
    ref = dict(_DEFAULTS.get(experiment, _DEFAULTS[EXPERIMENTS[0]]))
    for key in ("m", "T", "d") if experiment == "counterexample" else ("m", "T"):
        ref[key] = max(1, round(ref[key] * scale))
    return ExperimentConfig(experiment=experiment, algorithm=algorithm, link=link, seed=seed,
                            **{**ref, **keys})


def check_seed(seed: int) -> None:
    """The one root-seed rule for configs and ``gendata``."""
    if not (0 <= seed < MAX_SEED):
        raise ConfigError(f"key 'seed' must be >= 0 and fit in 64 bits, got {seed}")


# Each link kind's count of spec values (None: m, one per client).
_LINK_VALUES = {
    "static": None,  # P0,...: one probability per client
    "halves": 2,  # P0,P1: P0 for the first m//2 clients, P1 for the rest
    "uniform": 1,  # P: one probability for every client
    "zipf": 3,  # A,N,FLOOR: Zipf counts of N draws a round, clipped to [FLOOR, 1]
}


def make_link_process(spec: str, m: int):
    """Instantiate the link process described by a config ``link`` value."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind not in _LINK_VALUES:
        raise ConfigError(f"unknown link process kind {kind!r}")
    values, need = rest.split(","), _LINK_VALUES[kind] or m
    if len(values) != need:
        raise ConfigError(f"{kind} link spec {spec!r} needs {need} value{'s' * (need != 1)}, "
                          f"got {len(values)}")
    if kind == "zipf":
        try:
            a, n, floor = real(values[0]), integer(values[1]), real(values[2])
        except ValueError:
            raise ConfigError(f"bad zipf link spec {spec!r}") from None
        return ZipfCountLinkProcess(a=a, n=n, floor=floor, m=m)
    p = reals(values, f"{kind} link spec {spec!r}")
    if kind != "static":  # the first m//2 clients take the first value, the rest the last
        p = p[[0] * (m // 2) + [-1] * (m - m // 2)]
    return StaticLinkProcess(p)
