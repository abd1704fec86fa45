"""Key-value experiment configuration.

Config files are UTF-8 text, one ``key = value`` per line, ``#`` comments
and blank lines allowed.  Unknown keys are rejected with their line
number.  ``serialize_config`` emits a canonical form (fixed key order,
floats at 17 significant digits) for which parse-serialize-parse is a
fixpoint; run manifests hash this canonical text.

Required keys: ``experiment``, ``algorithm``, ``link``, ``seed`` (runs
never default to wall-clock seeds).  Everything else has documented
per-experiment defaults matching the reference setups: counterexample
m=100, d=100, s=30, eta=0.0003, T=2000; synthetic m=150, s=10, eta=0.005,
T=3000, batch_size=32, alpha=beta=1, samples_per_client=250.

Link specs:
    static:P0,P1,...   per-client probabilities (must match m)
    halves:P0,P1       first m//2 clients get P0, the rest P1
    uniform:P          one probability for everyone
    zipf:A,N,FLOOR     per-round Zipf-count schedule clipped to [FLOOR, 1]
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algorithms import LOCAL_COMPUTE_MODES, VARIANTS
from .errors import ConfigError
from .link_model import StaticLinkProcess, ZipfCountLinkProcess

EXPERIMENTS = ("counterexample", "synthetic")

_DEFAULTS = {
    "counterexample": dict(m=100, d=100, s=30, eta=0.0003, T=2000, batch_size=32,
                           alpha=1.0, beta=1.0, samples_per_client=250),
    "synthetic": dict(m=150, d=0, s=10, eta=0.005, T=3000, batch_size=32,
                      alpha=1.0, beta=1.0, samples_per_client=250),
}

_KEY_ORDER = ("experiment", "algorithm", "local_compute", "m", "d", "s", "eta", "T",
              "batch_size", "alpha", "beta", "samples_per_client", "link", "seed",
              "scale", "out")


@dataclass(frozen=True)
class ExperimentConfig:
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
    scale: float = 1.0
    out: str = "."

    def scaled(self) -> "ExperimentConfig":
        """Apply the scale factor to m, T (and d for the counterexample)."""
        if self.scale == 1.0:
            return self
        m = max(1, round(self.m * self.scale))
        T = max(1, round(self.T * self.scale))
        d = max(1, round(self.d * self.scale)) if self.experiment == "counterexample" else self.d
        return replace(self, m=m, T=T, d=d, scale=1.0)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = [f"{key} = {_fmt(getattr(cfg, key))}" for key in _KEY_ORDER]
    return "\n".join(lines) + "\n"


def _parse_int(key: str, raw: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"line {line}: key '{key}' expects an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str, line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"line {line}: key '{key}' expects a number, got {raw!r}") from None


def parse_config(text: str) -> ExperimentConfig:
    seen: dict = {}
    lines_of: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEY_ORDER:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        seen[key] = raw
        lines_of[key] = lineno

    for required in ("experiment", "algorithm", "link", "seed"):
        if required not in seen:
            raise ConfigError(f"missing required key '{required}'")

    experiment = seen["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"line {lines_of['experiment']}: experiment must be one of {EXPERIMENTS}")
    defaults = _DEFAULTS[experiment]

    def get_int(key: str, default: int) -> int:
        if key not in seen:
            return default
        return _parse_int(key, seen[key], lines_of[key])

    def get_float(key: str, default: float) -> float:
        if key not in seen:
            return default
        return _parse_float(key, seen[key], lines_of[key])

    cfg = ExperimentConfig(
        experiment=experiment,
        algorithm=seen["algorithm"],
        local_compute=seen.get("local_compute", "all"),
        m=get_int("m", defaults["m"]),
        d=get_int("d", defaults["d"]),
        s=get_int("s", defaults["s"]),
        eta=get_float("eta", defaults["eta"]),
        T=get_int("T", defaults["T"]),
        batch_size=get_int("batch_size", defaults["batch_size"]),
        alpha=get_float("alpha", defaults["alpha"]),
        beta=get_float("beta", defaults["beta"]),
        samples_per_client=get_int("samples_per_client", defaults["samples_per_client"]),
        link=seen["link"],
        seed=_parse_int("seed", seen["seed"], lines_of["seed"]),
        scale=get_float("scale", 1.0),
        out=seen.get("out", "."),
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}")
    if cfg.algorithm not in VARIANTS:
        raise ConfigError(f"algorithm must be one of {VARIANTS}")
    if cfg.local_compute not in LOCAL_COMPUTE_MODES:
        raise ConfigError(f"local_compute must be one of {LOCAL_COMPUTE_MODES}")
    for key in ("m", "s", "T", "batch_size", "samples_per_client"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"key '{key}' must be >= 1")
    if cfg.experiment == "counterexample" and cfg.d < 1:
        raise ConfigError("key 'd' must be >= 1")
    if not (cfg.eta > 0):
        raise ConfigError("key 'eta' must be > 0")
    if not (0 < cfg.scale <= 1):
        raise ConfigError("key 'scale' must lie in (0, 1]")
    if cfg.seed < 0:
        raise ConfigError("key 'seed' must be >= 0")
    make_link_process(cfg.link, cfg.scaled().m)  # validates the spec string


def make_link_process(spec: str, m: int):
    """Instantiate the link process described by a config ``link`` value."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind == "static":
        try:
            values = [float(v) for v in rest.split(",") if v.strip() != ""]
        except ValueError:
            raise ConfigError(f"bad static link spec {spec!r}") from None
        if len(values) != m:
            raise ConfigError(f"static link spec has {len(values)} entries, need m={m}")
        return StaticLinkProcess(values)
    if kind == "halves":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ConfigError(f"halves link spec needs two probabilities, got {spec!r}")
        try:
            p0, p1 = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(f"bad halves link spec {spec!r}") from None
        half = m // 2
        return StaticLinkProcess([p0] * half + [p1] * (m - half))
    if kind == "uniform":
        try:
            p = float(rest)
        except ValueError:
            raise ConfigError(f"bad uniform link spec {spec!r}") from None
        return StaticLinkProcess([p] * m)
    if kind == "zipf":
        parts = [v.strip() for v in rest.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"zipf link spec needs 'zipf:A,N,FLOOR', got {spec!r}")
        try:
            a, n, floor = float(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ConfigError(f"bad zipf link spec {spec!r}") from None
        return ZipfCountLinkProcess(a=a, n=n, floor=floor, m=m)
    raise ConfigError(f"unknown link process kind {kind!r}")
