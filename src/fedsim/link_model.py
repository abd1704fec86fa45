"""Per-round link activation probabilities and active-set sampling.

A link process emits, for each round t, the vector of probabilities that
each client's uplink to the server is usable that round.  Two variants
are supported: a static per-client vector and a time-varying heavy-tailed
schedule in which each round draws ``n`` ranks from a Zipf distribution,
counts how many landed on each client's rank (ranks above ``m`` are drawn
and dropped), normalizes the counts over the clients, and clips the result
into ``[floor, 1]`` (no re-normalization afterwards, so the entries need
not sum to anything in particular).
"""

from __future__ import annotations

import csv
import functools
import hashlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .numerics import format_real, validate_probabilities
from .streams import SeededStream


@dataclass(frozen=True)
class ActiveSet:
    """Clients whose links were up in one round; ids strictly increasing."""

    members: Tuple[int, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.members, self.members[1:])):
            raise ValueError("active-set members must be strictly increasing")
        if self.members and self.members[0] < 0:
            raise ValueError("client ids must be non-negative")

    def mask(self, m: int) -> np.ndarray:
        out = np.zeros(m, dtype=bool)
        for i in self.members:
            if i >= m:
                raise ValueError(f"client id {i} out of range for m={m}")
            out[i] = True
        return out

    def __len__(self) -> int:
        return len(self.members)


@functools.lru_cache(maxsize=8)
def _zipf_cdf(a: float, m: int) -> np.ndarray:
    """The read-only table ``P(Z <= k)``, k = 1..m, of Zipf(a), built once
    per ``(a, m)``; only the fleet's ranks are tabulated."""
    from scipy.special import zeta  # only a zipf link pays for the import
    cdf = np.cumsum(np.arange(1, m + 1, dtype=float) ** -a / float(zeta(a, 1)))
    cdf.flags.writeable = False
    return cdf


class StaticLinkProcess:
    """Fixed per-client activation probabilities."""

    def __init__(self, p: Sequence[float]):
        self.p = validate_probabilities(p)

    def probabilities_at(self, t: int, stream: SeededStream) -> np.ndarray:
        if t < 0:
            raise ConfigError("round index must be >= 0")
        return self.p.copy()


class ZipfCountLinkProcess:
    """Heavy-tailed, time-varying activation probabilities.

    Each round draws ``n`` i.i.d. Zipf(a) ranks, ``P(Z=k) = k^-a / zeta(a)``,
    by inverse CDF over ranks ``1..m``; a draw past ``P(Z <= m)`` is a rank
    above ``m`` and is dropped.  The raw weight of client i is the number of
    draws equal to rank i+1, normalized by the total weight over the m
    clients (all zeros if no draw landed in the fleet), then clipped
    entry-wise into ``[floor, 1]``.  Requires ``a > 1`` (NaN rejected),
    ``n >= 1`` and ``floor`` in (0, 1).  Rounds use distinct stream paths,
    so the vectors at distinct rounds are independent.
    """

    def __init__(self, a: float, n: int, floor: float, m: int):
        if m < 1:
            raise ConfigError("client count must be >= 1")
        if n < 1:
            raise ConfigError("zipf sample count must be >= 1")
        if not (0.0 < floor < 1.0):
            raise ConfigError("floor must lie in (0, 1)")
        if not (a > 1.0):
            raise ConfigError(f"zipf exponent must be > 1 (got {a}); the series diverges")
        self.a = float(a)
        self.n = int(n)
        self.floor = float(floor)
        self.m = int(m)

    def probabilities_at(self, t: int, stream: SeededStream) -> np.ndarray:
        if t < 0:
            raise ConfigError("round index must be >= 0")
        gen = stream.child("p", t).generator()
        # Index k < m is rank k+1; index m is any rank beyond the fleet.
        ranks = np.searchsorted(_zipf_cdf(self.a, self.m), gen.random(self.n), side="right")
        counts = np.bincount(ranks, minlength=self.m + 1)[:self.m].astype(float)
        total = counts.sum()
        raw = counts / total if total > 0 else np.zeros(self.m)
        return np.clip(raw, self.floor, 1.0)


def probabilities_at(process, t: int, stream: SeededStream) -> np.ndarray:
    """Round-t activation probability vector of ``process``."""
    return process.probabilities_at(t, stream)


def sample_active_set(p: np.ndarray, t: int, stream: SeededStream) -> ActiveSet:
    """Independent Bernoulli(p_i) activation per client, addressed by round."""
    p = validate_probabilities(p, allow_zero=True)
    gen = stream.child("bern", t).generator()
    draws = gen.random(p.size)
    members = tuple(int(i) for i in np.nonzero(draws < p)[0])
    return ActiveSet(members)


@dataclass(frozen=True)
class TraceRound:
    """One round of a recorded link trace: probabilities plus the draw."""

    round: int
    p: np.ndarray
    active: ActiveSet


def build_trace(process, T: int, stream: SeededStream) -> List[TraceRound]:
    """Sample a T-round activation trace from ``process``.

    The same trace can be replayed across algorithms so that comparisons
    see identical link failures.
    """
    if T < 1:
        raise ConfigError("trace length must be >= 1")
    rounds = []
    for t in range(T):
        p = process.probabilities_at(t, stream)
        active = sample_active_set(p, t, stream)
        rounds.append(TraceRound(round=t, p=p, active=active))
    return rounds


def write_trace_csv(path, trace: Sequence[TraceRound]) -> str:
    """Write the trace; returns the SHA-256 hex digest of the bytes written,
    which run manifests record."""
    lines = ["round,client,p,active\n"]
    for row in trace:
        mask = row.active.mask(row.p.size)
        lines.extend(f"{row.round},{i},{format_real(p)},{int(mask[i])}\n"
                     for i, p in enumerate(row.p))
    data = "".join(lines).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def read_trace_csv(path) -> List[TraceRound]:
    """Read a trace written by ``write_trace_csv``.

    Rounds must be exactly 0..T-1 (T >= 1) and every round must list each
    of the same m clients 0..m-1 once, with p in (0, 1] and active 0 or 1;
    anything else raises ``ConfigError`` rather than being replayed as
    some other trace.
    """
    per_round: dict = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["round", "client", "p", "active"]:
            raise ConfigError(f"unexpected trace header: {header}")
        for rec in reader:
            where = f"trace line {reader.line_num}"
            if len(rec) != 4:
                raise ConfigError(f"{where}: expected 4 fields, got {len(rec)}")
            try:
                t, i, p, act = int(rec[0]), int(rec[1]), float(rec[2]), int(rec[3])
            except ValueError:
                raise ConfigError(f"{where}: malformed field in {rec!r}") from None
            if act not in (0, 1):
                raise ConfigError(f"{where}: active must be 0 or 1, got {act}")
            clients = per_round.setdefault(t, {})
            if i in clients:
                raise ConfigError(f"{where}: client {i} appears twice in round {t}")
            clients[i] = (p, act)
    rounds = sorted(per_round)
    if not rounds:
        raise ConfigError("trace has no rounds")
    if rounds != list(range(len(rounds))):
        raise ConfigError("trace rounds must run 0..T-1 without gaps; found "
                          f"{len(rounds)} rounds numbered {rounds[0]}..{rounds[-1]}")
    m = len(per_round[0])
    trace = []
    for t in rounds:
        clients = per_round[t]
        if sorted(clients) != list(range(m)):
            raise ConfigError(f"trace round {t} must list clients 0..{m - 1} "
                              "as round 0 does")
        try:
            p = validate_probabilities([clients[i][0] for i in range(m)])
        except ConfigError as err:
            raise ConfigError(f"trace round {t}: {err}") from None
        members = tuple(i for i in range(m) if clients[i][1])
        trace.append(TraceRound(round=t, p=p, active=ActiveSet(members)))
    return trace
