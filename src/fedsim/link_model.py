"""Per-round link activation probabilities and active-set sampling.

A link process gives, as one ``(T, m)`` matrix, the probability that each
client's uplink to the server is usable in each of T rounds.  Two variants
are supported: a static per-client vector and a time-varying heavy-tailed
schedule in which each round counts ``n`` Zipf ranks per client's rank
(ranks above ``m`` are drawn and dropped), normalizes the counts over the
clients, and clips the result into ``[floor, 1]`` (no re-normalization
afterwards, so the entries need not sum to anything in particular).
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .numerics import csv_records, format_real, validate_probabilities
from .streams import SeededStream


@dataclass(frozen=True)
class ActiveSet:
    """Clients whose links were up in one round; ids strictly increasing."""

    members: Tuple[int, ...]

    def __post_init__(self):
        if any(map(operator.ge, self.members, self.members[1:])):
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


class StaticLinkProcess:
    """Fixed per-client activation probabilities."""

    def __init__(self, p: Sequence[float]):
        self.p = validate_probabilities(p)

    def probabilities(self, T: int, stream: SeededStream) -> np.ndarray:
        return np.tile(self.p, (T, 1))

    def probabilities_at(self, t: int, stream: SeededStream) -> np.ndarray:
        if t < 0:
            raise ConfigError("round index must be >= 0")
        return self.p.copy()


class ZipfCountLinkProcess:
    """Heavy-tailed, time-varying activation probabilities.

    Round t's raw weight of client i is the count of rank i+1 among ``n``
    i.i.d. Zipf(a) ranks, ``P(Z=k) = k^-a / zeta(a)`` (a rank above ``m`` is
    drawn and dropped), normalized over the m clients (all zeros if no draw
    landed in the fleet), then clipped entry-wise into ``[floor, 1]``.  The
    T rounds are the rows of one ``multinomial(n, pvals, size=T)`` call on
    ``stream.child("p")``, which numpy draws row by row.  Requires ``a > 1``
    (NaN rejected), ``1 <= n <= 2**63 - 1`` (numpy's multinomial domain)
    and ``floor`` in (0, 1).
    """

    def __init__(self, a: float, n: int, floor: float, m: int):
        if m < 1:
            raise ConfigError("client count must be >= 1")
        if not (1 <= n <= 2**63 - 1):
            raise ConfigError(f"zipf sample count must lie in [1, 2**63 - 1], got {n}")
        if not (0.0 < floor < 1.0):
            raise ConfigError("floor must lie in (0, 1)")
        if not (a > 1.0):
            raise ConfigError(f"zipf exponent must be > 1 (got {a}); the series diverges")
        self.a = float(a)
        self.n = int(n)
        self.floor = float(floor)
        self.m = int(m)

    def probabilities(self, T: int, stream: SeededStream) -> np.ndarray:
        from scipy.special import zeta  # only a zipf link pays for the import
        pvals = np.arange(1, self.m + 1, dtype=float) ** -self.a / float(zeta(self.a, 1))
        # numpy takes the last cell as the leftover mass, the ranks beyond the fleet.
        counts = stream.child("p").generator().multinomial(
            self.n, np.append(pvals, 0.0), size=T)[:, :self.m]
        total = counts.sum(axis=1, keepdims=True)
        raw = np.divide(counts, total, out=np.zeros(counts.shape), where=total > 0)
        return np.clip(raw, self.floor, 1.0)

    def probabilities_at(self, t: int, stream: SeededStream) -> np.ndarray:
        if t < 0:
            raise ConfigError("round index must be >= 0")
        return self.probabilities(t + 1, stream)[t]


def probabilities_at(process, t: int, stream: SeededStream) -> np.ndarray:
    """Round-t activation probability vector of ``process``."""
    return process.probabilities_at(t, stream)


def sample_active_set(p: np.ndarray, t: int, stream: SeededStream) -> ActiveSet:
    """Round t of ``build_trace``'s draw on ``stream``.  It skips the ``t*m``
    uniforms before it: ``t*m // 4`` Philox counter steps of four 64-bit
    words, then ``t*m % 4`` doubles, which ``random`` reads one word each."""
    p = validate_probabilities(p)
    if t < 0:
        raise ConfigError("round index must be >= 0")
    gen = stream.child("bern").generator()
    steps, rest = divmod(t * p.size, 4)
    gen.bit_generator.advance(steps)
    gen.random(rest)
    return ActiveSet(tuple((gen.random(p.size) < p).nonzero()[0].tolist()))


@dataclass(frozen=True)
class TraceRound:
    """One round of a recorded link trace: probabilities plus the draw."""

    round: int
    p: np.ndarray
    active: ActiveSet


def build_trace(process, T: int, stream: SeededStream) -> List[TraceRound]:
    """Sample a T-round activation trace from ``process``.

    One call, ``process.probabilities(T, stream)``, gives the ``(T, m)``
    matrix ``P``, and one generator, ``stream.child("bern")``, draws every
    round at once: ``up = random((T, m)) < P``.  Round t reads uniforms
    ``t*m .. t*m+m-1``, so a shorter trace is a prefix of a longer one.
    Every algorithm replays the same trace.
    """
    if T < 1:
        raise ConfigError("trace length must be >= 1")
    gen = stream.child("bern").generator()
    P = process.probabilities(T, stream)
    validate_probabilities(P.ravel())
    up = gen.random(P.shape) < P
    return [TraceRound(round=t, p=p, active=ActiveSet(tuple(row.nonzero()[0].tolist())))
            for t, (p, row) in enumerate(zip(P, up))]


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
    records = csv_records(path, "trace", 4)
    _, header = next(records, (None, []))
    if header != ["round", "client", "p", "active"]:
        raise ConfigError(f"unexpected trace header: {header}")
    for where, rec in records:
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
