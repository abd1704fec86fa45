"""Hierarchical deterministic random streams.

A stream is identified by a 64-bit root seed plus a path of labels (client
ids, round indices, purpose tags).  Two streams with the same identity
produce identical draws; streams with different paths are statistically
independent.  This lets every random decision in a simulation be addressed
by *what it is for* rather than by the order in which it happens, which is
what makes runs replayable and lets two algorithms consume identical link
traces.

Streams are single-owner: a stream either spawns children or materializes
a generator, never both.  Violations raise immediately rather than
silently correlating draws.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Recorded in run manifests so the generator backing a run is auditable:
# the stream rule, then the link-draw rules (``link_model.build_trace``).
GENERATOR_ID = ("numpy.random.Philox(4x64) via SeedSequence(root_seed, spawn_key=sha256(path)); "
                "link round t of m clients reads uniforms t*m..t*m+m-1 of one 'bern' stream; "
                "zipf p rounds are the rows of one multinomial(n, pvals, size=T) on one 'p' stream")

# Root seeds are the integers in [0, MAX_SEED).
MAX_SEED = 2**64


def _label_key(label) -> int:
    """Map one path label to a 64-bit key via a type-tagged hash.

    The tag keeps int 5 and str "5" distinct.
    """
    if isinstance(label, (bool,)):
        raise TypeError("bool labels are ambiguous; use an int or str")
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError(f"stream labels must be non-negative, got {label}")
        data = b"i:" + str(int(label)).encode("ascii")
    elif isinstance(label, str):
        data = b"s:" + label.encode("utf-8")
    else:
        raise TypeError(f"unsupported stream label type: {type(label).__name__}")
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


class SeededStream:
    """One addressable source of randomness in the (root_seed, path) tree."""

    __slots__ = ("root_seed", "path", "_generator", "_spawned")

    def __init__(self, root_seed: int, path: tuple = ()):
        if not isinstance(root_seed, (int, np.integer)):
            raise TypeError("root_seed must be an integer")
        if not (0 <= root_seed < MAX_SEED):
            raise ValueError("root_seed must fit in 64 bits")
        self.root_seed = int(root_seed)
        self.path = tuple(path)
        self._generator = None
        self._spawned = False

    def child(self, *labels) -> "SeededStream":
        """Derive the sub-stream addressed by ``labels``.

        Deterministic: equal labels give an equivalent stream every time.
        """
        if self._generator is not None:
            raise RuntimeError(
                f"stream {self.describe()} already materialized a generator; "
                "it can no longer be split")
        if not labels:
            raise ValueError("child() requires at least one label")
        self._spawned = True
        return SeededStream(self.root_seed, self.path + tuple(labels))

    def generator(self) -> np.random.Generator:
        """Materialize (once) the generator owned by this stream."""
        if self._spawned:
            raise RuntimeError(
                f"stream {self.describe()} already spawned children; "
                "draw from a dedicated child instead")
        if self._generator is None:
            seq = np.random.SeedSequence(
                entropy=self.root_seed,
                spawn_key=tuple(_label_key(lab) for lab in self.path))
            self._generator = np.random.Generator(np.random.Philox(seq))
        return self._generator

    def describe(self) -> str:
        return f"SeededStream(seed={self.root_seed}, path={self.path!r})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()
