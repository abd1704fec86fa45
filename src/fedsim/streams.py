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

# Recorded in run manifests so the generator backing a run is auditable.
GENERATOR_ID = "numpy.random.Philox(4x64) via SeedSequence(root_seed, spawn_key=sha256(path))"

# Root seeds are the integers in [0, MAX_SEED).
MAX_SEED = 2**64

# The constants of numpy's documented ``SeedSequence`` rule (a 4-word pool of
# uint32, "hashmix" and "mix"), which ``child_keys`` evaluates for many
# spawn keys at once.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


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


def _words(n: int) -> list:
    """``n`` as ``SeedSequence`` reads an integer: its 32-bit words, least
    significant first, ``[0]`` for 0."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_sequence_keys(entropy: list) -> np.ndarray:
    """``SeedSequence(...).generate_state(2, np.uint64)`` for many rows at once.

    ``entropy`` is the assembled entropy, one item per word: a Python int
    for a word every row shares, a uint32 array (one entry per row) for a
    word that varies.  The shared words are mixed once, in Python ints;
    ``& _MASK32`` keeps those to 32 bits and changes nothing on uint32
    arrays, whose arithmetic wraps modulo 2^32 as the rule requires.
    Returns the ``(n, 2)`` uint64 keys.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for value in pool:  # generate_state: 4 uint32 words from the 4-word pool
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(np.asarray(value ^ (value >> _XSHIFT), dtype=np.uint64))
    # Two little-endian word pairs, packed by value so that no byte order enters.
    return np.stack([state[0] | (state[1] << np.uint64(32)),
                     state[2] | (state[3] << np.uint64(32))], axis=-1)


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
        if not labels:
            raise ValueError("child() requires at least one label")
        self._split()
        return SeededStream(self.root_seed, self.path + tuple(labels))

    def _split(self) -> None:
        """Mark this stream as split into children, unless it has a generator."""
        if self._generator is not None:
            raise RuntimeError(
                f"stream {self.describe()} already materialized a generator; "
                "it can no longer be split")
        self._spawned = True

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

    def child_keys(self, label, n: int) -> np.ndarray:
        """The Philox keys of ``self.child(label, t).generator()`` for t < n.

        An ``(n, 2)`` uint64 array: row t seeds a ``Philox`` (counter 0) that
        draws exactly what that child's generator would.  The rows come from
        one vectorised pass of the ``SeedSequence`` rule: entropy assembly
        (the root seed's words padded to the pool size, then each label
        key's words, one word for a key below 2^32), ``mix_entropy`` and
        ``generate_state(2, np.uint64)``.  Like ``child``, it splits this
        stream.
        """
        self._split()
        prefix = _words(self.root_seed)
        prefix += [0] * (_POOL_SIZE - len(prefix))
        for lab in self.path + (label,):
            prefix += _words(_label_key(lab))
        last = np.array([_label_key(t) for t in range(n)], dtype=np.uint64)
        lo = (last & np.uint64(_MASK32)).astype(np.uint32)
        hi = (last >> np.uint64(32)).astype(np.uint32)
        keys = np.empty((n, 2), dtype=np.uint64)
        wide = hi != 0  # a round key below 2^32 is one word
        keys[wide] = _seed_sequence_keys(prefix + [lo[wide], hi[wide]])
        keys[~wide] = _seed_sequence_keys(prefix + [lo[~wide]])
        return keys

    def describe(self) -> str:
        return f"SeededStream(seed={self.root_seed}, path={self.path!r})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()
