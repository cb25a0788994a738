"""Counter-addressable random number streams.

Every simulation in this package draws from an :class:`RngStream`, a
splitmix64-style generator whose output is a pure function of
``(master_seed, stream_id, draw_counter)``.  The n-th draw of a stream is

    mix64(stream_key + (n + 1) * GOLDEN)        (all arithmetic mod 2**64)

where ``mix64`` is the standard splitmix64 finalizer (Steele/Lea/Vigna) and
``stream_key = mix64(master_seed + (stream_id + 1) * GOLDEN)``, i.e. stream
keys are themselves entries of the master seed's own output sequence.  Two
streams collide only if their keys land within a few multiples of GOLDEN of
each other, a ~2**-64 event per pair, so replications indexed by stream_id
behave as statistically independent sequences.

Pure integer arithmetic, no platform-dependent state: the same triple
yields the same output on every platform and Python build.

Because the n-th word depends on n alone, words can also be computed a
block at a time (the counter-based design of Random123, Salmon et al.,
SC'11).  :meth:`RngStream.indices` does so for the bilinear kernels' hot
loops: it yields exactly the values that repeated ``next_index(k)`` calls
would, and leaves ``draw_counter`` where they would.  The scalar methods
stay the reference the block path is tested against.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from typing import Iterator

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# 1 / 2**53, scales a 53-bit integer into [0, 1)
_INV53 = 1.0 / (1 << 53)

# Block path: _BLOCK counters packed into one Python int, lane i at bit
# 128*i.  A lane holds a 64-bit word, so a lane-wise 64x64-bit product
# stays below the next lane and one big-int operation steps every lane.
_BLOCK = 1024
_LANE_BYTES = 16
# 1 in every lane; the all-ones word in every lane; i*GOLDEN in lane i
_ONES = int.from_bytes((b"\x01" + bytes(_LANE_BYTES - 1)) * _BLOCK, "little")
_LANES = _MASK64 * _ONES
_STEPS = int.from_bytes(
    b"".join(
        ((i * _GOLDEN) & _MASK64).to_bytes(_LANE_BYTES, "little") for i in range(_BLOCK)
    ),
    "little",
)


def _mix64(z: int) -> int:
    """splitmix64 finalizer: bijective avalanche on 64-bit words."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _block(key: int, counter: int) -> array:
    """The _BLOCK words a stream with this key draws after position counter.

    Lane i starts as key + (counter + 1 + i) * GOLDEN and goes through
    _mix64.  Each shift spills the low bits of lane i+1 into the unused
    top half of lane i; masking before each multiply drops the spill.
    """
    base = (key + (counter + 1) * _GOLDEN) & _MASK64
    z = (base * _ONES + _STEPS) & _LANES
    z = ((z ^ (z >> 30)) & _LANES) * 0xBF58476D1CE4E5B9 & _LANES
    z = ((z ^ (z >> 27)) & _LANES) * 0x94D049BB133111EB & _LANES
    z ^= z >> 31
    words = array("Q", z.to_bytes(_BLOCK * _LANE_BYTES, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    # every lane is its word followed by the spill of the last shift
    return words[::2]


def _index_limit(k: int) -> int:
    """Rejection bound of next_index(k): the largest multiple of k <= 2**64."""
    # above 2**64 the bound is 0 and every word would be rejected
    if not isinstance(k, int) or not 0 < k <= 1 << 64:
        raise ValueError(f"k must be an integer in [1, 2**64], got {k!r}")
    return (1 << 64) - ((1 << 64) % k)


@dataclass
class RngStream:
    """One replication's private random stream.

    master_seed identifies the experiment, stream_id the replication within
    it, draw_counter the position in the stream.  Identical triples produce
    identical draws; the counter advances by one per raw 64-bit word drawn.
    """

    master_seed: int
    stream_id: int = 0
    draw_counter: int = 0
    _key: int = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("master_seed", "stream_id", "draw_counter"):
            v = getattr(self, name)
            if not isinstance(v, int) or not 0 <= v <= _MASK64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v!r}")
        self._key = _mix64((self.master_seed + (self.stream_id + 1) * _GOLDEN) & _MASK64)

    def next_u64(self) -> int:
        """Next raw 64-bit word; advances the counter by exactly 1."""
        self.draw_counter += 1
        return _mix64((self._key + self.draw_counter * _GOLDEN) & _MASK64)

    def next_uniform(self) -> float:
        """Uniform float in [0, 1) with 53-bit resolution; one word consumed."""
        return (self.next_u64() >> 11) * _INV53

    def next_index(self, k: int) -> int:
        """Uniform integer in {0, ..., k-1}.

        Rejection sampling on raw words: no modulo bias for any k up to
        2**64.  Consumes a variable (almost always 1) number of words.
        """
        limit = _index_limit(k)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % k

    def indices(self, k: int) -> Iterator[int]:
        """Endless iterator over the values repeated next_index(k) would return.

        Words are computed _BLOCK at a time.  After each value, draw_counter
        counts the words consumed up to and including the one that produced
        it, so a caller may stop at any value and leave the stream exactly
        where the scalar calls would.  Nothing else may draw from the stream
        while the iterator is in use.
        """
        return self._indices(k, _index_limit(k))

    def _indices(self, k: int, limit: int) -> Iterator[int]:
        counter = self.draw_counter
        while True:
            for n, w in enumerate(_block(self._key, counter), counter + 1):
                if w < limit:
                    self.draw_counter = n
                    yield w % k
            counter += _BLOCK

    def next_bernoulli(self, p: float) -> bool:
        """True with probability p; one word consumed regardless of outcome."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p!r}")
        return self.next_uniform() < p
