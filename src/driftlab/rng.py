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

Because the n-th word depends on n alone, a stream holds nothing but its
triple and the key derived from it (the counter-based design of
Random123, Salmon et al., SC'11).
``next_u64`` computes the formula above for one word.  Each ``words()``
iterator computes its own blocks from the counter it started at: 64
words, then doubling up to 1024, and 1024 from then on.  A block packs
its words densely into one int, word i at bit 64*i: each xor-shift masks
off the bits the shift pulls in from the next word, each multiply runs
on the even and the odd slots apart so a product has the free slot
above its word to grow in, and the counters are summed as an even and an
odd half for the same reason.  The counters of the next 1024-word block
are the current ones plus 1024 * GOLDEN, so the full blocks advance each
half by one masked addition.

The scalar methods read one word at a time: ``next_uniform`` scales one
word and ``next_index`` rejects and reduces words.  The kernels read raw
words from ``words()`` and test them against integer bounds: a
Bernoulli(p) draw is ``w < below(p)``, and an index in {0..k-1} rejects
``w >= index_limit(k)`` and takes ``w % k``, so each draw equals the
scalar call's.  ``words()`` never moves ``draw_counter``: a kernel counts
the words it takes and sets the counter once, where it stops.  ``bits``
is the one draw of a run's uniform start bits.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterator

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# 1 / 2**53, scales a 53-bit integer into [0, 1)
_INV53 = 1.0 / (1 << 53)

# Block path: up to _BLOCK words packed densely into one Python int, word i
# at bit 64*i, so one big-int operation steps every word (see _mixed).
_BLOCK = 1024
_MIN_BLOCK = 64
_WORD_BYTES = 8
# 1 in every slot and in every even slot; the low j bits of every slot, for
# each shift j = 64 - s of _mix64; every even and every odd slot; i*GOLDEN
# in slot i
_ONE = int.from_bytes((b"\x01" + bytes(_WORD_BYTES - 1)) * _BLOCK, "little")
_EVEN_ONE = int.from_bytes((b"\x01" + bytes(2 * _WORD_BYTES - 1)) * (_BLOCK // 2), "little")
_LOW = {j: ((1 << j) - 1) * _ONE for j in (34, 37, 33)}
_EVEN = _MASK64 * _EVEN_ONE
_ODD = _EVEN << 64
_STEPS = int.from_bytes(
    b"".join(((i * _GOLDEN) & _MASK64).to_bytes(_WORD_BYTES, "little") for i in range(_BLOCK)),
    "little",
)
# _BLOCK * GOLDEN in every even and every odd slot: the next full block's
# counters, each half stepped apart so no carry crosses into the next word
_EVEN_STRIDE = ((_BLOCK * _GOLDEN) & _MASK64) * _EVEN_ONE
_ODD_STRIDE = _EVEN_STRIDE << 64


def _mix64(z: int) -> int:
    """splitmix64 finalizer: bijective avalanche on 64-bit words."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mixed(d: int, size: int) -> array:
    """The words _mix64 makes of the size counters packed densely in d.

    A mask that keeps the low 64 - s bits of each slot drops what the shift
    by s pulls in from the next word.  The product of an even (odd) word
    carries into the odd (even) slot above it, which the even (odd) mask
    drops.  The masks span _BLOCK slots and cut nothing of a shorter d.
    """
    even, odd = _EVEN, _ODD
    d ^= (d >> 30) & _LOW[34]
    d = ((d & even) * 0xBF58476D1CE4E5B9 & even) | ((d & odd) * 0xBF58476D1CE4E5B9 & odd)
    d ^= (d >> 27) & _LOW[37]
    d = ((d & even) * 0x94D049BB133111EB & even) | ((d & odd) * 0x94D049BB133111EB & odd)
    d ^= (d >> 31) & _LOW[33]
    words = array("Q", d.to_bytes(size * _WORD_BYTES, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words


# block size -> _ONE and _STEPS cut to that many slots, each split into its
# even and its odd half, built at first use
_TABLES: dict[int, tuple[int, int, int, int]] = {}


def _counters(key: int, counter: int, size: int) -> tuple[int, int]:
    """The even and the odd slots of the size (<= _BLOCK) counters after counter.

    Slot i holds key + (counter + 1 + i) * GOLDEN.  Each half is summed
    apart, so the carry out of a slot lands in the free slot above it and
    its mask drops it.
    """
    tables = _TABLES.get(size)
    if tables is None:
        mask = (1 << (size * _WORD_BYTES * 8)) - 1
        one, steps = _ONE & mask, _STEPS & mask
        tables = _TABLES[size] = (one & _EVEN, steps & _EVEN, one & _ODD, steps & _ODD)
    even_one, even_steps, odd_one, odd_steps = tables
    base = (key + (counter + 1) * _GOLDEN) & _MASK64
    return (base * even_one + even_steps) & _EVEN, (base * odd_one + odd_steps) & _ODD


def below(p: float) -> int:
    """The word bound for a draw below p: ceil(p * 2**53) << 11.

    For every 64-bit word w, w < below(p) holds exactly when the uniform
    next_uniform() makes of it, q * 2**-53 with q = w >> 11, is < p:
    scaling by 2**53 is exact, an integer q is < P exactly when it is
    < ceil(P), and q < C exactly when w < C << 11.  So a kernel tests a
    Bernoulli(p) draw on the raw word.
    """
    return math.ceil(p * (1 << 53)) << 11


def index_limit(k: int) -> int:
    """Rejection bound of next_index(k): the largest multiple of k <= 2**64."""
    # above 2**64 the bound is 0 and every word would be rejected
    if not isinstance(k, int) or not 0 < k <= 1 << 64:
        raise ValueError(f"k must be an integer in [1, 2**64], got {k!r}")
    return (1 << 64) - ((1 << 64) % k)


def _blocks(key: int, n: int) -> Iterator[array]:
    """The blocks of words drawn after position n: 64 words, doubling up to _BLOCK.

    From the first full block on, each half of the packed counters steps
    by its stride: one masked addition moves every slot of it _BLOCK
    counters on.
    """
    size = _MIN_BLOCK
    while size < _BLOCK:
        even, odd = _counters(key, n, size)
        yield _mixed(even | odd, size)
        n += size
        size *= 2
    even, odd = _counters(key, n, _BLOCK)
    while True:
        yield _mixed(even | odd, _BLOCK)
        even = (even + _EVEN_STRIDE) & _EVEN
        odd = (odd + _ODD_STRIDE) & _ODD


@dataclass
class RngStream:
    """One replication's private random stream.

    master_seed identifies the experiment, stream_id the replication within
    it, draw_counter the position in the stream.  Identical triples produce
    identical draws; the counter advances by one per raw 64-bit word drawn,
    and it may be reassigned at any time.
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
        self.draw_counter = n = self.draw_counter + 1
        return _mix64((self._key + n * _GOLDEN) & _MASK64)

    def next_uniform(self) -> float:
        """Uniform float in [0, 1) with 53-bit resolution; one word consumed."""
        return (self.next_u64() >> 11) * _INV53

    def next_index(self, k: int) -> int:
        """Uniform integer in {0, ..., k-1}.

        Rejection sampling on raw words: no modulo bias for any k up to
        2**64.  Consumes a variable (almost always 1) number of words.
        """
        limit = index_limit(k)
        while True:
            w = self.next_u64()
            if w < limit:
                return w % k

    def words(self) -> Iterator[int]:
        """Endless iterator over the words repeated next_u64() would return.

        A C-level chain over the blocks from draw_counter on.  It keeps its
        own place and never moves draw_counter: a kernel counts the words
        it takes and sets draw_counter once, where it stops, so a stream
        shared across phases stays where scalar draws would have left it.
        Nothing else may draw from the stream while the iterator is in use;
        after other draws, make a fresh one.
        """
        return chain.from_iterable(_blocks(self._key, self.draw_counter))


def bits(stream: RngStream, n: int) -> bytearray:
    """n bits, each next_uniform() < 0.5 of its word; draw_counter moves n words."""
    drawn = bytearray(map(below(0.5).__gt__, islice(stream.words(), n)))
    stream.draw_counter += n
    return drawn
