"""Random repair of 2-colourings on 3-colourable graphs.

An instance is its list of neighbour bitmasks (Python ints): adj[v] holds
bit u for each neighbour u of v.  The generator keeps only edges between
different witness classes v mod 3, so every triangle takes one vertex
from each class.  The repair walk 2-colours the vertices and, while any
triangle is monochromatic, flips a uniformly chosen vertex of the
lexicographically smallest such triangle.  Tracking two witness classes
and a pairing of the two colours gives a scalar potential that moves by
+-1 with probability 1/3 each, the shape the two-absorbing-barrier
guarantee wants.

The bitmasks make the triangle search a short chain of AND operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from driftlab.rng import RngStream, below, bits, index_limit
from driftlab.trajectory import Trajectory


@lru_cache(maxsize=16)
def _layout(n: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Each u's higher partners in another class mod 3, and the pair count."""
    partners = tuple(
        tuple(v for v in range(u + 1, n) if v % 3 != u % 3) for u in range(n)
    )
    return partners, sum(map(len, partners))


def generate_3colorable(stream: RngStream, n: int, edge_prob: float) -> list[int]:
    """Random dense instance: classes v mod 3, cross-class edges kept iid.

    Every unordered cross-class pair becomes an edge with probability
    edge_prob, examined in lexicographic order: one word per pair, kept
    when it is below below(edge_prob).  Returns the n neighbour bitmasks,
    filled as the edges are kept.
    """
    partners, pairs = _layout(n)
    keep = below(edge_prob)
    words = stream.words()
    adj = [0] * n
    for u, higher in enumerate(partners):
        bit = 1 << u
        for v, w in zip(higher, words):
            if w < keep:
                adj[u] |= 1 << v
                adj[v] |= bit
    stream.draw_counter += pairs
    return adj


random_colouring = bits  # (stream, n): a uniform 2-colouring of n vertices


def seek_monochromatic_triangle(adj: list[int], colouring) -> tuple[int, int, int] | None:
    """Lexicographically smallest same-coloured triangle, or None."""
    return _scan(adj, *_masks(colouring), 0)


def _masks(colouring) -> tuple[int, int]:
    """The vertex masks of colour 0 and of colour 1 (any nonzero entry)."""
    ones = sum(1 << v for v, c in enumerate(colouring) if c)
    return ((1 << len(colouring)) - 1) ^ ones, ones


def _scan(adj: list[int], zeros: int, ones: int, start: int) -> tuple[int, int, int] | None:
    """The smallest same-coloured triangle whose minimum vertex is >= start.

    zeros and ones are the vertex masks of the two colours.  Scans
    candidate minimum vertices u in order; within one, candidate middle
    vertices v in order; the third vertex is the lowest set bit of an
    adjacency intersection.  Restricting partners to higher indices makes
    the first hit the lexicographic minimum.
    """
    for u in range(start, len(adj) - 2):
        same = ones if ones >> u & 1 else zeros
        # u's same-coloured neighbours above u, lowest first
        cand = adj[u] & same & -(2 << u)
        while cand:
            low = cand & -cand
            cand ^= low
            # cand now holds exactly the candidates above v
            v = low.bit_length() - 1
            common = cand & adj[v]
            if common:
                return (u, v, (common & -common).bit_length() - 1)
    return None


@dataclass
class RecolourResult:
    colouring: bytearray
    iterations: int
    censored: bool
    trajectory: Trajectory | None


def run_recolour(
    adj: list[int],
    init,
    stream: RngStream,
    cap: int,
    record: bool = False,
) -> RecolourResult:
    """Repair ``init`` until triangle-free (among monochromatic ones) or capped.

    The two colour masks are kept across flips, and each search after a
    flip resumes the lexicographic scan where a new triangle could first
    appear instead of at vertex 0.  init holds len(adj) colours, each 0
    or 1.

    With record, the trajectory of
    Y_t = #{v in class 0 : colour(v) = 0} + #{v in class 1 : colour(v) = 1}
    is recorded, v's class being v % 3.
    """
    colouring = bytearray(init)

    if record:
        y = sum(1 for v in range(len(adj)) if v % 3 < 2 and colouring[v] == v % 3)
        values: list[float] = [y]

    zeros, ones = _masks(colouring)
    # next_index(3) on raw words: reject at the limit, then take w % 3
    limit = index_limit(3)
    draw = stream.words().__next__
    rejected = 0
    t = 0
    censored = False
    start = 0
    while True:
        tri = _scan(adj, zeros, ones, start)
        if tri is None:
            break
        if t >= cap:
            censored = True
            break
        w = draw()
        while w >= limit:
            w = draw()
            rejected += 1
        v = tri[w % 3]
        colouring[v] ^= 1
        # v sits in exactly one mask, so toggling both moves it across
        bit = 1 << v
        zeros ^= bit
        ones ^= bit
        # No monochromatic triangle had a minimum vertex below tri[0], and
        # every new one passes through v, so its minimum vertex is v itself
        # (>= tri[0]) or a neighbour of v that now shares v's colour.
        below_tri = adj[v] & (ones if colouring[v] else zeros) & ((1 << tri[0]) - 1)
        start = (below_tri & -below_tri).bit_length() - 1 if below_tri else tri[0]
        t += 1
        if record:
            if v % 3 < 2:
                y += 1 if colouring[v] == v % 3 else -1
            values.append(y)

    stream.draw_counter += t + rejected
    traj = Trajectory(values=values) if record else None
    return RecolourResult(
        colouring=colouring, iterations=t, censored=censored, trajectory=traj
    )
