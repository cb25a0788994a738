"""Random repair of 2-colourings on 3-colourable graphs.

Instances are graphs with a known 3-class witness partition (every edge
crosses classes, so every triangle takes one vertex from each class).  The
repair walk 2-colours the vertices and, while any triangle is
monochromatic, flips a uniformly chosen vertex of the lexicographically
smallest such triangle.  Tracking two witness classes and a pairing of the
two colours gives a scalar potential that moves by +-1 with probability
1/3 each, the shape the two-absorbing-barrier guarantee wants.

Adjacency is kept as per-vertex bitmasks (Python ints), which makes the
triangle search a short chain of AND operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from driftlab.rng import RngStream, below, index_limit
from driftlab.trajectory import Trajectory


@dataclass
class ColorableGraph:
    """Graph plus witness 3-partition: classes[v] in {0,1,2}, edges cross-class.

    Edges are canonical (u < v, strictly increasing, no duplicates); the
    constructor enforces all of it, so a constructed instance is always a
    legal 3-colourable input.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    classes: tuple[int, ...]
    _adj: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least three vertices")
        if len(self.classes) != self.n:
            raise ValueError("classes must assign every vertex")
        if any(c not in (0, 1, 2) for c in self.classes):
            raise ValueError("witness classes must be 0, 1, or 2")
        n, classes = self.n, self.classes
        adj = [0] * n
        for u, v in self.edges:
            if not 0 <= u < v < n:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u},{v}) out of range")
                raise ValueError(f"edge ({u},{v}) must be ordered u < v")
            if adj[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            if classes[u] == classes[v]:
                raise ValueError(f"edge ({u},{v}) joins one witness class")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._adj = adj


def generate_3colorable(stream: RngStream, n: int, edge_prob: float) -> ColorableGraph:
    """Random dense instance: classes v mod 3, cross-class edges kept iid.

    Every unordered cross-class pair becomes an edge with probability
    edge_prob, examined in lexicographic order: one word per pair, kept
    when it is below below(edge_prob).
    """
    if n < 3:
        raise ValueError("need at least three vertices")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must lie in [0, 1], got {edge_prob!r}")
    classes = tuple(v % 3 for v in range(n))
    keep = below(edge_prob)
    words = stream.words()
    edges = []
    used = 0
    for u in range(n):
        partners = [v for v in range(u + 1, n) if v % 3 != u % 3]
        edges += [(u, v) for v, w in zip(partners, words) if w < keep]
        used += len(partners)
    stream.draw_counter += used
    return ColorableGraph(n=n, edges=tuple(edges), classes=classes)


def random_colouring(stream: RngStream, n: int) -> bytearray:
    """n uniform colours: a vertex is 1 when its word is below below(0.5)."""
    colouring = bytearray(map(below(0.5).__gt__, islice(stream.words(), n)))
    stream.draw_counter += n
    return colouring


def seek_monochromatic_triangle(
    graph: ColorableGraph, colouring
) -> tuple[int, int, int] | None:
    """Lexicographically smallest same-coloured triangle, or None.

    Scans candidate minimum vertices in order; within one, candidate
    middle vertices in order; the third vertex is the lowest set bit of an
    adjacency intersection.  Restricting partners to higher indices makes
    the first hit the lexicographic minimum.
    """
    n = graph.n
    if len(colouring) != n:
        raise ValueError("colouring length must equal vertex count")
    masks = [0, 0]
    for v in range(n):
        masks[1 if colouring[v] else 0] |= 1 << v
    adj = graph._adj
    for u in range(n - 2):
        same = masks[1 if colouring[u] else 0]
        cand = adj[u] & same & ~((1 << (u + 1)) - 1)
        au = adj[u]
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            common = au & adj[v] & same & ~((1 << (v + 1)) - 1)
            if common:
                w_low = common & -common
                return (u, v, w_low.bit_length() - 1)
    return None


@dataclass
class RecolourResult:
    colouring: bytearray
    iterations: int
    censored: bool
    trajectory: Trajectory | None


def run_recolour(
    graph: ColorableGraph,
    init,
    stream: RngStream,
    cap: int,
    record: bool = False,
) -> RecolourResult:
    """Repair ``init`` until triangle-free (among monochromatic ones) or capped.

    With record, the trajectory of
    Y_t = #{v in class 0 : colour(v) = 0} + #{v in class 1 : colour(v) = 1}
    is recorded.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    n = graph.n
    colouring = bytearray(init)
    if len(colouring) != n:
        raise ValueError("init length must equal vertex count")

    classes = graph.classes
    if record:
        y = sum(1 for v in range(n) if classes[v] < 2 and colouring[v] == classes[v])
        values: list[float] = [y]

    # next_index(3) on raw words: reject at the limit, then take w % 3
    limit = index_limit(3)
    draw = stream.words().__next__
    rejected = 0
    t = 0
    censored = False
    while True:
        tri = seek_monochromatic_triangle(graph, colouring)
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
        t += 1
        if record:
            if classes[v] < 2:
                y += 1 if colouring[v] == classes[v] else -1
            values.append(y)

    stream.draw_counter += t + rejected
    traj = None
    if record:
        traj = Trajectory(values=values, censored=censored, cap=cap if censored else None)
    return RecolourResult(
        colouring=colouring, iterations=t, censored=censored, trajectory=traj
    )
