"""Randomized local search for 2-CNF formulas.

The solver keeps a current assignment and, while any clause is violated,
picks the lowest-index unsatisfied clause and flips the variable of one of
its two literals, chosen uniformly.  Against any fixed satisfying
assignment the agreement count rises with probability at least 1/2 per
step, which is what makes the quadratic-time guarantee work; passing that
witness as ``reference`` records the agreement trajectory.

A formula is its clauses, a tuple of Clause pairs; a literal is a
(variable, negated) pair with a 0-based variable and a bool flag, and an
assignment is a bytearray of 0/1 with one entry per variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from driftlab.rng import RngStream, bits, index_limit
from driftlab.trajectory import Trajectory

Literal = tuple[int, bool]
Clause = tuple[Literal, Literal]


def satisfies(clauses: Sequence[Clause], assignment) -> bool:
    # a literal (var, neg) holds when bool(assignment[var]) != neg
    return all(
        (assignment[u] != 0) != nu or (assignment[v] != 0) != nv
        for (u, nu), (v, nv) in clauses
    )


def agreement_count(a, b) -> int:
    """Number of positions where two assignments agree."""
    return sum(1 for x, y in zip(a, b) if bool(x) == bool(y))


random_assignment = bits  # (stream, n): a uniform assignment of n variables


def generate_planted(stream: RngStream, n: int, m: int) -> tuple[tuple[Clause, ...], bytes]:
    """The m clauses of a random satisfiable instance, and its witness.

    The witness is a uniform assignment of the n variables.  Each clause
    draws two distinct variables and uniform polarities, redrawing until
    the witness satisfies it (acceptance chance 3/4 per draw, so this
    terminates quickly).  The draws are those of
    next_index(n), next_index(n), then next_index(2) twice, taken from raw
    words: a variable rejects words at or above index_limit(n) and takes
    w % n, a polarity is w & 1.  n must be at least 2, as the config
    reader requires: at n = 1 every draw gives u == v and no clause is kept.
    """
    witness = bytes(random_assignment(stream, n))
    limit = index_limit(n)
    draw = stream.words().__next__
    used = 0
    clauses = []
    while len(clauses) < m:
        w = draw()
        while w >= limit:
            w = draw()
            used += 1
        u = w % n
        w = draw()
        while w >= limit:
            w = draw()
            used += 1
        v = w % n
        used += 2
        if u == v:
            continue
        nu, nv = draw() & 1, draw() & 1
        used += 2
        # literal (var, neg) holds when witness[var] != neg
        if witness[u] != nu or witness[v] != nv:
            clauses.append(((u, nu == 1), (v, nv == 1)))
    stream.draw_counter += used
    return tuple(clauses), witness


@dataclass
class WalkResult:
    assignment: bytearray
    iterations: int
    censored: bool
    trajectory: Trajectory | None


def run_walk(
    clauses: Sequence[Clause],
    init,
    stream: RngStream,
    cap: int,
    reference=None,
) -> WalkResult:
    """Run the clause-repair walk from ``init`` until satisfied or capped.

    A bytearray holds one violated flag per clause, so unsat.find(1) is the
    lowest-index violated clause, and a flip only re-evaluates the clauses
    containing the flipped variable.  init holds one entry per variable,
    and so does reference.
    """
    assignment = bytearray(init)

    occ: list[list[int]] = [[] for _ in range(len(init))]
    for idx, clause in enumerate(clauses):
        occ[clause[0][0]].append(idx)
        if clause[1][0] != clause[0][0]:
            occ[clause[1][0]].append(idx)

    # a literal (var, neg) holds when bool(assignment[var]) != neg, and
    # bool(byte) is byte != 0
    unsat = bytearray(
        (assignment[u] != 0) == nu and (assignment[v] != 0) == nv
        for (u, nu), (v, nv) in clauses
    )

    record = reference is not None
    if record:
        agree = agreement_count(assignment, reference)
        values: list[float] = [agree]

    # next_index(2) on a raw word is w & 1: 2 divides 2**64, nothing is rejected
    draw = stream.words().__next__
    t = 0
    while t < cap and (lowest := unsat.find(1)) >= 0:
        var = clauses[lowest][draw() & 1][0]
        assignment[var] ^= 1
        for idx in occ[var]:
            (u, nu), (v, nv) = clauses[idx]
            unsat[idx] = (assignment[u] != 0) == nu and (assignment[v] != 0) == nv
        t += 1
        if record:
            agree += 1 if bool(assignment[var]) == bool(reference[var]) else -1
            values.append(agree)

    stream.draw_counter += t
    censored = unsat.find(1) >= 0
    traj = Trajectory(values=values) if record else None
    return WalkResult(assignment=assignment, iterations=t, censored=censored, trajectory=traj)
