"""Reference implementations kept as differential-test oracles.

`oracle_normalize` is the first `threads.normalize`: every refinement
round recomputes the block-level distribution of every slot with
Fraction sums and ranks signatures that hold Fractions.
`oracle_solve` is the first dense Gauss-Jordan solve behind
`interaction.abstract_tau`.  Both are slow and obviously correct; the
production versions must agree with them exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from threadalg import meadow
from threadalg.threads import (
    DEAD,
    DeadEnd,
    Fork,
    Node,
    Post,
    Prob,
    STOP,
    Stop,
    ThreadGraph,
    _slot_refs,
    _tau_closed,
    head_distributions,
    reachable,
)


def oracle_normalize(g: ThreadGraph) -> ThreadGraph:
    """The canonical graph of a regular thread.

    Idempotent, and two graphs normalize to equal values exactly when
    they have the same behaviour.  Equality of canonical graphs is
    therefore plain structural equality.
    """
    order = reachable(g)
    dets: Dict[int, Node] = {}
    for r in order:
        node = _tau_closed(g.nodes[r])
        if not isinstance(node, Prob):
            dets[r] = node
    head = head_distributions(g, order)

    refs = sorted(dets)

    def base_key(r: int):
        node = dets[r]
        if isinstance(node, Stop):
            return (0, "", "")
        if isinstance(node, DeadEnd):
            return (1, "", "")
        if isinstance(node, Post):
            return (2, node.action.focus, node.action.method)
        return (3, "", "")

    ranking = {k: i for i, k in enumerate(sorted({base_key(r) for r in refs}))}
    block = {r: ranking[base_key(r)] for r in refs}

    def class_dist(cref: int) -> Tuple[Tuple[int, Fraction], ...]:
        agg: Dict[int, Fraction] = {}
        for dref, w in head[cref].items():
            bid = block[dref]
            agg[bid] = agg.get(bid, meadow.ZERO) + w
        return tuple(sorted(agg.items()))

    # Partition refinement: split blocks until each is closed under the
    # block-level branch distributions of every child slot.  The block
    # indices are re-derived from sorted signatures each round, so the
    # final numbering is intrinsic to the behaviour, not the input order.
    while True:
        sigs = {
            r: (block[r], tuple(class_dist(c) for c in _slot_refs(dets[r])))
            for r in refs
        }
        ranking = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        new_block = {r: ranking[sigs[r]] for r in refs}
        if new_block == block:
            break
        block = new_block

    rep: Dict[int, int] = {}
    for r in refs:
        rep.setdefault(block[r], r)

    slot_dists = {
        c: tuple(class_dist(x) for x in _slot_refs(dets[r])) for c, r in rep.items()
    }
    root_dist = class_dist(g.root)

    # the tau closure can orphan classes: keep only those reachable in
    # the quotient, compressing ids while preserving the rank order
    live = {c for c, _ in root_dist}
    frontier = list(live)
    while frontier:
        c = frontier.pop()
        for d in slot_dists[c]:
            for c2, _ in d:
                if c2 not in live:
                    live.add(c2)
                    frontier.append(c2)
    remap = {c: i for i, c in enumerate(sorted(live))}
    n_classes = len(remap)

    def compress(d):
        return tuple((remap[c], w) for c, w in d)

    multis = {
        tuple((w, c) for c, w in compress(d))
        for c0 in live
        for d in slot_dists[c0] + (root_dist,)
        if len(d) > 1
    }
    prob_id = {br: n_classes + i for i, br in enumerate(sorted(multis))}

    def resolve(d: Tuple[Tuple[int, Fraction], ...]) -> int:
        d = compress(d)
        if len(d) == 1:
            return d[0][0]
        return prob_id[tuple((w, c) for c, w in d)]

    nodes: List[Node] = [None] * (n_classes + len(prob_id))  # type: ignore[list-item]
    for c in live:
        node = dets[rep[c]]
        new = remap[c]
        if isinstance(node, Stop):
            nodes[new] = STOP
        elif isinstance(node, DeadEnd):
            nodes[new] = DEAD
        elif isinstance(node, Post):
            d1, d2 = slot_dists[c]
            nodes[new] = Post(node.action, resolve(d1), resolve(d2))
        else:
            d0, d1, d2 = slot_dists[c]
            nodes[new] = Fork(resolve(d0), resolve(d1), resolve(d2))
    for br, i in prob_id.items():
        nodes[i] = Prob(br)
    return ThreadGraph(tuple(nodes), resolve(root_dist))


def oracle_solve(a: List[List[Fraction]], b: List[List[Fraction]]) -> List[List[Fraction]]:
    """Solve a @ x = b exactly by Gauss-Jordan elimination."""
    n = len(a)
    width = len(b[0]) if b else 0
    rows = [list(a[i]) + list(b[i]) for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            raise ArithmeticError("singular linear system")
        rows[col], rows[piv] = rows[piv], rows[col]
        factor = rows[col][col]
        rows[col] = [x / factor for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]
