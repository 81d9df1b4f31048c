"""Resolving thread actions against service families, and hiding tau.

`use` runs a thread against a family of named services: an action
`f.m` whose focus is named in the family becomes the internal action
tau followed by an exact probabilistic choice between the two
continuations, weighted by the service's reply probability, while the
service advances to its derived state.  Actions with unnamed foci pass
through untouched.  The construction is a product over pairs of a
thread node and a family state, so it stays finite exactly when the
reachable service states do.

`abstract_tau` conceals tau steps.  On a finite graph a region of tau
and choice nodes is an absorbing chain; the probability with which
each node escapes to each visible successor is computed exactly by
solving the region's linear system over the rationals, and mass that
can never escape becomes inaction (every finite-depth approximation of
a pure internal loop is cut to inaction, so its limit is inaction).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from . import meadow, threads
from .services import ServiceFamily
from .threads import (
    DEAD,
    DeadEnd,
    Fork,
    GraphBuilder,
    Post,
    Prob,
    Stop,
    TAU,
    ThreadGraph,
)

DEFAULT_STATE_BOUND = 100_000


def use(
    g: ThreadGraph,
    family: ServiceFamily,
    *,
    state_bound: int = DEFAULT_STATE_BOUND,
) -> ThreadGraph:
    """The thread `g` with its actions processed by the named services.

    Raises NonRegularProduct when the reachable (node, family-state)
    pairs exceed `state_bound`.
    """
    b = GraphBuilder(state_bound, "(node, service-state) pairs")

    def content(key: Tuple[int, ServiceFamily]) -> threads.Node:
        ref, fam = key
        node = g.nodes[ref]
        if isinstance(node, (Stop, DeadEnd)):
            return node
        if isinstance(node, Prob):
            return Prob(tuple((w, b.slot((t, fam))) for w, t in node.branches))
        if isinstance(node, Fork):
            return Fork(
                b.slot((node.forked, fam)),
                b.slot((node.then_, fam)),
                b.slot((node.else_, fam)),
            )
        if node.action.is_tau:
            t = b.slot((node.then_, fam))
            return Post(TAU, t, t)
        service = fam.get(node.action.focus)
        if service is None:
            return Post(
                node.action, b.slot((node.then_, fam)), b.slot((node.else_, fam))
            )
        p = service.reply(node.action.method)
        if p is None:
            dead = b.add(DEAD)
            return Post(TAU, dead, dead)
        p = meadow.as_probability(p)
        derived = fam.replace(
            node.action.focus, service.derive(node.action.method)
        )
        branches = [
            (w, target)
            for w, target in (
                (p, node.then_),
                (1 - p, node.else_),
            )
            if w != 0
        ]
        if len(branches) == 1:
            inner = b.slot((branches[0][1], derived))
        else:
            inner = b.add(
                Prob(tuple((w, b.slot((t, derived))) for w, t in branches))
            )
        return Post(TAU, inner, inner)

    root = b.slot((g.root, family))
    b.expand(content)
    return threads.trim(b.graph(root))


# ---------------------------------------------------------------------------
# Abstraction


def _solve(
    a: List[Dict[int, Fraction]], b: List[Dict[int, Fraction]]
) -> List[Dict[int, Fraction]]:
    """Solve a @ x = b exactly by Gauss-Jordan elimination on sparse rows.

    Row i of `a` maps a column in range(len(a)) to its coefficient and
    row i of `b` maps a right-hand-side column (a natural number) to its
    value; zeros are left out.  Row i of the result maps each
    right-hand-side column to the nonzero entries of unknown i.  Only
    nonzero entries are stored and touched; pivots are chosen as in the
    dense method, and the solution is unique, so it is exactly the dense
    one.  Raises ArithmeticError when a column has no pivot.
    """
    n = len(a)
    rows = [dict(row) for row in a]
    for row, rhs in zip(rows, b):
        for j, v in rhs.items():
            row[n + j] = v
    for col in range(n):
        piv = next((r for r in range(col, n) if col in rows[r]), None)
        if piv is None:
            raise ArithmeticError("singular linear system")
        rows[col], rows[piv] = rows[piv], rows[col]
        pivot = rows[col]
        factor = pivot[col]
        if factor != 1:
            pivot = {k: v / factor for k, v in pivot.items()}
            rows[col] = pivot
        for r, row in enumerate(rows):
            f = row.get(col)
            if f is None or r == col:
                continue
            for k, v in pivot.items():
                old = row.get(k)
                x = -f * v if old is None else old - f * v
                if x:
                    row[k] = x
                else:
                    del row[k]
    return [{k - n: v for k, v in row.items() if k >= n} for row in rows]


def abstract_tau(g: ThreadGraph) -> ThreadGraph:
    """The thread `g` with every internal step concealed.

    Exact on regular threads: escape probabilities out of internal
    regions come from a rational linear solve, and non-escaping mass
    maps to inaction.  They depend only on behaviour, so the input is
    only trimmed and the result alone is normalized.
    """
    n = threads.trim(g)
    tau_refs = [
        r
        for r, node in enumerate(n.nodes)
        if isinstance(node, Post) and node.action.is_tau
    ]
    if not tau_refs:
        return threads.normalize(n)
    tau_set = set(tau_refs)
    head = threads.head_distributions(n, range(len(n.nodes)))
    visible = {
        r
        for r, node in enumerate(n.nodes)
        if not isinstance(node, Prob) and r not in tau_set
    }

    # one-step distribution of each internal node
    step = {t: head[n.nodes[t].then_] for t in tau_refs}

    # internal nodes from which some visible node is reachable
    escaping = set()
    changed = True
    while changed:
        changed = False
        for t in tau_refs:
            if t in escaping:
                continue
            if any(d in visible or d in escaping for d in step[t]):
                escaping.add(t)
                changed = True

    solved: Dict[int, Dict[int, Fraction]] = {}
    if escaping:
        order = sorted(escaping)
        pos = {t: i for i, t in enumerate(order)}
        targets = sorted({d for t in order for d in step[t] if d in visible})
        tpos = {d: j for j, d in enumerate(targets)}
        a: List[Dict[int, Fraction]] = []
        b: List[Dict[int, Fraction]] = []
        for t in order:
            row = {pos[t]: meadow.ONE}
            rhs = {}
            for d, w in step[t].items():
                if d in tpos:
                    rhs[tpos[d]] = w
                elif d == t:
                    row[pos[t]] = meadow.ONE - w  # nonzero: t escapes
                elif d in pos:
                    row[pos[d]] = -w
            a.append(row)
            b.append(rhs)
        x = _solve(a, b)
        for t in order:
            solved[t] = {targets[j]: v for j, v in x[pos[t]].items()}

    def absorb(ref: int) -> Dict[int, Fraction]:
        out: Dict[int, Fraction] = {}
        for dref, w in head[ref].items():
            if dref in visible:
                out[dref] = out.get(dref, meadow.ZERO) + w
            elif dref in solved:
                for d, q in solved[dref].items():
                    out[d] = out.get(d, meadow.ZERO) + w * q
            # anything else never becomes visible again
        return out

    b = GraphBuilder()

    def resolve(ref: int) -> int:
        # the escape distribution of `ref` as a node over visible slots
        dist = absorb(ref)
        total = sum(dist.values(), meadow.ZERO)
        if total == 0:
            return b.add(DEAD)
        branches = [(w, b.slot(v)) for v, w in sorted(dist.items())]
        if total != 1:
            branches.append((1 - total, b.add(DEAD)))
        return b.prob(branches)

    def content(v: int) -> threads.Node:
        node = n.nodes[v]
        if isinstance(node, Post):
            return Post(node.action, resolve(node.then_), resolve(node.else_))
        if isinstance(node, Fork):
            return Fork(resolve(node.forked), resolve(node.then_), resolve(node.else_))
        return node

    root = resolve(n.root)
    b.expand(content)
    return threads.normalize(threads.trim(b.graph(root)))
