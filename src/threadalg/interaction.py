"""Resolving thread actions against service families, and hiding tau.

`use` runs a thread against a family of named services: an action
`f.m` whose focus is named in the family becomes the internal action
tau followed by an exact probabilistic choice between the two
continuations, weighted by the service's reply probability, while the
service advances to its derived state.  Actions with unnamed foci pass
through untouched.  The construction is a product over pairs of a
thread node and a family state, so it stays finite exactly when the
reachable service states do.  Services are pure values, so a reply and
a derived state depend only on the family state and the action: each
distinct family state is numbered once, when first reached, and each
(state, action) pair is resolved once, whichever node asks.

`abstract_tau` conceals tau steps.  On a finite graph a region of tau
and choice nodes is an absorbing chain; the probability with which
each node escapes to each visible successor is computed exactly, and
mass that can never escape becomes inaction (every finite-depth
approximation of a pure internal loop is cut to inaction, so its limit
is inaction).  The region is solved one strongly connected component
at a time, in reverse topological order, on integer numerators over a
reduced common denominator: a single node is a weighted sum of the
distributions solved below it, and only a loop solves its own small
linear system over the rationals.  `threads.quotient` lumps the
visible nodes under their escape distributions into the result.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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

# the moves of `use` other than a reply
_PASS = object()
_NO_REPLY = object()


def use(
    g: ThreadGraph,
    family: ServiceFamily,
    *,
    state_bound: int = DEFAULT_STATE_BOUND,
) -> ThreadGraph:
    """The thread `g` with its actions processed by the named services.

    Slots are keyed on (node, state number), a family state being
    numbered when first reached.  What an action does in a state (pass
    through, no reply, or branch weights and a derived state) is
    resolved once, at the first node that asks, and reused at the rest.

    Raises NonRegularProduct when the reachable (node, family-state)
    pairs exceed `state_bound`.
    """
    b = GraphBuilder(state_bound, "(node, service-state) pairs")
    states: List[ServiceFamily] = []
    state_id: Dict[ServiceFamily, int] = {}
    moves: Dict[Tuple[int, str, str], object] = {}

    def number(fam: ServiceFamily) -> int:
        sid = state_id.setdefault(fam, len(states))
        if sid == len(states):
            states.append(fam)
        return sid

    def resolve(sid: int, focus: str, method: str) -> object:
        # (derived state, kept (weight, 0 for then / 1 for else) pairs)
        fam = states[sid]
        service = fam.get(focus)
        if service is None:
            return _PASS
        p = service.reply(method)
        if p is None:
            return _NO_REPLY
        p = meadow.as_probability(p)
        derived = number(fam.replace(focus, service.derive(method)))
        return derived, tuple((w, i) for i, w in enumerate((p, 1 - p)) if w != 0)

    def content(key: Tuple[int, int]) -> threads.Node:
        ref, sid = key
        node = g.nodes[ref]
        if isinstance(node, (Stop, DeadEnd)):
            return node
        if isinstance(node, Prob):
            return Prob(tuple((w, b.slot((t, sid))) for w, t in node.branches))
        if isinstance(node, Fork):
            return Fork(
                b.slot((node.forked, sid)),
                b.slot((node.then_, sid)),
                b.slot((node.else_, sid)),
            )
        action = node.action
        if action.is_tau:
            t = b.slot((node.then_, sid))
            return Post(TAU, t, t)
        move_key = (sid, action.focus, action.method)
        move = moves.get(move_key)
        if move is None:
            move = moves[move_key] = resolve(*move_key)
        if move is _PASS:
            return Post(action, b.slot((node.then_, sid)), b.slot((node.else_, sid)))
        if move is _NO_REPLY:
            dead = b.add(DEAD)
            return Post(TAU, dead, dead)
        derived, kept = move
        targets = (node.then_, node.else_)
        if len(kept) == 1:
            inner = b.slot((targets[kept[0][1]], derived))
        else:
            inner = b.add(
                Prob(tuple((w, b.slot((targets[i], derived))) for w, i in kept))
            )
        return Post(TAU, inner, inner)

    root = b.slot((g.root, number(family)))
    b.expand(content)
    return b.graph(root)


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
    regions are solved component by component, and non-escaping mass
    maps to inaction.  They depend only on behaviour, so the input is
    walked from its root and no graph is built before the canonical
    quotient.
    """
    order = threads.reachable(g)
    # one extra inaction node, `dead`, takes the mass that never escapes
    dead = len(g.nodes)
    nodes = g.nodes + (DEAD,)
    tau_refs = [
        r for r in order if isinstance(nodes[r], Post) and nodes[r].action.is_tau
    ]
    tau_set = set(tau_refs)
    head = threads.head_distributions(g, order)
    # escape distributions over visible nodes as (den, {ref: numerator}),
    # reduced so that den is the lcm of the reduced denominators; a
    # visible node escapes to itself, and a node that never escapes
    # goes to `dead`
    escape: Dict[int, Tuple[int, Dict[int, int]]] = {
        r: (1, {r: 1})
        for r in order
        if not isinstance(nodes[r], Prob) and r not in tau_set
    }

    # one-step distribution of each internal node, as (den, {ref: numerator})
    step = {t: head[nodes[t].then_] for t in tau_refs}

    def mix(dist: Tuple[int, Dict[int, int]]) -> Tuple[int, Dict[int, int]]:
        # the sum of x/den * escape[d] over the head distribution's support
        den, nums = dist
        return threads.weighted_sum(
            [(x, den * escape[d][0], escape[d][1]) for d, x in nums.items()]
        )

    def solve(comp: List[int]) -> None:
        # every component that `comp` reaches is solved already
        if len(comp) == 1 and comp[0] not in step[comp[0]][1]:
            escape[comp[0]] = mix(step[comp[0]])
            return
        pos = {t: i for i, t in enumerate(comp)}
        targets: Dict[int, int] = {}
        a: List[Dict[int, Fraction]] = []
        rhs: List[Dict[int, Fraction]] = []
        for t in comp:
            row = {pos[t]: meadow.ONE}
            col: Dict[int, Fraction] = {}
            sden, snums = step[t]
            for d, y in snums.items():
                if d in pos:
                    row[pos[d]] = row.get(pos[d], meadow.ZERO) - Fraction(y, sden)
                else:
                    den, nums = escape[d]
                    for v, x in nums.items():
                        j = targets.setdefault(v, len(targets))
                        col[j] = col.get(j, meadow.ZERO) + Fraction(y * x, sden * den)
            a.append(row)
            rhs.append(col)
        if not targets:
            # a closed component: its mass never escapes
            escape.update((t, (1, {dead: 1})) for t in comp)
            return
        columns = list(targets)
        for t, x in zip(comp, _solve(a, rhs)):
            den = lcm(*(q.denominator for q in x.values()))
            escape[t] = (
                den,
                {columns[j]: q.numerator * (den // q.denominator) for j, q in x.items()},
            )

    # Tarjan's search on an explicit stack emits each component of the
    # internal nodes after every component it reaches; a node it has
    # entered is still on its stack until solved into `escape`
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack: List[int] = []
    work = []

    def enter(t: int) -> None:
        index[t] = low[t] = len(index)
        stack.append(t)
        work.append((t, iter(step[t][1])))

    for s in tau_refs:
        if s not in index:
            enter(s)
        while work:
            v, it = work[-1]
            for d in it:
                if d not in step:
                    continue
                if d not in index:
                    enter(d)
                    break
                if d not in escape and index[d] < low[v]:
                    low[v] = index[d]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    solve(comp)

    # the result is the quotient of the nodes that the escape
    # distributions of the root and of visible nodes' children reach
    supports: Dict[int, Tuple[int, Dict[int, int]]] = {}
    dets: Dict[int, threads.Node] = {}
    todo = [g.root]
    while todo:
        ref = todo.pop()
        if ref not in supports:
            supports[ref] = mix(head[ref])
            for v in supports[ref][1]:
                if v not in dets:
                    dets[v] = nodes[v]
                    todo.extend(threads._children(nodes[v]))
    return threads.quotient(dets, supports, g.root)
