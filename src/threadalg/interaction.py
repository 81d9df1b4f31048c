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
is inaction).  The region is solved by one integer elimination in the
finish order of a depth-first search: rows are integer numerators over
a reduced common denominator, and each node as it finishes divides out
its self-loop, or never escapes when its row only loops back, and is
substituted into the finished rows that an index lists as naming it.
`threads.quotient` gathers, from the root, the visible nodes that the
escape distributions reach and lumps them into the result.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

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
            return threads._built_prob(tuple((w, b.slot((t, sid))) for w, t in node.branches))
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
            inner = b.add(threads._built_prob(
                tuple((w, b.slot((targets[i], derived))) for w, i in kept)
            ))
        return Post(TAU, inner, inner)

    root = b.slot((g.root, number(family)))
    b.expand(content)
    return b.graph(root)


# ---------------------------------------------------------------------------
# Abstraction


def abstract_tau(g: ThreadGraph) -> ThreadGraph:
    """The thread `g` with every internal step concealed.

    Exact on regular threads: escape probabilities out of internal
    regions are solved as a depth-first search finishes each internal
    node, and non-escaping mass maps to inaction.  They depend only on
    behaviour, so the input is walked from its root and no graph is
    built before the canonical quotient.
    """
    order = threads.reachable(g)
    # one extra inaction node, `dead`, takes the mass that never escapes
    dead = len(g.nodes)
    nodes = g.nodes + (DEAD,)
    head = threads.head_distributions(g, order)
    # one-step distribution of each internal node, as (den, {ref: numerator})
    step = {
        r: head[nodes[r].then_]
        for r in order
        if isinstance(nodes[r], Post) and nodes[r].action.is_tau
    }
    # escape distributions over visible nodes as (den, {ref: numerator}),
    # reduced so that den is the lcm of the reduced denominators; a
    # visible node escapes to itself, and a node that never escapes
    # goes to `dead`
    escape: Dict[int, Tuple[int, Dict[int, int]]] = {
        r: (1, {r: 1}) for r in order if not isinstance(nodes[r], Prob) and r not in step
    }
    # each internal node on the search path -> the finished rows that name it
    users: Dict[int, Set[int]] = {}

    def mix(dist: Tuple[int, Dict[int, int]]) -> Tuple[int, Dict[int, int]]:
        # the sum of x/den * escape[d] over the head distribution's support
        den, nums = dist
        return threads.weighted_sum(
            [(x, den * escape[d][0], escape[d][1]) for d, x in nums.items()]
        )

    def eliminate(t: int) -> None:
        # every internal node that `t` steps to has finished, so its row
        # names only visible nodes and nodes still on the search path;
        # with no self-loop it is `mix`'s reduced row as it is.  A pivot
        # is positive unless all of the row's mass loops back
        den, nums = row = mix(step[t])
        loop = nums.pop(t, 0)
        if loop:
            row = (1, {dead: 1}) if loop == den else threads.weighted_sum([(1, den - loop, nums)])
        escape[t] = row
        touched = users.pop(t, set())
        for u in touched:
            uden, unums = escape[u]
            x = unums.pop(t)
            escape[u] = threads.weighted_sum([(1, uden, unums), (x, uden * row[0], row[1])])
        touched.add(t)
        for v in row[1]:
            if v in step:
                users.setdefault(v, set()).update(touched)

    def search(t: int):
        escape[t] = (1, {t: 1})  # `t` stands for itself until it finishes
        for d in step[t][1]:
            if d in step and d not in escape:
                yield search(d)
        eliminate(t)

    for s in step:
        if s not in escape:
            threads.run_stackless(search(s))

    # the result is the quotient of what the escape distributions of
    # the root and of visible nodes' children reach
    return threads.quotient(g.root, lambda r: mix(head[r]), nodes.__getitem__)
