"""Seeded random generators, graph combinators and a graph comparison,
shared by the law suites."""

from fractions import Fraction

import threadalg as ta
from oracles import OracleGraphBuilder
from threadalg import services
from threadalg.threads import (
    DEAD,
    STOP,
    TAU,
    Fork,
    Post,
    Prob,
    TDead,
    TFork,
    TPost,
    TProb,
    TRec,
    TStop,
    TVar,
    ThreadGraph,
    _children,
    _map_refs,
    reachable,
    trim,
)


def probability(rng, max_den=32):
    """A random rational in [0, 1] with a bounded denominator."""
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def open_probability(rng, max_den=32):
    """A random rational strictly between 0 and 1."""
    den = rng.randint(2, max_den)
    return Fraction(rng.randint(1, den - 1), den)


def rational(rng, span=60, max_den=12):
    """A random rational, signed."""
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def distribution(rng, n, max_den=32):
    """n positive weights summing to exactly 1."""
    while True:
        cuts = sorted(probability(rng, max_den) for _ in range(n - 1))
        weights = []
        prev = Fraction(0)
        for cut in cuts + [Fraction(1)]:
            weights.append(cut - prev)
            prev = cut
        if all(w > 0 for w in weights):
            return weights


def action(rng, methods="abc", tau_chance=0.15):
    if rng.random() < tau_chance:
        return ta.TAU
    return ta.basic("main", rng.choice(methods))


def service_action(rng):
    """An action addressed at one of the standard test services."""
    k = rng.randrange(4)
    if k == 0:
        return ta.basic("random", f"get({probability(rng, 16)})")
    if k == 1:
        return ta.basic(rng.choice(["r1", "r2"]), rng.choice(["get", "set:true", "set:false"]))
    if k == 2:
        return ta.basic(rng.choice(["r1", "r2"]), "bogus")
    return action(rng)


def term(rng, depth, *, mk_action=action, allow_fork=False):
    """A random closed term of the given depth bound."""
    if depth == 0:
        return TStop() if rng.random() < 0.5 else TDead()
    k = rng.randrange(7 if allow_fork else 6)
    if k == 0:
        return TStop()
    if k == 1:
        return TDead()
    if k in (2, 3):
        return TPost(
            mk_action(rng),
            term(rng, depth - 1, mk_action=mk_action, allow_fork=allow_fork),
            term(rng, depth - 1, mk_action=mk_action, allow_fork=allow_fork),
        )
    if k == 6:
        return TFork(
            term(rng, depth - 1, mk_action=mk_action, allow_fork=allow_fork),
            term(rng, depth - 1, mk_action=mk_action, allow_fork=allow_fork),
            term(rng, depth - 1, mk_action=mk_action, allow_fork=allow_fork),
        )
    n = rng.randint(2, 3)
    weights = distribution(rng, n)
    return TProb(
        tuple(
            (w, term(rng, depth - 1, mk_action=mk_action, allow_fork=allow_fork))
            for w in weights
        )
    )


def rec_system(rng, depth, scope=(), *, faults=False):
    """A random term of nested `rec` systems over the variables in `scope`.

    Systems have aliases (`X = Y`) and forward references, choices have
    weight-0 and weight-1 branches, and forks occur, so some terms recur
    without an action test guarding them.  With `faults`, a few
    variables are unbound, repeat in one system or are selected without
    an equation.
    """
    k = rng.randrange(9 if depth else 3)
    if k == 0:
        return TStop()
    if k == 1:
        return TDead()
    if k == 2:
        if faults and rng.random() < 0.05:
            return TVar("U")
        return TVar(rng.choice(scope)) if scope else TStop()

    def sub():
        return rec_system(rng, depth - 1, scope, faults=faults)

    if k == 3:
        return ta.tprefix(action(rng, "ab"), sub())
    if k == 4:
        return TPost(action(rng, "ab"), sub(), sub())
    if k == 5:
        return TFork(sub(), sub(), sub())
    if k == 6:
        weights = distribution(rng, rng.randint(1, 3)) + [Fraction(0)] * rng.randint(0, 1)
        rng.shuffle(weights)
        return TProb(tuple((w, sub()) for w in weights))
    names = rng.sample("XYZ", rng.randint(1, 3))
    if faults and rng.random() < 0.05:
        names.append(names[0])
    inner = tuple(dict.fromkeys((*scope, *names)))
    equations = tuple(
        (n, TVar(rng.choice(names)) if rng.random() < 0.2
         else rec_system(rng, depth - 1, inner, faults=faults))
        for n in names
    )
    body = "W" if faults and rng.random() < 0.05 else rng.choice(names)
    return TRec(equations, body)


def term_text(term):
    """The textual syntax of `term`, which `terms.parse_term` reads back."""
    if isinstance(term, TStop):
        return "S"
    if isinstance(term, TDead):
        return "D"
    if isinstance(term, TVar):
        return term.name
    if isinstance(term, TPost):
        if term.then_ == term.else_:
            return f"prefix({term.action}, {term_text(term.then_)})"
        return f"post({term.action}, {term_text(term.then_)}, {term_text(term.else_)})"
    if isinstance(term, TFork):
        return f"fork({term_text(term.forked)}, {term_text(term.then_)}, {term_text(term.else_)})"
    if isinstance(term, TProb):
        return "prob(" + ", ".join(f"{w}: {term_text(t)}" for w, t in term.branches) + ")"
    eqs = " ".join(f"{n} = {term_text(t)};" for n, t in term.equations)
    return f"rec {term.body} {{ {eqs} }} in {term.body}"


def thread(rng, depth, **kw):
    return ta.build(term(rng, depth, **kw))


def family(rng, foci=("random", "r1", "r2", "r3")):
    """A random family over at most four foci."""
    fam = services.empty_family()
    for focus in foci:
        if rng.random() < 0.5:
            if focus == "random":
                entry = services.RANDOM
            else:
                entry = services.make_register(rng.random() < 0.5)
            fam = services.compose(fam, services.singleton(focus, entry))
    return fam


def register_service(rng):
    return services.make_register(rng.random() < 0.5)


CHAIN_REPLIES = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))


def choice_chain(n, *, cycle=False):
    """A node table of `n` nested binary choices over three leaves.

    Choice k (node k, the root is 0) gives 1/(n+1-k) to leaf `k % 3` and
    the rest to choice k + 1; the last choice's second branch goes to
    leaf `n % 3`, or back to the root when `cycle` is set, which makes
    a cycle through choices.  Leaf j (node n + j) performs `main.a<j>`,
    then terminates on True and is inactive on False.  From choice k,
    leaf j is reached with the share of k..n congruent to j mod 3.
    """
    leaf, stop, dead = n, n + 3, n + 4
    nodes = []
    for k in range(n):
        m = n + 1 - k
        rest = leaf + n % 3 if k + 1 == n else k + 1
        if cycle and k + 1 == n:
            rest = 0
        nodes.append(Prob(((Fraction(1, m), leaf + k % 3), (Fraction(m - 1, m), rest))))
    for j in range(3):
        nodes.append(Post(ta.basic("main", f"a{j}"), stop, dead))
    nodes += [STOP, DEAD]
    return ThreadGraph(tuple(nodes), 0)


def chain_share(n, k, j):
    """The mass `choice_chain(n)` gives leaf j from choice k."""
    # the count of i in k..n with i % 3 == j
    return Fraction((n - j) // 3 - (k - 1 - j) // 3, n + 1 - k)


def tau_region(rng, sizes):
    """A thread whose internal steps form one component per entry of `sizes`.

    Component i is a ring of `sizes[i]` tau steps.  Each step goes,
    through a choice when it has several targets, to its successor on
    the ring, and at random to itself, to a chord target on the ring
    and to exits: steps of later components and, by the component's
    kind, visible nodes (an open component), nothing (a closed one) or
    only inaction (a dead end, or later components that are closed or
    lead only to inaction).  A one-step component may have no
    self-loop.  The visible nodes perform `main.a`, `main.b` or `main.c`
    and continue into any step, terminate or are inactive, so a
    component is entered at several of its steps.
    """
    nodes = []

    def reserve():
        nodes.append(None)
        return len(nodes) - 1

    stop, dead = reserve(), reserve()
    nodes[stop], nodes[dead] = STOP, DEAD
    visible = [reserve() for _ in range(3)]
    rings = [[reserve() for _ in range(m)] for m in sizes]
    kinds = [rng.choice(["open", "open", "closed", "dead"]) for _ in sizes]
    # a component leads only to inaction when all the later components
    # it may enter do too
    for i in reversed(range(len(sizes))):
        later = [j for j in range(i + 1, len(sizes)) if kinds[j] in ("closed", "dead")]
        if kinds[i] == "open":
            exits = visible + [stop] + [t for ring in rings[i + 1 :] for t in ring]
        elif kinds[i] == "dead":
            exits = [dead] + [t for j in later for t in rings[j]]
        else:
            exits = []
        ring = rings[i]
        for j, t in enumerate(ring):
            targets = [ring[(j + 1) % len(ring)]] if len(ring) > 1 or rng.random() < 0.5 else []
            if rng.random() < 0.3:
                targets.append(t)
            if rng.random() < 0.3:
                targets.append(rng.choice(ring))
            if exits and (j == 0 or rng.random() < 0.4):
                targets += rng.sample(exits, min(len(exits), rng.randint(1, 2)))
            if not targets:
                targets = [t]
            targets = list(dict.fromkeys(targets))
            if len(targets) == 1:
                nodes[t] = Post(TAU, targets[0], targets[0])
                continue
            choice = reserve()
            weights = distribution(rng, len(targets), max_den=6)
            nodes[choice] = Prob(tuple(zip(weights, targets)))
            nodes[t] = Post(TAU, choice, choice)
    entries = [t for ring in rings for t in ring] + [stop, dead]
    for v, m in zip(visible, "abc"):
        nodes[v] = Post(ta.basic("main", m), rng.choice(entries), rng.choice(entries))
    root = rings[0][0] if sizes and rng.random() < 0.7 else rng.choice(visible)
    return ThreadGraph(tuple(nodes), root)


def with_tau_orphans(rng, g, h):
    """`g` with up to three children rerouted through new tau steps
    whose else branches enter `h`, which only those branches reach; a
    few children of `h` lead back into `g`."""
    n = len(g.nodes)
    nodes = list(g.nodes) + [_map_refs(node, range(n, n + len(h.nodes))) for node in h.nodes]

    def reroute(r, new_child):
        # node r with one child c replaced by new_child(c)
        node = nodes[r]
        if isinstance(node, Prob):
            branches = list(node.branches)
            k = rng.randrange(len(branches))
            branches[k] = (branches[k][0], new_child(branches[k][1]))
            nodes[r] = Prob(tuple(branches))
        elif _children(node):
            children = list(_children(node))
            k = rng.randrange(len(children))
            children[k] = new_child(children[k])
            nodes[r] = Post(node.action, *children) if isinstance(node, Post) else Fork(*children)

    def orphan_step(c):
        nodes.append(Post(TAU, c, n + rng.randrange(len(h.nodes))))
        return len(nodes) - 1

    for r in rng.sample(range(n, n + len(h.nodes)), min(2, len(h.nodes))):
        reroute(r, lambda c: rng.randrange(n))
    for r in rng.sample(range(n), min(3, n)):
        reroute(r, orphan_step)
    return ThreadGraph(tuple(nodes), g.root)


def renumbered(g):
    """`g` numbered breadth-first from its root, as the oracles number
    their graphs, after checking that no node of `g` is unreachable;
    an error verdict passes through unchanged.  Comparing `renumbered(g)`
    with an oracle's graph checks every node, branch weight, shared node
    and the root, up to a one-to-one renaming of node ids."""
    if not isinstance(g, ThreadGraph):
        return g
    out = trim(g)
    assert len(out.nodes) == len(g.nodes), "unreachable nodes"
    return out


# ---------------------------------------------------------------------------
# Graph combinators: compose whole graphs the way terms compose


def _merge_into(b, g):
    # reserve slots first so cyclic references resolve
    order = reachable(g)
    memo = {r: b.reserve() for r in order}
    for r in order:
        b.fill(memo[r], _map_refs(g.nodes[r], memo))
    return memo[g.root]


def combine_post(action, then_g, else_g):
    """The thread performing `action`, then one of the two graphs."""
    b = OracleGraphBuilder()
    t = _merge_into(b, then_g)
    e = _merge_into(b, else_g)
    return b.graph(b.add(Post(action, t, e)))


def combine_prefix(action, g):
    b = OracleGraphBuilder()
    t = _merge_into(b, g)
    return b.graph(b.add(Post(action, t, t)))


def combine_fork(forked_g, then_g, else_g):
    b = OracleGraphBuilder()
    f = _merge_into(b, forked_g)
    t = _merge_into(b, then_g)
    e = _merge_into(b, else_g)
    return b.graph(b.add(Fork(f, t, e)))


def combine_prob(branches):
    """One thread choosing among whole graphs with the given weights."""
    b = OracleGraphBuilder()
    merged = [(w, _merge_into(b, g)) for w, g in branches]
    return b.graph(b.prob(merged))
