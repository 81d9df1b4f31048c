"""Exact outcome statistics and seeded sampling for thread behaviours.

An environment assigns each basic action the exact probability of the
answer True; the internal action always gets True.  Within a bound on
the number of performed actions, a thread then terminates, becomes
inactive, or is still running when the bound is hit; the three masses
are computed exactly and always sum to one.  A seeded sampler replays
single runs reproducibly for cross-checking the exact figures.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from . import meadow, threads
from .errors import MissingReply, OutOfRange, ParseError, UnresolvedFork
from .threads import Action, DeadEnd, Fork, Post, Prob, Record, Stop, ThreadGraph, _set

TERMINATE = "terminate"
DEADLOCK = "deadlock"
SURVIVING = "surviving"

Trace = Tuple[str, ...]


class Environment:
    """Stateless reply probabilities for basic actions.

    Stateful behaviour belongs in services; this is the oracle for the
    actions a thread still performs against the outside world.
    """

    def __init__(self, replies: Mapping[Action, Fraction]):
        self._replies = {a: meadow.as_probability(p) for a, p in replies.items()}

    def reply(self, action: Action) -> Fraction:
        if action.is_tau:
            return meadow.ONE
        p = self._replies.get(action)
        if p is None:
            raise MissingReply(f"no reply probability for action {action}")
        return p

    @classmethod
    def from_table(cls, text: str) -> "Environment":
        """Parse lines of the form `f.m = p`; `//` starts a comment.

        Each basic action gets at most one line, and `tau` none; `f.m(2/4)`
        and `f.m(1/2)` name one action.  A name must be spelled as in
        `.pglb`, so that some instruction can perform the action.
        """
        replies: Dict[Action, Fraction] = {}
        first_line: Dict[Action, int] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("//", 1)[0].strip()
            if not line:
                continue
            name, eq, value = line.partition("=")
            if not eq:
                raise ParseError(f"line {lineno}: expected `action = probability`")
            name = name.strip()
            try:
                spelled = threads.canonical_name(name)
            except ParseError as exc:  # a malformed `(rational)` argument
                raise ParseError(f"line {lineno}: {exc}") from None
            if not re.fullmatch(threads.ACTION_NAME, spelled):
                raise ParseError(f"line {lineno}: malformed action name {name!r}")
            action = threads.action_from_name(spelled)
            if action.is_tau:
                raise ParseError(
                    f"line {lineno}: tau takes no reply probability: it always replies True"
                )
            if action in first_line:
                raise ParseError(
                    f"line {lineno}: second reply for {action} "
                    f"(first on line {first_line[action]})"
                )
            first_line[action] = lineno
            try:
                replies[action] = meadow.as_probability(meadow.parse_rational(value.strip()))
            except (ParseError, OutOfRange) as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        return cls(replies)


EMPTY_ENVIRONMENT = Environment({})


class OutcomeDistribution(Record):
    """Exact masses of the three outcomes within a depth bound."""

    __slots__ = ("terminate", "deadlock", "surviving", "traces")

    def __init__(
        self,
        terminate: Fraction,
        deadlock: Fraction,
        surviving: Fraction,
        traces: Optional[Tuple[Tuple[Trace, Fraction], ...]] = None,
    ):
        if terminate + deadlock + surviving != 1:
            raise ValueError("outcome masses must sum to exactly 1")
        _set(self, "terminate", terminate)
        _set(self, "deadlock", deadlock)
        _set(self, "surviving", surviving)
        _set(self, "traces", traces)

    @property
    def trace_table(self) -> Dict[Trace, Fraction]:
        return dict(self.traces or ())


_FORK_MESSAGE = "a fork node can only be executed under strategic interleaving"


# a lumped distribution: (ref, numerator) pairs in ref order, with
# numerators of gcd 1
_State = Tuple[Tuple[int, int], ...]


def _lumped(dist: Dict[int, int]) -> Tuple[_State, int]:
    """`dist` as (state, factor): divided by the gcd of its numerators,
    and that gcd."""
    f = math.gcd(*dist.values())
    return tuple([(ref, x // f) for ref, x in sorted(dist.items())]), f


def _expand(
    state: _State,
    acting: bool,
    moves: Mapping[int, Tuple[str, Tuple[Tuple[int, int], ...]]],
    intern: Callable[[_State], int],
) -> Tuple[int, Tuple[Tuple[Trace, int, int], ...]]:
    """The next step of the trace walk from the lumped distribution `state`.

    Returns `here`, the mass that performs no further action: on `Stop`
    and `DeadEnd`, and everywhere once no action is left (`acting`
    false).  Then, for each action label in descending order, the
    summed successor distribution of the nodes that perform it, as
    ((label,), the number `intern` gives its lumped state, its factor).
    `moves` maps each action node to its label and one-step coefficients.
    """
    if not acting:
        return sum([x for _, x in state]), ()
    here = 0
    after: Dict[str, Dict[int, int]] = {}
    for ref, x in state:
        move = moves.get(ref)
        if move is None:
            here += x
            continue
        label, coef = move
        dist = after.get(label)
        if dist is None:
            dist = after[label] = {}
        for c, m in coef:
            dist[m] = dist.get(m, 0) + x * c
    children = []
    for label in sorted(after, reverse=True):
        lumped, f = _lumped(after[label])
        children.append(((label,), intern(lumped), f))
    return here, tuple(children)


def _raise_first_error(
    nodes: Tuple[threads.Node, ...],
    heads: Mapping[int, Tuple[int, Dict[int, int]]],
    env: Environment,
    root: int,
    depth: int,
) -> None:
    """Raise the first missing reply or fork that a recursive walk of the
    `(node, actions left)` pairs from `root` meets: reply first, then the
    True branch, then the False branch.  One set holds the pairs seen."""
    seen = set()
    stack = [(m, depth) for m in reversed(heads[root][1])]
    while stack:
        ref, k = pair = stack.pop()
        if pair in seen:
            continue
        seen.add(pair)
        node = nodes[ref]
        if isinstance(node, Fork):
            raise UnresolvedFork(_FORK_MESSAGE)
        if k and isinstance(node, Post):
            env.reply(node.action)
            order = (*reversed(heads[node.else_][1]), *reversed(heads[node.then_][1]))
            stack.extend([(m, k - 1) for m in order])


def _lumped_classes(
    nodes: Tuple[threads.Node, ...],
    coefs: Mapping[int, Tuple[Tuple[int, int], ...]],
    step_den: int,
    members: frozenset,
    budget: int,
) -> Tuple[Mapping[int, int], List[Tuple[Tuple[int, int], ...]], List[type]]:
    """Lump the deterministic nodes `members` into classes whose outcome
    masses are equal at every level.

    Exact lumping of the chain by `threads.refine`, from the blocks
    `Stop`, `DeadEnd` and `Post`, with one slot per node: its one-step
    coefficient distribution; action labels play no part.  A `Post`
    without coefficients, reached only with no action left, steps to
    itself: it is read only at level 0, where every `Post` is surviving.
    Once the rounds would cost more than `budget`, the work of iterating
    over the nodes, every node is a class of its own.  Returns each
    node's class, each class's one-step `(class, numerator)` pairs and
    each class's node type.
    """
    refs = list(members)
    position = {r: p for p, r in enumerate(refs)}
    supports: List[Tuple[Tuple[int, int], ...]] = []
    for p, r in enumerate(refs):
        coef = coefs.get(r)
        if coef is not None:
            supports.append(tuple([(position[m], x) for x, m in coef]))
        elif isinstance(nodes[r], Post):
            supports.append(((p, step_den),))
        else:
            supports.append(())
    kinds = [type(nodes[r]) for r in refs]
    slots = [(p,) for p in range(len(refs))]
    lumped = threads.refine(supports, slots, [kind.__name__ for kind in kinds], budget)
    if lumped is None:
        return position, supports, kinds
    block, reps, rank, dists = lumped
    return dict(zip(refs, block)), [dists[rank[p]] for p in reps], [kinds[p] for p in reps]


def outcome_distribution(
    g: ThreadGraph,
    env: Environment,
    depth: int,
    *,
    with_traces: bool = False,
) -> OutcomeDistribution:
    """Exact outcome masses of `g` within `depth` performed actions.

    The depth counts actions only; probabilistic choices are free.  A
    node that would perform an action beyond the bound contributes its
    whole mass to `surviving` (the thread is still running there, not
    inactive).  The optional trace table maps each performed action
    sequence to its total mass.

    Bounded value iteration with integer numerators.  Discovery runs
    level by level: the nodes reached with `k - 1` actions left are the
    union of the successor sets of the `Post` nodes reached with `k`,
    and a reply is asked for only where a node is reached with `k > 0`.
    Each distinct level is kept once: a level that repeats the one above
    stands for every level below it.
    On a missing reply or a reached fork, the ordered walk of
    `_raise_first_error` decides the error, so the one reported is the
    one a recursive walk (reply first, then the True branch, then the
    False branch) meets first.  Choice layers are flattened into one-step
    coefficients scaled by `L`, the lcm of their denominators.
    `_lumped_classes` folds the reached nodes into classes of equal
    masses with `threads.refine`, the refinement that `quotient` runs,
    within a budget of the iteration's own work, so a chain, whose nodes
    all differ, costs one round.  Then the masses of every class reached
    with `k` actions left are integers over `L**(k - low)`, computed from
    the previous level only, from `low`, the lowest level the bound
    reaches, up to `depth`.  Memory follows the distinct levels and the
    numerators' size, not `depth`.  Masses become Fractions at the end.

    The trace table, made only `with_traces`, comes from one forward
    walk of the tree of trace prefixes, depth first on a stack.  The
    nodes a prefix reaches form an integer distribution; divided by the
    gcd of its numerators it is a numbered state, and the prefix is
    that state times a factor.  `_expand` runs once per state with
    actions left and once per state with none: it gives the mass that
    stops at the prefix, and per action label the lumped distribution
    after it.  A prefix with stopping mass is emitted before its
    children, which follow in ascending label order, so the table comes
    out sorted.  Each distinct trace mass is one Fraction shared by all
    its traces.
    """
    if depth < 0:
        raise ValueError("depth must be a natural number")
    nodes = g.nodes
    heads = threads.head_distributions(g, threads.reachable(g))

    # discovery: levels[i] holds the deterministic nodes reached with
    # depth - i actions left, the last one standing for all below it
    replies: Dict[int, Fraction] = {}
    successors: Dict[int, Iterable[int]] = {}
    level = frozenset(heads[g.root][1])
    levels = [level]
    low = 0
    try:
        for k in range(depth, 0, -1):
            for ref in level:
                if ref in successors:
                    continue
                node = nodes[ref]
                if isinstance(node, Post):
                    replies[ref] = env.reply(node.action)
                    successors[ref] = heads[node.then_][1].keys() | heads[node.else_][1].keys()
                else:
                    successors[ref] = ()
            below = frozenset().union(*map(successors.__getitem__, level))
            if not below:
                low = k
                break
            if below == level:
                break
            level = below
            levels.append(level)
        members = frozenset().union(*levels)
        if any(isinstance(nodes[ref], Fork) for ref in members):
            raise UnresolvedFork(_FORK_MESSAGE)
    except (MissingReply, UnresolvedFork):
        # the error reported is the one a recursive walk meets first
        _raise_first_error(nodes, heads, env, g.root, depth)
        raise

    # exact one-step coefficients p*w_then(m) + (1-p)*w_else(m) as
    # (den, {m: numerator}), zeros dropped
    exact: Dict[int, Tuple[int, Dict[int, int]]] = {}
    for ref, p in replies.items():
        node = nodes[ref]
        a, b = p.as_integer_ratio()
        exact[ref] = threads.weighted_sum(
            [
                (x, b * heads[target][0], heads[target][1])
                for x, target in ((a, node.then_), (b - a, node.else_))
                if x
            ]
        )
    root = heads[g.root]
    step_den = math.lcm(*(den for den, _ in exact.values()), root[0])

    def scaled(coef: Tuple[int, Dict[int, int]]) -> Tuple[Tuple[int, int], ...]:
        den, nums = coef
        f = step_den // den
        return tuple((x * f, m) for m, x in nums.items())

    coefs = {ref: scaled(coef) for ref, coef in exact.items()}
    # the budget: the sizes of the levels the iteration visits
    last = len(levels) - 1
    visits = sum(map(len, levels)) + (depth - low - last) * len(level)
    cls, steps, kinds = _lumped_classes(nodes, coefs, step_den, members, visits)

    # iteration: numerators over scale = step_den**(k - low) of
    # (terminate, deadlock, surviving) for the classes reached with k
    # actions left, from those of level k - 1.  The lowest level reached
    # holds no action to perform (every action reaches the level below),
    # so it needs no predecessor, and dividing every scale by
    # step_den**low leaves each Fraction as it was.
    at = [set(map(cls.__getitem__, level)) for level in levels]
    prev: Dict[int, Tuple[int, int, int]] = {}
    scale = 1
    for k in range(low, depth + 1):
        cur: Dict[int, Tuple[int, int, int]] = {}
        for c in at[min(depth - k, last)]:
            kind = kinds[c]
            if kind is Post and k:
                t = d = s = 0
                for m, x in steps[c]:
                    mt, md, ms = prev[m]
                    t += x * mt
                    d += x * md
                    s += x * ms
                cur[c] = (t, d, s)
            elif kind is Stop:
                cur[c] = (scale, 0, 0)
            elif kind is DeadEnd:
                cur[c] = (0, scale, 0)
            else:  # an action beyond the bound
                cur[c] = (0, 0, scale)
        prev = cur
        scale *= step_den

    top = scaled(root)
    t, d, s = (sum(c * prev[cls[m]][i] for c, m in top) for i in range(3))
    table_out = None
    if with_traces:
        # the trace prefix tree, depth first: an entry (trace, n, f, k)
        # is f times state number n, reached by `trace` with k actions
        # left, its numerators over step_den**(len(trace) + 1)
        moves = {ref: (str(nodes[ref].action), coef) for ref, coef in coefs.items()}
        numbers: Dict[_State, int] = {}
        states: List[_State] = []

        def intern(state: _State) -> int:
            n = numbers.get(state)
            if n is None:
                n = numbers[state] = len(states)
                states.append(state)
            return n

        # an expansion depends on k only through k > 0: state n is
        # expanded under the key n with actions left, ~n without
        expanded: Dict[int, Tuple[int, tuple]] = {}
        mass: Dict[int, Fraction] = {}
        table = []
        state, f = _lumped({m: c for c, m in top})
        stack = [((), intern(state), f, depth)]
        while stack:
            trace, n, f, k = stack.pop()
            key = n if k else ~n
            got = expanded.get(key)
            if got is None:
                got = expanded[key] = _expand(states[n], k > 0, moves, intern)
            here, children = got
            if here:
                # one Fraction per distinct mass, shared by every trace with it
                v = f * here * step_den ** (k - low)
                share = mass.get(v)
                if share is None:
                    share = mass[v] = Fraction(v, scale)
                table.append((trace, share))
            if children:
                stack.extend(
                    [(trace + step, child, f * factor, k - 1) for step, child, factor in children]
                )
        table_out = tuple(table)
    return OutcomeDistribution(
        Fraction(t, scale), Fraction(d, scale), Fraction(s, scale), table_out
    )


# ---------------------------------------------------------------------------
# Sampling

# Pseudo-random source: Python's Mersenne Twister, drawn as 64-bit
# integers.  A draw x selects an outcome of exact probability mass acc
# exactly when x / 2**64 < acc, that is when x < ceil(acc * 2**64), so
# every comparison is between integers and a run is a pure function of
# its seed.


def _cutoff(acc: Fraction) -> int:
    """ceil(acc * 2**64): the draws below it are those below `acc`."""
    return -(-(acc.numerator << 64) // acc.denominator)


def _walker(g: ThreadGraph, env: Environment, depth: int):
    """A sampler for `g`: seed -> (outcome, performed action nodes).

    Each choice node's cumulative cutoffs are computed up front, each
    action node's reply cutoff when it is first performed.
    """
    if depth < 0:
        raise ValueError("depth must be a natural number")
    threads.head_distributions(g, threads.reachable(g))  # a cycle through choices raises here
    nodes = g.nodes
    choices: Dict[int, Tuple[Tuple[int, int], ...]] = {}
    for ref, node in enumerate(nodes):
        if isinstance(node, Prob):
            acc = meadow.ZERO
            cuts = []
            for w, target in node.branches:
                acc += w
                cuts.append((_cutoff(acc), target))
            choices[ref] = tuple(cuts)
    reply_cuts: Dict[int, int] = {}

    def run(seed: int) -> Tuple[str, List[int]]:
        draw = random.Random(seed).getrandbits
        ref = g.root
        performed: List[int] = []
        k = depth
        while True:
            node = nodes[ref]
            if isinstance(node, Post):
                if k == 0:
                    return SURVIVING, performed
                cut = reply_cuts.get(ref)
                if cut is None:
                    cut = reply_cuts[ref] = _cutoff(env.reply(node.action))
                performed.append(ref)
                ref = node.then_ if draw(64) < cut else node.else_
                k -= 1
            elif isinstance(node, Prob):
                x = draw(64)
                for cut, target in choices[ref]:
                    if x < cut:
                        break
                ref = target  # the last cutoff is 2**64, above every draw
            elif isinstance(node, Stop):
                return TERMINATE, performed
            elif isinstance(node, DeadEnd):
                return DEADLOCK, performed
            else:
                raise UnresolvedFork(_FORK_MESSAGE)

    return run


def sample_run(
    g: ThreadGraph,
    env: Environment,
    depth: int,
    seed: int,
) -> Tuple[str, Trace]:
    """One pseudo-random execution; identical seeds replay identically."""
    tag, performed = _walker(g, env, depth)(seed)
    return tag, tuple(str(g.nodes[ref].action) for ref in performed)


def sample_outcomes(
    g: ThreadGraph,
    env: Environment,
    depth: int,
    seed: int,
    runs: int,
) -> Dict[str, Fraction]:
    """Empirical outcome frequencies over `runs` samples.

    Per-run seeds are `seed + index`, so the result does not depend on
    the order in which runs are executed.
    """
    if runs < 1:
        raise ValueError("runs must be a positive integer")
    run = _walker(g, env, depth)
    counts = {TERMINATE: 0, DEADLOCK: 0, SURVIVING: 0}
    for index in range(runs):
        counts[run(seed + index)[0]] += 1
    return {tag: Fraction(count, runs) for tag, count in counts.items()}
