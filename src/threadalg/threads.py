"""Finite-state probabilistic threads and their canonical forms.

A thread performs actions one at a time; after each action the
execution environment answers True or False and the thread continues
with the branch selected by the answer.  Between actions a thread may
make internal choices according to exact discrete probability
distributions.  The threads handled here are *regular*: they are
represented by finite graphs whose unfoldings are the (possibly
infinite) behaviours, with recursion expressed by cycles.

`normalize` computes a canonical graph: at most one distribution layer
above each deterministic node, weights in (0, 1] summing to exactly 1,
duplicate branch targets merged, branches sorted by an intrinsic total
order on nodes, behaviourally equal nodes identified, and the internal
action's two branches made equal (the environment always answers True
to it).  Two regular threads have the same behaviour exactly when
their canonical graphs are equal; `bisimilar` decides this, and
`equal_up_to` compares finite-depth approximations.  The core of
`normalize`, `quotient`, gathers from the root the nodes that a
distribution function reaches and lumps them; `normalize` gives it
head distributions over tau-closed nodes, and abstraction gives it
escape distributions directly.

`head_distributions` flattens choice layers for `normalize` (one
reference at a time, as its gather asks), for abstraction and for
outcome analysis alike: each reference gets its distribution over
deterministic nodes as integer numerators over one reduced
denominator, computed on an explicit stack, so neither a Fraction
product nor the Python stack grows with the nesting.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable
from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm
from operator import attrgetter
from typing import Callable, Dict, Generator, List, Optional, Sequence, Set, Tuple, Union

from . import meadow
from .errors import (
    MalformedProbability,
    NonRegularProduct,
    ParseError,
    UnguardedRecursion,
    WeightSumNotOne,
)

# ---------------------------------------------------------------------------
# Records: the immutable values of every module

_set = object.__setattr__  # how a record's `__init__` sets its fields


def _values_getter(fields: Tuple[str, ...]) -> Callable[[object], tuple]:
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        get = attrgetter(*fields)
        return lambda record: (get(record),)
    return lambda record: ()


class Record:
    """An immutable value with named fields.

    A subclass has its base's fields and the ones it names in
    `__slots__`, or those it names in `_fields` when a slot is no field,
    and sets them in its `__init__` with `_set`.  Two records are equal
    when they are of one class with equal fields; a record hashes as the
    tuple of its fields and prints as `Name(field=value, ...)`, as a
    frozen dataclass would, and its attributes can be neither assigned
    nor deleted.  These methods are written once here, so that importing
    the package generates no code: `dataclasses` imports `inspect` and
    compiles each class's methods from source, which took about a third
    of the time `import threadalg.cli` takes.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        cls._values = staticmethod(_values_getter(cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


# ---------------------------------------------------------------------------
# Actions


@total_ordering
class Action(Record):
    """A basic action `focus.method`, or the internal action tau.

    The focus names a service; the method is what that service is asked
    to process.  Tau is the internal action: it is distinct from every
    basic action and always receives the answer True.  Actions are
    ordered by focus, then method.
    """

    __slots__ = ("focus", "method")

    def __init__(self, focus: str, method: str):
        _set(self, "focus", focus)
        _set(self, "method", method)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.focus, self.method) < (other.focus, other.method)
        return NotImplemented

    @property
    def is_tau(self) -> bool:
        return not self.focus

    def __str__(self) -> str:
        return "tau" if self.is_tau else f"{self.focus}.{self.method}"


TAU = Action("", "tau")

#: Focus used for action names written without an explicit `focus.` part.
MAIN_FOCUS = "main"
#: A focus or method name, as `.pglb` and the term syntax spell it.
NAME = r"[A-Za-z_][A-Za-z0-9_]*(?::[A-Za-z0-9_]+)*"
#: A basic action in canonical spelling: `m`, `f.m` or `f.m(rational)`.
ACTION_NAME = rf"{NAME}(?:\.{NAME}(?:\({meadow.RATIONAL}\))?)?"


def basic(focus: str, method: str) -> Action:
    if not focus or not method:
        raise ValueError("focus and method must be nonempty")
    return Action(focus, method)


def action_from_name(name: str) -> Action:
    """`f.m` names a service method; a bare name gets the focus `main`."""
    if name == "tau":
        return TAU
    focus, dot, method = name.partition(".")
    if dot:
        return basic(focus, method)
    return basic(MAIN_FOCUS, name)


def canonical_name(name: str, position=None) -> str:
    """`name` with its `(rational)` argument in lowest terms, as the term
    syntax spells it: `random.get(2/4)` is `random.get(1/2)`.  A
    malformed argument is a ParseError at `position`."""
    head, paren, arg = name.partition("(")
    if paren and not arg.endswith(")"):
        raise ParseError(f"malformed action name {name!r}", position)
    if paren:
        name = f"{head}({meadow.format_rational(meadow.parse_rational(arg[:-1], position))})"
    return name


# ---------------------------------------------------------------------------
# Choice weights and graph nodes

_RANGE = {True: "[0, 1]", False: "(0, 1]"}
_EXACT = (Fraction, int, bool)  # the types a weight may have


def check_weights(weights: Sequence[Fraction], closed: bool, label: str) -> None:
    """Require rational weights in [0, 1] (`closed`) or (0, 1] that sum to exactly 1.

    They are compared as integers and summed as numerators over the lcm
    of their denominators; any other number is a MalformedProbability.
    """
    low, num, den = (0 if closed else 1), 0, 1
    for w in weights:
        if type(w) not in _EXACT:
            raise MalformedProbability(f"{label} {w!r} is not an exact rational")
        n, d = w.numerator, w.denominator
        if not low <= n <= d:
            raise MalformedProbability(f"{label} {w} outside {_RANGE[closed]}")
        if d == den:
            num += n
        else:
            g = gcd(den, d)
            num, den = num * (d // g) + n * (den // g), den // g * d
    if num != den:
        raise WeightSumNotOne(f"{label}s sum to {Fraction(num, den)}, not 1")


def probability_weights(weights: Sequence) -> List[Fraction]:
    """The weights as Fractions, checked to lie in [0, 1] and sum to 1."""
    ws = [w if type(w) is Fraction else Fraction(w) for w in weights]
    check_weights(ws, True, "weight")
    return ws


class Stop(Record):
    """Successful termination."""

    __slots__ = ()


class DeadEnd(Record):
    """Inaction: no further steps are taken and the thread never terminates."""

    __slots__ = ()


class Post(Record):
    """Perform `action`, continue at `then_` on True and `else_` on False."""

    __slots__ = ("action", "then_", "else_")

    def __init__(self, action: Action, then_: int, else_: int):
        _set(self, "action", action)
        _set(self, "then_", then_)
        _set(self, "else_", else_)


class Fork(Record):
    """Fork off the thread at `forked` and continue at `then_`.

    A fork produces a reply like an action does, but no basic action is
    involved and the False branch is never taken (fork capacity is
    assumed unlimited); `else_` is kept for structural completeness.
    """

    __slots__ = ("forked", "then_", "else_")

    def __init__(self, forked: int, then_: int, else_: int):
        _set(self, "forked", forked)
        _set(self, "then_", then_)
        _set(self, "else_", else_)


class Prob(Record):
    """Internal choice over branches; weights lie in (0, 1] and sum to 1.

    Weights are checked where they enter the library: `Prob(...)` checks
    them, as `build` (through `probability_weights`), scheduler turns,
    service replies and env tables do.  The library builds the choices
    it checked or made itself (`build`'s kept branches, copies, products,
    canonical forms) with `_built_prob`, which does not check them again.
    The check is the method `__post_init__`, called through the class,
    so that a profiler can count the checks by replacing it there.
    """

    __slots__ = ("branches",)

    def __init__(self, branches: Tuple[Tuple[Fraction, int], ...]):
        _set(self, "branches", branches)
        self.__post_init__()

    def __post_init__(self):
        if not self.branches:
            raise MalformedProbability("empty probabilistic choice")
        check_weights([w for w, _ in self.branches], False, "branch weight")


def _built_prob(branches: Tuple[Tuple[Fraction, int], ...]) -> Prob:
    """A Prob over weights that were checked already or are exact by
    construction, built without `__post_init__`'s check."""
    node = object.__new__(Prob)
    _set(node, "branches", branches)
    return node


Node = Union[Stop, DeadEnd, Post, Fork, Prob]

STOP = Stop()
DEAD = DeadEnd()


class ThreadGraph(Record):
    """A regular thread: a node table plus the root reference.

    `canonical` is set only by `normalize`, on the graphs it returns, so
    that normalizing one of them again costs nothing; it is no field, so
    it takes no part in equality, hashing or printing.
    """

    __slots__ = ("nodes", "root", "canonical")
    _fields = ("nodes", "root")

    def __init__(self, nodes: Tuple[Node, ...], root: int):
        _set(self, "nodes", nodes)
        _set(self, "root", root)
        _set(self, "canonical", False)

    def __len__(self) -> int:
        return len(self.nodes)


def _children(node: Node) -> Tuple[int, ...]:
    if isinstance(node, Post):
        return (node.then_, node.else_)
    if isinstance(node, Fork):
        return (node.forked, node.then_, node.else_)
    if isinstance(node, Prob):
        return tuple(t for _, t in node.branches)
    return ()


def _map_refs(node: Node, mapping) -> Node:
    if isinstance(node, Post):
        return Post(node.action, mapping[node.then_], mapping[node.else_])
    if isinstance(node, Fork):
        return Fork(mapping[node.forked], mapping[node.then_], mapping[node.else_])
    if isinstance(node, Prob):
        return _built_prob(tuple((w, mapping[t]) for w, t in node.branches))
    return node


def reachable(g: ThreadGraph) -> List[int]:
    """References reachable from the root, in breadth-first order."""
    seen = {g.root}
    order = [g.root]
    i = 0
    while i < len(order):
        for c in _children(g.nodes[order[i]]):
            if c not in seen:
                seen.add(c)
                order.append(c)
        i += 1
    return order


def trim(g: ThreadGraph) -> ThreadGraph:
    """Drop unreachable nodes, renumbering in breadth-first order.

    Only `build` needs this: it copies each `rec` equation's right-hand
    side into the slot reserved for it, which can leave the original
    unreachable, and it assembles zero-weight branches and equations
    the body never reaches.  The product constructions and every
    consumer walk from the root, so their graphs are passed on as built.
    """
    order = reachable(g)
    mapping = {old: new for new, old in enumerate(order)}
    nodes = tuple(_map_refs(g.nodes[old], mapping) for old in order)
    return ThreadGraph(nodes, 0)


def run_stackless(walk: Generator):
    """Run a recursion coded as generators on an explicit stack.

    Each `yield sub` in a generator suspends it until the generator
    `sub` has run the same way, then resumes it with the value `sub`
    returned; the result is what `walk` returns, and an exception raised
    in any of them propagates.  The term parser, `build` and its guard
    search, `project` and `abstract_tau`'s depth-first search run on it.
    """
    stack = [walk]
    value = None
    while True:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(sub)
            value = None


class GraphBuilder:
    """Accumulates graph nodes, sharing structurally identical ones.

    Reserved slots support cyclic graphs: `build` reserves one per
    `rec` equation and copies the equation's node into it with
    `copy_into` once the guard search has left it.

    Keyed slots are the worklist of the product constructions:
    `slot(key)` reserves one node per key and queues the key, and
    `expand` fills the queued slots in order.  More than `bound` keys
    raise NonRegularProduct, naming the keys as `label`; nodes from
    `add` do not count.
    """

    def __init__(self, bound: Optional[int] = None, label: str = ""):
        self._nodes: List[Node] = []
        self._index: Dict[Node, int] = {}
        self._slots: Dict[Hashable, int] = {}
        self._queue = deque()
        self._bound = bound
        self._label = label

    def add(self, node: Node) -> int:
        # one lookup, so a new node is hashed once
        ref = self._index.setdefault(node, len(self._nodes))
        if ref == len(self._nodes):
            self._nodes.append(node)
        return ref

    def append(self, node: Node) -> int:
        """A new node, shared with no other: the caller interns it."""
        self._nodes.append(node)
        return len(self._nodes) - 1

    def reserve(self) -> int:
        return self.append(None)  # type: ignore[arg-type]

    def copy_into(self, dst: int, src: int) -> None:
        self._nodes[dst] = self._nodes[src]

    def slot(self, key: Hashable) -> int:
        """The node reserved for `key`, queued for `expand` on first sight."""
        ref = self._slots.get(key)
        if ref is None:
            if self._bound is not None and len(self._slots) >= self._bound:
                raise NonRegularProduct(f"more than {self._bound} {self._label}")
            ref = self._slots[key] = self.reserve()
            self._queue.append(key)
        return ref

    def expand(self, content: Callable[[Hashable], Node]) -> None:
        """Fill queued slots in order with `content(key)`, which may queue more."""
        queue, slots, nodes = self._queue, self._slots, self._nodes
        while queue:
            key = queue.popleft()
            nodes[slots[key]] = content(key)

    def graph(self, root: int) -> ThreadGraph:
        assert all(n is not None for n in self._nodes), "unfilled slot"
        return ThreadGraph(tuple(self._nodes), root)


# ---------------------------------------------------------------------------
# Terms: the syntax trees that `build` turns into graphs


class Term(Record):
    """Base class for thread expressions."""

    __slots__ = ()


class TStop(Term):
    __slots__ = ()


class TDead(Term):
    __slots__ = ()


class TPost(Term):
    __slots__ = ("action", "then_", "else_")

    def __init__(self, action: Action, then_: Term, else_: Term):
        _set(self, "action", action)
        _set(self, "then_", then_)
        _set(self, "else_", else_)


class TFork(Term):
    __slots__ = ("forked", "then_", "else_")

    def __init__(self, forked: Term, then_: Term, else_: Term):
        _set(self, "forked", forked)
        _set(self, "then_", then_)
        _set(self, "else_", else_)


class TProb(Term):
    __slots__ = ("branches",)

    def __init__(self, branches: Tuple[Tuple[Fraction, Term], ...]):
        _set(self, "branches", branches)


class TVar(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class TRec(Term):
    """A system of recursion equations together with the selected variable."""

    __slots__ = ("equations", "body")

    def __init__(self, equations: Tuple[Tuple[str, Term], ...], body: str):
        _set(self, "equations", equations)
        _set(self, "body", body)


def tprefix(action: Action, term: Term) -> Term:
    """Action prefixing: perform the action, then continue either way."""
    return TPost(action, term, term)


def tchoice(left: Term, weight: Fraction, right: Term) -> Term:
    """Binary probabilistic choice: `left` with `weight`, else `right`."""
    w = Fraction(weight)
    return TProb(((w, left), (1 - w, right)))


def build(term: Term) -> ThreadGraph:
    """Graph whose unfolding is the given closed term.

    Recursion must be guarded: no dependency cycle among equations may
    avoid action tests.  Zero-weight branches are dropped on input; a
    weight of one collapses the choice; weights outside [0, 1] are
    rejected.
    """
    b = GraphBuilder()
    env: Dict[str, int] = {}  # the slot each variable in scope names
    # per equation slot: the ref of its right-hand side, and the slots
    # that side reaches outside any action test
    rhs: Dict[int, int] = {}
    exposed: Dict[int, Set[int]] = {}
    names: Dict[int, str] = {}

    def walk(term: Term, sink: Optional[Set[int]]):
        # the ref of `term`; unguarded slots go into `sink`.  A variable
        # is guarded only under an action test: choices (zero-weight
        # branches too) and forks do not guard, since their finite-depth
        # approximations consume no depth
        if isinstance(term, TStop):
            return b.add(STOP)
        if isinstance(term, TDead):
            return b.add(DEAD)
        if isinstance(term, TPost):
            then_ = yield walk(term.then_, None)
            # `tprefix` shares one object between the branches: walk it once
            else_ = then_ if term.else_ is term.then_ else (yield walk(term.else_, None))
            return b.add(Post(term.action, then_, else_))
        if isinstance(term, TProb):
            weights = probability_weights([w for w, _ in term.branches])
            kept = []
            for w, (_, t) in zip(weights, term.branches):
                ref = yield walk(t, sink)
                if w != 0:
                    kept.append((w, ref))
            return kept[0][1] if len(kept) == 1 else b.add(_built_prob(tuple(kept)))
        if isinstance(term, TFork):
            forked = yield walk(term.forked, sink)
            then_ = yield walk(term.then_, sink)
            else_ = yield walk(term.else_, sink)
            return b.add(Fork(forked, then_, else_))
        if isinstance(term, TVar):
            if term.name not in env:
                raise ValueError(f"unbound variable {term.name!r}")
            ref = env[term.name]
        elif isinstance(term, TRec):
            own = [n for n, _ in term.equations]
            if len(set(own)) != len(own):
                raise ValueError("duplicate equation variable")
            if term.body not in own:
                raise ValueError(f"selected variable {term.body!r} has no equation")
            shadowed = {n: env[n] for n in own if n in env}
            env.update((n, b.reserve()) for n in own)
            for name, t in term.equations:
                # inner systems restore what they shadow: still ours
                slot = env[name]
                names[slot] = name
                exposed[slot] = set()
                rhs[slot] = yield walk(t, exposed[slot])
            ref = env[term.body]
            for n in own:
                del env[n]
            env.update(shadowed)
        else:
            raise TypeError(f"not a term: {term!r}")
        # a variable, or a system's selected equation, occurs here
        if sink is not None:
            sink.add(ref)
        return ref

    root = run_stackless(walk(term, None))
    # a cycle along unguarded occurrences has no unique solution.  A
    # slot is filled once the search leaves it: the slots its side
    # reaches unguarded are filled by then, and a side that collapsed
    # to a slot is one of them
    done: Dict[int, bool] = {}  # False while on the search's path

    def fill(slot: int):
        done[slot] = False
        for dep in exposed[slot]:
            if dep not in done:
                yield fill(dep)
            elif not done[dep]:
                raise UnguardedRecursion(
                    f"variable {names[dep]!r} recurs without an action test guarding it"
                )
        done[slot] = True
        b.copy_into(slot, rhs[slot])

    for start in exposed:
        if start not in done:
            run_stackless(fill(start))
    return trim(b.graph(root))


def nary_prob(weights: Sequence[Fraction], targets: Sequence[Term]) -> Term:
    """Right-nested binary choices realizing a distribution over targets.

    Folded in a loop from the last target of positive weight back to
    the first: each level chooses its target with that target's weight
    over the mass from there on, which is positive.  Weights must sum to
    exactly one.
    """
    if not targets or len(weights) != len(targets):
        raise ValueError("weights and targets must be nonempty and equal length")
    ws = probability_weights(weights)
    last = max(k for k, w in enumerate(ws) if w)
    term, left = targets[last], ws[last]
    for k in reversed(range(last)):
        left += ws[k]
        h = ws[k] / left
        term = TProb(((h, targets[k]), (1 - h, term)))
    return term


# ---------------------------------------------------------------------------
# Canonical forms


def _tau_closed(node: Node) -> Node:
    # The internal action always answers True, so its else branch is dead.
    if isinstance(node, Post) and node.action.is_tau and node.else_ != node.then_:
        return Post(node.action, node.then_, node.then_)
    return node


def _lowest_terms(den: int, nums: Dict[int, int]) -> Tuple[int, Dict[int, int]]:
    c = gcd(den, *nums.values())
    if c == 1:
        return den, nums
    return den // c, {v: x // c for v, x in nums.items()}


def weighted_sum(terms) -> Tuple[int, Dict[int, int]]:
    """The sum of `p/q * nums` over the terms `(p, q, nums)`, exactly.

    `nums` maps references to integer numerators.  The result is
    `(den, {ref: numerator})` over the lcm of the `q`s, reduced once by
    `gcd(den, *numerators)`, so `den` is the lcm of the reduced
    denominators of the result; keys appear in the order the terms
    first reach them.
    """
    den = lcm(*[q for _, q, _ in terms])
    out: Dict[int, int] = {}
    for p, q, nums in terms:
        f = p * (den // q)
        for v, x in nums.items():
            out[v] = out.get(v, 0) + f * x
    return _lowest_terms(den, out)


def head_distributions(g: ThreadGraph, refs) -> Dict[int, Tuple[int, Dict[int, int]]]:
    """For each reference, its distribution over deterministic nodes.

    A distribution is `(den, {deterministic ref: numerator})`, keys in
    the order a walk of the branches first reaches them, reduced once
    per choice node as `weighted_sum` reduces, so no Fraction is built
    and `den` is the lcm of the reduced weights' denominators.  The walk
    keeps its own stack: guardedness keeps choice layers acyclic, and a
    cycle through choices raises UnguardedRecursion, however deep the
    layers nest.
    """
    dist: Dict[int, Tuple[int, Dict[int, int]]] = {}
    for r in refs:
        _head(g.nodes, r, dist)
    return dist


def _head(
    nodes: Sequence[Node], r: int, dist: Dict[int, Tuple[int, Dict[int, int]]]
) -> Tuple[int, Dict[int, int]]:
    """The head distribution of `r`, computed into `dist` together with
    those of the choices below it that `dist` does not hold yet."""
    stack = [r]
    expanded = set()
    while stack:
        c = stack[-1]
        if c in dist:
            stack.pop()
            continue
        node = nodes[c]
        if not isinstance(node, Prob):
            dist[c] = (1, {c: 1})
            stack.pop()
            continue
        inner = [t for _, t in node.branches if isinstance(nodes[t], Prob)]
        missing = [t for t in inner if t not in dist]
        if missing:
            # met again before its branches are done: a choice cycle
            if c in expanded:
                raise UnguardedRecursion("cycle through probabilistic choices")
            expanded.add(c)
            stack.extend(reversed(missing))
            continue
        stack.pop()
        if inner:
            dist[c] = weighted_sum([
                (w.numerator, w.denominator * dist[t][0], dist[t][1])
                if isinstance(nodes[t], Prob)
                else (w.numerator, w.denominator, {t: 1})
                for w, t in node.branches
            ])
            continue
        # deterministic targets only, the common case: one numerator
        # per branch over the lcm of the weights' denominators, which
        # only a repeated target can leave reducible
        den = lcm(*[w.denominator for w, _ in node.branches])
        nums: Dict[int, int] = {}
        for w, t in node.branches:
            nums[t] = nums.get(t, 0) + w.numerator * (den // w.denominator)
        dist[c] = (den, nums) if len(nums) == len(node.branches) else _lowest_terms(den, nums)
    return dist[r]


def _ranked_class_dists(
    supports: List[Tuple[Tuple[int, int], ...]], block: List[int]
) -> Tuple[List[int], List[Tuple[Tuple[int, int], ...]]]:
    """Rank the block-level distribution of every child by its exact value.

    `supports[k]` holds the `(node position, numerator)` pairs of child
    `k`, and `block[p]` the block of the node at position `p`.  Weights
    are integer numerators over one common denominator, so a
    distribution is a tuple of `(block, numerator)` int pairs sorted by
    block, and ordering these tuples orders the exact distributions.
    Returns each child's rank and the distinct distributions in rank
    order.  Weights are added only where two support nodes share a block.
    """
    dist_of: List[Tuple[Tuple[int, int], ...]] = []
    for items in supports:
        if len(items) == 1:
            d, w = items[0]
            dist_of.append(((block[d], w),))
        else:
            agg: Dict[int, int] = {}
            for d, w in items:
                bid = block[d]
                agg[bid] = agg.get(bid, 0) + w
            dist_of.append(tuple(sorted(agg.items())))
    ordered = sorted(set(dist_of))
    index = {k: i for i, k in enumerate(ordered)}
    return [index[k] for k in dist_of], ordered


def refine(
    supports: List[Tuple[Tuple[int, int], ...]],
    slots: List[Sequence[int]],
    keys: List,
    budget: Optional[int] = None,
) -> Optional[Tuple[List[int], List[int], List[int], List[Tuple[Tuple[int, int], ...]]]]:
    """Lump nodes with equal behaviour by partition refinement.

    Node `p` starts in the block of `keys[p]`, numbered by the sorted
    keys.  `slots[p]` lists its children, each an index into `supports`,
    the distributions as `_ranked_class_dists` takes them.  A round signs
    each node with its block and its slots' distribution ranks, and
    renumbers the blocks by sorted signature, so the numbering depends
    on the keys and the distributions, not on node positions.  The
    rounds stop when one makes no more blocks than the one before, since
    a round only splits blocks and then keeps their numbers too, and
    stop without signing once every node is a block of its own.  A
    round costs the node count; `None` is returned once the rounds would
    cost more than `budget`.

    Returns each node's final block, one node of each block, and
    the ranks and distributions of the last round, which ran on the
    final blocks.
    """
    ranking = {k: i for i, k in enumerate(sorted(set(keys)))}
    block = [ranking[k] for k in keys]
    count = len(ranking)
    rounds = 0
    while True:
        rounds += 1
        if budget is not None and rounds * len(keys) > budget:
            return None
        rank, dists = _ranked_class_dists(supports, block)
        if count == len(keys):
            break
        sigs = [(b, *[rank[k] for k in slot]) for b, slot in zip(block, slots)]
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        if len(ranking) == count:
            break
        count = len(ranking)
        block = [ranking[sig] for sig in sigs]
    rep = dict(zip(block, range(len(block))))
    return block, [rep[c] for c in range(count)], rank, dists


def normalize(g: ThreadGraph) -> ThreadGraph:
    """The canonical graph of a regular thread.

    Idempotent, and two graphs normalize to equal values exactly when
    they have the same behaviour.  Equality of canonical graphs is
    therefore plain structural equality.  The result is marked canonical
    and returned unchanged when normalized again.

    Weights are not checked again: they were checked where they entered
    the library.  A head distribution is computed only for the nodes
    that `quotient` gathers; the rest of the graph is walked only when
    the gather skipped a tau step's else branch, so that a cycle through
    choices is unguarded recursion wherever it is reachable.
    """
    if g.canonical:
        return g
    nodes = g.nodes
    head: Dict[int, Tuple[int, Dict[int, int]]] = {}
    skipped: List[int] = []  # else branches of tau steps, which the gather passes by

    def det(r: int) -> Node:
        node = nodes[r]
        closed = _tau_closed(node)
        if closed is not node:
            skipped.append(node.else_)
        return closed

    out = quotient(g.root, lambda r: head[r] if r in head else _head(nodes, r, head), det)
    if any(e not in head for e in skipped):
        for r in reachable(g):
            _head(nodes, r, head)
    return out


def quotient(root: int, support, det) -> ThreadGraph:
    """The canonical graph of the behaviour at `root`.

    `support(ref)` is the distribution of `ref` over deterministic refs
    as `(den, {ref: numerator})`, as `head_distributions` gives it, and
    `det(ref)` is the tau-closed deterministic node at such a ref.  The
    nodes gathered are those that the supports of the root, and of the
    gathered nodes' children, reach, so every class of the result is
    reachable.  Equal behaviours are lumped by `refine`, from blocks
    keyed by node type and action, so the numbering depends on neither
    refs nor denominators.
    """
    head: Dict[int, Tuple[int, Dict[int, int]]] = {}
    dets: Dict[int, Node] = {}
    todo = [root]
    while todo:
        ref = todo.pop()
        if ref not in head:
            head[ref] = support(ref)
            for v in head[ref][1]:
                if v not in dets:
                    dets[v] = det(v)
                    todo.extend(_children(dets[v]))
    # the rounds run on lists: node `p` is `refs[p]`, and child `k`, the
    # `k`-th ref `head` holds, has the distribution `supports[k]`
    refs = sorted(dets)
    position = {r: p for p, r in enumerate(refs)}
    child = {c: k for k, c in enumerate(head)}
    slots = [[child[c] for c in _children(dets[r])] for r in refs]
    # every support weight becomes an integer numerator over `den`, the
    # lcm of their denominators; only the quotient's choices see a Fraction
    den = lcm(*{hden for hden, _ in head.values()})
    supports = [
        tuple((position[d], x * (den // hden)) for d, x in nums.items())
        for hden, nums in head.values()
    ]

    def base_key(r: int):
        node = dets[r]
        if isinstance(node, Stop):
            return (0, "", "")
        if isinstance(node, DeadEnd):
            return (1, "", "")
        if isinstance(node, Post):
            return (2, node.action.focus, node.action.method)
        return (3, "", "")

    # class c is node c, and every distribution rank is some class's
    # slot or the root's
    _, reps, rank, dists = refine(supports, slots, [base_key(r) for r in refs])
    n_classes = len(reps)

    # choice nodes are interned by distribution rank and numbered in
    # the order of their (weight, target) branch tuples, which over the
    # common denominator is the order of their (numerator, target) tuples
    branches = {k: tuple((w, c) for c, w in d) for k, d in enumerate(dists) if len(d) > 1}
    prob_id = {
        k: n_classes + i for i, k in enumerate(sorted(branches, key=branches.__getitem__))
    }

    def resolve(k: int) -> int:
        j = rank[k]
        return dists[j][0][0] if len(dists[j]) == 1 else prob_id[j]

    nodes: List[Node] = [None] * (n_classes + len(prob_id))  # type: ignore[list-item]
    for c, p in enumerate(reps):
        node = dets[refs[p]]
        if isinstance(node, Stop):
            nodes[c] = STOP
        elif isinstance(node, DeadEnd):
            nodes[c] = DEAD
        elif isinstance(node, Post):
            nodes[c] = Post(node.action, *[resolve(k) for k in slots[p]])
        else:
            nodes[c] = Fork(*[resolve(k) for k in slots[p]])
    # numerators repeat across choices: build each weight's Fraction once
    weight = {w: Fraction(w, den) for w in {w for b in branches.values() for w, _ in b}}
    for k, i in prob_id.items():
        nodes[i] = _built_prob(tuple((weight[w], c) for w, c in branches[k]))
    out = ThreadGraph(tuple(nodes), resolve(child[root]))
    _set(out, "canonical", True)
    return out


# ---------------------------------------------------------------------------
# Projections and equality


def project(n: int, g: ThreadGraph) -> ThreadGraph:
    """The approximation of `g` cut off after `n` action steps.

    Depth zero is inaction.  Performing an action consumes one level;
    probabilistic choices and forks are passed through unchanged, so
    only action tests count towards the depth.
    """
    if n < 0:
        raise ValueError("projection depth must be a natural number")
    b = GraphBuilder()
    # the ref of each (node, depth) pair; None while its walk is under way
    memo: Dict[Tuple[int, int], Optional[int]] = {}

    def walk(r: int, k: int):
        node = g.nodes[r]
        if k == 0 or isinstance(node, DeadEnd):
            return b.add(DEAD)
        if isinstance(node, Stop):
            return b.add(STOP)
        memo[r, k] = None
        kc = k - 1 if isinstance(node, Post) else k
        refs = []
        for c in _children(node):
            if (c, kc) not in memo:
                memo[c, kc] = yield walk(c, kc)
            elif memo[c, kc] is None:
                # met again inside its own walk: a depth-free cycle
                raise UnguardedRecursion("cycle through probabilistic choices")
            refs.append(memo[c, kc])
        if isinstance(node, Post):
            return b.add(Post(node.action, *refs))
        if isinstance(node, Fork):
            return b.add(Fork(*refs))
        return b.add(_built_prob(tuple((w, c) for (w, _), c in zip(node.branches, refs))))

    return b.graph(run_stackless(walk(g.root, n)))


def equal_up_to(n: int, g1: ThreadGraph, g2: ThreadGraph) -> bool:
    """Whether the depth-`n` approximations have equal canonical forms.

    Classes equal up to a depth only split as it grows, so from the two
    graphs' node count on this is `bisimilar`; with forks it projects.
    """
    if n >= len(g1) + len(g2) and not any(isinstance(v, Fork) for v in (*g1.nodes, *g2.nodes)):
        return bisimilar(g1, g2)
    return normalize(project(n, g1)) == normalize(project(n, g2))


def bisimilar(g1: ThreadGraph, g2: ThreadGraph) -> bool:
    """Exact behavioural equality of regular threads, at every depth."""
    return normalize(g1) == normalize(g2)
