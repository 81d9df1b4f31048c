"""Merging threads into one under a pluggable scheduling strategy.

A strategy is a control state plus two functions: `schedule` gives,
for the current number of threads, a history view and a control state,
the exact probability that each thread gets the next turn; `update`
transforms the control state after a turn.  The interleaving history
records one pair per step: which thread took the turn and how many
threads remained afterwards.

One interleaving step works on the head of the chosen thread:

* a probabilistic head distributes through the step unchanged;
* an action head performs the action, both reply branches continuing
  with the rest of the threads, history and state extended;
* a terminated thread leaves the pool (termination only survives to
  the end if it is the last thread);
* an inactive thread leaves the pool too, but wraps the remainder in
  `deadlock_at_termination`, so the whole becomes inactive once the
  others are done;
* a forking head turns into an internal step that appends the forked
  thread at the end of the pool (a fork never fails).

Schedulers formally see the entire history, but a finite-state
interleaving of cyclic threads exists only when the strategy depends
on finitely much of it: the `digest` of a strategy trims the history
to the part it actually uses, and the engine keys its state space on
the trimmed view.

The engine numbers every distinct pair of history view and control
state once, on first sight, and works on the numbers from then on: a
product state is `(sd, number, refs)` (whether the product deadlocks
at termination, the pair's number, the threads' input nodes), the
pair after a turn is memoised on `(number, n, i, step id)` and the
checked turn vector on `(n, number)`, so neither a view nor a control
state is hashed again on the way through the product.  It interns the
nodes it builds for one turn on integer keys that are equal exactly
when the nodes are structurally equal: a thread's choice on its weight
tuple's id (numbered once per distinct tuple of the normalized input
threads) and the output references of its branches, a step on its
action's id (numbered once per distinct action of the input threads, a
fork's step using tau's) and its two successors.  Keying a step on its
input node instead would split equal steps of different threads.  A
new node is appended to the shared `GraphBuilder` as it is, with no
Fraction hash and no weight check: the turn weights were checked once
per `(n, view, ctrl)` and a choice copies weights that were checked
when the thread was built.

`interleave(..., canonical=True)` returns the canonical form of the
product, as `threads.normalize` would, but builds no choice at all: the
engine expands the same product states in the same order, and each
holds its distribution one turn ahead as integer numerators over one
denominator (the turn weights times the inputs' head distributions)
where the raw product holds a turn choice with copies of the inputs'
choices under it.  `threads.quotient` lumps these distributions
directly, with a termination or inaction step's next state inlined.
"""

from __future__ import annotations

from collections.abc import Hashable
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple, Union

from . import meadow, threads
from .errors import MalformedProbability, MissingTurnWeights, ParseError, WeightSumNotOne
from .threads import (
    Action,
    DEAD,
    DeadEnd,
    Fork,
    GraphBuilder,
    Post,
    Prob,
    Record,
    STOP,
    Stop,
    TAU,
    ThreadGraph,
    _set,
)

History = Tuple[Tuple[int, int], ...]

DEFAULT_STATE_BOUND = 100_000


class BasicStep(Record):
    """The chosen thread performed an action (possibly the internal one)."""

    __slots__ = ("action",)

    def __init__(self, action: Action):
        _set(self, "action", action)


class ForkStep(Record):
    """The chosen thread forked off a new thread."""

    __slots__ = ()


class TerminationStep(Record):
    """The chosen thread terminated."""

    __slots__ = ()


class InactionStep(Record):
    """The chosen thread became inactive."""

    __slots__ = ()


StepKind = Union[BasicStep, ForkStep, TerminationStep, InactionStep]

FORK_STEP = ForkStep()
TERMINATION_STEP = TerminationStep()
INACTION_STEP = InactionStep()


def _keep_all(h: History) -> History:
    return h


def _keep_last(h: History) -> History:
    return h[-1:]


def _keep_none(h: History) -> History:
    return ()


class SchedulerSpec(Record):
    """A scheduling strategy.

    `schedule(n, h, s)` returns one probability per thread, summing to
    exactly one; `update(n, h, s, i, step)` is the control state after
    the 1-based thread `i` took a turn doing `step`, where `n` is the
    thread count at the moment of the turn.  Both receive the history
    as trimmed by `digest`; control states must be hashable and all
    three functions pure, because the engine asks `update` and `digest`
    once per distinct argument tuple and `schedule` once per
    `(n, view, ctrl)`, and reuses the answers.
    """

    __slots__ = ("initial_state", "schedule", "update", "digest")

    def __init__(
        self,
        initial_state: object,
        schedule: Callable[[int, History, object], Sequence[Fraction]],
        update: Callable[[int, History, object, int, StepKind], object],
        digest: Callable[[History], History] = _keep_all,
    ):
        _set(self, "initial_state", initial_state)
        _set(self, "schedule", schedule)
        _set(self, "update", update)
        _set(self, "digest", digest)


_DEFAULT = object()


# arena node kinds, looked up once per node in `_Engine.kind`
_PROB, _POST, _FORK, _STOP, _DEAD = range(5)
_KIND = {Prob: _PROB, Post: _POST, Fork: _FORK, Stop: _STOP, DeadEnd: _DEAD}


class _Engine:
    """Shared product construction for the interleaving operators."""

    def __init__(self, spec: SchedulerSpec, threads_: Sequence[ThreadGraph], bound: int):
        if not threads_:
            raise ValueError("at least one thread is required")
        self.spec = spec
        self.b = GraphBuilder(bound, "interleaving states")
        arena: List = []
        self.roots: List[int] = []
        for t in threads_:
            t = threads.normalize(t)
            shift = range(len(arena), len(arena) + len(t.nodes))
            arena.extend(threads._map_refs(node, shift) for node in t.nodes)
            self.roots.append(shift[t.root])
        self.arena = arena
        self.kind = [_KIND[type(node)] for node in arena]
        # a choice's weight-tuple id and a step's action id, 0 elsewhere;
        # interning keys are (weight id, targets) for a choice and
        # (action id, then, else) for a step
        weights: Dict[Tuple[Fraction, ...], int] = {}
        actions: Dict[Action, int] = {TAU: 0}
        self.ids = [
            weights.setdefault(tuple(w for w, _ in node.branches), len(weights))
            if isinstance(node, Prob)
            else actions.setdefault(node.action, len(actions))
            if isinstance(node, Post)
            else 0
            for node in arena
        ]
        self.interned: Dict[tuple, int] = {}
        # step ids: an action step's is its action's id, and fork,
        # termination and inaction follow the actions
        self.steps = [BasicStep(action) for action in actions]
        self.fork, self.termination, self.inaction = range(len(actions), len(actions) + 3)
        self.steps += [FORK_STEP, TERMINATION_STEP, INACTION_STEP]
        # every distinct (history view, control state) pair gets a number,
        # which the product states, `advance` and the turn memo key on
        self.numbers: Dict[tuple, int] = {}
        self.pairs: List[tuple] = []
        self.advanced: Dict[Tuple[int, int, int, int], int] = {}
        self.digested: Dict[History, History] = {}
        self.turns: Dict[Tuple[int, int], List[Tuple[int, Fraction]]] = {}

    def number(self, view: History, ctrl) -> int:
        """The number of the pair (view, ctrl), given on first sight."""
        pair = (view, ctrl)
        s = self.numbers.get(pair)
        if s is None:
            s = self.numbers[pair] = len(self.pairs)
            self.pairs.append(pair)
        return s

    def digest(self, h: History) -> History:
        """`spec.digest(h)`, asked once per distinct `h`."""
        view = self.digested.get(h)
        if view is None:
            view = self.digested[h] = self.spec.digest(h)
        return view

    def start(self, history: History, state) -> int:
        """The number of the pair the product starts in."""
        ctrl = self.spec.initial_state if state is _DEFAULT else state
        return self.number(self.digest(tuple(history)), ctrl)

    def advance(self, s: int, n: int, i: int, sid: int, count_after: int) -> int:
        """The pair after thread `i` (0-based) of `n` takes a turn doing
        step `sid`; `update` and `digest` are pure, so each is asked
        once per argument tuple."""
        key = (s, n, i, sid)
        t = self.advanced.get(key)
        if t is None:
            view, ctrl = self.pairs[s]
            ctrl2 = self.spec.update(n, view, ctrl, i + 1, self.steps[sid])
            view2 = self.digest(view + ((i + 1, count_after),))
            t = self.advanced[key] = self.number(view2, ctrl2)
        return t

    def positional(self, sd: bool, s: int, refs: Tuple[int, ...], i: int, r: int) -> int:
        """Output reference for thread `i` (0-based), at arena node `r`,
        taking the next turn in pair `s`; `refs[i]` is not read."""
        kind = self.kind[r]
        node = self.arena[r]
        n = len(refs)
        b = self.b
        if kind == _PROB:
            targets = tuple([self.positional(sd, s, refs, i, t) for _, t in node.branches])
            key = (self.ids[r], targets)
            ref = self.interned.get(key)
            if ref is None:
                branches = tuple((w, u) for (w, _), u in zip(node.branches, targets))
                ref = self.interned[key] = b.append(threads._built_prob(branches))
            return ref
        if kind == _POST:
            aid, action = self.ids[r], node.action
            s2 = self.advance(s, n, i, aid, n)
            t1 = b.slot((sd, s2, refs[:i] + (node.then_,) + refs[i + 1 :]))
            t2 = b.slot((sd, s2, refs[:i] + (node.else_,) + refs[i + 1 :]))
        elif kind == _FORK:
            aid, action = 0, TAU
            s2 = self.advance(s, n, i, self.fork, n + 1)
            t1 = t2 = b.slot(
                (sd, s2, refs[:i] + (node.then_,) + refs[i + 1 :] + (node.forked,))
            )
        elif kind == _STOP:
            if n == 1:
                return b.add(DEAD if sd else STOP)
            s2 = self.advance(s, n, i, self.termination, n - 1)
            return b.slot((sd, s2, refs[:i] + refs[i + 1 :]))
        else:
            if n == 1:
                return b.add(DEAD)
            s2 = self.advance(s, n, i, self.inaction, n - 1)
            return b.slot((True, s2, refs[:i] + refs[i + 1 :]))
        key = (aid, t1, t2)
        ref = self.interned.get(key)
        if ref is None:
            ref = self.interned[key] = b.append(Post(action, t1, t2))
        return ref

    def turn(self, n: int, s: int) -> List[Tuple[int, Fraction]]:
        """The threads (0-based) with a nonzero turn weight among `n` in
        pair `s`, each with its weight; `schedule` is pure, so its turn
        vector is asked and checked once per (n, view, ctrl)."""
        turns = self.turns.get((n, s))
        if turns is None:
            view, ctrl = self.pairs[s]
            weights = [meadow.as_probability(w) for w in self.spec.schedule(n, view, ctrl)]
            if len(weights) != n:
                raise ValueError(
                    f"scheduler returned {len(weights)} weights for {n} threads"
                )
            total = sum(weights)
            if total != 1:
                raise WeightSumNotOne(
                    f"turn probabilities sum to {meadow.format_rational(total)}, not 1"
                )
            turns = self.turns[n, s] = [(i, w) for i, w in enumerate(weights) if w]
        return turns

    def content(self, key: tuple) -> Prob:
        sd, s, refs = key
        turns = self.turn(len(refs), s)
        branches = tuple([(w, self.positional(sd, s, refs, i, refs[i])) for i, w in turns])
        # a single live branch still needs a node of its own: alias it
        # with a one-branch choice so the slot has content to hold
        return threads._built_prob(branches)

    def support(self, key: tuple) -> Tuple[int, Dict[int, int]]:
        """The distribution of slot `key` one turn ahead, as `weighted_sum`
        gives it: each turn weight times the integer head distribution of
        its thread's input node, over the steps that turn builds and the
        slots its thread's termination or inaction leads to.  The targets
        are made in the order `content` makes them."""
        sd, s, refs = key
        turns = self.turn(len(refs), s)
        terms = []
        for i, w in turns:
            den, nums = self.heads[refs[i]]
            out: Dict[int, int] = {}
            for t, x in nums.items():
                u = self.positional(sd, s, refs, i, t)
                out[u] = out.get(u, 0) + x
            terms.append((w.numerator, w.denominator * den, out))
        if len(turns) == 1 and len(out) == len(nums):
            # one sure turn to distinct targets: a canonical input's head
            # distribution, which is in lowest terms
            return den, out
        return threads.weighted_sum(terms)

    def run(self, root: int) -> ThreadGraph:
        self.b.expand(self.content)
        return self.b.graph(root)

    def quotient(self, root: int) -> ThreadGraph:
        """The canonical graph of the product at slot `root`.

        The slots are expanded as `run` expands them, so the state bound
        counts the same slots and the first error is the same one, but
        each holds its `support` where `run` builds a choice.  A slot's
        support names another slot only through a termination or
        inaction step, which leaves one thread less, so slots are
        inlined in order of their thread counts; the steps, `STOP` and
        `DEAD` are the deterministic nodes, tau-closed as the inputs."""
        heads: Dict[int, Tuple[int, Dict[int, int]]] = {}
        self.heads = [threads._head(self.arena, r, heads) for r in range(len(self.arena))]
        self.b.expand(self.support)
        nodes = self.b._nodes
        for _, r in sorted(self.b._slots.items(), key=lambda item: len(item[0][2])):
            den, nums = nodes[r]
            if any(type(nodes[t]) is tuple for t in nums):
                nodes[r] = threads.weighted_sum([
                    (x, den * nodes[t][0], nodes[t][1]) if type(nodes[t]) is tuple
                    else (x, den, {t: 1})
                    for t, x in nums.items()
                ])
        return threads.quotient(root, nodes.__getitem__, nodes.__getitem__)


def interleave(
    spec: SchedulerSpec,
    threads_: Sequence[ThreadGraph],
    history: History = (),
    state=_DEFAULT,
    *,
    state_bound: int = DEFAULT_STATE_BOUND,
    canonical: bool = False,
) -> ThreadGraph:
    """The single thread arising from scheduling the given threads.

    The product is returned as built, one choice node per turn and a
    copy of a thread's own choice under it.  With `canonical`, it is
    returned as `threads.normalize` would return it, built with no
    choice layers: every product state holds its integer distribution
    over the steps a turn leads to, and `threads.quotient` lumps these.
    The state bound and the errors are the same either way.
    """
    engine = _Engine(spec, threads_, state_bound)
    root = engine.b.slot((False, engine.start(history, state), tuple(engine.roots)))
    return engine.quotient(root) if canonical else engine.run(root)


def positional_interleave(
    spec: SchedulerSpec,
    i: int,
    threads_: Sequence[ThreadGraph],
    history: History = (),
    state=_DEFAULT,
    *,
    state_bound: int = DEFAULT_STATE_BOUND,
) -> ThreadGraph:
    """Interleaving conditioned on thread `i` (1-based) taking the next turn."""
    if not 1 <= i <= len(threads_):
        raise ValueError(f"position {i} outside 1..{len(threads_)}")
    engine = _Engine(spec, threads_, state_bound)
    s = engine.start(history, state)
    root = engine.positional(False, s, tuple(engine.roots), i - 1, engine.roots[i - 1])
    return engine.run(root)


def deadlock_at_termination(g: ThreadGraph) -> ThreadGraph:
    """Turn termination into inaction everywhere in the thread."""
    return ThreadGraph(
        tuple(DEAD if isinstance(n, Stop) else n for n in g.nodes), g.root
    )


# ---------------------------------------------------------------------------
# Built-in strategies


def cyclic_scheduler() -> SchedulerSpec:
    """Round-robin: the first turn goes to thread 1; afterwards, when
    the previous turn went to thread j, the next goes to thread
    (j + 1) mod n, reading a result of 0 as the last index n."""

    def schedule(n: int, h: History, s) -> Tuple[Fraction, ...]:
        if not h:
            k = 1
        else:
            j = h[-1][0]
            k = (j + 1) % n or n
        return tuple(meadow.ONE if i == k else meadow.ZERO for i in range(1, n + 1))

    def update(n, h, s, i, step):
        return s

    return SchedulerSpec(None, schedule, update, digest=_keep_last)


def uniform_scheduler() -> SchedulerSpec:
    """The first turn goes to thread 1; afterwards all threads are
    equally likely."""

    def schedule(n: int, h: History, s) -> Tuple[Fraction, ...]:
        if not h:
            return tuple(
                meadow.ONE if i == 1 else meadow.ZERO for i in range(1, n + 1)
            )
        return tuple(Fraction(1, n) for _ in range(n))

    def update(n, h, s, i, step):
        return s

    return SchedulerSpec(None, schedule, update, digest=_keep_last)


def lottery_scheduler(default_tickets: int = 1) -> SchedulerSpec:
    """Each thread holds tickets and wins the turn with probability
    tickets/total.  A forked thread enters with `default_tickets`;
    leaving threads take their tickets along."""
    if default_tickets < 1:
        raise ValueError("default_tickets must be at least 1")

    def tickets(s, n: int) -> Tuple[int, ...]:
        if s is None:
            return (default_tickets,) * n
        if len(s) != n:
            raise ValueError(f"ticket list has {len(s)} entries for {n} threads")
        return s

    def schedule(n: int, h: History, s) -> Tuple[Fraction, ...]:
        t = tickets(s, n)
        total = sum(t)
        return tuple(Fraction(x, total) for x in t)

    def update(n, h, s, i, step):
        t = tickets(s, n)
        if isinstance(step, ForkStep):
            return t + (default_tickets,)
        if isinstance(step, (TerminationStep, InactionStep)):
            return t[: i - 1] + t[i:]
        return t

    return SchedulerSpec(None, schedule, update, digest=_keep_none)


def builtin_scheduler(name: str) -> SchedulerSpec:
    """`cyclic`, `uniform`, or `lottery[:defaultTickets=N]`."""
    if name == "cyclic":
        return cyclic_scheduler()
    if name == "uniform":
        return uniform_scheduler()
    if name == "lottery":
        return lottery_scheduler()
    if name.startswith("lottery:"):
        option = name[len("lottery:") :]
        key, _, value = option.partition("=")
        if key != "defaultTickets" or not value.isdigit():
            raise ValueError(f"malformed lottery option {option!r}")
        return lottery_scheduler(int(value))
    raise ValueError(f"unknown scheduler {name!r}")


# ---------------------------------------------------------------------------
# Declarative scheduler tables

_DIGESTS = {"full": _keep_all, "last-pair": _keep_last, "none": _keep_none}
_STEP_CATEGORIES = {
    BasicStep: "basic",
    ForkStep: "fork",
    TerminationStep: "termination",
    InactionStep: "inaction",
}


def _table_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} is not a JSON object")
    return value


def scheduler_from_table(table: dict) -> SchedulerSpec:
    """A finite-state strategy from a declarative table.

    The table maps named control states to per-thread-count turn
    weights and to successor states per step category::

        {"initial": "s0",
         "digest": "none",
         "states": {
           "s0": {"turn": {"1": ["1"], "2": ["1/3", "2/3"]},
                  "next": {"basic": "s0", "fork": "s0",
                           "termination": "s0", "inaction": "s0"}}}}

    A turn list holds one rational string per thread, each in [0, 1],
    summing to exactly 1, all checked when the table is parsed.  Missing
    `next` entries keep the current state, and every `next` entry must
    name a defined state.  Turn weights for a thread count the table
    does not list are an error at use time.
    """
    states = _table_object(_table_object(table, "table")["states"], "'states'")
    initial = table["initial"]
    if not isinstance(initial, Hashable) or initial not in states:
        raise ValueError(f"initial state {initial!r} not defined")
    digest_name = table.get("digest", "none")
    if not isinstance(digest_name, Hashable) or digest_name not in _DIGESTS:
        raise ValueError(f"unknown digest {digest_name!r}")
    parsed: Dict[str, Dict[int, Tuple[Fraction, ...]]] = {}
    for name, entry in states.items():
        where = f"state {name!r}"
        _table_object(entry, where)
        parsed[name] = {}
        for count, weights in _table_object(entry.get("turn", {}), f"{where}: 'turn'").items():
            try:
                n = int(count)
            except ValueError:
                raise ValueError(f"{where}: thread count {count!r} is not an integer") from None
            strings = isinstance(weights, list) and all(isinstance(w, str) for w in weights)
            if not strings or len(weights) != n:
                raise ValueError(f"{where}: turn weights for {n} threads are not {n} rationals")
            try:
                parsed[name][n] = tuple(threads.probability_weights(
                    [meadow.parse_rational(w) for w in weights]
                ))
            except (ParseError, MalformedProbability, WeightSumNotOne) as exc:
                raise ValueError(f"{where}: turn weights for {n} threads: {exc}") from exc
        for category, target in _table_object(entry.get("next", {}), f"{where}: 'next'").items():
            if not isinstance(target, Hashable) or target not in states:
                raise ValueError(f"{where}: next state {target!r} for {category!r} not defined")

    def schedule(n: int, h: History, s) -> Tuple[Fraction, ...]:
        turns = parsed[s]
        if n not in turns:
            raise MissingTurnWeights(f"state {s!r} has no turn weights for {n} threads")
        return turns[n]

    def update(n, h, s, i, step):
        category = _STEP_CATEGORIES[type(step)]
        return states[s].get("next", {}).get(category, s)

    return SchedulerSpec(initial, schedule, update, digest=_DIGESTS[digest_name])
