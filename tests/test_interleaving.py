"""Strategic interleaving: the step laws, schedulers, and elimination."""

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import genlib
import threadalg as ta
from genlib import combine_post, combine_prefix, combine_prob
from threadalg import threads as T
from threadalg.errors import NonRegularProduct, WeightSumNotOne
from threadalg.interleaving import (
    BasicStep,
    FORK_STEP,
    INACTION_STEP,
    SchedulerSpec,
    TERMINATION_STEP,
    _Engine,
    builtin_scheduler,
    cyclic_scheduler,
    deadlock_at_termination,
    interleave,
    lottery_scheduler,
    positional_interleave,
    scheduler_from_table,
    uniform_scheduler,
)
from threadalg.threads import (
    Fork,
    Post,
    Prob,
    Stop,
    TDead,
    TPost,
    TProb,
    TRec,
    TStop,
    TVar,
)

A = ta.basic("main", "a")
B = ta.basic("main", "b")

SCHEDULERS = {
    "cyclic": cyclic_scheduler,
    "uniform": uniform_scheduler,
    "lottery": lambda: lottery_scheduler(2),
}


def chain(*methods):
    term = TStop()
    for m in reversed(methods):
        term = ta.tprefix(ta.basic("main", m), term)
    return ta.build(term)


def rand_history(rng, n):
    if rng.random() < 0.4:
        return ()
    return ((rng.randint(1, n + 1), n),)


def rand_tuple(rng, max_threads=3, depth=3, allow_fork=True):
    n = rng.randint(1, max_threads)
    return [
        ta.build(genlib.term(rng, rng.randint(0, depth), allow_fork=allow_fork))
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# the strategic interleaving step laws


def test_top_level_is_turn_weighted_choice_of_positionals():
    rng = random.Random(81)
    for trial in range(120):
        spec = SCHEDULERS[("cyclic", "uniform", "lottery")[trial % 3]]()
        ts = rand_tuple(rng)
        h = rand_history(rng, len(ts))
        weights = spec.schedule(len(ts), spec.digest(h), spec.initial_state)
        branches = [
            (w, positional_interleave(spec, i + 1, ts, h))
            for i, w in enumerate(weights)
            if w != 0
        ]
        rhs = combine_prob(branches) if len(branches) > 1 else branches[0][1]
        assert ta.bisimilar(interleave(spec, ts, h), rhs)


def test_single_inactive_thread_is_inaction():
    for make in SCHEDULERS.values():
        g = positional_interleave(make(), 1, [ta.build(TDead())])
        assert ta.bisimilar(g, ta.build(TDead()))


def test_single_terminated_thread_terminates():
    for make in SCHEDULERS.values():
        g = positional_interleave(make(), 1, [ta.build(TStop())])
        assert ta.bisimilar(g, ta.build(TStop()))


def test_inactive_thread_leaves_pool_under_deadlock_wrapper():
    rng = random.Random(82)
    for trial in range(90):
        spec = SCHEDULERS[("cyclic", "uniform", "lottery")[trial % 3]]()
        rest = rand_tuple(rng, max_threads=2)
        ts = list(rest)
        i = rng.randint(0, len(ts))
        ts.insert(i, ta.build(TDead()))
        h = rand_history(rng, len(ts))
        s = spec.initial_state
        lhs = positional_interleave(spec, i + 1, ts, h, s)
        s2 = spec.update(len(ts), spec.digest(h), s, i + 1, INACTION_STEP)
        rhs = deadlock_at_termination(
            interleave(spec, rest, h + ((i + 1, len(rest)),), s2)
        )
        assert ta.bisimilar(lhs, rhs)


def test_terminated_thread_leaves_pool():
    rng = random.Random(83)
    for trial in range(90):
        spec = SCHEDULERS[("cyclic", "uniform", "lottery")[trial % 3]]()
        rest = rand_tuple(rng, max_threads=2)
        ts = list(rest)
        i = rng.randint(0, len(ts))
        ts.insert(i, ta.build(TStop()))
        h = rand_history(rng, len(ts))
        s = spec.initial_state
        lhs = positional_interleave(spec, i + 1, ts, h, s)
        s2 = spec.update(len(ts), spec.digest(h), s, i + 1, TERMINATION_STEP)
        rhs = interleave(spec, rest, h + ((i + 1, len(rest)),), s2)
        assert ta.bisimilar(lhs, rhs)


def test_fork_becomes_internal_step_and_appends_thread():
    rng = random.Random(84)
    for trial in range(90):
        spec = SCHEDULERS[("cyclic", "uniform", "lottery")[trial % 3]]()
        ts = rand_tuple(rng, max_threads=2, depth=2)
        i = rng.randrange(len(ts))
        forked = ta.build(genlib.term(rng, 2))
        cont = ta.build(genlib.term(rng, 2))
        discarded = ta.build(genlib.term(rng, 2))
        ts[i] = genlib.combine_fork(forked, cont, discarded)
        h = rand_history(rng, len(ts))
        s = spec.initial_state
        n = len(ts)
        lhs = positional_interleave(spec, i + 1, ts, h, s)
        s2 = spec.update(n, spec.digest(h), s, i + 1, FORK_STEP)
        grown = ts[:i] + [cont] + ts[i + 1 :] + [forked]
        rhs = combine_prefix(ta.TAU, interleave(spec, grown, h + ((i + 1, n + 1),), s2))
        assert ta.bisimilar(lhs, rhs)


def test_action_head_performs_and_updates():
    rng = random.Random(85)
    for trial in range(90):
        spec = SCHEDULERS[("cyclic", "uniform", "lottery")[trial % 3]]()
        ts = rand_tuple(rng, max_threads=2, depth=2)
        i = rng.randrange(len(ts))
        action = ta.basic("main", rng.choice("ab")) if rng.random() < 0.8 else ta.TAU
        left = ta.build(genlib.term(rng, 2))
        right = ta.build(genlib.term(rng, 2))
        ts[i] = combine_post(action, left, right)
        h = rand_history(rng, len(ts))
        s = spec.initial_state
        n = len(ts)
        lhs = positional_interleave(spec, i + 1, ts, h, s)
        s2 = spec.update(n, spec.digest(h), s, i + 1, BasicStep(action))
        h2 = h + ((i + 1, n),)
        rhs = combine_post(
            action,
            interleave(spec, ts[:i] + [left] + ts[i + 1 :], h2, s2),
            interleave(spec, ts[:i] + [right] + ts[i + 1 :], h2, s2),
        )
        assert ta.bisimilar(lhs, rhs)


def test_choice_head_distributes_through_position():
    rng = random.Random(86)
    for trial in range(90):
        spec = SCHEDULERS[("cyclic", "uniform", "lottery")[trial % 3]]()
        ts = rand_tuple(rng, max_threads=2, depth=2)
        i = rng.randrange(len(ts))
        pi = genlib.open_probability(rng)
        left = ta.build(genlib.term(rng, 2))
        right = ta.build(genlib.term(rng, 2))
        ts[i] = combine_prob([(pi, left), (1 - pi, right)])
        h = rand_history(rng, len(ts))
        lhs = positional_interleave(spec, i + 1, ts, h)
        rhs = combine_prob(
            [
                (pi, positional_interleave(spec, i + 1, ts[:i] + [left] + ts[i + 1 :], h)),
                (1 - pi, positional_interleave(spec, i + 1, ts[:i] + [right] + ts[i + 1 :], h)),
            ]
        )
        assert ta.bisimilar(lhs, rhs)


# ---------------------------------------------------------------------------
# deadlock at termination


def test_deadlock_at_termination_laws():
    rng = random.Random(87)
    sd = deadlock_at_termination
    assert ta.bisimilar(sd(ta.build(TStop())), ta.build(TDead()))
    assert ta.bisimilar(sd(ta.build(TDead())), ta.build(TDead()))
    for _ in range(150):
        x = ta.build(genlib.term(rng, 2, allow_fork=True))
        y = ta.build(genlib.term(rng, 2, allow_fork=True))
        z = ta.build(genlib.term(rng, 2, allow_fork=True))
        action = ta.basic("main", rng.choice("ab"))
        assert ta.bisimilar(
            sd(combine_post(action, x, y)), combine_post(action, sd(x), sd(y))
        )
        assert ta.bisimilar(
            sd(genlib.combine_fork(z, x, y)), genlib.combine_fork(sd(z), sd(x), sd(y))
        )
        pi = genlib.open_probability(rng)
        assert ta.bisimilar(
            sd(combine_prob([(pi, x), (1 - pi, y)])),
            combine_prob([(pi, sd(x)), (1 - pi, sd(y))]),
        )


def test_deadlock_at_termination_example():
    g = deadlock_at_termination(
        ta.build(
            TProb(
                (
                    (Fraction(1, 3), ta.tprefix(A, TStop())),
                    (Fraction(2, 3), TStop()),
                )
            )
        )
    )
    expected = ta.build(
        TProb(((Fraction(1, 3), ta.tprefix(A, TDead())), (Fraction(2, 3), TDead())))
    )
    assert ta.normalize(g) == ta.normalize(expected)


# ---------------------------------------------------------------------------
# worked examples


def test_two_terminated_threads_terminate():
    g = interleave(cyclic_scheduler(), [ta.build(TStop()), ta.build(TStop())])
    assert ta.normalize(g) == ta.normalize(ta.build(TStop()))


def test_inactive_plus_terminated_is_inaction():
    g = interleave(cyclic_scheduler(), [ta.build(TDead()), ta.build(TStop())])
    assert ta.normalize(g) == ta.normalize(ta.build(TDead()))


def test_uniform_first_turn_is_deterministic():
    g = interleave(uniform_scheduler(), [chain("a"), chain("b")])
    assert ta.normalize(g) == ta.normalize(
        ta.build(ta.tprefix(A, ta.tprefix(B, TStop())))
    )
    # before merging, the step after the first is an exact 1/2 choice
    raw = interleave(uniform_scheduler(), [chain("a", "a"), chain("b")])
    n = ta.normalize(raw)
    root = n.nodes[n.root]
    assert isinstance(root, Post) and root.action == A
    second = n.nodes[root.then_]
    assert isinstance(second, Prob)
    assert sorted(w for w, _ in second.branches) == [Fraction(1, 2), Fraction(1, 2)]


# ---------------------------------------------------------------------------
# schedulers


def test_cyclic_turn_weights():
    spec = cyclic_scheduler()
    assert spec.schedule(2, (), None) == (Fraction(1), Fraction(0))
    assert spec.schedule(2, ((1, 2),), None) == (Fraction(0), Fraction(1))
    # the modulus edge: after the last index the first is next
    assert spec.schedule(2, ((2, 2),), None) == (Fraction(1), Fraction(0))
    assert spec.schedule(3, ((3, 3),), None) == (Fraction(1), Fraction(0), Fraction(0))
    # a wrap result of zero reads as the last index
    assert spec.schedule(2, ((3, 2),), None) == (Fraction(0), Fraction(1))


def test_uniform_turn_weights():
    spec = uniform_scheduler()
    assert spec.schedule(3, ((2, 3),), None) == (
        Fraction(1, 3),
        Fraction(1, 3),
        Fraction(1, 3),
    )
    assert spec.schedule(3, (), None) == (Fraction(1), Fraction(0), Fraction(0))


def test_lottery_turn_weights():
    spec = lottery_scheduler(1)
    assert spec.schedule(2, (), (3, 1)) == (Fraction(3, 4), Fraction(1, 4))
    assert spec.schedule(2, (), None) == (Fraction(1, 2), Fraction(1, 2))


def test_lottery_updates_tickets():
    spec = lottery_scheduler(5)
    s = spec.update(2, (), (3, 1), 1, FORK_STEP)
    assert s == (3, 1, 5)
    s = spec.update(3, (), s, 2, TERMINATION_STEP)
    assert s == (3, 5)
    assert spec.update(2, (), s, 1, BasicStep(A)) == (3, 5)
    with pytest.raises(ValueError, match="ticket list has 2 entries for 3 threads"):
        spec.schedule(3, (), (3, 1))
    with pytest.raises(ValueError, match="default_tickets must be at least 1"):
        lottery_scheduler(0)


def test_builtin_scheduler_names():
    assert builtin_scheduler("cyclic").digest(((1, 2), (2, 2))) == ((2, 2),)
    assert builtin_scheduler("lottery:defaultTickets=3") is not None
    with pytest.raises(ValueError):
        builtin_scheduler("fair")
    with pytest.raises(ValueError):
        builtin_scheduler("lottery:defaultTickets=x")


def round_robin_trace(queues):
    """Independent round-robin simulation over plain action queues."""
    queues = [list(q) for q in queues]
    trace = []
    last_turn = None
    while queues:
        n = len(queues)
        turn = 1 if last_turn is None else ((last_turn + 1) % n or n)
        q = queues[turn - 1]
        if q:
            trace.append(q.pop(0))
            last_turn = turn
        else:
            if n == 1:
                break
            queues.pop(turn - 1)
            last_turn = turn
    return trace


def graph_trace(g):
    """The unique action path of a deterministic interleaving result."""
    g = ta.normalize(g)
    trace = []
    ref = g.root
    while isinstance(g.nodes[ref], Post):
        node = g.nodes[ref]
        assert node.then_ == node.else_
        trace.append(node.action.method)
        ref = node.then_
    assert isinstance(g.nodes[ref], Stop)
    return trace


def test_cyclic_reproduces_round_robin_trace():
    threads_ = [chain("a1", "a2", "a3"), chain("b1", "b2", "b3")]
    g = interleave(cyclic_scheduler(), threads_)
    expected = round_robin_trace([["a1", "a2", "a3"], ["b1", "b2", "b3"]])
    assert expected == ["a1", "b1", "a2", "b2", "a3", "b3"]
    assert graph_trace(g) == expected


def test_cyclic_matches_round_robin_on_uneven_queues():
    rng = random.Random(92)
    for _ in range(40):
        queues = [
            [f"t{t}s{k}" for k in range(rng.randint(1, 4))]
            for t in range(rng.randint(1, 3))
        ]
        threads_ = [chain(*q) for q in queues]
        assert graph_trace(interleave(cyclic_scheduler(), threads_)) == round_robin_trace(queues)


def deterministic_term(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return TStop() if rng.random() < 0.6 else TDead()
    return TPost(
        ta.basic("main", rng.choice("ab")),
        deterministic_term(rng, depth - 1),
        deterministic_term(rng, depth - 1),
    )


def test_deterministic_strategy_on_deterministic_threads_yields_no_choice():
    rng = random.Random(88)
    for _ in range(60):
        n = rng.randint(1, 3)
        ts = [ta.build(deterministic_term(rng, rng.randint(0, 3))) for _ in range(n)]
        g = ta.normalize(interleave(cyclic_scheduler(), ts))
        assert not any(isinstance(node, Prob) for node in g.nodes)


def test_fork_elimination():
    rng = random.Random(89)
    for trial in range(90):
        spec = SCHEDULERS[("cyclic", "uniform", "lottery")[trial % 3]]()
        ts = rand_tuple(rng, max_threads=2, depth=3, allow_fork=True)
        g = ta.normalize(interleave(spec, ts))
        assert not any(isinstance(node, Fork) for node in g.nodes)


# ---------------------------------------------------------------------------
# projection identities


def test_interleaving_projection_identity():
    rng = random.Random(90)
    for trial in range(60):
        spec = SCHEDULERS[("cyclic", "uniform", "lottery")[trial % 3]]()
        ts = rand_tuple(rng, max_threads=3, depth=3, allow_fork=True)
        h = rand_history(rng, len(ts))
        for n in range(6):
            cut = [T.project(n, t) for t in ts]
            assert ta.equal_up_to(n, interleave(spec, ts, h), interleave(spec, cut, h))
            i = rng.randint(1, len(ts))
            assert ta.equal_up_to(
                n,
                positional_interleave(spec, i, ts, h),
                positional_interleave(spec, i, cut, h),
            )


def test_deadlock_at_termination_projection_identity():
    rng = random.Random(91)
    for _ in range(80):
        t = ta.build(genlib.term(rng, rng.randint(0, 4), allow_fork=True))
        for n in range(7):
            assert ta.equal_up_to(
                n,
                deadlock_at_termination(t),
                deadlock_at_termination(T.project(n, t)),
            )


# ---------------------------------------------------------------------------
# declarative tables and bounds


def test_scheduler_table():
    table = {
        "initial": "s0",
        "digest": "none",
        "states": {
            "s0": {
                "turn": {"1": ["1"], "2": ["1/3", "2/3"]},
                "next": {"basic": "s1"},
            },
            "s1": {"turn": {"1": ["1"], "2": ["1", "0"]}},
        },
    }
    spec = scheduler_from_table(table)
    assert spec.schedule(2, (), "s0") == (Fraction(1, 3), Fraction(2, 3))
    assert spec.update(2, (), "s0", 1, BasicStep(A)) == "s1"
    assert spec.update(2, (), "s0", 1, FORK_STEP) == "s0"
    g = interleave(spec, [chain("a"), chain("b")])
    n = ta.normalize(g)
    root = n.nodes[n.root]
    assert isinstance(root, Prob)
    assert sorted(w for w, _ in root.branches) == [Fraction(1, 3), Fraction(2, 3)]


def test_scheduler_table_validation():
    with pytest.raises(ValueError):
        scheduler_from_table({"initial": "x", "states": {}})
    with pytest.raises(ValueError):
        scheduler_from_table(
            {"initial": "s", "digest": "hourly", "states": {"s": {}}}
        )


def test_bad_weights_are_rejected():
    broken = SchedulerSpec(
        None,
        lambda n, h, s: (Fraction(1, 2),) * n,
        lambda n, h, s, i, step: s,
    )
    with pytest.raises(WeightSumNotOne):
        interleave(broken, [chain("a"), chain("b")])


def test_state_bound():
    loop = ta.build(TRec((("X", ta.tprefix(A, TVar("X"))),), "X"))
    with pytest.raises(NonRegularProduct):
        interleave(cyclic_scheduler(), [loop, loop], state_bound=1)


def test_empty_pool_and_position_zero_are_rejected():
    with pytest.raises(ValueError, match="at least one thread is required"):
        interleave(cyclic_scheduler(), [])
    with pytest.raises(ValueError, match="position 0 outside 1..2"):
        positional_interleave(cyclic_scheduler(), 0, [chain("a"), chain("b")])


def test_full_history_scheduler_needs_a_digest_on_loops():
    # without a digest the history view grows without bound
    spec = SchedulerSpec(
        cyclic_scheduler().initial_state,
        cyclic_scheduler().schedule,
        cyclic_scheduler().update,
    )
    loop = ta.build(TRec((("X", ta.tprefix(A, TVar("X"))),), "X"))
    with pytest.raises(NonRegularProduct):
        interleave(spec, [loop, loop], state_bound=50)


def test_cyclic_interleaving_of_loops_is_finite_state():
    # the last-pair digest keeps unbounded histories finite
    loop_a = ta.build(TRec((("X", ta.tprefix(A, TVar("X"))),), "X"))
    loop_b = ta.build(TRec((("X", ta.tprefix(B, TVar("X"))),), "X"))
    g = interleave(cyclic_scheduler(), [loop_a, loop_b])
    expected = ta.build(
        TRec(
            (("X", ta.tprefix(A, ta.tprefix(B, TVar("X")))),),
            "X",
        )
    )
    assert ta.bisimilar(g, expected)


# ---------------------------------------------------------------------------
# the turn-weight memo


def counting(spec):
    """`spec` with a `schedule` that counts its calls per argument triple."""
    calls = Counter()

    def schedule(n, h, s):
        calls[(n, h, s)] += 1
        return spec.schedule(n, h, s)

    return SchedulerSpec(spec.initial_state, schedule, spec.update, spec.digest), calls


class Forgetful(dict):
    """A memo that never keeps what it is given."""

    def __setitem__(self, key, value):
        pass


def unmemoised(monkeypatch):
    """Make the engine ask `schedule` again for every state it fills."""
    init = _Engine.__init__

    def forgetful_init(self, *args):
        init(self, *args)
        self.turns = Forgetful()

    monkeypatch.setattr(_Engine, "__init__", forgetful_init)


def last_positional(spec, ts):
    return positional_interleave(spec, len(ts), ts)


@pytest.mark.parametrize("kind", sorted(SCHEDULERS))
def test_turn_weights_are_asked_once_per_count_view_and_state(kind, monkeypatch):
    rng = random.Random(kind)
    loop = ta.build(TRec((("X", ta.tprefix(A, TVar("X"))),), "X"))
    cases = [rand_tuple(rng, max_threads=3, depth=3) for _ in range(30)]
    cases.append([loop, chain("a", "b"), loop])
    runs = [(product, ts) for ts in cases for product in (interleave, last_positional)]
    memoised = []
    for product, ts in runs:
        spec, calls = counting(SCHEDULERS[kind]())
        memoised.append(product(spec, ts))
        assert all(c == 1 for c in calls.values())
    unmemoised(monkeypatch)
    repeated = 0
    for (product, ts), got in zip(runs, memoised):
        spec, calls = counting(SCHEDULERS[kind]())
        assert product(spec, ts) == got
        repeated += sum(calls.values()) - len(calls)
    assert repeated > 0  # without the memo, repeated triples are asked again


def after_termination(last):
    """Uniform turns while two threads run, `last` once one is left."""
    return SchedulerSpec(
        None,
        lambda n, h, s: last if n == 1 else (Fraction(1, n),) * n,
        lambda n, h, s, i, step: s,
        digest=lambda h: h[-1:],
    )


def test_bad_turn_weights_after_a_termination_still_raise():
    loop = ta.build(TRec((("X", ta.tprefix(A, TVar("X"))),), "X"))
    threads_ = [chain("b"), loop]
    assert interleave(after_termination((Fraction(1),)), threads_)
    with pytest.raises(WeightSumNotOne, match="sum to 1/2"):
        interleave(after_termination((Fraction(1, 2),)), threads_)
    with pytest.raises(ValueError, match="2 weights for 1 threads"):
        interleave(after_termination((Fraction(1), Fraction(0))), threads_)


# ---------------------------------------------------------------------------
# the memos on numbered (view, state) pairs

DATA = Path(__file__).parent / "data"


def counted(spec):
    """`spec` with `schedule`, `update` and `digest` that count their
    calls per argument tuple."""
    calls = {"schedule": Counter(), "update": Counter(), "digest": Counter()}

    def schedule(n, h, s):
        calls["schedule"][n, h, s] += 1
        return spec.schedule(n, h, s)

    def update(n, h, s, i, step):
        calls["update"][n, h, s, i, step] += 1
        return spec.update(n, h, s, i, step)

    def digest(h):
        calls["digest"][h] += 1
        return spec.digest(h)

    return SchedulerSpec(spec.initial_state, schedule, update, digest), calls


@pytest.mark.parametrize("kind", ["lottery", "last-pair table"])
def test_each_strategy_function_sees_each_argument_tuple_once(kind):
    # two cyclic threads and one that forks, acts and terminates, so
    # every step category moves the lottery's tickets or the table's state
    pool = [ta.parse_thread((DATA / f"cyc{j}.term").read_text()) for j in range(2)]
    pool.append(ta.parse_thread("fork(prefix(c, S), post(b, S, D), S)"))
    if kind == "lottery":
        make = lottery_scheduler
    else:
        table = json.loads((DATA / "lastpair.json").read_text())
        make = lambda: scheduler_from_table(table)  # noqa: E731
    for product in (interleave, last_positional):
        spec, calls = counted(make())
        got = product(spec, pool)
        assert got == product(make(), pool)
        for name, seen in calls.items():
            assert seen and set(seen.values()) == {1}, name
        # every step category was taken
        assert {type(key[4]) for key in calls["update"]} == {
            BasicStep, type(FORK_STEP), type(TERMINATION_STEP), type(INACTION_STEP)
        }
