"""Exact outcome distributions and seeded sampling."""

import contextlib
import random
import signal
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import genlib
import threadalg as ta
from threadalg import analysis, interleaving
from threadalg import threads as T
from threadalg.analysis import (
    DEADLOCK,
    EMPTY_ENVIRONMENT,
    Environment,
    SURVIVING,
    TERMINATE,
    outcome_distribution,
    sample_outcomes,
    sample_run,
)
from threadalg.errors import MissingReply, ParseError, UnguardedRecursion, UnresolvedFork
from threadalg.threads import TDead, TFork, TPost, TRec, TStop, TVar

A = ta.basic("main", "a")
B = ta.basic("main", "b")

HALF_ENV = Environment({A: Fraction(1, 2), B: Fraction(1, 2)})

DATA = Path(__file__).parent / "data"


def coin():
    return ta.extract(ta.parse_program("+%1/2 ; ! ; #0"))


@contextlib.contextmanager
def time_limit(seconds):
    """Fail with TimeoutError, rather than hang, once `seconds` pass."""

    def stuck(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# environments


def test_environment_table_parsing():
    env = Environment.from_table("main.a = 1/2\n// comment\nr.get = 1\n\nb = 0\n")
    assert env.reply(A) == Fraction(1, 2)
    assert env.reply(ta.basic("r", "get")) == Fraction(1)
    assert env.reply(ta.basic("main", "b")) == Fraction(0)


def test_environment_table_reads_action_arguments_in_lowest_terms():
    env = Environment.from_table("random.get(2/4) = 1/3\nr.m(-6/4) = 1\n")
    assert env.reply(ta.basic("random", "get(1/2)")) == Fraction(1, 3)
    assert env.reply(ta.basic("r", "m(-3/2)")) == 1


def test_environment_tau_always_true():
    assert EMPTY_ENVIRONMENT.reply(ta.TAU) == Fraction(1)


@pytest.mark.parametrize(
    "text, message",
    [
        ("main.a = 1/2\nmain.a = 1/3\n", "line 2: second reply for main.a (first on line 1)"),
        # a bare name has the focus main; comments and blank lines count
        ("a = 1/2 // first\n\nb = 1\nmain.a = 1/2\n", "line 4: second reply for main.a (first on line 1)"),
        ("main.a = 1/2\ntau = 1/2\n", "line 2: tau takes no reply probability: it always replies True"),
        # an empty action name, focus or method
        ("main.a = 1/2\n = 1\n", "line 2: malformed action name ''"),
        (".b = 1/2\n", "line 1: malformed action name '.b'"),
        ("// i.\ni. = 3/4\n", "line 2: malformed action name 'i.'"),
        # a reply outside [0, 1]
        ("main.a = 1/2\n\nmain.b = 3/2\n", "line 3: 3/2 is not a probability in [0, 1]"),
        # two spellings of one argument name one action
        (
            "random.get(2/4) = 1/2\nrandom.get(1/2) = 1/3\n",
            "line 2: second reply for random.get(1/2) (first on line 1)",
        ),
        ("main.a = 1/2\nrandom.get(1/0) = 1/2\n", "line 2: zero denominator in rational '1/0'"),
        ("r.m(x) = 1\n", "line 1: malformed rational 'x'"),
        ("r.m(1/2 = 1\n", "line 1: malformed action name 'r.m(1/2'"),
        # names that neither `.pglb` nor the term syntax can spell
        ("main.a = 1/2\na b = 1/2\n", "line 2: malformed action name 'a b'"),
        ("f.g.h = 1/2\n", "line 1: malformed action name 'f.g.h'"),
        ("a(1/2) = 1/2\n", "line 1: malformed action name 'a(1/2)'"),
    ],
    ids=[
        "repeated", "repeated-bare-name", "tau", "empty-name", "empty-focus", "empty-method",
        "out-of-range", "repeated-spelling", "zero-denominator", "malformed-argument",
        "unclosed-argument", "space-in-name", "two-dots", "argument-without-focus",
    ],
)
def test_environment_table_rejects_repeated_and_tau_lines(text, message):
    with pytest.raises(ParseError) as info:
        Environment.from_table(text)
    assert str(info.value) == message


def test_environment_missing_reply():
    with pytest.raises(MissingReply):
        EMPTY_ENVIRONMENT.reply(A)


def test_environment_rejects_bad_probability():
    with pytest.raises(ta.errors.OutOfRange):
        Environment({A: Fraction(3, 2)})


# ---------------------------------------------------------------------------
# exact outcome distributions


def test_stop_resolves_at_depth_zero():
    d = outcome_distribution(ta.build(TStop()), EMPTY_ENVIRONMENT, 0)
    assert (d.terminate, d.deadlock, d.surviving) == (1, 0, 0)
    with pytest.raises(ValueError, match="depth must be a natural number"):
        outcome_distribution(ta.build(TStop()), EMPTY_ENVIRONMENT, -1)


def test_unbounded_loop_survives():
    loop = ta.build(TRec((("X", ta.tprefix(A, TVar("X"))),), "X"))
    env = Environment({A: Fraction(1)})
    d = outcome_distribution(loop, env, 10)
    assert (d.terminate, d.deadlock, d.surviving) == (0, 0, 1)


def test_deep_bound_needs_no_recursion():
    # each round terminates with probability 1/2, else performs a again
    loop = ta.build(TRec((("X", TPost(A, TVar("X"), TStop())),), "X"))
    d = outcome_distribution(loop, HALF_ENV, 5000)
    assert d.surviving == Fraction(1, 2**5000)
    assert (d.terminate, d.deadlock) == (1 - d.surviving, 0)


def test_memory_follows_the_levels_reached_not_the_bound():
    # two actions, then termination: only three levels are ever reached
    g = ta.build(ta.tprefix(A, ta.tprefix(B, TStop())))
    env = Environment({A: Fraction(1, 2), B: Fraction(1, 3)})
    tracemalloc.start()
    try:
        d = outcome_distribution(g, env, 10**5, with_traces=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (d.terminate, d.deadlock, d.surviving) == (1, 0, 0)
    assert d.trace_table == {("main.a", "main.b"): 1}
    # the lowest level reached is above zero, and the masses are exact
    d = outcome_distribution(ta.build(TPost(A, TStop(), TPost(B, TStop(), TDead()))), env, 7)
    assert (d.terminate, d.deadlock, d.surviving) == (Fraction(2, 3), Fraction(1, 3), 0)


def test_memory_of_a_repeating_level_does_not_grow_with_the_bound():
    # cyc0's second level repeats for good: it is kept once, not once for
    # each of the 20,000 levels below it (1.8 MB when it was)
    g = ta.parse_thread((DATA / "cyc0.term").read_text())
    env = Environment.from_table((DATA / "env.table").read_text())
    tracemalloc.start()
    try:
        d = outcome_distribution(g, env, 20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    assert (d.terminate, d.deadlock, d.surviving) == (0, 0, 1)


def test_the_error_walk_takes_each_pair_once():
    # the True branches double the paths at every level, not the
    # (node, actions left) pairs: the missing reply behind the root's
    # False branch comes after about 60 pairs, not 2**59 paths
    g = ta.parse_thread("post(a, rec X { X = post(a, X, X); } in X, prefix(z, S))")
    with time_limit(2), pytest.raises(MissingReply, match="main.z"):
        outcome_distribution(g, HALF_ENV, 60)


def test_coin_distribution():
    d = outcome_distribution(coin(), EMPTY_ENVIRONMENT, 1)
    assert (d.terminate, d.deadlock, d.surviving) == (
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(0),
    )


def test_action_beyond_depth_survives():
    g = ta.build(ta.tprefix(A, TStop()))
    env = Environment({A: Fraction(1)})
    d = outcome_distribution(g, env, 0)
    assert (d.terminate, d.deadlock, d.surviving) == (0, 0, 1)
    d = outcome_distribution(g, env, 1)
    assert (d.terminate, d.deadlock, d.surviving) == (1, 0, 0)


def test_reply_probabilities_split_mass():
    g = ta.build(TPost(A, TStop(), TDead()))
    env = Environment({A: Fraction(1, 3)})
    d = outcome_distribution(g, env, 5)
    assert d.terminate == Fraction(1, 3)
    assert d.deadlock == Fraction(2, 3)


def test_masses_always_sum_to_one():
    rng = random.Random(101)
    env = Environment(
        {ta.basic("main", m): genlib.probability(rng) for m in "abc"}
    )
    for _ in range(150):
        g = genlib.thread(rng, rng.randint(0, 4))
        d = outcome_distribution(g, env, rng.randint(0, 5))
        assert d.terminate + d.deadlock + d.surviving == 1


def test_distribution_matches_projected_graph():
    # a depth-n analysis never looks past n actions, so cutting the
    # thread one level deeper changes nothing; cutting at n itself
    # conflates cut mass with inaction, which is why the analysis works
    # on the original graph with a step counter instead
    rng = random.Random(102)
    env = Environment(
        {ta.basic("main", m): genlib.probability(rng) for m in "abc"}
    )
    for _ in range(100):
        g = genlib.thread(rng, rng.randint(0, 4))
        n = rng.randint(0, 4)
        full = outcome_distribution(g, env, n)
        deeper = outcome_distribution(T.project(n + 1, g), env, n)
        assert (deeper.terminate, deeper.deadlock, deeper.surviving) == (
            full.terminate,
            full.deadlock,
            full.surviving,
        )
        cut = outcome_distribution(T.project(n, g), env, n)
        assert cut.surviving == 0
        assert cut.terminate <= full.terminate
        assert cut.deadlock >= full.deadlock + full.surviving


def test_fork_cannot_be_executed_directly():
    g = ta.build(TFork(TStop(), TStop(), TStop()))
    with pytest.raises(UnresolvedFork):
        outcome_distribution(g, EMPTY_ENVIRONMENT, 3)
    with pytest.raises(UnresolvedFork):
        sample_run(g, EMPTY_ENVIRONMENT, 3, 1)


def test_trace_table():
    g = ta.build(TPost(A, ta.tprefix(B, TStop()), TDead()))
    env = Environment({A: Fraction(1, 4), B: Fraction(1)})
    d = outcome_distribution(g, env, 2, with_traces=True)
    assert d.trace_table == {
        ("main.a", "main.b"): Fraction(1, 4),
        ("main.a",): Fraction(3, 4),
    }
    assert sum(d.trace_table.values()) == 1


def test_trace_table_masses_sum_to_one():
    rng = random.Random(103)
    env = Environment(
        {ta.basic("main", m): genlib.probability(rng) for m in "abc"}
    )
    for _ in range(60):
        g = genlib.thread(rng, rng.randint(0, 3))
        d = outcome_distribution(g, env, rng.randint(0, 4), with_traces=True)
        assert sum(d.trace_table.values()) == 1


def test_trace_tables_raise_the_errors_of_the_masses():
    # missing replies and forks, reached at every depth
    rng = random.Random(104)
    errors = set()
    for _ in range(150):
        g = genlib.thread(rng, rng.randint(0, 4), allow_fork=True)
        env = Environment(
            {ta.basic("main", m): genlib.probability(rng) for m in "abc" if rng.random() < 0.7}
        )
        depth = rng.randint(0, 5)
        verdicts = []
        for with_traces in (False, True):
            try:
                outcome_distribution(g, env, depth, with_traces=with_traces)
                verdicts.append(None)
            except (MissingReply, UnresolvedFork) as exc:
                verdicts.append((type(exc), str(exc)))
        assert verdicts[0] == verdicts[1]
        errors.add(verdicts[0] and verdicts[0][0])
    assert errors == {None, MissingReply, UnresolvedFork}
    # b's reply is missing, but b is reached only with no action left
    g = ta.build(ta.tprefix(A, ta.tprefix(B, TStop())))
    env = Environment({A: Fraction(1, 2)})
    for with_traces in (False, True):
        d = outcome_distribution(g, env, 1, with_traces=with_traces)
        assert d.surviving == 1
        with pytest.raises(MissingReply, match="no reply probability for action main.b"):
            outcome_distribution(g, env, 2, with_traces=with_traces)
    assert d.trace_table == {("main.a",): 1}


def test_each_lumped_state_is_expanded_once_with_and_once_without_actions_left(monkeypatch):
    # the dist benchmark's deepest trace query: 35,886 traces on 42,111
    # prefixes, from a handful of distributions up to their gcds
    g = ta.parse_thread((DATA / "retry3.term").read_text())
    env = Environment.from_table((DATA / "retry3.table").read_text())
    calls = []
    expand = analysis._expand

    def counted(state, acting, *rest):
        calls.append((state, acting))
        return expand(state, acting, *rest)

    monkeypatch.setattr(analysis, "_expand", counted)
    d = outcome_distribution(g, env, 10, with_traces=True)
    prefixes = {trace[:i] for trace, _ in d.traces for i in range(len(trace) + 1)}
    assert (len(d.traces), len(prefixes)) == (35886, 42111)
    assert len(set(calls)) == len(calls)
    assert len(calls) <= 2 * len({state for state, _ in calls})


def counted_rounds(monkeypatch):
    """(nodes, blocks) of each refinement round's partition, in order."""
    rounds = []
    ranked = T._ranked_class_dists

    def counting(supports, block):
        rounds.append((len(block), len(set(block))))
        return ranked(supports, block)

    monkeypatch.setattr(T, "_ranked_class_dists", counting)
    return rounds


def test_reached_nodes_lump_into_few_classes(monkeypatch):
    # the uniform product of four threads with exits: 842 reached nodes,
    # 176 classes after six rounds, the last of which splits nothing
    pool = [ta.parse_thread((DATA / f"exit{j}.term").read_text()) for j in range(4)]
    g = interleaving.interleave(interleaving.uniform_scheduler(), pool)
    env = Environment.from_table((DATA / "exits.table").read_text())
    rounds = counted_rounds(monkeypatch)
    d = outcome_distribution(g, env, 40)
    assert rounds == [(842, k) for k in (3, 11, 51, 121, 168, 176)]
    assert 0 < min(d.terminate, d.deadlock, d.surviving)


def test_refinement_ranks_the_blocks_once_every_node_is_alone(monkeypatch):
    # a and its stop are apart from the start; a and b split in the
    # first round; either way the last round ranks and signs nothing
    rounds = counted_rounds(monkeypatch)
    d = outcome_distribution(ta.parse_thread("rec X { X = post(a, X, S); } in X"), HALF_ENV, 10)
    assert rounds == [(2, 2)]
    assert (d.terminate, d.surviving) == (1 - Fraction(1, 1024), Fraction(1, 1024))
    rounds.clear()
    g = ta.parse_thread("rec X { X = post(a, post(b, X, S), D); } in X")
    d = outcome_distribution(g, HALF_ENV, 10)
    assert rounds == [(4, 3), (4, 4)]
    assert (d.terminate, d.deadlock) == (Fraction(341, 1024), Fraction(341, 512))


def test_refinement_on_a_chain_stops_at_its_budget(monkeypatch):
    # every node of a chain is a class of its own, found only after
    # about n rounds: refinement gives up once its rounds would cost more
    # than the iteration over the levels
    n = 2000
    g = ta.parse_thread("post(a, " * n + "S" + ", D)" * n)
    rounds = counted_rounds(monkeypatch)
    d = outcome_distribution(g, Environment({A: Fraction(1, 2)}), n + 5)
    assert len(rounds) <= 2
    assert (d.terminate, d.deadlock) == (Fraction(1, 2**n), 1 - Fraction(1, 2**n))


# ---------------------------------------------------------------------------
# sampling


def test_sample_trivial_runs():
    assert sample_run(ta.build(TStop()), EMPTY_ENVIRONMENT, 5, 42) == (TERMINATE, ())
    assert sample_run(ta.build(TDead()), EMPTY_ENVIRONMENT, 5, 7) == (DEADLOCK, ())


def test_sample_replays_identically():
    g = coin()
    for seed in range(30):
        assert sample_run(g, EMPTY_ENVIRONMENT, 3, seed) == sample_run(
            g, EMPTY_ENVIRONMENT, 3, seed
        )


def test_sample_records_trace():
    g = ta.build(ta.tprefix(A, ta.tprefix(B, TStop())))
    env = Environment({A: Fraction(1), B: Fraction(1)})
    tag, trace = sample_run(g, env, 5, 3)
    assert tag == TERMINATE
    assert trace == ("main.a", "main.b")


def test_sample_depth_exhaustion():
    loop = ta.build(TRec((("X", ta.tprefix(A, TVar("X"))),), "X"))
    env = Environment({A: Fraction(1)})
    tag, trace = sample_run(loop, env, 4, 9)
    assert tag == SURVIVING
    assert trace == ("main.a",) * 4


def test_sampler_rejects_a_negative_depth_and_no_runs():
    # no depth counts down to a negative bound: this loop would never end
    loop = ta.parse_thread("rec X { X = prefix(tau, X); } in X")
    with pytest.raises(ValueError, match="depth must be a natural number"):
        sample_run(loop, EMPTY_ENVIRONMENT, -1, 0)
    with pytest.raises(ValueError, match="depth must be a natural number"):
        sample_outcomes(loop, EMPTY_ENVIRONMENT, -1, 0, 1)
    for runs in (0, -1):
        with pytest.raises(ValueError, match="runs must be a positive integer"):
            sample_outcomes(loop, EMPTY_ENVIRONMENT, 3, 0, runs)


def test_sampler_rejects_a_cycle_through_choices():
    # a choice that only chooses itself: a run would never end, so the
    # sampler raises before its first run, as the exact masses do
    g = T.ThreadGraph((T.Prob(((Fraction(1, 2), 0), (Fraction(1, 2), 0))),), 0)
    calls = [
        lambda: outcome_distribution(g, EMPTY_ENVIRONMENT, 3),
        lambda: sample_run(g, EMPTY_ENVIRONMENT, 3, 0),
        lambda: sample_outcomes(g, EMPTY_ENVIRONMENT, 3, 0, 5),
    ]
    for call in calls:
        with time_limit(2), pytest.raises(UnguardedRecursion, match="probabilistic choices"):
            call()


def test_empirical_frequencies_approach_exact_values():
    g = coin()
    freq = sample_outcomes(g, EMPTY_ENVIRONMENT, 2, seed=2024, runs=4000)
    assert abs(freq[TERMINATE] - Fraction(1, 2)) < Fraction(3, 100)
    assert freq[TERMINATE] + freq[DEADLOCK] + freq[SURVIVING] == 1


def test_sample_outcomes_order_independent_seeds():
    g = coin()
    once = sample_outcomes(g, EMPTY_ENVIRONMENT, 2, seed=5, runs=100)
    again = sample_outcomes(g, EMPTY_ENVIRONMENT, 2, seed=5, runs=100)
    assert once == again
