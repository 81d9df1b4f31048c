"""The use operator, abstraction from internal steps, and their laws."""

import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

import genlib
import threadalg as ta
from oracles import oracle_use
from threadalg import pglb, services
from threadalg import threads as T
from threadalg.errors import NonRegularProduct, OutOfRange
from threadalg.interaction import abstract_tau, use
from threadalg.services import RANDOM, compose, make_register, singleton
from threadalg.threads import (
    Post,
    Prob,
    TDead,
    TFork,
    TPost,
    TProb,
    TRec,
    TStop,
    TVar,
)

A = ta.basic("main", "a")


def prefix(action, term):
    return ta.tprefix(action, term)


def rand_pair(rng, depth=3):
    return (
        ta.build(genlib.term(rng, rng.randint(0, depth), mk_action=genlib.service_action)),
        genlib.family(rng),
    )


# ---------------------------------------------------------------------------
# the seven use laws


def test_use_fixes_terminals():
    rng = random.Random(51)
    for _ in range(50):
        fam = genlib.family(rng)
        assert ta.bisimilar(use(ta.build(TDead()), fam), ta.build(TDead()))
        assert ta.bisimilar(use(ta.build(TStop()), fam), ta.build(TStop()))


def test_use_passes_internal_action_through():
    rng = random.Random(52)
    for _ in range(100):
        x = genlib.term(rng, 2, mk_action=genlib.service_action)
        fam = genlib.family(rng)
        left = use(ta.build(prefix(ta.TAU, x)), fam)
        right = genlib.combine_prefix(ta.TAU, use(ta.build(x), fam))
        assert ta.bisimilar(left, right)


def test_use_skips_unnamed_foci():
    rng = random.Random(53)
    for _ in range(100):
        x, y = genlib.term(rng, 2), genlib.term(rng, 2)
        fam = services.encapsulate({"main"}, genlib.family(rng))
        left = use(ta.build(TPost(A, x, y)), fam)
        right = genlib.combine_post(A, use(ta.build(x), fam), use(ta.build(y), fam))
        assert ta.bisimilar(left, right)


def test_use_resolves_named_method():
    # a processed action becomes an internal step into the exact choice
    # between the continuations, with the service advanced
    rng = random.Random(54)
    for _ in range(150):
        x = genlib.term(rng, 2, mk_action=genlib.service_action)
        y = genlib.term(rng, 2, mk_action=genlib.service_action)
        focus, method = "r1", rng.choice(["get", "set:true", "set:false"])
        service = genlib.register_service(rng)
        rest = services.encapsulate({focus}, genlib.family(rng))
        fam = compose(singleton(focus, service), rest)
        p = service.reply(method)
        derived = compose(singleton(focus, service.derive(method)), rest)
        left = use(ta.build(TPost(ta.basic(focus, method), x, y)), fam)
        inner = use(ta.build(ta.tchoice(x, p, y)), derived)
        right = genlib.combine_prefix(ta.TAU, inner)
        assert ta.bisimilar(left, right)


def test_use_turns_unprocessable_method_into_inaction():
    fam = singleton("r1", make_register(True))
    g = use(ta.build(TPost(ta.basic("r1", "bogus"), TStop(), TStop())), fam)
    assert ta.bisimilar(g, ta.build(prefix(ta.TAU, TDead())))


def test_use_distributes_over_choice_exactly():
    rng = random.Random(55)
    for _ in range(150):
        x = genlib.term(rng, 2, mk_action=genlib.service_action)
        y = genlib.term(rng, 2, mk_action=genlib.service_action)
        pi = genlib.open_probability(rng)
        fam = genlib.family(rng)
        left = use(ta.build(TProb(((pi, x), (1 - pi, y)))), fam)
        right = genlib.combine_prob(
            [(pi, use(ta.build(x), fam)), (1 - pi, use(ta.build(y), fam))]
        )
        assert ta.bisimilar(left, right)
        # weights survive unchanged at the root of the normal form
        root = ta.normalize(left).nodes[ta.normalize(left).root]
        if isinstance(root, Prob):
            assert sum(w for w, _ in root.branches) == 1


def test_use_example_with_random_service():
    g = use(
        ta.build(TPost(ta.basic("random", "get(1/2)"), TStop(), TDead())),
        singleton("random", RANDOM),
    )
    expected = ta.build(
        prefix(ta.TAU, TProb(((Fraction(1, 2), TStop()), (Fraction(1, 2), TDead()))))
    )
    assert ta.bisimilar(g, expected)


def test_use_example_with_register():
    g = use(
        ta.build(TPost(ta.basic("r", "get"), TStop(), TDead())),
        singleton("r", make_register(True)),
    )
    assert ta.bisimilar(g, ta.build(prefix(ta.TAU, TStop())))


def test_use_eliminates_service_references():
    rng = random.Random(56)
    for _ in range(100):
        g, fam = rand_pair(rng)
        result = use(g, fam)
        for node in result.nodes:
            if isinstance(node, Post):
                assert node.action.focus not in fam.foci() or node.action.is_tau


def test_use_state_bound():
    counter = ta.build(
        TRec((("X", prefix(ta.basic("r1", "set:true"), TVar("X"))),), "X")
    )
    with pytest.raises(NonRegularProduct):
        use(counter, singleton("r1", make_register(False)), state_bound=1)


@dataclass(frozen=True)
class Counting(services.Service):
    """`inner`, counting each `reply` and `derive` it is asked in `calls`,
    which every service derived from it shares."""

    inner: services.Service
    calls: Counter = field(compare=False, repr=False)

    def reply(self, method):
        self.calls["reply", self.inner, method] += 1
        return self.inner.reply(method)

    def derive(self, method):
        self.calls["derive", self.inner, method] += 1
        return Counting(self.inner.derive(method), self.calls)


def test_use_asks_each_family_state_and_method_once():
    # r1 is set and read in a cycle, and every block asks the same
    # methods again; Random keeps its one state, so a family state is
    # r1's value: each register question is asked at most once, each
    # Random question at most once per value of r1
    block = "+r1.get ; #2 ; r1.set:true ; +random.get(1/3) ; r1.set:false ; a"
    program = pglb.parse_program(" ; ".join([block] * 4) + " ; \\24")
    g = pglb.extract_at(1, program)

    def family(calls):
        return compose(
            singleton("r1", Counting(make_register(False), calls)),
            singleton("random", Counting(RANDOM, calls)),
        )

    calls = Counter()
    got = use(g, family(calls))
    assert {kind for kind, _, _ in calls} == {"reply", "derive"}
    for (kind, inner, method), n in calls.items():
        assert n <= (2 if inner == RANDOM else 1), (kind, inner, method, n)
    asked = Counter()
    assert genlib.renumbered(got) == oracle_use(g, family(asked))
    # the node-by-node construction asks again at every node
    assert max(asked.values()) > 2


@dataclass(frozen=True)
class Overflowing(services.Service):
    """Replies 3/2, which is no probability, to every method."""

    def reply(self, method):
        return Fraction(3, 2)

    def derive(self, method):
        return self


def test_use_rejects_a_reply_out_of_range_as_the_oracle_does():
    g = ta.build(
        prefix(ta.basic("random", "get(1/2)"), TPost(ta.basic("odd", "m"), TStop(), TDead()))
    )
    fam = compose(singleton("random", RANDOM), singleton("odd", Overflowing()))
    with pytest.raises(OutOfRange) as got:
        use(g, fam)
    with pytest.raises(OutOfRange) as expected:
        oracle_use(g, fam)
    assert str(got.value) == str(expected.value) == "3/2 is not a probability in [0, 1]"


# ---------------------------------------------------------------------------
# abstraction laws


def test_abstraction_fixes_terminals():
    assert ta.bisimilar(abstract_tau(ta.build(TStop())), ta.build(TStop()))
    assert ta.bisimilar(abstract_tau(ta.build(TDead())), ta.build(TDead()))
    assert ta.normalize(abstract_tau(ta.build(prefix(ta.TAU, TStop())))) == ta.normalize(
        ta.build(TStop())
    )


def test_abstraction_removes_internal_prefix():
    rng = random.Random(57)
    for _ in range(150):
        x = genlib.term(rng, 3)
        left = abstract_tau(ta.build(prefix(ta.TAU, x)))
        right = abstract_tau(ta.build(x))
        assert ta.bisimilar(left, right)


def test_abstraction_distributes_over_visible_actions():
    rng = random.Random(58)
    for _ in range(150):
        x, y = genlib.term(rng, 2), genlib.term(rng, 2)
        action = ta.basic("main", rng.choice("ab"))
        left = abstract_tau(ta.build(TPost(action, x, y)))
        right = genlib.combine_post(
            action, abstract_tau(ta.build(x)), abstract_tau(ta.build(y))
        )
        assert ta.bisimilar(left, right)


def test_abstraction_distributes_over_choice():
    rng = random.Random(59)
    for _ in range(150):
        x, y = genlib.term(rng, 2), genlib.term(rng, 2)
        pi = genlib.open_probability(rng)
        left = abstract_tau(ta.build(TProb(((pi, x), (1 - pi, y)))))
        right = genlib.combine_prob(
            [(pi, abstract_tau(ta.build(x))), (1 - pi, abstract_tau(ta.build(y)))]
        )
        assert ta.bisimilar(left, right)


def test_abstraction_of_internal_loop_is_inaction():
    loop = ta.build(TRec((("X", prefix(ta.TAU, TVar("X"))),), "X"))
    assert ta.bisimilar(abstract_tau(loop), ta.build(TDead()))


def test_abstraction_of_divergent_retry_solves_exactly():
    # X = (a S) with probability 1/2, else an internal step back to X:
    # the escape mass is the geometric series summing to exactly 1
    retry = ta.build(
        TRec(
            (
                (
                    "X",
                    TProb(
                        (
                            (Fraction(1, 2), prefix(A, TStop())),
                            (Fraction(1, 2), prefix(ta.TAU, TVar("X"))),
                        )
                    ),
                ),
            ),
            "X",
        )
    )
    result = abstract_tau(retry)
    assert ta.normalize(result) == ta.normalize(ta.build(prefix(A, TStop())))
    # the finite projections converge to that thread: after m levels the
    # unresolved mass is the geometric tail 2 * (1/2)^m, split between a
    # cut continuation and a cut loop, and it vanishes as m grows
    for m in range(2, 21):
        tail = Fraction(1, 2**m)
        expected = ta.build(
            TProb(
                (
                    (1 - 2 * tail, prefix(A, TStop())),
                    (tail, prefix(A, TDead())),
                    (tail, TDead()),
                )
            )
        )
        got = abstract_tau(T.project(m, retry))
        assert ta.normalize(got) == ta.normalize(expected), m


def test_abstraction_partial_divergence_splits_mass():
    # X = a S (+1/3) tau X but with an inescapable internal tail:
    # half the loop mass escapes, the rest becomes inaction
    term = TRec(
        (
            (
                "X",
                TProb(
                    (
                        (Fraction(1, 3), prefix(A, TStop())),
                        (Fraction(1, 3), prefix(ta.TAU, TVar("X"))),
                        (Fraction(1, 3), prefix(ta.TAU, TRec((("Y", prefix(ta.TAU, TVar("Y"))),), "Y"))),
                    )
                ),
            ),
        ),
        "X",
    )
    result = abstract_tau(ta.build(term))
    # escape probability solves h = 1/3 + 1/3 h: h = 1/2
    expected = ta.build(
        TProb(((Fraction(1, 2), prefix(A, TStop())), (Fraction(1, 2), TDead())))
    )
    assert ta.normalize(result) == ta.normalize(expected)


def test_abstraction_of_a_long_tau_chain_needs_no_recursion():
    # internal step i moves on with 1/2 and escapes to a with 1/3 and to
    # b with 1/6; the last one escapes to a with 5/6 and to b with 1/6
    n = 5000
    a, b, stop = 2 * n, 2 * n + 1, 2 * n + 2
    nodes = []
    for i in range(n - 1):
        nodes += [
            Post(ta.TAU, 2 * i + 1, 2 * i + 1),
            Prob(((Fraction(1, 2), 2 * i + 2), (Fraction(1, 3), a), (Fraction(1, 6), b))),
        ]
    nodes += [
        Post(ta.TAU, 2 * n - 1, 2 * n - 1),
        Prob(((Fraction(5, 6), a), (Fraction(1, 6), b))),
        Post(A, stop, stop),
        Post(ta.basic("main", "b"), stop, stop),
        T.STOP,
    ]
    to_b = Fraction(1, 3) * (1 - Fraction(1, 2**n))
    want = ta.build(
        TProb(
            (
                (1 - to_b, prefix(A, TStop())),
                (to_b, prefix(ta.basic("main", "b"), TStop())),
            )
        )
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        got = abstract_tau(T.ThreadGraph(tuple(nodes), 0))
    finally:
        sys.setrecursionlimit(limit)
    assert got == ta.normalize(want)


def choice_loop(n):
    """n fair choices, each going on or skipping the next, in a loop
    that only `a` leaves, and the thread it abstracts to."""
    return "+%1/2 ; " * n + f"\\{n} ; a ; !", prefix(A, TStop())


def entered_from_the_end(n):
    """The same chain of n choices, ending in termination, entered by n
    visible `b` tests at its last choice first, then at the one before
    it, and so on; and the thread it abstracts to."""
    blocks = " ; ".join(f"+b ; #{3 * n - 3 * j + 1}" for j in range(1, n + 1))
    b = ta.basic("main", "b")
    want = prefix(b, TStop())
    for _ in range(n - 1):
        want = TPost(b, TStop(), want)
    return blocks + " ; " + "+%1/2 ; " * n + "! ; !", want


@pytest.mark.parametrize(
    "shape, n, sums",
    [(choice_loop, 1000, 2002), (choice_loop, 2000, 4002), (entered_from_the_end, 300, 900)],
)
def test_abstraction_of_a_choice_loop_costs_two_sums_a_choice(monkeypatch, shape, n, sums):
    # Finish order eliminates a node after the internal nodes it steps
    # to, so each row is mixed from rows already eliminated and a row
    # that names a node on the search path is substituted once: two sums
    # a choice, and one a `b` test for `quotient`.  An order that takes
    # a chain from its start, as reversed breadth-first order does on
    # the chain entered from its end, substitutes each pivot into every
    # row before it, about n * n / 2 sums
    text, want = shape(n)
    g = use(pglb.extract_at(1, pglb.parse_program(text)), singleton(pglb.RANDOM_FOCUS, RANDOM))
    calls = []
    weighted_sum = T.weighted_sum
    monkeypatch.setattr(T, "weighted_sum", lambda ts: calls.append(1) or weighted_sum(ts))
    got = abstract_tau(g)
    assert len(calls) <= sums
    assert got == ta.normalize(ta.build(want))


def test_abstraction_idempotent_on_image():
    rng = random.Random(60)
    for _ in range(100):
        g, fam = rand_pair(rng, depth=2)
        once = abstract_tau(use(g, fam))
        assert ta.normalize(abstract_tau(once)) == ta.normalize(once)


def test_abstraction_distributes_over_forks():
    rng = random.Random(61)
    for _ in range(60):
        f, x, y = (genlib.term(rng, 2) for _ in range(3))
        left = abstract_tau(ta.build(TFork(f, x, y)))
        right = genlib.combine_fork(
            abstract_tau(ta.build(f)),
            abstract_tau(ta.build(x)),
            abstract_tau(ta.build(y)),
        )
        assert ta.bisimilar(left, right)


# ---------------------------------------------------------------------------
# projection identities


def test_use_projection_identity():
    rng = random.Random(62)
    for _ in range(200):
        g, fam = rand_pair(rng)
        for n in range(7):
            assert ta.equal_up_to(n, use(g, fam), use(T.project(n, g), fam))


def test_abstraction_projection_stabilizes():
    rng = random.Random(63)
    for _ in range(80):
        g, fam = rand_pair(rng, depth=2)
        t = use(g, fam)
        abstracted = abstract_tau(t)
        closure = sum(
            1
            for node in ta.normalize(t).nodes
            if isinstance(node, (Prob, Post)) and (not isinstance(node, Post) or node.action.is_tau)
        )
        for n in range(4):
            k = n * (1 + closure)
            target = ta.normalize(T.project(n, abstracted))
            for m in range(k, k + 3):
                got = ta.normalize(T.project(n, abstract_tau(T.project(m, t))))
                assert got == target, (n, m)


def test_composition_reduces_to_pure_threads():
    # a thread over services plus abstraction yields a plain thread:
    # no internal actions, no requests to the covered foci
    rng = random.Random(64)
    for _ in range(100):
        g, fam = rand_pair(rng)
        result = abstract_tau(use(g, fam))
        for node in result.nodes:
            if isinstance(node, Post):
                assert not node.action.is_tau
                assert node.action.focus not in fam.foci()
