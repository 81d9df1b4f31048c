"""Thread construction, canonical forms, projections, and equality."""

import contextlib
import math
import random
import sys
from fractions import Fraction

import pytest

import genlib
import threadalg as ta
from threadalg import analysis, cli, interaction, interleaving, services, terms
from threadalg import threads as T
from threadalg.interaction import abstract_tau
from threadalg.errors import (
    MalformedProbability,
    UnguardedRecursion,
    WeightSumNotOne,
)
from threadalg.threads import (
    DEAD,
    DeadEnd,
    Post,
    Prob,
    STOP,
    TDead,
    TFork,
    TPost,
    TProb,
    TRec,
    TStop,
    TVar,
)

A = ta.basic("main", "a")
B = ta.basic("main", "b")


def bp(left, w, right):
    return ta.tchoice(left, Fraction(w) if not isinstance(w, Fraction) else w, right)


# ---------------------------------------------------------------------------
# build


def test_build_stop_is_single_node():
    g = ta.build(TStop())
    assert g == T.ThreadGraph((STOP,), 0)


def test_build_ties_recursion_knot():
    g = ta.build(TRec((("X", ta.tprefix(A, TVar("X"))),), "X"))
    assert len(g.nodes) == 1
    node = g.nodes[0]
    assert node == Post(A, 0, 0)


def test_build_weight_one_collapses():
    g = ta.build(bp(ta.tprefix(A, TStop()), 1, TDead()))
    assert ta.bisimilar(g, ta.build(ta.tprefix(A, TStop())))
    assert not any(isinstance(n, (Prob, DeadEnd)) for n in g.nodes)


def test_build_drops_zero_weights():
    g = ta.build(bp(TStop(), 0, TDead()))
    assert g == T.ThreadGraph((DEAD,), 0)


def test_build_rejects_weights_outside_range():
    with pytest.raises(MalformedProbability):
        ta.build(TProb(((Fraction(3, 2), TStop()), (Fraction(-1, 2), TDead()))))


def test_build_rejects_bad_sum():
    with pytest.raises(WeightSumNotOne):
        ta.build(TProb(((Fraction(1, 2), TStop()), (Fraction(1, 4), TDead()))))


def test_build_rejects_unguarded_recursion():
    with pytest.raises(UnguardedRecursion):
        ta.build(TRec((("X", TVar("X")),), "X"))
    with pytest.raises(UnguardedRecursion):
        ta.build(TRec((("X", bp(TStop(), Fraction(1, 2), TVar("X"))),), "X"))
    # forking does not guard: its projections do not consume depth
    with pytest.raises(UnguardedRecursion):
        ta.build(TRec((("X", TFork(TStop(), TVar("X"), TStop())),), "X"))


def test_build_rejects_unbound_variable():
    with pytest.raises(ValueError):
        ta.build(TVar("X"))


def test_basic_action_needs_a_focus_and_a_method():
    for focus, method in (("", "m"), ("f", "")):
        with pytest.raises(ValueError, match="focus and method must be nonempty"):
            ta.basic(focus, method)


def test_guard_survives_nested_recursion():
    inner = TRec((("Y", ta.tprefix(B, TVar("Y"))),), "Y")
    g = ta.build(TRec((("X", TPost(A, inner, TVar("X"))),), "X"))
    assert any(isinstance(n, Post) and n.action == B for n in g.nodes)


# ---------------------------------------------------------------------------
# normalize


def test_normalize_flattens_nested_choice():
    # x +1/2 (y +1/2 z) is the flat distribution {x: 1/2, y: 1/4, z: 1/4}
    x, y, z = ta.tprefix(A, TStop()), TStop(), TDead()
    g = ta.normalize(ta.build(bp(x, Fraction(1, 2), bp(y, Fraction(1, 2), z))))
    root = g.nodes[g.root]
    assert isinstance(root, Prob)
    weights = sorted(w for w, _ in root.branches)
    assert weights == [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]


def test_normalize_merges_identical_branches():
    g = ta.build(bp(TStop(), Fraction(1, 2), TStop()))
    assert ta.normalize(g) == T.ThreadGraph((STOP,), 0)


def test_normalize_zero_weight_corner():
    # the nested zero-choice reduces to its last alternative either way,
    # exercising the totalized zero quotient
    x, y, z = TStop(), TDead(), ta.tprefix(A, TStop())
    left = ta.build(bp(x, Fraction(0), bp(y, Fraction(0), z)))
    right = ta.build(bp(bp(x, Fraction(0), y), Fraction(0), z))
    assert ta.normalize(left) == ta.normalize(right) == ta.normalize(ta.build(z))


def test_normalize_idempotent_on_random_terms():
    rng = random.Random(2024)
    for _ in range(200):
        g = genlib.thread(rng, rng.randint(0, 4), allow_fork=True)
        n = ta.normalize(g)
        assert ta.normalize(n) == n


def test_normalize_branch_weights_sum_to_one():
    rng = random.Random(2025)
    for _ in range(200):
        n = ta.normalize(genlib.thread(rng, rng.randint(0, 4)))
        for node in n.nodes:
            if isinstance(node, Prob):
                assert sum(w for w, _ in node.branches) == 1
                assert all(0 < w <= 1 for w, _ in node.branches)
                # branch targets are distinct deterministic nodes
                targets = [t for _, t in node.branches]
                assert len(set(targets)) == len(targets)
                assert not any(isinstance(n.nodes[t], Prob) for t in targets)


def test_normalize_canonical_across_presentations():
    # same behaviour reached by different syntax must yield equal graphs
    rng = random.Random(7)
    for _ in range(100):
        x = genlib.term(rng, 2)
        y = genlib.term(rng, 2)
        pi = genlib.probability(rng)
        left = ta.normalize(ta.build(bp(x, pi, y)))
        right = ta.normalize(ta.build(bp(y, 1 - pi, x)))
        assert left == right


# ---------------------------------------------------------------------------
# the five equational laws, on random closed instantiations


def test_choice_commutes_with_complement_weight():
    rng = random.Random(11)
    for _ in range(300):
        x, y = genlib.term(rng, 3), genlib.term(rng, 3)
        pi = genlib.probability(rng)
        assert ta.bisimilar(ta.build(bp(x, pi, y)), ta.build(bp(y, 1 - pi, x)))


def test_choice_flattening_law():
    rng = random.Random(12)
    for _ in range(300):
        x, y, z = (genlib.term(rng, 2) for _ in range(3))
        pi, rho = genlib.probability(rng), genlib.probability(rng)
        outer = pi + rho - pi * rho
        inner = ta.rat(0) if outer == 0 else pi / outer
        left = ta.build(bp(x, pi, bp(y, rho, z)))
        right = ta.build(bp(bp(x, inner, y), outer, z))
        assert ta.bisimilar(left, right), (pi, rho)


def test_choice_idempotent():
    rng = random.Random(13)
    for _ in range(300):
        x = genlib.term(rng, 3)
        pi = genlib.probability(rng)
        assert ta.bisimilar(ta.build(bp(x, pi, x)), ta.build(x))


def test_choice_weight_one_is_left():
    rng = random.Random(14)
    for _ in range(300):
        x, y = genlib.term(rng, 3), genlib.term(rng, 3)
        assert ta.bisimilar(ta.build(bp(x, Fraction(1), y)), ta.build(x))


def test_internal_action_ignores_else_branch():
    rng = random.Random(15)
    for _ in range(300):
        x, y = genlib.term(rng, 3), genlib.term(rng, 3)
        left = ta.build(TPost(ta.TAU, x, y))
        right = ta.build(TPost(ta.TAU, x, x))
        assert ta.bisimilar(left, right)


# ---------------------------------------------------------------------------
# n-ary probabilistic composition


def test_nary_single_target_is_target():
    t = ta.tprefix(A, TStop())
    assert ta.nary_prob([Fraction(1)], [t]) == t


def test_nary_uniform_three_way():
    third = Fraction(1, 3)
    targets = [ta.tprefix(A, TStop()), ta.tprefix(B, TStop()), TStop()]
    term = ta.nary_prob([third, third, third], targets)
    # the right-nested renormalization gives 1/3 then 1/2
    assert isinstance(term, TProb)
    (w0, _), (w1, rest) = term.branches
    assert w0 == third and w1 == Fraction(2, 3)
    assert isinstance(rest, TProb)
    assert rest.branches[0][0] == Fraction(1, 2)
    # and the normal form is the flat distribution
    g = ta.normalize(ta.build(term))
    root = g.nodes[g.root]
    assert isinstance(root, Prob)
    assert sorted(w for w, _ in root.branches) == [third, third, third]


def test_nary_duplicate_targets_collapse():
    t = ta.tprefix(A, TStop())
    g = ta.build(ta.nary_prob([Fraction(1, 2), Fraction(1, 2)], [t, t]))
    assert ta.bisimilar(g, ta.build(t))


def test_nary_matches_flat_distribution_randomly():
    rng = random.Random(16)
    for _ in range(100):
        n = rng.randint(1, 4)
        weights = genlib.distribution(rng, n) if n > 1 else [Fraction(1)]
        targets = [genlib.term(rng, 2) for _ in range(n)]
        nested = ta.build(ta.nary_prob(weights, targets))
        flat = ta.build(TProb(tuple(zip(weights, targets))))
        assert ta.bisimilar(nested, flat)


def test_nary_rejects_bad_sum():
    with pytest.raises(WeightSumNotOne):
        ta.nary_prob([Fraction(1, 2)], [TStop()])


def test_nary_prob_of_many_targets_needs_no_recursion():
    n = 5000
    targets = [ta.tprefix(ta.basic("main", f"a{k}"), TStop()) for k in range(n)]
    with shallow_stack():
        term = ta.nary_prob([Fraction(1, n)] * n, targets)
    # level k chooses target k with 1/(n - k) of what is left
    for k in range(n - 1):
        (head, target), (rest, term) = term.branches
        assert (head, target, rest) == (Fraction(1, n - k), targets[k], 1 - head)
    assert term == targets[-1]


# ---------------------------------------------------------------------------
# projections


def test_projection_zero_is_inaction():
    rng = random.Random(17)
    for _ in range(50):
        g = genlib.thread(rng, 3)
        assert ta.normalize(ta.project(0, g)) == T.ThreadGraph((DEAD,), 0)


def test_projection_depth_is_a_natural_number():
    with pytest.raises(ValueError, match="projection depth must be a natural number"):
        ta.project(-1, ta.build(ta.tprefix(A, TStop())))


def test_projection_unfolds_recursion():
    g = ta.build(TRec((("X", ta.tprefix(A, TVar("X"))),), "X"))
    expected = ta.build(ta.tprefix(A, ta.tprefix(A, TDead())))
    assert ta.normalize(ta.project(2, g)) == ta.normalize(expected)


def test_projection_is_depth_free_on_choices():
    x = ta.tprefix(A, TStop())
    g = ta.build(bp(x, Fraction(1, 2), TStop()))
    expected = ta.build(bp(ta.tprefix(A, TDead()), Fraction(1, 2), TStop()))
    assert ta.normalize(ta.project(1, g)) == ta.normalize(expected)


def test_projection_is_depth_free_on_forks():
    g = ta.build(TFork(ta.tprefix(A, TStop()), ta.tprefix(B, TStop()), TDead()))
    p = ta.project(1, g)
    expected = ta.build(
        TFork(ta.tprefix(A, TDead()), ta.tprefix(B, TDead()), TDead())
    )
    assert ta.normalize(p) == ta.normalize(expected)


def test_projective_sequence_conditions():
    rng = random.Random(18)
    for _ in range(100):
        g = genlib.thread(rng, rng.randint(0, 4), allow_fork=True)
        for n in range(4):
            a = ta.normalize(ta.project(n, ta.project(n + 1, g)))
            b = ta.normalize(ta.project(n, g))
            assert a == b
            assert ta.normalize(ta.project(n, ta.project(n, g))) == b


def test_projection_depth_does_not_grow_the_stack():
    loop = ta.build(TRec((("X", ta.tprefix(A, TVar("X"))),), "X"))
    assert len(ta.project(5000, loop).nodes) == 5001


def test_projection_rejects_a_cycle_of_choices():
    half = Fraction(1, 2)
    g = T.ThreadGraph((Prob(((half, 0), (half, 1))), STOP), 0)
    with pytest.raises(UnguardedRecursion):
        ta.project(3, g)


# ---------------------------------------------------------------------------
# head distributions along deep choice chains


@contextlib.contextmanager
def shallow_stack(limit=300):
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def test_deep_choice_chains_need_no_recursion():
    n = 5000
    g = genlib.choice_chain(n)
    tau_first = T.ThreadGraph(g.nodes + (Post(ta.TAU, 0, 0),), len(g.nodes))
    env = analysis.Environment(
        {ta.basic("main", f"a{j}"): p for j, p in enumerate(genlib.CHAIN_REPLIES)}
    )
    with shallow_stack():
        heads = T.head_distributions(g, range(n))
        canonical = ta.normalize(g)
        abstracted = abstract_tau(tau_first)
        outcome = analysis.outcome_distribution(g, env, 1)
    for k in range(n):
        den, nums = heads[k]
        shares = {n + j: genlib.chain_share(n, k, j) for j in range(3)}
        shares = {v: w for v, w in shares.items() if w}
        assert {v: Fraction(x, den) for v, x in nums.items()} == shares
        # one reduction per choice keeps den the lcm of the reduced
        # denominators, not a product along the chain
        assert den == math.lcm(*(w.denominator for w in shares.values()))
    weights = sorted(w for w, _ in canonical.nodes[canonical.root].branches)
    assert weights == sorted(genlib.chain_share(n, 0, j) for j in range(3))
    assert abstracted == canonical
    assert outcome.terminate == sum(
        genlib.chain_share(n, 0, j) * p for j, p in enumerate(genlib.CHAIN_REPLIES)
    )
    assert outcome.terminate + outcome.deadlock == 1


@pytest.mark.parametrize(
    "stage",
    [
        lambda g: T.head_distributions(g, [0]),
        ta.normalize,
        lambda g: abstract_tau(T.ThreadGraph(g.nodes + (Post(ta.TAU, 0, 0),), len(g.nodes))),
        lambda g: analysis.outcome_distribution(g, analysis.EMPTY_ENVIRONMENT, 3),
        lambda g: T.project(3, g),
    ],
    ids=["head_distributions", "normalize", "abstract_tau", "outcome_distribution", "project"],
)
def test_deep_choice_cycle_is_unguarded_recursion(stage):
    g = genlib.choice_chain(5000, cycle=True)
    with shallow_stack(), pytest.raises(UnguardedRecursion) as info:
        stage(g)
    assert str(info.value) == "cycle through probabilistic choices"


DEEP = 5000

DEEP_TERMS = {
    "prefix": "prefix(a, " * DEEP + "S" + ")" * DEEP,
    "post": "post(a, " * DEEP + "S" + ", D)" * DEEP,
    "fork": "fork(S, " * DEEP + "S" + ", D)" * DEEP,
    "prob": "prob(1/2: " * DEEP + "S" + ", 1/2: S)" * DEEP,
    # each system's one equation is the next system; the innermost
    # loops back to the outermost
    "rec": "".join(f"rec X{i} {{ X{i} = " for i in range(DEEP))
    + "prefix(a, X0)"
    + "".join(f"; }} in X{i}" for i in reversed(range(DEEP))),
}


def test_rec_nest_parses_reading_each_token_once(monkeypatch):
    text = DEEP_TERMS["rec"]
    tokens = len(terms._tokenize(text))
    calls = 0
    read = terms._Parser.next

    def counted(self):
        nonlocal calls
        calls += 1
        assert calls <= tokens, "a token was read twice"
        return read(self)

    monkeypatch.setattr(terms._Parser, "next", counted)
    terms.parse_term(text)
    assert calls == tokens - 1  # all but the end of input


@pytest.mark.parametrize("kind", sorted(DEEP_TERMS))
def test_deep_terms_need_no_recursion(kind, tmp_path, capsys):
    path = tmp_path / f"{kind}.term"
    path.write_text(DEEP_TERMS[kind])
    table = tmp_path / "env.table"
    table.write_text("main.a = 1/2\n")
    with shallow_stack():
        g = terms.parse_thread(DEEP_TERMS[kind])
        cut = T.project(DEEP + 1, g)
        if kind == "prob":
            assert cli.main(["normalize", str(path)]) == 0
            assert capsys.readouterr().out == "S\n"
        if kind == "post":
            assert cli.main(["dist", str(path), "--depth", "3", "--env", str(table)]) == 0
            assert capsys.readouterr().out.startswith("terminate: 0\n")
    if kind == "rec":
        assert g == terms.parse_thread("rec X { X = prefix(a, X); } in X")
        assert len(cut) == DEEP + 2
    else:
        # loop-free and shallower than the cut: projecting changes nothing
        assert T.trim(cut) == g


def test_deep_trace_table_needs_no_recursion():
    # the `rec` nest is a one-action loop: one trace, DEEP actions long
    env = analysis.Environment({ta.basic("main", "a"): Fraction(1, 2)})
    with shallow_stack():
        g = terms.parse_thread(DEEP_TERMS["rec"])
        d = analysis.outcome_distribution(g, env, DEEP, with_traces=True)
    assert d.traces == ((("main.a",) * DEEP, 1),)
    assert d.surviving == 1


# an alias chain X0 = X1; ...; X(DEEP-1) = X(DEEP), closed by `last`
def alias_chain(last):
    eqs = "".join(f"X{i} = X{i + 1}; " for i in range(DEEP))
    return f"rec X0 {{ {eqs}X{DEEP} = {last}; }} in X0"


def test_deep_alias_chain_builds_without_recursion():
    with shallow_stack():
        g = terms.parse_thread(alias_chain("prefix(a, X0)"))
        text = terms.print_term(g)
    assert text == "rec X0 { X0 = prefix(main.a, X0); } in X0"


def test_deep_alias_cycle_is_unguarded_recursion():
    with shallow_stack(), pytest.raises(UnguardedRecursion) as info:
        terms.parse_thread(alias_chain("X0"))
    assert str(info.value) == "variable 'X0' recurs without an action test guarding it"


def test_printing_a_deep_action_loop_needs_no_recursion():
    body = "".join(f"prefix(a{i}, " for i in range(DEEP)) + "X" + ")" * DEEP
    with shallow_stack():
        g = terms.parse_thread(f"rec X {{ X = {body}; }} in X")
        text = terms.print_term(g)
    expected = "".join(f"prefix(main.a{i}, " for i in range(DEEP)) + "X0" + ")" * DEEP
    assert text == f"rec X0 {{ X0 = {expected}; }} in X0"


def test_abstraction_of_a_long_tau_ring_needs_no_recursion():
    # each member escapes to `a` with 1/2, else passes to the next
    n = 5000
    eqs = " ".join(
        f"X{i} = prefix(tau, prob(1/2: X{(i + 1) % n}, 1/2: prefix(a, S)));" for i in range(n)
    )
    with shallow_stack():
        g = terms.parse_thread(f"rec X0 {{ {eqs} }} in X0")
        text = terms.print_term(abstract_tau(g))
    assert text == "prefix(main.a, S)"


# ---------------------------------------------------------------------------
# equality


def test_equal_up_to_reflexive():
    rng = random.Random(19)
    g = genlib.thread(rng, 3)
    for k in range(5):
        assert ta.equal_up_to(k, g, g)


def test_equal_up_to_distinguishes_head_actions():
    ga = ta.build(ta.tprefix(A, TStop()))
    gb = ta.build(ta.tprefix(B, TStop()))
    assert ta.equal_up_to(0, ga, gb)
    assert not ta.equal_up_to(1, ga, gb)


def test_bisimilar_folds_unfoldings():
    one = ta.build(TRec((("X", ta.tprefix(A, TVar("X"))),), "X"))
    two = ta.build(
        TRec((("Y", ta.tprefix(A, ta.tprefix(A, TVar("Y")))),), "Y")
    )
    assert ta.bisimilar(one, two)
    states = len(ta.normalize(one).nodes) + len(ta.normalize(two).nodes)
    for n in range(2 * states):
        assert ta.equal_up_to(n, one, two)


def test_bisimilar_differs_on_terminals():
    assert not ta.bisimilar(ta.build(TStop()), ta.build(TDead()))


def test_bisimilar_agrees_with_projections():
    rng = random.Random(20)
    for _ in range(60):
        g1 = genlib.thread(rng, rng.randint(0, 3))
        g2 = genlib.thread(rng, rng.randint(0, 3))
        states = len(ta.normalize(g1).nodes) + len(ta.normalize(g2).nodes)
        depth_equal = all(ta.equal_up_to(n, g1, g2) for n in range(2 * states + 1))
        assert ta.bisimilar(g1, g2) == depth_equal


def test_unique_solutions_of_guarded_specs():
    # unfolding a guarded specification any number of times leaves the
    # solution unchanged: solutions are unique
    rng = random.Random(21)
    for _ in range(40):
        body = genlib.term(rng, 2)
        eq = TPost(A, body, TVar("X"))
        spec = TRec((("X", eq),), "X")
        g = ta.build(spec)

        def unfold(t, depth):
            if depth == 0:
                return spec
            if isinstance(t, TVar):
                return unfold(eq, depth - 1)
            if isinstance(t, TPost):
                return TPost(t.action, unfold(t.then_, depth), unfold(t.else_, depth))
            if isinstance(t, TProb):
                return TProb(tuple((w, unfold(b, depth)) for w, b in t.branches))
            return t

        for k in (1, 2, 3):
            assert ta.bisimilar(g, ta.build(unfold(eq, k)))


# ---------------------------------------------------------------------------
# graph combinators


def test_combinators_match_term_constructions():
    x = ta.build(ta.tprefix(A, TStop()))
    y = ta.build(TDead())
    post = genlib.combine_post(B, x, y)
    assert ta.bisimilar(post, ta.build(TPost(B, ta.tprefix(A, TStop()), TDead())))
    choice = genlib.combine_prob([(Fraction(1, 3), x), (Fraction(2, 3), y)])
    assert ta.bisimilar(
        choice, ta.build(bp(ta.tprefix(A, TStop()), Fraction(1, 3), TDead()))
    )


def test_choices_the_library_rebuilds_are_not_checked_again(monkeypatch):
    # weights are checked where they enter, and only once: `build`
    # checks a parsed choice's weights before it builds the node, and
    # products, copies, projections and canonical forms check none
    checked = []
    check = Prob.__post_init__
    monkeypatch.setattr(Prob, "__post_init__", lambda node: checked.append(node) or check(node))
    pool = [
        ta.parse_thread("prob(1/3: prefix(a, S), 2/3: prefix(b, D))"),
        ta.parse_thread("rec X { X = prob(1/2: prefix(a, S), 1/2: prefix(tau, X)); } in X"),
        ta.parse_thread("fork(prob(1/4: prefix(c, S), 3/4: D), post(d, S, D), S)"),
    ]
    asks = ta.parse_thread(
        "rec X { X = post(random.get(1/3), prob(1/5: X, 4/5: prefix(a, S)), post(tau, D, X)); } in X"
    )
    family = services.parse_family("{random: Random}")
    schedulers = [
        interleaving.cyclic_scheduler(),
        interleaving.uniform_scheduler(),
        interleaving.lottery_scheduler(2),
    ]
    for spec in schedulers:
        product = interleaving.interleave(spec, pool)
        T.normalize(T.project(4, product))
        for i in range(1, len(pool) + 1):
            T.normalize(interleaving.positional_interleave(spec, i, pool))
    used = interaction.use(asks, family)
    T.normalize(used)
    T.normalize(T.project(3, used))
    T.normalize(asks)
    assert checked == []
