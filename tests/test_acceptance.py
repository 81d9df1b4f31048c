"""Acceptance suite: one check per exit criterion, each printing a verdict.

Every check uses its stated sample count and tolerance; all arithmetic
is exact unless a tolerance is given.  Run with `pytest
tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import random
import time
from fractions import Fraction

import genlib
import threadalg as ta
from cli_corpus import ALL_COMMANDS
from genlib import combine_post, combine_prefix, combine_prob
from threadalg import analysis, cli, interaction, meadow
from threadalg import interleaving as IL
from threadalg import services as S
from threadalg import threads as T
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


def report(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


# ---------------------------------------------------------------------------


def test_criterion_1_meadow_laws():
    rng = random.Random(1001)
    started = time.perf_counter()
    ok = True
    for _ in range(1000):
        x, y, z = (genlib.rational(rng) for _ in range(3))
        ok &= meadow.add(meadow.add(x, y), z) == meadow.add(x, meadow.add(y, z))
        ok &= meadow.add(x, y) == meadow.add(y, x)
        ok &= meadow.add(x, meadow.ZERO) == x
        ok &= meadow.add(x, meadow.neg(x)) == meadow.ZERO
        ok &= meadow.mul(meadow.mul(x, y), z) == meadow.mul(x, meadow.mul(y, z))
        ok &= meadow.mul(x, y) == meadow.mul(y, x)
        ok &= meadow.mul(x, meadow.ONE) == x
        ok &= meadow.mul(x, meadow.add(y, z)) == meadow.add(
            meadow.mul(x, y), meadow.mul(x, z)
        )
        ok &= meadow.inv(meadow.inv(x)) == x
        ok &= meadow.mul(x, meadow.mul(x, meadow.inv(x))) == x
        # signum axioms, all six, totally evaluated
        ok &= meadow.signum(meadow.div(x, x)) == meadow.div(x, x)
        ok &= meadow.signum(meadow.ONE - meadow.div(x, x)) == meadow.ONE - meadow.div(x, x)
        ok &= meadow.signum(meadow.rat(-1)) == meadow.rat(-1)
        ok &= meadow.signum(meadow.inv(x)) == meadow.signum(x)
        ok &= meadow.signum(meadow.mul(x, y)) == meadow.mul(
            meadow.signum(x), meadow.signum(y)
        )
        gap = meadow.signum(x) - meadow.signum(y)
        guard = meadow.ONE - meadow.div(gap, gap)
        ok &= meadow.mul(guard, meadow.signum(meadow.add(x, y)) - meadow.signum(x)) == meadow.ZERO
        # cancellation: a nonzero factor cancels
        if x != 0:
            ok &= meadow.div(meadow.mul(x, y), x) == y
            if meadow.mul(x, y) == meadow.mul(x, z):
                ok &= y == z
    elapsed = time.perf_counter() - started
    report(1, f"meadow laws, 1000 triples in {elapsed:.2f}s", ok and elapsed < 10.0)


def test_criterion_2_thread_laws():
    rng = random.Random(1002)
    ok = True
    for _ in range(1000):
        x = genlib.term(rng, rng.randint(0, 5))
        y = genlib.term(rng, rng.randint(0, 5))
        z = genlib.term(rng, rng.randint(0, 3))
        pi = genlib.probability(rng, 32)
        rho = genlib.probability(rng, 32)
        # internal action: the negative branch is irrelevant
        ok &= ta.bisimilar(ta.build(TPost(ta.TAU, x, y)), ta.build(TPost(ta.TAU, x, x)))
        # commutation with the complement weight
        ok &= ta.bisimilar(ta.build(ta.tchoice(x, pi, y)), ta.build(ta.tchoice(y, 1 - pi, x)))
        # flattening of nested choices
        outer = pi + rho - pi * rho
        inner = meadow.div(pi, outer)
        ok &= ta.bisimilar(
            ta.build(ta.tchoice(x, pi, ta.tchoice(y, rho, z))),
            ta.build(ta.tchoice(ta.tchoice(x, inner, y), outer, z)),
        )
        # idempotence and the sure choice
        ok &= ta.bisimilar(ta.build(ta.tchoice(x, pi, x)), ta.build(x))
        ok &= ta.bisimilar(ta.build(ta.tchoice(x, Fraction(1), y)), ta.build(x))
    # the zero-weight corner, exercising the totalized zero quotient
    x, y, z = genlib.term(rng, 3), genlib.term(rng, 3), genlib.term(rng, 3)
    left = ta.build(ta.tchoice(x, Fraction(0), ta.tchoice(y, Fraction(0), z)))
    right = ta.build(ta.tchoice(ta.tchoice(x, Fraction(0), y), Fraction(0), z))
    ok &= ta.bisimilar(left, right) and ta.bisimilar(left, ta.build(z))
    report(2, "thread algebra laws, 1000 closed terms", ok)


def test_criterion_3_family_laws():
    rng = random.Random(1003)
    ok = True
    for _ in range(1000):
        u, v, w = (genlib.family(rng) for _ in range(3))
        ok &= S.compose(u, S.empty_family()) == u
        ok &= S.compose(u, v) == S.compose(v, u)
        ok &= S.compose(S.compose(u, v), w) == S.compose(u, S.compose(v, w))
        s1, s2 = genlib.register_service(rng), genlib.register_service(rng)
        f = rng.choice(["r1", "r2", "r3", "random"])
        ok &= S.compose(S.singleton(f, s1), S.singleton(f, s2)) == S.singleton(
            f, S.EMPTY_SERVICE
        )
        hidden = {x for x in ("random", "r1", "r2", "r3") if rng.random() < 0.5}
        ok &= S.encapsulate(hidden, S.empty_family()) == S.empty_family()
        ok &= S.encapsulate(hidden, S.compose(u, v)) == S.compose(
            S.encapsulate(hidden, u), S.encapsulate(hidden, v)
        )
        g = rng.choice(["r1", "r2"])
        one = S.singleton(g, s1)
        ok &= S.encapsulate(hidden, one) == (S.empty_family() if g in hidden else one)
    report(3, "service family laws, 1000 families", ok)


def _interaction_pair(rng, depth=2):
    g = ta.build(genlib.term(rng, rng.randint(0, depth), mk_action=genlib.service_action))
    return g, genlib.family(rng)


def test_criterion_4_interaction_laws():
    rng = random.Random(1004)
    use, abstract = interaction.use, interaction.abstract_tau
    ok = True
    for _ in range(500):
        x = genlib.term(rng, 2, mk_action=genlib.service_action)
        y = genlib.term(rng, 2, mk_action=genlib.service_action)
        fam = genlib.family(rng)
        gx, gy = ta.build(x), ta.build(y)
        # terminals are fixed, internal steps pass through
        ok &= ta.bisimilar(use(ta.build(TDead()), fam), ta.build(TDead()))
        ok &= ta.bisimilar(use(ta.build(TStop()), fam), ta.build(TStop()))
        ok &= ta.bisimilar(
            use(ta.build(ta.tprefix(ta.TAU, x)), fam),
            combine_prefix(ta.TAU, use(gx, fam)),
        )
        # an unnamed focus is skipped
        bare = S.encapsulate({"main"}, fam)
        ok &= ta.bisimilar(
            use(ta.build(TPost(A, x, y)), bare),
            combine_post(A, use(gx, bare), use(gy, bare)),
        )
        # a named focus resolves through the service's reply and derivation
        focus, method = "r1", rng.choice(["get", "set:true", "set:false", "bogus"])
        service = genlib.register_service(rng)
        rest = S.encapsulate({focus}, fam)
        named = S.compose(S.singleton(focus, service), rest)
        action = ta.basic(focus, method)
        left = use(ta.build(TPost(action, x, y)), named)
        p = service.reply(method)
        if p is None:
            ok &= ta.bisimilar(left, ta.build(ta.tprefix(ta.TAU, TDead())))
        else:
            derived = S.compose(S.singleton(focus, service.derive(method)), rest)
            ok &= ta.bisimilar(
                left, combine_prefix(ta.TAU, use(ta.build(ta.tchoice(x, p, y)), derived))
            )
        # choice distributes with unchanged weights
        pi = genlib.open_probability(rng)
        ok &= ta.bisimilar(
            use(ta.build(TProb(((pi, x), (1 - pi, y)))), fam),
            combine_prob([(pi, use(gx, fam)), (1 - pi, use(gy, fam))]),
        )
        # abstraction laws
        ok &= ta.bisimilar(abstract(ta.build(TStop())), ta.build(TStop()))
        ok &= ta.bisimilar(abstract(ta.build(TDead())), ta.build(TDead()))
        ok &= ta.bisimilar(abstract(ta.build(ta.tprefix(ta.TAU, x))), abstract(gx))
        visible = ta.basic("main", rng.choice("ab"))
        ok &= ta.bisimilar(
            abstract(ta.build(TPost(visible, x, y))),
            combine_post(visible, abstract(gx), abstract(gy)),
        )
        ok &= ta.bisimilar(
            abstract(ta.build(TProb(((pi, x), (1 - pi, y))))),
            combine_prob([(pi, abstract(gx)), (1 - pi, abstract(gy))]),
        )
    # projection identity through the use operator
    proj_ok = True
    for _ in range(500):
        g, fam = _interaction_pair(rng, depth=3)
        for n in range(7):
            proj_ok &= ta.equal_up_to(n, use(g, fam), use(T.project(n, g), fam))
    # abstraction stabilizes on deep enough projections
    stab_ok = True
    for _ in range(200):
        g, fam = _interaction_pair(rng, depth=2)
        t = use(g, fam)
        abstracted = abstract(t)
        closure = sum(
            1
            for node in ta.normalize(t).nodes
            if isinstance(node, Prob) or (isinstance(node, Post) and node.action.is_tau)
        )
        for n in range(4):
            k = n * (1 + closure)
            target = ta.normalize(T.project(n, abstracted))
            for m in (k, k + 1, k + 2):
                stab_ok &= (
                    ta.normalize(T.project(n, abstract(T.project(m, t)))) == target
                )
    report(4, "interaction laws, 500/500/200 pairs", ok and proj_ok and stab_ok)


def _small_tuple(rng, max_threads=3, depth=3):
    # within the stated shape (at most 3 threads of depth at most 3);
    # additionally capped in size so fork-heavy draws cannot make the
    # scheduler product explode combinatorially
    while True:
        n = rng.randint(1, max_threads)
        ts = [
            ta.build(genlib.term(rng, rng.randint(0, depth), allow_fork=True))
            for _ in range(n)
        ]
        nodes = sum(len(t.nodes) for t in ts)
        forks = sum(
            1 for t in ts for node in t.nodes if isinstance(node, Fork)
        )
        if nodes <= 24 and forks <= 2:
            return ts


def test_criterion_5_interleaving_laws():
    rng = random.Random(1005)
    makers = (IL.cyclic_scheduler, IL.uniform_scheduler, lambda: IL.lottery_scheduler(2))
    ok = True
    forks_ok = True
    for trial in range(500):
        spec = makers[trial % 3]()
        ts = _small_tuple(rng)
        n = len(ts)
        h = () if rng.random() < 0.4 else ((rng.randint(1, n + 1), n),)
        s = spec.initial_state
        view = spec.digest(h)
        # the top-level step is the turn-weighted choice of positional steps
        weights = spec.schedule(n, view, s)
        branches = [
            (w, IL.positional_interleave(spec, i + 1, ts, h, s))
            for i, w in enumerate(weights)
            if w != 0
        ]
        rhs = combine_prob(branches) if len(branches) > 1 else branches[0][1]
        ok &= ta.bisimilar(IL.interleave(spec, ts, h, s), rhs)
        # positional case analysis at a random index and head
        i = rng.randrange(n)
        rest = ts[:i] + ts[i + 1 :]
        kind = rng.choice(["stop", "dead", "fork", "post", "prob"])
        if kind == "stop":
            ts[i] = ta.build(TStop())
            lhs = IL.positional_interleave(spec, i + 1, ts, h, s)
            if n == 1:
                ok &= ta.bisimilar(lhs, ta.build(TStop()))
            else:
                s2 = spec.update(n, view, s, i + 1, IL.TERMINATION_STEP)
                ok &= ta.bisimilar(
                    lhs, IL.interleave(spec, rest, h + ((i + 1, n - 1),), s2)
                )
        elif kind == "dead":
            ts[i] = ta.build(TDead())
            lhs = IL.positional_interleave(spec, i + 1, ts, h, s)
            if n == 1:
                ok &= ta.bisimilar(lhs, ta.build(TDead()))
            else:
                s2 = spec.update(n, view, s, i + 1, IL.INACTION_STEP)
                ok &= ta.bisimilar(
                    lhs,
                    IL.deadlock_at_termination(
                        IL.interleave(spec, rest, h + ((i + 1, n - 1),), s2)
                    ),
                )
        elif kind == "fork":
            forked = ta.build(genlib.term(rng, 2))
            cont = ta.build(genlib.term(rng, 2))
            ts[i] = genlib.combine_fork(forked, cont, ta.build(genlib.term(rng, 2)))
            lhs = IL.positional_interleave(spec, i + 1, ts, h, s)
            s2 = spec.update(n, view, s, i + 1, IL.FORK_STEP)
            grown = ts[:i] + [cont] + ts[i + 1 :] + [forked]
            ok &= ta.bisimilar(
                lhs,
                combine_prefix(
                    ta.TAU, IL.interleave(spec, grown, h + ((i + 1, n + 1),), s2)
                ),
            )
        elif kind == "post":
            action = ta.basic("main", rng.choice("ab")) if rng.random() < 0.8 else ta.TAU
            gl, gr = ta.build(genlib.term(rng, 2)), ta.build(genlib.term(rng, 2))
            ts[i] = combine_post(action, gl, gr)
            lhs = IL.positional_interleave(spec, i + 1, ts, h, s)
            s2 = spec.update(n, view, s, i + 1, IL.BasicStep(action))
            h2 = h + ((i + 1, n),)
            ok &= ta.bisimilar(
                lhs,
                combine_post(
                    action,
                    IL.interleave(spec, ts[:i] + [gl] + ts[i + 1 :], h2, s2),
                    IL.interleave(spec, ts[:i] + [gr] + ts[i + 1 :], h2, s2),
                ),
            )
        else:
            pi = genlib.open_probability(rng)
            gl, gr = ta.build(genlib.term(rng, 2)), ta.build(genlib.term(rng, 2))
            ts[i] = combine_prob([(pi, gl), (1 - pi, gr)])
            lhs = IL.positional_interleave(spec, i + 1, ts, h, s)
            ok &= ta.bisimilar(
                lhs,
                combine_prob(
                    [
                        (pi, IL.positional_interleave(spec, i + 1, ts[:i] + [gl] + ts[i + 1 :], h, s)),
                        (1 - pi, IL.positional_interleave(spec, i + 1, ts[:i] + [gr] + ts[i + 1 :], h, s)),
                    ]
                ),
            )
        # deadlock-at-termination laws on the same draws
        sd = IL.deadlock_at_termination
        ok &= ta.bisimilar(sd(ta.build(TStop())), ta.build(TDead()))
        ok &= ta.bisimilar(sd(ta.build(TDead())), ta.build(TDead()))
        gx, gy, gz = (ta.build(genlib.term(rng, 2, allow_fork=True)) for _ in range(3))
        act = ta.basic("main", rng.choice("ab"))
        ok &= ta.bisimilar(sd(combine_post(act, gx, gy)), combine_post(act, sd(gx), sd(gy)))
        ok &= ta.bisimilar(
            sd(genlib.combine_fork(gz, gx, gy)), genlib.combine_fork(sd(gz), sd(gx), sd(gy))
        )
        pi = genlib.open_probability(rng)
        ok &= ta.bisimilar(
            sd(combine_prob([(pi, gx), (1 - pi, gy)])),
            combine_prob([(pi, sd(gx)), (1 - pi, sd(gy))]),
        )
        # fork elimination
        merged = ta.normalize(IL.interleave(spec, ts, h, s))
        forks_ok &= not any(isinstance(node, Fork) for node in merged.nodes)
    # projection identities
    proj_ok = True
    for trial in range(120):
        spec = makers[trial % 3]()
        ts = _small_tuple(rng)
        for n in range(6):
            cut = [T.project(n, t) for t in ts]
            proj_ok &= ta.equal_up_to(n, IL.interleave(spec, ts), IL.interleave(spec, cut))
        t = ts[0]
        for n in range(7):
            proj_ok &= ta.equal_up_to(
                n,
                IL.deadlock_at_termination(t),
                IL.deadlock_at_termination(T.project(n, t)),
            )
    report(5, "interleaving laws, 500 tuples", ok and forks_ok and proj_ok)


def test_criterion_6_instruction_extraction():
    ok = True
    prog = ta.parse_program
    # every extraction clause has a golden case
    ok &= ta.bisimilar(ta.extract_at(1, prog("!")), ta.build(TStop()))
    ok &= ta.bisimilar(ta.extract_at(5, prog("! ; !")), ta.build(TDead()))
    ok &= ta.bisimilar(ta.extract_at(0, prog("!")), ta.build(TDead()))
    ok &= ta.bisimilar(
        ta.extract_at(1, prog("a ; !")),
        ta.build(ta.tprefix(A, TStop())),
    )
    ok &= ta.bisimilar(
        ta.extract_at(1, prog("+a ; ! ; b ; !")),
        ta.build(TPost(A, TStop(), ta.tprefix(ta.basic("main", "b"), TStop()))),
    )
    ok &= ta.bisimilar(
        ta.extract_at(1, prog("-a ; ! ; b ; !")),
        ta.build(TPost(A, ta.tprefix(ta.basic("main", "b"), TStop()), TStop())),
    )
    rand_act = ta.basic("random", "get(1/3)")
    ok &= ta.bisimilar(
        ta.extract_at(1, prog("%1/3 ; !")), ta.build(ta.tprefix(rand_act, TStop()))
    )
    ok &= ta.bisimilar(
        ta.extract_at(1, prog("+%1/3 ; ! ; a ; !")),
        ta.build(TPost(rand_act, TStop(), ta.tprefix(A, TStop()))),
    )
    ok &= ta.bisimilar(
        ta.extract_at(1, prog("-%1/3 ; ! ; a ; !")),
        ta.build(TPost(rand_act, ta.tprefix(A, TStop()), TStop())),
    )
    ok &= ta.bisimilar(ta.extract_at(1, prog("#2 ; ! ; b ; !")),
                       ta.build(ta.tprefix(ta.basic("main", "b"), TStop())))
    ok &= ta.bisimilar(ta.extract_at(1, prog("#0")), ta.build(TDead()))
    ok &= ta.bisimilar(ta.extract_at(1, prog("\\5 ; !")), ta.build(TDead()))
    ok &= ta.bisimilar(
        ta.extract_at(3, prog("a ; ! ; \\2")), ta.extract_at(1, prog("a ; !"))
    )
    ok &= ta.bisimilar(ta.extract_at(1, prog("#2 ; ! ; \\2")), ta.build(TDead()))
    golden = ok

    # the coin program has the exact half/half outcome
    coin = ta.extract(prog("+%1/2 ; ! ; #0"))
    d = analysis.outcome_distribution(coin, analysis.EMPTY_ENVIRONMENT, 3)
    coin_ok = (d.terminate, d.deadlock, d.surviving) == (
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(0),
    )

    # the divergent retry abstracts to the plain action exactly, and its
    # finite projections converge with the geometric tail
    retry = ta.build(
        TRec(
            (
                (
                    "X",
                    TProb(
                        (
                            (Fraction(1, 2), ta.tprefix(A, TStop())),
                            (Fraction(1, 2), ta.tprefix(ta.TAU, TVar("X"))),
                        )
                    ),
                ),
            ),
            "X",
        )
    )
    solved = interaction.abstract_tau(retry)
    retry_ok = ta.normalize(solved) == ta.normalize(ta.build(ta.tprefix(A, TStop())))
    for m in range(2, 21):
        tail = Fraction(1, 2**m)
        expected = ta.build(
            TProb(
                (
                    (1 - 2 * tail, ta.tprefix(A, TStop())),
                    (tail, ta.tprefix(A, TDead())),
                    (tail, TDead()),
                )
            )
        )
        retry_ok &= ta.normalize(
            interaction.abstract_tau(T.project(m, retry))
        ) == ta.normalize(expected)
    report(6, "instruction extraction goldens", golden and coin_ok and retry_ok)


def test_criterion_7_scheduler_reproduction():
    def chain(*methods):
        term = TStop()
        for m in reversed(methods):
            term = ta.tprefix(ta.basic("main", m), term)
        return ta.build(term)

    g = ta.normalize(
        IL.interleave(IL.cyclic_scheduler(), [chain("a1", "a2", "a3"), chain("b1", "b2", "b3")])
    )
    trace = []
    ref = g.root
    while isinstance(g.nodes[ref], Post):
        trace.append(g.nodes[ref].action.method)
        ref = g.nodes[ref].then_
    alternation = trace == ["a1", "b1", "a2", "b2", "a3", "b3"] and isinstance(
        g.nodes[ref], Stop
    )

    # uniform: the first turn is thread 1, the next is an exact 1/2 split
    raw = ta.normalize(
        IL.interleave(IL.uniform_scheduler(), [chain("a", "a2"), chain("b")])
    )
    root = raw.nodes[raw.root]
    uniform_ok = isinstance(root, Post) and root.action == ta.basic("main", "a")
    second = raw.nodes[root.then_]
    uniform_ok &= isinstance(second, Prob) and sorted(
        w for w, _ in second.branches
    ) == [Fraction(1, 2), Fraction(1, 2)]
    simple = ta.normalize(IL.interleave(IL.uniform_scheduler(), [chain("a"), chain("b")]))
    uniform_ok &= simple == ta.normalize(
        ta.build(ta.tprefix(A, ta.tprefix(ta.basic("main", "b"), TStop())))
    )
    report(7, "scheduler reproduction", alternation and uniform_ok)


def test_criterion_8_monte_carlo():
    started = time.perf_counter()
    coin = ta.extract(ta.parse_program("+%1/2 ; ! ; #0"))
    runs = 100_000
    freq = analysis.sample_outcomes(coin, analysis.EMPTY_ENVIRONMENT, 3, seed=2026, runs=runs)
    again = analysis.sample_outcomes(coin, analysis.EMPTY_ENVIRONMENT, 3, seed=2026, runs=runs)
    elapsed = time.perf_counter() - started
    close = abs(freq[analysis.TERMINATE] - Fraction(1, 2)) < Fraction(1, 100)
    deterministic = freq == again
    report(
        8,
        f"monte carlo, {runs} runs in {elapsed:.2f}s "
        f"(terminate {freq[analysis.TERMINATE]})",
        close and deterministic and elapsed < 30.0,
    )


def test_criterion_9_cli_determinism(capsys):
    ok = True
    for argv in ALL_COMMANDS:
        code1 = cli.main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli.main(list(argv))
        out2 = capsys.readouterr().out
        ok &= code1 == code2 == 0 and out1 == out2 and bool(out1)
    with capsys.disabled():
        report(9, f"CLI determinism over {len(ALL_COMMANDS)} invocations", ok)
