"""Differential tests: the production algorithms against the oracles.

`threads.normalize` must return exactly the graph of the original
Fraction-signature refinement, also on weights with large coprime
denominators and on subgraphs that only the else branches of tau
steps reach, and return the graphs it made unchanged;
`interaction.abstract_tau`, which walks its input from the root and
eliminates each tau node as a depth-first search finishes it, must
return exactly the graph of the version that split its tau region into
strongly connected components by Tarjan's search and eliminated each
component over all of its rows, also on `.pglb` ring programs of 10 to
40 retry blocks, loops of 2 to 200 choices and tau regions that the
search finishes in another order than breadth-first; it must agree
with the version that normalized its input and solved the whole
region at once, and with the version that built its escape
distributions into a second graph and normalized that, also on inputs
with unreachable junk, on tau regions of each shape, on generated rings
of up to 40 tau steps with chords and self-loops, closed or escaping
only to inaction, on never-escaping mass next to visible inaction and
on `.pglb` retry loops;
the sparse `oracles._solve`, which the two `abstract_tau` oracles
share, must return exactly the solution of the dense Gauss-Jordan
elimination, and the integer-numerator
`analysis` kernel and integer-cutoff sampler must return exactly what
the recursive Fraction walkers return, raising the same error first
where they raise, also on copies of their inputs renumbered and padded
with unreachable junk; its trace table, one forward walk over lumped
distributions, must equal the backward merge's, order and shared
Fractions included, at depths 0-10 on the retry terms, a product of
the cyclic threads, interleave outputs, a register program through
`use`, traces that end in all three ways at one prefix and two action
nodes with one label.  Its masses, from discovery by levels and
iteration over lumped classes, must equal the per-node kernel's, and
its errors the type and message that kernel's ordered walk meets
first, on uniform products of three and four threads with exits at
depths 0-12 and 40, interleave outputs, a register program through
`use`, random threads with forks and missing replies, and threads
whose levels meet a missing reply before the walk's first error.
`use`, `interleave` and `positional_interleave`, which share
`GraphBuilder`'s keyed worklist and return their graphs as built, must
return the graphs of the constructions that kept their own up to a
renaming of node ids, with no unreachable node, also on inputs
renumbered and padded with unreachable junk, and overrun a small state
bound on exactly the same inputs.  The shared integer weight check
behind `Prob`, `build` and `nary_prob` must accept and reject exactly
what the first Fraction checks did, with the same exception type and
message, but that `Prob` rejects a weight that is not an `int` or
`Fraction` where the first check took floats; `threads.nary_prob`, a
loop, must return exactly the nest of the recursive version, or raise
its error, also with zero weights anywhere.  `terms.print_term`, which
walks the graph once in preorder and renders on an explicit stack,
must print exactly what the recursive printer did.
`threads.head_distributions`, integer numerators over one reduced
denominator on an explicit stack, must give the recursive Fraction
version's weights in its key order, with the lcm of their denominators
as the denominator; interleaving pools with twin threads and with
equal choice weights check that the engine's int-keyed interning shares
nodes as the oracle engine does, and the engine must build node for
node the graph of the engine that interned each new node by its
structural hash, also on two threads whose equal steps sit at
different input nodes; on every built-in product scheduler it must
also return exactly the graph of the engine that keyed its states on
history views and control states instead of their numbers, and overrun
a small state bound with the same error on the same inputs.
`threads.quotient`, whose refinement rounds (`threads.refine`, shared
with the outcome lumping) run on position-indexed lists, must give
`normalize` and `abstract_tau` exactly the graphs of the dict-based
rounds, and end its rounds where the block count stops growing or
every node is alone, without signing a discrete partition.
`threads.build`, one generator walk
under `threads.run_stackless` and its guard search after it, must
accept the terms the two-walk build accepts, with equal canonical
forms, and reject the ones it rejects, on random nested `rec` systems
with aliases, forward references, zero and one weights, forks and
faults; the one difference allowed is a choice collapsing onto a later
equation, which only `build` can build.  `threads.project`, a
generator walk as well, must return exactly the graph of the hand-made
post-order walk.  `terms.parse_term`, which reads each token once, must
accept and reject exactly the texts the parser that skimmed each `rec`
equation first did, with equal terms, and raise the same first error on
texts without `rec` and on systems with at most one name fault.
`threads.equal_up_to`, which leaves a depth that reaches the two
graphs' node count to `bisimilar` where neither graph forks, must
answer and raise exactly as the projections did, at depths 0-8 and
around that count, on random `rec` systems, threads against their own
projections, random threads with forks, and choice and fork-only
cycles built through the API.
"""

import functools
import json
import math
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import genlib
import oracles
import threadalg as ta
from oracles import (
    OracleGraphBuilder,
    OracleProb,
    oracle_abstract_tau,
    oracle_backward_outcome_distribution,
    oracle_component_abstract_tau,
    oracle_hashcons_product,
    oracle_head_distributions,
    oracle_interleave,
    oracle_normalize,
    oracle_outcome_distribution,
    oracle_positional_interleave,
    oracle_print_term,
    oracle_quotient,
    oracle_resolve_abstract_tau,
    oracle_sample_outcomes,
    oracle_sample_run,
    oracle_solve,
    oracle_tuple_key_product,
    oracle_use,
)
from threadalg import analysis, interaction, interleaving, pglb, services, terms, threads
from threadalg.errors import (
    Error,
    MalformedProbability,
    MissingReply,
    MissingTurnWeights,
    NonRegularProduct,
    UnguardedRecursion,
    UnresolvedFork,
    WeightSumNotOne,
)
from threadalg.threads import (
    DEAD,
    STOP,
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
)

DATA = Path(__file__).parent / "data"


def rec_term(rng, k, mk_action=lambda rng: genlib.action(rng, "ab")):
    """A guarded recursive system of k equations, with tau and choices."""
    names = [f"X{i}" for i in range(k)]

    def body(depth):
        r = rng.random()
        if depth == 0 or r < 0.35:
            if rng.random() < 0.75:
                return TVar(rng.choice(names))
            return TStop() if rng.random() < 0.5 else TDead()
        if r < 0.65:
            weights = genlib.distribution(rng, rng.randint(2, 3), max_den=6)
            return TProb(tuple((w, body(depth - 1)) for w in weights))
        return TPost(mk_action(rng), body(depth - 1), body(depth - 1))

    eqs = tuple((n, TPost(mk_action(rng), body(2), body(2))) for n in names)
    return TRec(eqs, names[0])


def random_threads(rng, count):
    out = []
    for _ in range(count):
        if rng.random() < 0.5:
            out.append(ta.build(rec_term(rng, rng.randint(1, 4))))
        else:
            out.append(genlib.thread(rng, rng.randint(0, 4), allow_fork=True))
    return out


def tau_orphan_threads(rng, count):
    """Random threads with tau steps whose else branches alone enter a
    second random thread, which performs actions the first may not."""
    def mk_action(rng):
        return genlib.action(rng, ["a", "a2", "b", "z"])

    return [
        genlib.with_tau_orphans(rng, g, genlib.thread(rng, rng.randint(1, 4), mk_action=mk_action))
        for g in random_threads(rng, count)
    ]


def test_normalize_matches_oracle_on_random_threads():
    rng = random.Random(20)
    for g in random_threads(rng, 150) + tau_orphan_threads(rng, 100):
        assert threads.normalize(g) == oracle_normalize(g)


def test_print_term_matches_oracle_on_random_threads():
    rng = random.Random(27)
    for g in random_threads(rng, 150):
        for h in (g, threads.normalize(g)):
            assert terms.print_term(h) == oracle_print_term(h)


def test_normalize_matches_oracle_on_use_outputs():
    rng = random.Random(21)
    for _ in range(80):
        term = genlib.term(rng, rng.randint(1, 4), mk_action=genlib.service_action)
        g = interaction.use(ta.build(term), genlib.family(rng))
        assert threads.normalize(g) == oracle_normalize(g)


def _schedulers():
    table = json.loads((DATA / "sched.json").read_text())
    return [
        interleaving.cyclic_scheduler(),
        interleaving.uniform_scheduler(),
        interleaving.lottery_scheduler(2),
        interleaving.scheduler_from_table(table),
    ]


@pytest.mark.parametrize("kind", range(4), ids=["cyclic", "uniform", "lottery", "table"])
def test_normalize_matches_oracle_on_interleave_outputs(kind):
    rng = random.Random(22 + kind)
    spec = _schedulers()[kind]
    for _ in range(8):
        # the table lists turn weights for up to three threads, so no forks there
        pool = [
            ta.build(rec_term(rng, rng.randint(1, 3)))
            if rng.random() < 0.6 or kind == 3
            else genlib.thread(rng, rng.randint(0, 3), allow_fork=True)
            for _ in range(rng.randint(2, 3))
        ]
        g = interleaving.interleave(spec, pool)
        assert threads.normalize(g) == oracle_normalize(g)


def head_inputs():
    """Random threads, `use` and `interleave` outputs, and choice chains."""
    rng = random.Random(29)
    yield from random_threads(rng, 100)
    for _ in range(40):
        term = genlib.term(rng, rng.randint(1, 4), mk_action=genlib.service_action)
        yield interaction.use(ta.build(term), genlib.family(rng))
    for spec in _schedulers():
        for _ in range(6):
            pool = [ta.build(rec_term(rng, rng.randint(1, 3))) for _ in range(rng.randint(2, 3))]
            yield interleaving.interleave(spec, pool)
    # as deep as the recursive oracle can go
    for n in (1, 2, 3, 50, 250):
        yield genlib.choice_chain(n)


def test_head_distributions_match_oracle():
    for g in head_inputs():
        refs = threads.reachable(g)
        got = threads.head_distributions(g, refs)
        want = oracle_head_distributions(g, refs)
        for r in refs:
            den, nums = got[r]
            assert list(nums) == list(want[r])
            assert [Fraction(x, den) for x in nums.values()] == list(want[r].values())
            assert den == math.lcm(*(w.denominator for w in want[r].values()))


def _dense_solve(a, b):
    n = len(a)
    width = 1 + max((j for row in b for j in row), default=-1)
    dense_a = [[row.get(j, Fraction(0)) for j in range(n)] for row in a]
    dense_b = [[row.get(j, Fraction(0)) for j in range(width)] for row in b]
    return [{j: v for j, v in enumerate(row) if v} for row in oracle_solve(dense_a, dense_b)]


def pipeline_inputs():
    """`use` outputs with random services, then random threads."""
    rng = random.Random(23)
    graphs = []
    for _ in range(60):
        term = genlib.term(rng, rng.randint(1, 4), mk_action=genlib.service_action)
        graphs.append(interaction.use(ta.build(term), genlib.family(rng)))
    return graphs + random_threads(rng, 60)


def tau_region_inputs():
    """Tau regions of rings with chords and self-loops: components of
    1 to 40 steps, closed ones and ones that escape only to inaction."""
    rng = random.Random(31)
    graphs = [genlib.tau_region(rng, sizes) for sizes in ([1], [2], [40], [40, 1], [3, 40, 2])]
    for _ in range(60):
        k = rng.randint(1, 4)
        graphs.append(genlib.tau_region(
            rng, [rng.randint(1, 40) if rng.random() < 0.2 else rng.randint(1, 6) for _ in range(k)]
        ))
    return graphs


def test_abstract_tau_matches_oracle_pipeline(monkeypatch):
    cases = [(g, interaction.abstract_tau(g)) for g in pipeline_inputs() + tau_region_inputs()]
    monkeypatch.setattr(threads, "normalize", oracle_normalize)
    monkeypatch.setattr(oracles, "_solve", _dense_solve)
    for g, got in cases:
        assert got == oracle_abstract_tau(g)


def test_abstract_tau_matches_the_oracle_that_resolves_into_a_graph():
    rng = random.Random(27)
    graphs = pipeline_inputs() + tau_region_inputs()
    graphs += [with_junk(rng, g) for g in graphs]
    for g in graphs + UNGUARDED:
        assert outcome(interaction.abstract_tau, g) == outcome(oracle_resolve_abstract_tau, g)


HALF = Fraction(1, 2)


def with_junk(rng, g):
    """`g` renumbered at random, with unreachable nodes mixed in: an
    unguarded cycle of choices and tau steps, actions and terminals
    that may lead into it or into `g`."""
    n = len(g.nodes)
    total = n + 2 + rng.randint(1, 4)
    perm = list(range(total))
    rng.shuffle(perm)
    nodes = [None] * total
    for r, node in enumerate(g.nodes):
        nodes[perm[r]] = threads._map_refs(node, perm)
    a, b = perm[n], perm[n + 1]
    nodes[a] = Prob(((HALF, b), (HALF, perm[0])))
    nodes[b] = Prob(((HALF, a), (HALF, perm[n - 1])))
    for j in perm[n + 2 :]:
        to = perm[rng.randrange(total)]
        nodes[j] = rng.choice(
            [Post(ta.TAU, to, perm[rng.randrange(n)]), Post(ta.basic("main", "a"), to, to), STOP]
        )
    return ThreadGraph(tuple(nodes), perm[g.root])


# reachable unguarded cycles: at the root, behind tau, behind tau's else branch
UNGUARDED = [
    ThreadGraph((Prob(((HALF, 1), (HALF, 2))), Prob(((HALF, 0), (HALF, 2))), STOP), 0),
    ThreadGraph((Post(ta.TAU, 1, 1), Prob(((HALF, 1), (HALF, 2))), STOP), 0),
    ThreadGraph((Post(ta.TAU, 2, 1), Prob(((HALF, 1), (HALF, 2))), STOP), 0),
]


def test_abstract_tau_matches_oracle_that_normalizes_its_input():
    rng = random.Random(25)
    graphs = pipeline_inputs()
    graphs += [with_junk(rng, g) for g in graphs]
    for g in graphs:
        assert outcome(interaction.abstract_tau, g) == outcome(oracle_abstract_tau, g)
    for g in UNGUARDED:
        got = outcome(interaction.abstract_tau, g)
        assert got == outcome(oracle_abstract_tau, g)
        assert got[0] is UnguardedRecursion


# tau regions by shape: node tables rooted at 0, followed by the
# visible nodes "A" and "B"; `tau(k)` steps to the choice at entry k


def region(*nodes):
    n = len(nodes)
    refs = {"A": n, "B": n + 1}
    table = [
        Prob(tuple((w, refs.get(t, t)) for w, t in node.branches))
        if isinstance(node, Prob)
        else node
        for node in nodes
    ]
    table += [Post(ta.basic("main", x), n + 2, n + 2) for x in "ab"] + [STOP]
    return ThreadGraph(tuple(table), 0)


def tau(k):
    return Post(ta.TAU, k, k)


def choice(*branches):
    return Prob(tuple((Fraction(w), t) for w, t in branches))


TAU_REGIONS = {
    "two-node SCC": region(
        tau(1), choice(("1/2", 2), ("1/2", "A")), tau(3), choice(("1/3", 0), ("2/3", "B"))
    ),
    # only 4 steps back to 0, so 2 learns from 4 that it is in 0's SCC
    "three-node SCC": region(
        tau(1),
        choice(("1/2", 2), ("1/2", "A")),
        tau(3),
        choice(("1/4", 4), ("3/4", "B")),
        tau(5),
        choice(("1/5", 0), ("2/5", "B"), ("2/5", 2)),
    ),
    # {0, 2} escapes only into {4, 6}, which reaches A and B
    "SCC feeding an SCC": region(
        tau(1),
        choice(("1/2", 2), ("1/2", 4)),
        tau(3),
        choice(("1/3", 0), ("2/3", 6)),
        tau(5),
        choice(("1/2", 6), ("1/2", "A")),
        tau(7),
        choice(("1/7", 4), ("6/7", "B")),
    ),
    # {1, 3} loops without escape, {5, 7} escapes
    "SCC that never escapes": region(
        choice(("1/3", 1), ("2/3", 5)),
        tau(2),
        choice(("1/2", 3), ("1/2", 1)),
        tau(4),
        choice(("1", 1)),
        tau(6),
        choice(("1/2", 7), ("1/2", "B")),
        tau(8),
        choice(("1/3", 5), ("2/3", "A")),
    ),
    "self-loop": region(tau(1), choice(("1/4", 0), ("3/4", "A"))),
    # 1 and 3 share the successor 5, and the action's two branches
    # ask for distributions that both go through it
    "diamond": region(
        Post(ta.basic("main", "c"), 1, 3),
        tau(2),
        choice(("1/2", 5), ("1/2", "A")),
        tau(4),
        choice(("1/3", 5), ("2/3", "B")),
        tau(6),
        choice(("1/2", "A"), ("1/2", "B")),
    ),
    # the action at 4 is reached only through the SCC {0, 2}, and its
    # True branch leads back into it
    "visible node behind an SCC": region(
        tau(1),
        choice(("1/2", 2), ("1/2", 4)),
        tau(3),
        choice(("1/3", 0), ("2/3", 4)),
        Post(ta.basic("main", "c"), 0, 5),
    ),
}


@pytest.mark.parametrize("name", sorted(TAU_REGIONS))
def test_abstract_tau_matches_oracle_on_tau_regions(name):
    g = TAU_REGIONS[name]
    got = interaction.abstract_tau(g)
    assert got == oracle_abstract_tau(g)
    assert got == oracle_resolve_abstract_tau(g)


def test_visible_node_behind_an_scc_is_kept():
    got = interaction.abstract_tau(TAU_REGIONS["visible node behind an SCC"])
    want = "rec X { X = post(main.c, X, prefix(main.a, S)); } in X"
    assert got == threads.normalize(ta.parse_thread(want))


# mass that never escapes, next to visible inaction: node 0 is the
# root, 1 a tau loop that never escapes and 2 visible inaction; the
# other nodes terminate, some after an action
INACTION = {
    "choice": (
        [tau(5), tau(1), DEAD, Post(ta.basic("main", "a"), 4, 4), STOP,
         choice(("1/3", 1), ("1/3", 2), ("1/3", 3))],
        "prob(2/3: D, 1/3: prefix(main.a, S))",
    ),
    "choice of inactions": (
        [tau(5), tau(1), DEAD, STOP, STOP, choice(("1/4", 1), ("3/4", 2))],
        "D",
    ),
    "action branches": (
        [Post(ta.basic("main", "b"), 1, 2), tau(1), DEAD, STOP],
        "prefix(main.b, D)",
    ),
    "branch into both": (
        [Post(ta.basic("main", "b"), 5, 3), tau(1), DEAD, Post(ta.basic("main", "a"), 4, 4),
         STOP, choice(("1/2", 1), ("1/2", 2))],
        "post(main.b, D, prefix(main.a, S))",
    ),
    "root never escapes": ([tau(1), tau(1)], "D"),
}


@pytest.mark.parametrize("name", sorted(INACTION))
def test_remainder_mass_and_visible_inaction_are_one_class(name):
    nodes, want = INACTION[name]
    g = ThreadGraph(tuple(nodes), 0)
    got = interaction.abstract_tau(g)
    assert terms.print_term(got) == want
    assert got == oracle_abstract_tau(g)
    assert got == oracle_resolve_abstract_tau(g)


def test_mass_of_a_region_that_never_escapes_becomes_inaction():
    # {5, 7} escapes to A with 2/5 and to B with 3/5
    got = interaction.abstract_tau(TAU_REGIONS["SCC that never escapes"])
    want = "prob(4/15: prefix(main.a, S), 2/5: prefix(main.b, S), 1/3: D)"
    assert got == threads.normalize(ta.parse_thread(want))


def retry_program(rng, size):
    """A `.pglb` program of random skips, actions and retry loops
    `-%p ; \\k`, whose backward jumps overlap and nest."""
    out = []
    while len(out) < size:
        kind = rng.random()
        p = rng.choice(["1/2", "1/3", "2/3", "1/4", "3/5"])
        if kind < 0.3:
            out += [f"+%{p}", "#2", rng.choice("ab")]
        elif kind < 0.6 and out:
            out += [f"-%{p}", f"\\{rng.randint(1, min(6, len(out) + 1))}"]
        else:
            out.append(rng.choice("abc"))
    return " ; ".join(out + ["!"])


def test_abstract_tau_matches_oracle_on_nested_retry_loops():
    rng = random.Random(26)
    family = services.singleton(pglb.RANDOM_FOCUS, services.RANDOM)
    for _ in range(40):
        program = pglb.parse_program(retry_program(rng, rng.randint(4, 16)))
        g = interaction.use(pglb.extract_at(1, program), family)
        got = interaction.abstract_tau(g)
        assert got == oracle_abstract_tau(g)
        assert got == oracle_resolve_abstract_tau(g)


def ring_program(n):
    """`n` retry blocks `-%1/3 ; J ; +%1/5 ; a<i mod 5>` whose jumps J
    (#4, then \\5, then \\9) tie them into one tau component."""
    jumps = ["#4", "\\5"] + ["\\9"] * (n - 2)
    return " ; ".join([f"-%1/3 ; {jumps[i]} ; +%1/5 ; a{i % 5}" for i in range(n)] + ["!"])


def choice_loop(n):
    """`n` fair choices, each going on or skipping the next, in a loop
    that only `a` leaves."""
    return "+%1/2 ; " * n + f"\\{n} ; a ; !"


def random_extracts(texts):
    family = services.singleton(pglb.RANDOM_FOCUS, services.RANDOM)
    return [interaction.use(pglb.extract_at(1, pglb.parse_program(t)), family) for t in texts]


def tau_steps(*targets):
    """Tau steps, step i choosing uniformly among `targets[i]`: other
    steps by number, and the visible nodes "A" and "B"."""
    nodes = []
    for ts in targets:
        nodes += [
            tau(len(nodes) + 1),
            choice(*((Fraction(1, len(ts)), 2 * t if isinstance(t, int) else t) for t in ts)),
        ]
    return region(*nodes)


def reordered_tau_regions(n):
    """Tau regions that a depth-first search finishes in another order
    than breadth-first: a chain of `n` steps with a shortcut from its
    start to its end, and steps next to the root that close a loop
    through a chain of `n`."""
    chain = [[i + 1, "A"] for i in range(n - 1)] + [[0, "B"]]
    chain[0].append(n - 1)
    loop = [[1, 2, "A"], [n + 1, "B"]] + [[i + 1, "A"] for i in range(2, n + 1)] + [[0, 1, "B"]]
    return [tau_steps(*chain), tau_steps(*loop)]


def test_abstract_tau_matches_the_oracle_that_solves_component_by_component():
    rng = random.Random(28)
    retries = [retry_program(rng, rng.randint(4, 16)) for _ in range(40)]
    rings = [ring_program(n) for n in (10, 11, 17, 25, 40)]
    loops = [choice_loop(n) for n in (2, 3, 5, 8, 30, 99, 200)]
    graphs = pipeline_inputs() + tau_region_inputs() + random_extracts(retries + rings + loops)
    graphs += [g for n in (4, 7, 30) for g in reordered_tau_regions(n)]
    for g in graphs:
        assert interaction.abstract_tau(g) == oracle_component_abstract_tau(g)


def test_abstract_tau_matches_oracle_on_the_choice_chain():
    program = pglb.parse_program(" ; ".join(["+%1/3 ; #2 ; a"] * 10 + ["!"]))
    g = interaction.use(
        pglb.extract_at(1, program),
        services.singleton(pglb.RANDOM_FOCUS, services.RANDOM),
    )
    got = interaction.abstract_tau(g)
    assert got == oracle_abstract_tau(g)
    assert got == oracle_resolve_abstract_tau(g)


# ---------------------------------------------------------------------------
# the product constructions on the shared keyed worklist

PRODUCT_BOUNDS = (1, 2, 3, 5, 8)


def use_inputs():
    """Threads with service actions and forks, recursive ones too, each
    with a random family, and a `.pglb` chain that asks one Random
    method at many nodes."""
    rng = random.Random(27)
    cases = []
    for _ in range(150):
        g = genlib.thread(
            rng, rng.randint(1, 4), mk_action=genlib.service_action, allow_fork=True
        )
        cases.append((g, genlib.family(rng)))
    for _ in range(50):
        g = ta.build(rec_term(rng, rng.randint(1, 3), mk_action=genlib.service_action))
        cases.append((g, genlib.family(rng)))
    chain = pglb.parse_program(" ; ".join(["+%1/3 ; #2 ; a"] * 20) + " ; !")
    cases.append((pglb.extract_at(1, chain), services.parse_family("{random: Random}")))
    return cases


def test_use_matches_oracle():
    cases = use_inputs()
    junk = random.Random(28)
    cases += [(with_junk(junk, g), fam) for g, fam in cases]
    for g, fam in cases:
        assert genlib.renumbered(interaction.use(g, fam)) == oracle_use(g, fam)


def test_use_state_bound_matches_oracle():
    overruns = 0
    for g, fam in use_inputs()[::3]:
        for bound in PRODUCT_BOUNDS:
            got = genlib.renumbered(outcome(interaction.use, g, fam, state_bound=bound))
            assert got == outcome(oracle_use, g, fam, state_bound=bound)
            if raised(got):
                assert got[0] is NonRegularProduct
                overruns += 1
    assert overruns > 0


PRODUCT_SCHEDULERS = {
    "cyclic": interleaving.cyclic_scheduler,
    "uniform": interleaving.uniform_scheduler,
    "lottery:2": lambda: interleaving.lottery_scheduler(2),
}


def interleave_inputs(kind):
    """Pools of 1-3 threads: recursive ones, and finite ones with forks.

    The next two pools hold the same thread twice and two threads whose
    choices have equal weights, so that a choice made by either thread,
    once it runs alone, is one shared node.  Then come copies of the
    pools renumbered at random and padded with unreachable nodes.
    """
    rng = random.Random(f"interleave {kind}")
    pools = []
    for _ in range(30):
        pools.append([
            ta.build(rec_term(rng, rng.randint(1, 3)))
            if rng.random() < 0.5
            else genlib.thread(rng, rng.randint(0, 3), allow_fork=True)
            for _ in range(rng.randint(1, 3))
        ])
    twice = ta.parse_thread("prefix(a, prob(1/3: S, 2/3: D))")
    pools.append([twice, twice])
    pools.append([
        ta.parse_thread("prefix(a, prob(1/3: S, 2/3: D))"),
        ta.parse_thread("post(b, prob(1/3: S, 2/3: D), prob(1/3: D, 2/3: prefix(c, S)))"),
    ])
    return pools + [[with_junk(rng, g) for g in pool] for pool in pools]


def products(pool):
    """`interleave` and every `positional_interleave` on `pool`, each with
    its oracle."""
    yield interleaving.interleave, oracle_interleave, ()
    for i in range(1, len(pool) + 1):
        yield interleaving.positional_interleave, oracle_positional_interleave, (i,)


@pytest.mark.parametrize("kind", sorted(PRODUCT_SCHEDULERS))
def test_interleave_matches_oracle(kind):
    spec = PRODUCT_SCHEDULERS[kind]()
    for pool in interleave_inputs(kind):
        for product, oracle, pos in products(pool):
            assert genlib.renumbered(product(spec, *pos, pool)) == oracle(spec, *pos, pool)


@pytest.mark.parametrize("kind", sorted(PRODUCT_SCHEDULERS))
def test_interleave_state_bound_matches_oracle(kind):
    spec = PRODUCT_SCHEDULERS[kind]()
    overruns = 0
    for pool in interleave_inputs(kind)[::2]:
        for product, oracle, pos in products(pool):
            for bound in PRODUCT_BOUNDS:
                got = genlib.renumbered(outcome(product, spec, *pos, pool, state_bound=bound))
                assert got == outcome(oracle, spec, *pos, pool, state_bound=bound)
                if raised(got):
                    assert got[0] is NonRegularProduct
                    overruns += 1
    assert overruns > 0


def shared_step_pool():
    """Two threads whose `m.a` steps are equal once either runs alone,
    at different input nodes: under a lottery the product has 6 nodes,
    and an engine that keyed steps on their input node would build 7."""
    return [
        ta.parse_thread("rec X { X = prefix(m.a, X); } in X"),
        ta.parse_thread("prefix(m.a, rec Y { Y = prefix(m.b, Y); } in Y)"),
    ]


@pytest.mark.parametrize("kind", sorted(PRODUCT_SCHEDULERS))
def test_interleave_matches_the_engine_that_interns_by_structural_hash(kind):
    spec = PRODUCT_SCHEDULERS[kind]()
    for pool in interleave_inputs(kind) + [shared_step_pool()]:
        for pos in range(len(pool) + 1):
            if pos:
                got = interleaving.positional_interleave(spec, pos, pool)
            else:
                got = interleaving.interleave(spec, pool)
            assert genlib.renumbered(got) == genlib.renumbered(
                oracle_hashcons_product(spec, pool, pos)
            )
    assert len(interleaving.interleave(interleaving.lottery_scheduler(), shared_step_pool())) == 6


@pytest.mark.parametrize("kind", sorted(PRODUCT_SCHEDULERS))
def test_interleave_matches_the_engine_keyed_on_view_and_state_tuples(kind):
    spec = PRODUCT_SCHEDULERS[kind]()
    overruns = 0
    for pool in interleave_inputs(kind) + [shared_step_pool()]:
        for pos in range(len(pool) + 1):
            if pos:
                product = functools.partial(interleaving.positional_interleave, spec, pos)
            else:
                product = functools.partial(interleaving.interleave, spec)
            assert product(pool) == oracle_tuple_key_product(spec, pool, pos)
            for bound in PRODUCT_BOUNDS:
                got = outcome(product, pool, state_bound=bound)
                assert got == outcome(oracle_tuple_key_product, spec, pool, pos, state_bound=bound)
                overruns += bool(raised(got))
    assert overruns > 0


def turn_table(turns):
    """A scheduler that reads the turn vector for `n` threads from
    `turns[n]`, as a table scheduler does, but with no check when it is
    made, so that a wrong weight count or sum reaches the engine."""

    def schedule(n, h, s):
        if n not in turns:
            raise MissingTurnWeights(f"state 's0' has no turn weights for {n} threads")
        return turns[n]

    return interleaving.SchedulerSpec(
        "s0", schedule, lambda n, h, s, i, step: s, digest=lambda h: ()
    )


THIRD = Fraction(1, 3)
TURN_TABLES = {
    "missing count": lambda: interleaving.scheduler_from_table(
        {"initial": "s0", "states": {"s0": {"turn": {"1": ["1"], "2": ["1/3", "2/3"]}}}}
    ),
    "wrong count": lambda: turn_table({1: (1,), 2: (HALF, HALF), 3: (HALF, HALF)}),
    "sum not 1": lambda: turn_table({1: (1,), 2: (THIRD, THIRD), 3: (THIRD,) * 3}),
}
TURN_ERRORS = {
    "missing count": MissingTurnWeights,
    "wrong count": ValueError,
    "sum not 1": WeightSumNotOne,
}


@pytest.mark.parametrize("kind", sorted(PRODUCT_SCHEDULERS) + sorted(TURN_TABLES))
def test_canonical_interleave_matches_the_normalized_product(kind):
    """`interleave(..., canonical=True)` builds no choice layers: it must
    return `normalize(interleave(...))`, or raise its exception type and
    message, with and without a small state bound."""
    spec = {**PRODUCT_SCHEDULERS, **TURN_TABLES}[kind]()
    raised_types = []
    for pool in interleave_inputs(kind):
        for bound in (None,) + PRODUCT_BOUNDS:
            bounded = {} if bound is None else {"state_bound": bound}
            got = verdict(interleaving.interleave, spec, pool, canonical=True, **bounded)
            want = verdict(
                lambda: threads.normalize(interleaving.interleave(spec, pool, **bounded))
            )
            assert got == want, (pool, bound)
            if raised(got):
                raised_types.append(got[0])
            else:
                assert got.canonical and threads.normalize(got) is got
    # the bound is overrun, and each bad table fails at use time
    assert NonRegularProduct in raised_types
    if kind in TURN_TABLES:
        assert TURN_ERRORS[kind] in raised_types


# ---------------------------------------------------------------------------
# the canonical mark and integer refinement rounds


def test_normalize_returns_a_canonical_graph_unchanged():
    rng = random.Random(26)
    for g in pipeline_inputs()[::4] + random_threads(rng, 30):
        c = threads.normalize(g)
        assert c.canonical
        assert threads.normalize(c) is c
        copy = ThreadGraph(c.nodes, c.root)
        assert copy == c and hash(copy) == hash(c) and not copy.canonical
        again = threads.normalize(copy)
        assert again is not copy and again == c and again.canonical
        assert not interleaving.deadlock_at_termination(c).canonical
    with pytest.raises(TypeError):
        ThreadGraph(c.nodes, c.root, True)


def refinement_shapes():
    """Graphs whose refinement ends each way, with the block count of
    every round, the last one on the final blocks: discrete from the
    start; a uniform product that one round makes discrete; a last-pair
    table product whose final round splits nothing; and a round-robin
    product that splits in five rounds until it is discrete."""
    cyclic = [ta.parse_thread((DATA / f"cyc{j}.term").read_text()) for j in range(4)]
    table = interleaving.scheduler_from_table(json.loads((DATA / "lastpair.json").read_text()))
    uniform = [
        ta.parse_thread("prob(1/3: S, 2/3: D)"),
        ta.parse_thread("post(a, prob(1/3: S, 2/3: D), post(b, post(a, D, S), S))"),
    ]
    return [
        (ta.parse_thread("post(a, prefix(b, S), D)"), 4, [4]),
        (interleaving.interleave(interleaving.uniform_scheduler(), uniform), 8, [4, 8]),
        (interleaving.interleave(table, cyclic), 128, [2, 74, 80]),
        (interleaving.interleave(interleaving.cyclic_scheduler(), cyclic), 64, [2, 8, 18, 34, 61, 64]),
    ]


def test_quotient_matches_the_oracle_that_refines_on_dicts(monkeypatch):
    graphs = pipeline_inputs() + [g for g, _, _ in refinement_shapes()]
    got = [(threads.normalize(g), interaction.abstract_tau(g)) for g in graphs]
    monkeypatch.setattr(threads, "quotient", oracle_quotient)
    assert got == [(threads.normalize(g), interaction.abstract_tau(g)) for g in graphs]


class ReadCount(list):
    """A list that counts the reads of its items."""

    reads = 0

    def __getitem__(self, k):
        self.reads += 1
        return list.__getitem__(self, k)


def test_refinement_stops_when_no_block_splits_or_every_node_is_alone(monkeypatch):
    ranked = threads._ranked_class_dists
    calls = []

    def counting(supports, block):
        rank, dists = ranked(supports, block)
        calls.append((ReadCount(rank), len(block), len(set(block))))
        return calls[-1][0], dists

    monkeypatch.setattr(threads, "_ranked_class_dists", counting)
    for g, nodes, blocks in refinement_shapes():
        calls.clear()
        out = threads.normalize(g)
        # one round per block count, and none after the count stops growing
        assert [(m, k) for _, m, k in calls] == [(nodes, k) for k in blocks]
        if blocks[-1] == nodes:
            # discrete: the last ranks are read only to build the output,
            # once per class slot and once for the root, and not signed
            slots = sum(len(threads._children(n)) for n in out.nodes if not isinstance(n, Prob))
            assert calls[-1][0].reads == slots + 1


def coprime_probability(rng, dens):
    """A probability whose denominator has at least 150 bits and is
    coprime to every denominator in `dens`, which it joins."""
    while True:
        q = rng.getrandbits(160) | 1 << 159
        p = Fraction(rng.randrange(1, q), q)
        if p.denominator.bit_length() >= 150 and all(
            math.gcd(p.denominator, d) == 1 for d in dens
        ):
            dens.append(p.denominator)
            return p


def big_denominator_program(rng):
    """Random-choice skips, retry loops and tested actions whose choice
    probabilities have large pairwise coprime denominators."""
    dens = []
    instrs = []
    for i in range(rng.randint(3, 6)):
        kind = rng.randrange(3)
        if kind == 0:
            instrs += [f"+%{coprime_probability(rng, dens)}", "#2", f"a{i}"]
        elif kind == 1:
            instrs += [f"b{i}", f"-%{coprime_probability(rng, dens)}", "\\2"]
        else:
            instrs += [f"+c{i}", "#2", f"%{coprime_probability(rng, dens)}"]
    return pglb.parse_program(" ; ".join(instrs + ["!"]))


def test_normalize_matches_oracle_on_large_coprime_denominators():
    rng = random.Random(27)
    bits = 0
    for _ in range(12):
        program = big_denominator_program(rng)
        for g in (pglb.extract(program, with_abstraction=False), pglb.extract(program)):
            g = ThreadGraph(g.nodes, g.root)  # not marked canonical
            weights = [w for node in g.nodes if isinstance(node, Prob) for w, _ in node.branches]
            bits = max([bits] + [w.denominator.bit_length() for w in weights])
            assert threads.normalize(g) == oracle_normalize(g)
    assert bits >= 300


def sparse_system(rng, n, width):
    """A random sparse system that is nonsingular by diagonal dominance,
    with its rows shuffled so that pivots must be searched for."""
    a = []
    for i in range(n):
        row = {}
        for j in range(n):
            if j != i and rng.random() < 0.25:
                row[j] = genlib.rational(rng, span=9, max_den=7) or Fraction(1)
        row[i] = sum(abs(v) for v in row.values()) + Fraction(rng.randint(1, 5), rng.randint(1, 5))
        if rng.random() < 0.5:
            row[i] = -row[i]
        a.append(row)
    b = []
    for _ in range(n):
        values = {j: genlib.rational(rng, span=9, max_den=7) for j in range(width)}
        b.append({j: v for j, v in values.items() if v and rng.random() < 0.4})
    perm = list(range(n))
    rng.shuffle(perm)
    return [a[p] for p in perm], [b[p] for p in perm]


def test_sparse_solve_matches_dense_solve():
    rng = random.Random(24)
    for _ in range(200):
        n = rng.randint(1, 14)
        a, b = sparse_system(rng, n, rng.randint(1, 4))
        assert oracles._solve(a, b) == _dense_solve(a, b)


def test_sparse_solve_of_empty_system():
    assert oracles._solve([], []) == []


def test_singular_system_raises():
    half = Fraction(1, 2)
    duplicate_rows = [{0: half, 1: Fraction(1)}, {0: half, 1: Fraction(1)}]
    missing_column = [{0: Fraction(1)}, {0: Fraction(2)}]
    for a in (duplicate_rows, missing_column):
        b = [{0: Fraction(1)}, {0: Fraction(1)}]
        with pytest.raises(ArithmeticError):
            oracles._solve(a, b)
        with pytest.raises(ArithmeticError):
            _dense_solve(a, b)


# ---------------------------------------------------------------------------
# outcome analysis and sampling


def outcome(f, *args, **kwargs):
    """The result of a call, or the type and message of its domain error."""
    try:
        return f(*args, **kwargs)
    except Error as exc:
        return type(exc), str(exc)


def reply_env(rng, g, skip=0.0):
    """Replies for the basic actions of `g`, 0 and 1 included; each
    action is left out with probability `skip`."""
    actions = {n.action for n in g.nodes if isinstance(n, Post) and not n.action.is_tau}
    replies = {}
    for a in sorted(actions):
        if rng.random() >= skip:
            replies[a] = rng.choice([Fraction(0), Fraction(1), genlib.probability(rng, 12)])
    return analysis.Environment(replies)


def assert_same_analysis(g, env, junk, deep=()):
    """`g`, and a `with_junk` copy drawn with the rng `junk`, analyse as
    the oracle analyses them at depths 0-8, with and without traces;
    `g` also at the `deep` depths, without traces (on the largest
    products the recursive oracle takes seconds there).  The oracle's
    outcome of a (node, actions left) pair does not depend on the depth
    asked, so one memo serves the ascending depths of each graph with
    and without traces."""
    for h, deeper in ((g, deep), (with_junk(junk, g), ())):
        for traces in (False, True):
            memo = {}
            for depth in [*range(9), *(() if traces else deeper)]:
                got = outcome(analysis.outcome_distribution, h, env, depth, with_traces=traces)
                want = outcome(
                    oracle_outcome_distribution, h, env, depth, with_traces=traces, memo=memo
                )
                assert got == want, (depth, traces)


def test_outcome_distribution_matches_oracle_on_random_threads():
    rng, junk = random.Random(30), random.Random(130)
    for g in random_threads(rng, 60):
        # forks and missing replies must fail with the oracle's first error
        env = reply_env(rng, g, skip=0.3 if rng.random() < 0.4 else 0.0)
        assert_same_analysis(g, env, junk, deep=(16, 32))


def test_outcome_distribution_matches_oracle_on_the_retry_term():
    # three retry loops: the trace masses repeat across many traces
    g = ta.parse_thread((DATA / "retry3.term").read_text())
    env = analysis.Environment.from_table((DATA / "retry3.table").read_text())
    assert_same_analysis(g, env, random.Random(136))


def test_outcome_distribution_matches_oracle_on_use_outputs():
    rng, junk = random.Random(31), random.Random(131)
    for _ in range(40):
        if rng.random() < 0.5:
            term = rec_term(rng, rng.randint(1, 3), mk_action=genlib.service_action)
        else:
            term = genlib.term(rng, rng.randint(1, 4), mk_action=genlib.service_action)
        family = genlib.family(rng, foci=("random", "r3"))
        for focus in ("r1", "r2"):
            family = services.compose(
                family, services.singleton(focus, genlib.register_service(rng))
            )
        g = interaction.use(ta.build(term), family)
        assert_same_analysis(g, reply_env(rng, g), junk)


def interleave_outputs(kind):
    """Four products of 2-3 recursive threads under `_schedulers()[kind]`,
    each with replies for its actions."""
    rng = random.Random(32 + kind)
    spec = _schedulers()[kind]
    for _ in range(4):
        pool = [ta.build(rec_term(rng, rng.randint(1, 3))) for _ in range(rng.randint(2, 3))]
        g = interleaving.interleave(spec, pool)
        yield g, reply_env(rng, g)


@pytest.mark.parametrize("kind", [1, 2], ids=["uniform", "lottery"])
def test_outcome_distribution_matches_oracle_on_interleave_outputs(kind):
    junk = random.Random(132 + kind)
    for g, env in interleave_outputs(kind):
        assert_same_analysis(g, env, junk, deep=(16, 32))


A, B, C, D = (ta.basic("main", m) for m in "abcd")


def test_first_missing_reply_in_walk_order_is_named():
    # the choice lists the node performing b before the one performing a,
    # and a's True branch reaches c before its False branch reaches b
    nodes = (
        Prob(((Fraction(1, 2), 1), (Fraction(1, 2), 2))),  # 0
        Post(B, 3, 3),  # 1
        Post(A, 4, 1),  # 2
        STOP,  # 3
        Post(C, 3, 3),  # 4
    )
    g = ThreadGraph(nodes, 0)
    for env, named in (
        (analysis.EMPTY_ENVIRONMENT, "main.b"),
        (analysis.Environment({B: Fraction(1, 3)}), "main.a"),
        (analysis.Environment({A: Fraction(1, 2), B: Fraction(1, 3)}), "main.c"),
    ):
        for f in (analysis.outcome_distribution, oracle_outcome_distribution):
            with pytest.raises(MissingReply, match=named):
                f(g, env, 2)
    # a missing reply is no error where the bound stops first
    env = analysis.Environment({A: Fraction(1, 2), B: Fraction(1, 3)})
    assert outcome(analysis.outcome_distribution, g, env, 1) == outcome(
        oracle_outcome_distribution, g, env, 1
    )


def test_reachable_fork_fails_like_the_oracle():
    g = ta.build(TPost(A, ta.tprefix(B, TStop()), threads.TFork(TStop(), TStop(), TStop())))
    # the fork lies on the False branch, walked after the True branch's b
    for env, error in (
        (analysis.Environment({A: Fraction(1, 2), B: Fraction(1, 3)}), UnresolvedFork),
        (analysis.Environment({A: Fraction(1, 2)}), MissingReply),
    ):
        for with_traces in (False, True):
            got = outcome(analysis.outcome_distribution, g, env, 3, with_traces=with_traces)
            assert got[0] is error
            assert got == outcome(oracle_outcome_distribution, g, env, 3, with_traces=with_traces)


def trace_walk_inputs():
    """(name, graph, replies) for the trace walk's differential test."""
    table = analysis.Environment.from_table((DATA / "env.table").read_text())
    for name in ("retry", "retry3"):
        g = ta.parse_thread((DATA / f"{name}.term").read_text())
        replies = DATA / ("retry3.table" if name == "retry3" else "env.table")
        yield name, g, analysis.Environment.from_table(replies.read_text())
    cyclic = [ta.parse_thread((DATA / f"cyc{j}.term").read_text()) for j in range(4)]
    yield "cyclic product", interleaving.interleave(interleaving.uniform_scheduler(), cyclic), table
    for kind in (1, 2):
        for i, (g, env) in enumerate(interleave_outputs(kind)):
            yield f"interleave output {kind}.{i}", g, env
    program = pglb.parse_program((DATA / "registers.pglb").read_text())
    family = services.parse_family("{r1: Register(false), r2: Register(true), random: Random}")
    extracted = pglb.extract(program, with_random=False, with_abstraction=False)
    yield "registers", interaction.use(extracted, family), table
    # terminates, deadlocks and survives after the same actions
    yield "three ends", ta.parse_thread(
        "rec X { X = prob(1/4: prefix(a, X), 1/4: prefix(a, S), 1/4: prefix(a, D), 1/4: S); } in X"
    ), table
    # two distinct action nodes perform a, whose successors merge after it
    yield "one label", ta.parse_thread(
        "prob(1/2: post(a, S, D), 1/2: post(a, prefix(b, S), prefix(a, D)))"
    ), table


def test_trace_walk_matches_the_backward_merge():
    for name, g, env in trace_walk_inputs():
        for depth in range(11):
            got = analysis.outcome_distribution(g, env, depth, with_traces=True)
            want = oracle_backward_outcome_distribution(g, env, depth, with_traces=True)
            assert got == want, (name, depth)
            # traces of equal mass share one Fraction
            assert len({id(m) for _, m in got.traces}) == len({m for _, m in got.traces})


def test_trace_walk_inputs_have_the_shapes_they_name():
    inputs = {name: (g, env) for name, g, env in trace_walk_inputs()}
    g, env = inputs["three ends"]
    d = analysis.outcome_distribution(g, env, 3, with_traces=True)
    assert 0 < min(d.terminate, d.deadlock, d.surviving)
    # the longest trace also holds mass that terminated or deadlocked there
    assert d.trace_table[("main.a",) * 3] > d.surviving
    g, env = inputs["one label"]
    assert sum(isinstance(n, Post) and str(n.action) == "main.a" for n in g.nodes) == 3
    d = analysis.outcome_distribution(g, env, 2, with_traces=True)
    assert d.trace_table == {
        ("main.a",): Fraction(1, 2),
        ("main.a", "main.a"): Fraction(1, 4),
        ("main.a", "main.b"): Fraction(1, 4),
    }


def exit_thread(rng, tag, states):
    """A `rec` thread over `states` states with its own actions.  Each
    state chooses between a step to the next state and an action test
    whose branches jump to random states; the last state's test
    terminates on False and, with two states, the first state's test
    becomes inactive on False."""
    eqs = []
    for s in range(states):
        p = rng.choice([Fraction(1, 3), Fraction(2, 3)])
        t1, t2 = f"X{rng.randrange(states)}", f"X{rng.randrange(states)}"
        t2 = "S" if s == states - 1 else "D" if s == 0 else t2
        eqs.append(
            f"X{s} = prob({p}: prefix({tag}.a{s}, X{(s + 1) % states}), "
            f"{1 - p}: post({tag}.b{s}, {t1}, {t2}));"
        )
    return ta.parse_thread("rec X0 { " + " ".join(eqs) + " } in X0")


def mass_inputs():
    """(name, graph, replies, depths) for the mass kernel's differential
    test: inputs whose reached nodes lump into few classes, and inputs
    that raise."""
    uniform = interleaving.uniform_scheduler()
    rng = random.Random(41)
    shallow = (*range(13), 40)
    for i in range(6):
        pool = [
            exit_thread(rng, f"t{j}", 2 if rng.random() < 0.3 else 1)
            for j in range(rng.choice((3, 4)))
        ]
        g = interleaving.interleave(uniform, pool)
        yield f"product with exits {i}", g, reply_env(rng, g), shallow
    for name, g, env in trace_walk_inputs():
        if name.startswith("interleave output") or name == "registers":
            yield name, g, env, (*range(11), 16, 32)
    # forks and missing replies, met at every level
    for i, g in enumerate(random_threads(rng, 150)):
        yield f"random thread {i}", g, reply_env(rng, g, skip=0.3), range(7)
    for name, g, env in error_order_threads():
        yield name, g, env, (3,)


def error_order_threads():
    """(name, graph, replies): a's False branch asks for c, which has no
    reply, one action in; its True branch meets a fork or a missing
    reply for d two actions in, which a recursive walk meets first."""
    env = analysis.Environment({A: HALF, B: HALF})
    for name, last in (
        ("fork after b", TFork(TStop(), TStop(), TStop())),
        ("d after b", TPost(D, TStop(), TStop())),
        ("no reply for c alone", TStop()),
    ):
        yield name, ta.build(TPost(A, TPost(B, last, TStop()), TPost(C, TStop(), TStop()))), env


def test_level_discovery_and_lumping_match_the_per_node_kernel():
    for name, g, env, depths in mass_inputs():
        for depth in depths:
            got = outcome(analysis.outcome_distribution, g, env, depth)
            want = outcome(oracle_backward_outcome_distribution, g, env, depth)
            assert got == want, (name, depth)


def test_the_first_error_is_the_recursive_walks_not_the_levels():
    # c's missing reply lies one action in, where discovery by levels
    # meets it before the fork or d two actions in on a's True branch
    got = {
        name: outcome(analysis.outcome_distribution, g, env, 3)
        for name, g, env in error_order_threads()
    }
    assert got == {
        "fork after b": (UnresolvedFork, analysis._FORK_MESSAGE),
        "d after b": (MissingReply, "no reply probability for action main.d"),
        "no reply for c alone": (MissingReply, "no reply probability for action main.c"),
    }


def sampling_threads():
    """Threads whose choices and replies sit exactly on draw cutoffs
    (dyadic weights and replies of 0 and 1), or just off them (thirds)."""

    def loop(weights):
        choice = TProb(tuple(zip(weights, (TPost(A, TStop(), TDead()), TVar("X"), TDead()))))
        return ta.build(TRec((("X", TPost(B, choice, TPost(C, TVar("X"), TStop()))),), "X"))

    quarter, half, third = Fraction(1, 4), Fraction(1, 2), Fraction(1, 3)
    dyadic = loop((quarter, half, quarter))
    yield dyadic, analysis.Environment({A: Fraction(3, 4), B: half, C: Fraction(1)})
    yield dyadic, analysis.Environment({A: Fraction(0), B: Fraction(1), C: Fraction(0)})
    yield loop((third,) * 3), analysis.Environment({A: third, B: 2 * third, C: half})
    rng = random.Random(34)
    for g in random_threads(rng, 20):
        yield g, reply_env(rng, g)


def test_sampling_matches_oracle():
    junk = random.Random(134)
    cases = [(h, env) for g, env in sampling_threads() for h in (g, with_junk(junk, g))]
    for g, env in cases:
        for depth in (0, 3, 12):
            for seed in range(200):
                assert outcome(analysis.sample_run, g, env, depth, seed) == outcome(
                    oracle_sample_run, g, env, depth, seed
                )
            assert outcome(analysis.sample_outcomes, g, env, depth, 7, 200) == outcome(
                oracle_sample_outcomes, g, env, depth, 7, 200
            )


class ScriptedRandom:
    """Draws that sit on, just below and just above the dyadic cutoffs."""

    DRAWS = [
        c + e
        for c in (0, 1 << 62, 1 << 63, 3 << 62, (1 << 64) // 3, (1 << 65) // 3, (1 << 64) - 1)
        for e in (-1, 0, 1)
        if 0 <= c + e < 1 << 64
    ]

    def __init__(self, seed):
        self.i = seed

    def getrandbits(self, k):
        assert k == 64
        self.i += 1
        return self.DRAWS[self.i % len(self.DRAWS)]


def test_sampling_matches_oracle_on_cutoff_draws(monkeypatch):
    junk = random.Random(135)
    cases = [(h, env) for g, env in list(sampling_threads())[:3] for h in (g, with_junk(junk, g))]
    monkeypatch.setattr(random, "Random", ScriptedRandom)
    for g, env in cases:
        for seed in range(200):
            assert outcome(analysis.sample_run, g, env, 12, seed) == outcome(
                oracle_sample_run, g, env, 12, seed
            )
        assert analysis.sample_outcomes(g, env, 12, 0, 200) == oracle_sample_outcomes(
            g, env, 12, 0, 200
        )


# ---------------------------------------------------------------------------
# weight checks


def verdict(f, *args, **kwargs):
    """The result of a call, or the type and message of whatever it raised."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def weight_vector(rng):
    """Weights that form a distribution, or nearly do."""
    n = rng.randint(0, 5)
    if rng.random() < 0.5:
        # one shared denominator: cut d into n parts (zeros included)
        d = rng.choice([1, 2, 3, 5, 7, 12])
        cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
        ws = [Fraction(b - a, d) for a, b in zip([0] + cuts, cuts + [d])][:n]
    else:
        # mixed denominators; the last weight may leave [0, 1]
        ws = [Fraction(rng.randint(0, 4), rng.randint(1, 9)) for _ in range(n - 1)]
        ws += [1 - sum(ws)] if n else []
    if ws:
        i = rng.randrange(len(ws))
        mutation = rng.randrange(6)
        if mutation == 0:
            ws[i] = Fraction(0)
        elif mutation == 1:
            ws[i] = -ws[i] or Fraction(-1, 3)
        elif mutation == 2:
            ws[i] += 1
        elif mutation == 3:
            ws[i] += Fraction(rng.choice([-1, 1]), ws[i].denominator)
    if rng.random() < 0.3:
        ws = [w.numerator if w.denominator == 1 else w for w in ws]
    return ws


def raised(result):
    """The type and message in a verdict, or None if the call returned."""
    return result if isinstance(result, tuple) and isinstance(result[0], type) else None


def assert_weight_checks_match(ws):
    """Every weight check agrees with its oracle; returns the builders' error."""
    branches = tuple((w, i) for i, w in enumerate(ws))
    got = verdict(lambda: Prob(branches).branches)
    if all(isinstance(w, (Fraction, int)) for w in ws):
        assert got == verdict(lambda: OracleProb(branches).branches), ws
    else:
        # the oracle took floats and failed on other types with whatever
        # comparing them raised; `Prob` takes exact rationals only
        assert raised(got) and got[0] is MalformedProbability, ws

    expected = verdict(OracleGraphBuilder().prob, branches)
    term = TProb(tuple((w, TStop()) for w in ws))
    assert raised(verdict(threads.build, term)) == raised(expected), ws
    if ws:
        assert raised(verdict(threads.nary_prob, ws, [TStop()] * len(ws))) == raised(expected), ws
    assert got[0] is not AttributeError, ws
    return raised(expected)


def test_weight_checks_match_oracles_on_random_vectors():
    rng = random.Random(4)
    errors = {assert_weight_checks_match(weight_vector(rng)) for _ in range(3000)}
    assert {e and e[0] for e in errors} == {None, MalformedProbability, WeightSumNotOne}


@pytest.mark.parametrize(
    "ws",
    [
        [],
        [Fraction(1, 3)] * 3,
        [Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)],
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)],
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)],
        [1],
        [1, 0],
        [2, -1],
        [True],
        [0.5, 0.5],
        [Decimal("0.5"), Decimal("0.5")],
        [Fraction(1, 2), 0.25, 0.25],
        [Fraction(3, 2), 0.5],
        ["1/2", "1/2"],
        [Fraction(1, 2), "1/2"],
        [None],
    ],
    ids=repr,
)
def test_weight_checks_match_oracles_on_edge_vectors(ws):
    assert_weight_checks_match(ws)


def test_nary_prob_matches_the_recursive_oracle():
    rng = random.Random(5)
    vectors = [weight_vector(rng) for _ in range(2000)]
    for _ in range(300):
        # longer distributions with zero weights anywhere, the last included
        ws = genlib.distribution(rng, rng.randint(2, 12))
        for _ in range(rng.randint(0, 3)):
            ws.insert(rng.randint(0, len(ws)), Fraction(0))
        vectors.append(ws)
    vectors += [[], [Fraction(1)], [0, 1, 0], [Fraction(1, 2)] * 2 + [0] * 3]
    for ws in vectors:
        targets = [ta.tprefix(ta.basic("main", f"a{k}"), TStop()) for k in range(len(ws))]
        # and one target short, which both reject
        for ts in (targets, targets[1:]):
            expected = verdict(oracles.oracle_nary_prob, ws, ts)
            assert verdict(threads.nary_prob, ws, ts) == expected, ws


def test_build_matches_oracle_on_rec_systems():
    # The oracle checks guards in a first walk and fills each slot as it
    # assembles; `build` checks guards after its one walk and fills the
    # slots last.  So a term with several faults may report another
    # fault first, and a forward collapse that the oracle copies before
    # filling it (its "unfilled slot") builds.
    rng = random.Random(13)
    seen = set()
    for _ in range(4000):
        term = genlib.rec_system(rng, rng.randint(1, 4), faults=True)
        got, want = verdict(threads.build, term), verdict(oracles.oracle_build, term)
        if raised(want) == (AssertionError, "unfilled slot"):
            assert not raised(got), term
            seen.add("collapse")
        elif raised(want):
            assert raised(got) and issubclass(got[0], (Error, ValueError)), term
            if want[0] is ValueError:
                assert got[0] is ValueError, term
            if got[0] is UnguardedRecursion:
                assert want[0] is UnguardedRecursion, term
            seen.add(want[0])
        else:
            assert not raised(got), term
            assert ta.normalize(got) == ta.normalize(want), term
            seen.add("built")
    assert seen == {"built", "collapse", ValueError, UnguardedRecursion}


def name_faults(term, scope=frozenset()):
    """How many unbound variables, repeated equation variables and
    selected variables without an equation `term` has."""
    if isinstance(term, TVar):
        return int(term.name not in scope)
    if isinstance(term, TRec):
        names = [n for n, _ in term.equations]
        inner = scope | set(names)
        return (
            len(names) - len(set(names))
            + (term.body not in names)
            + sum(name_faults(t, inner) for _, t in term.equations)
        )
    if isinstance(term, TPost):
        subs = (term.then_,) if term.then_ == term.else_ else (term.then_, term.else_)
    elif isinstance(term, TFork):
        subs = (term.forked, term.then_, term.else_)
    elif isinstance(term, TProb):
        subs = tuple(t for _, t in term.branches)
    else:
        subs = ()
    return sum(name_faults(t, scope) for t in subs)


TOKEN_VOCABULARY = ["S", "X", "Y", "U", "rec", "in", "{", "}", "=", ";", "(", ")", ",", ":", "1"]


def mutated(rng, text):
    """`text` with one token deleted, doubled, replaced or swapped."""
    tokens = [t.text for t in terms._tokenize(text)[:-1]]
    i = rng.randrange(len(tokens))
    k = rng.randrange(4)
    if k == 0:
        del tokens[i]
    elif k == 1:
        tokens.insert(i, tokens[i])
    elif k == 2:
        tokens[i] = rng.choice(TOKEN_VOCABULARY + tokens)
    elif i + 1 < len(tokens):
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    return " ".join(tokens)


def test_parser_matches_oracle_on_rec_systems():
    # The parser reads each token once and resolves a variable when the
    # outermost open system closes; the oracle skimmed each equation
    # body first and resolved variables where they occur.  Both accept
    # the same texts as the same terms.  A text with several faults, or
    # a syntax fault inside a system, may report another fault first.
    rng = random.Random(15)
    seen = set()
    for _ in range(2500):
        term = genlib.rec_system(rng, rng.randint(1, 4), faults=True)
        text = genlib.term_text(term)
        cases = [(text, name_faults(term) <= 1)]
        for _ in range(3):
            variant = mutated(rng, text)
            cases.append((variant, "rec" not in variant.split()))
        for case, same_message in cases:
            got = verdict(terms.parse_term, case)
            want = verdict(oracles.oracle_parse_term, case)
            if not raised(want):
                assert got == want, case
                seen.add("parsed")
                continue
            assert raised(got) and got[0] is want[0], (case, got, want)
            if same_message:
                assert got == want, case
                seen.add(want[1].split(" '")[0])
    kinds = {"parsed", "unbound variable", "duplicate equation variable", "selected variable"}
    assert kinds | {"expected", "trailing input"} <= seen, seen


def test_project_matches_oracle():
    rng = random.Random(14)
    graphs = [genlib.thread(rng, d, allow_fork=True) for d in range(5) for _ in range(300)]
    while len(graphs) < 1800:
        g = verdict(threads.build, genlib.rec_system(rng, 3))
        if not raised(g):
            graphs.append(g)
    for g in graphs:
        for k in range(5):
            assert threads.project(k, g) == oracles.oracle_project(k, g)


def equality_pairs(rng):
    """Pairs of random `rec` systems, with and without forks, of a thread
    and one of its own projections, and of random threads with forks."""
    graphs = []
    while len(graphs) < 240:
        g = verdict(threads.build, genlib.rec_system(rng, rng.randint(1, 4)))
        if not raised(g):
            graphs.append(g)
    pairs = list(zip(graphs[::2], graphs[1::2]))
    for g in graphs[:60]:
        pairs.append((g, threads.project(rng.randint(0, 6), g)))
    for _ in range(40):
        pairs.append(tuple(genlib.thread(rng, rng.randint(0, 3), allow_fork=True) for _ in "12"))
    return pairs


def self_choice(ref):
    return Prob(((Fraction(1, 2), ref), (Fraction(1, 2), ref)))


# a choice cycle at the root, behind an action and in a tau step's else
# branch, and a fork-only cycle, each built through the API
EQUALITY_EDGE_CASES = {
    "choice cycle": ThreadGraph((self_choice(0),), 0),
    "choice cycle behind an action": ThreadGraph((Post(A, 1, 2), self_choice(1), STOP), 0),
    "choice cycle behind tau": ThreadGraph((Post(ta.TAU, 2, 1), self_choice(1), STOP), 0),
    "fork-only cycle": ThreadGraph((Fork(0, 0, 0),), 0),
}


def test_equal_up_to_matches_the_projection_oracle():
    # at depths 0-8 and around the two graphs' node count, where the
    # graphs without forks take `bisimilar`'s path: the same answers,
    # and the same exception type and message where the oracle raises
    rng = random.Random(24)
    seen = set()
    for g1, g2 in equality_pairs(rng):
        bound = len(g1.nodes) + len(g2.nodes)
        path = "forks" if any(isinstance(v, Fork) for v in (*g1.nodes, *g2.nodes)) else "bisimilar"
        for n in (*range(9), bound - 1, bound, bound + 1):
            got = verdict(threads.equal_up_to, n, g1, g2)
            assert got == verdict(oracles.oracle_equal_up_to, n, g1, g2), (n, g1, g2)
            if n >= bound:
                seen.add((path, got))
    assert seen == {(path, answer) for path in ("forks", "bisimilar") for answer in (True, False)}
    edge = [*EQUALITY_EDGE_CASES.values(), ta.build(TStop())]
    for g1 in edge:
        for g2 in edge:
            bound = len(g1.nodes) + len(g2.nodes)
            for n in (-1, 0, 1, 2, bound - 1, bound, bound + 1):
                got = verdict(threads.equal_up_to, n, g1, g2)
                assert got == verdict(oracles.oracle_equal_up_to, n, g1, g2), (n, g1, g2)


def test_equal_up_to_edge_cases_raise_what_projections_raise():
    # depth 0 walks neither graph; a negative depth is a ValueError; a
    # cycle through choices and a fork-only cycle are unguarded recursion
    # at every depth that reaches them
    cycle = "cycle through probabilistic choices"
    for name, g in EQUALITY_EDGE_CASES.items():
        assert threads.equal_up_to(0, g, g) is True, name
        assert raised(verdict(threads.equal_up_to, -1, g, g)) == (
            ValueError, "projection depth must be a natural number")
        for n in (2, 2 * len(g.nodes), 100):
            assert raised(verdict(threads.equal_up_to, n, g, g)) == (UnguardedRecursion, cycle)
