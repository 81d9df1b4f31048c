"""Reference implementations kept as differential-test oracles.

`oracle_normalize` is the first `threads.normalize`: every refinement
round recomputes the block-level distribution of every slot with
Fraction sums and ranks signatures that hold Fractions.
`oracle_solve` is the first dense Gauss-Jordan solve behind
`interaction.abstract_tau`, and `_solve` the sparse Gauss-Jordan solve
over Fractions that came after it and that both `abstract_tau` oracles
use; `oracle_abstract_tau` is the
`abstract_tau` that normalized its input as well as its output and
solved its whole tau region as one linear system over Fractions;
`oracle_resolve_abstract_tau` is the component-by-component
`abstract_tau` that turned its escape distributions back into a
Fraction-weighted graph and normalized it, and
`oracle_component_abstract_tau` the `abstract_tau` that split its tau
region into strongly connected components by Tarjan's search and
eliminated each component's members in the order the search popped
them, scanning every row of the component for every pivot.  `oracle_outcome_distribution`,
`oracle_sample_run` and `oracle_sample_outcomes` are the first
`analysis` walkers: a memoised recursion over `(node, depth)` with
Fraction masses, and a sampler that compares each 64-bit draw as an
exact dyadic Fraction.  `oracle_backward_outcome_distribution` is the
integer kernel as it was before its trace walk: it kept a table of
every trace that starts at each reached `(node, level)` pair and merged
those tables one level up (`_merged_traces`), then sorted the table at
the root; its masses come from the kernel's mass half as it was before
discovery by levels and lumping, a depth-first walk of the reached
`(node, level)` pairs in recursive-walk order and an iteration over
every reached node.  `OracleProb` carries the first
`Prob.__post_init__` and `OracleGraphBuilder.prob` the first
`GraphBuilder.prob`, the weight checks that summed Fractions and
tested the range through the signum encoding.  `OracleGraphBuilder`
also has a `fill`; the library needs neither method, but
`oracle_abstract_tau` and the graph combinators of `genlib` do.  `oracle_use`,
`oracle_interleave` and `oracle_positional_interleave` (with
`OracleEngine`) are the product constructions that each kept their own
slot dict, auxiliary-node interning, queue and state bound.
`HashConsEngine` (driven by `oracle_hashcons_product`) is the
interleaving engine that ran on the shared `GraphBuilder` and, for a
node its int-keyed cache had not seen, checked the weights of every
choice it built and interned the node by its structural hash.
`TupleKeyEngine` (driven by `oracle_tuple_key_product`) is the
interleaving engine whose product states, `advance` calls and turn
memo were keyed on the history view and control state themselves,
hashed again at every lookup, and which asked `update` and `digest`
again at every turn.  `oracle_quotient` is the `threads.quotient` whose
refinement rounds kept blocks, ranks and signatures in dicts keyed by
ref (with `_dict_ranked_class_dists`), and whose last round signed
every node and compared the whole new numbering with the old one to
learn that nothing splits, also on a partition into single nodes.
`oracle_print_term` is the first `terms.print_term`, which recursed
along the graph while searching and rendering.
`oracle_head_distributions` is the first `threads.head_distributions`,
which recursed along nested choices and multiplied Fraction weights;
`oracle_normalize` and `oracle_abstract_tau` flatten choices with it.
`oracle_build` is the `threads.build` that checked guards in a first
recursive walk (`_unguarded_free`), then assembled in a second
(`_assemble`), giving alias equations their target's slot and copying
each other right-hand side into its slot as soon as it was built; it
fails with "unfilled slot" on a choice that collapses onto a later
equation.  `oracle_nary_prob` is the first `threads.nary_prob`, which
recursed once per target and renormalized every remaining weight at
each level.  `oracle_project` is the `threads.project` that walked
(node, depth) pairs in post-order on a hand-made stack.
`oracle_equal_up_to` is the `threads.equal_up_to` that built and
normalized both depth-`n` projections at every depth, also where the
depth reaches the graphs' node count and `bisimilar` decides.
`oracle_parse_term` (with `OracleParser`) is the first `terms.parse_term`,
whose `rec` skimmed every equation body once to collect the system's
names before parsing it, and which passed the set of names in scope
down every sub-parse.  All are slow
and obviously correct; the production versions must agree with them
exactly, but for that one failure of `oracle_build`.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Set, Tuple

from threadalg import interleaving, meadow, threads
from threadalg.analysis import (
    _FORK_MESSAGE,
    DEADLOCK,
    SURVIVING,
    TERMINATE,
    Environment,
    OutcomeDistribution,
    Trace,
)
from threadalg.errors import (
    MalformedProbability,
    NonRegularProduct,
    ParseError,
    UnguardedRecursion,
    UnresolvedFork,
    WeightSumNotOne,
)
from threadalg.interaction import DEFAULT_STATE_BOUND
from threadalg.interleaving import (
    _DEFAULT,
    FORK_STEP,
    INACTION_STEP,
    TERMINATION_STEP,
    BasicStep,
    History,
    SchedulerSpec,
    StepKind,
)
from threadalg.services import ServiceFamily
from threadalg.terms import KEYWORDS, _tokenize
from threadalg.threads import (
    Action,
    DEAD,
    DeadEnd,
    Fork,
    GraphBuilder,
    Node,
    Post,
    Prob,
    STOP,
    Stop,
    TAU,
    TDead,
    TFork,
    TPost,
    TProb,
    TRec,
    TStop,
    TVar,
    Term,
    ThreadGraph,
    _built_prob,
    _children,
    _tau_closed,
    probability_weights,
    reachable,
    trim,
)


@dataclass(frozen=True)
class OracleProb:
    """Internal choice over branches; weights lie in (0, 1] and sum to 1."""

    branches: Tuple[Tuple[Fraction, int], ...]

    def __post_init__(self):
        if not self.branches:
            raise MalformedProbability("empty probabilistic choice")
        total = Fraction(0)
        for w, _ in self.branches:
            if not 0 < w <= 1:
                raise MalformedProbability(f"branch weight {w} outside (0, 1]")
            total += w
        if total != 1:
            raise WeightSumNotOne(f"branch weights sum to {total}, not 1")


class OracleGraphBuilder(GraphBuilder):
    def fill(self, ref: int, node: Node) -> None:
        self._nodes[ref] = node

    def prob(self, branches: Sequence[Tuple[Fraction, int]]) -> int:
        """Choice node over branches; zero weights are dropped and a
        single remaining branch collapses to its target."""
        weights = [Fraction(w) for w, _ in branches]
        for w in weights:
            if not meadow.is_probability(w):
                raise MalformedProbability(f"weight {w} outside [0, 1]")
        if sum(weights) != 1:
            raise WeightSumNotOne(f"weights sum to {sum(weights)}, not 1")
        kept = [(w, t) for w, (_, t) in zip(weights, branches) if w != 0]
        if len(kept) == 1:
            return kept[0][1]
        return self.add(Prob(tuple(kept)))


def oracle_head_distributions(g: ThreadGraph, refs) -> Dict[int, Dict[int, Fraction]]:
    """For each reference, its distribution over deterministic nodes.

    Choice layers are flattened by multiplying weights along the way;
    guardedness keeps those layers acyclic.
    """
    dist: Dict[int, Dict[int, Fraction]] = {}
    visiting = set()

    def go(r: int) -> Dict[int, Fraction]:
        if r in dist:
            return dist[r]
        node = g.nodes[r]
        if not isinstance(node, Prob):
            d = {r: meadow.ONE}
        else:
            if r in visiting:
                raise UnguardedRecursion("cycle through probabilistic choices")
            visiting.add(r)
            acc: Dict[int, Fraction] = {}
            for w, t in node.branches:
                if isinstance(g.nodes[t], Prob):
                    parts = [(dr, w * dw) for dr, dw in go(t).items()]
                else:
                    parts = ((t, w),)  # a deterministic target needs no product
                for dr, p in parts:
                    prev = acc.get(dr)
                    acc[dr] = p if prev is None else prev + p
            visiting.discard(r)
            d = acc
        dist[r] = d
        return d

    for r in refs:
        go(r)
    return dist


def oracle_normalize(g: ThreadGraph) -> ThreadGraph:
    """The canonical graph of a regular thread.

    Idempotent, and two graphs normalize to equal values exactly when
    they have the same behaviour.  Equality of canonical graphs is
    therefore plain structural equality.
    """
    order = reachable(g)
    dets: Dict[int, Node] = {}
    for r in order:
        node = _tau_closed(g.nodes[r])
        if not isinstance(node, Prob):
            dets[r] = node
    head = oracle_head_distributions(g, order)

    refs = sorted(dets)

    def base_key(r: int):
        node = dets[r]
        if isinstance(node, Stop):
            return (0, "", "")
        if isinstance(node, DeadEnd):
            return (1, "", "")
        if isinstance(node, Post):
            return (2, node.action.focus, node.action.method)
        return (3, "", "")

    ranking = {k: i for i, k in enumerate(sorted({base_key(r) for r in refs}))}
    block = {r: ranking[base_key(r)] for r in refs}

    def class_dist(cref: int) -> Tuple[Tuple[int, Fraction], ...]:
        agg: Dict[int, Fraction] = {}
        for dref, w in head[cref].items():
            bid = block[dref]
            agg[bid] = agg.get(bid, meadow.ZERO) + w
        return tuple(sorted(agg.items()))

    # Partition refinement: split blocks until each is closed under the
    # block-level branch distributions of every child slot.  The block
    # indices are re-derived from sorted signatures each round, so the
    # final numbering is intrinsic to the behaviour, not the input order.
    while True:
        sigs = {
            r: (block[r], tuple(class_dist(c) for c in _children(dets[r])))
            for r in refs
        }
        ranking = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        new_block = {r: ranking[sigs[r]] for r in refs}
        if new_block == block:
            break
        block = new_block

    rep: Dict[int, int] = {}
    for r in refs:
        rep.setdefault(block[r], r)

    slot_dists = {
        c: tuple(class_dist(x) for x in _children(dets[r])) for c, r in rep.items()
    }
    root_dist = class_dist(g.root)

    # the tau closure can orphan classes: keep only those reachable in
    # the quotient, compressing ids while preserving the rank order
    live = {c for c, _ in root_dist}
    frontier = list(live)
    while frontier:
        c = frontier.pop()
        for d in slot_dists[c]:
            for c2, _ in d:
                if c2 not in live:
                    live.add(c2)
                    frontier.append(c2)
    remap = {c: i for i, c in enumerate(sorted(live))}
    n_classes = len(remap)

    def compress(d):
        return tuple((remap[c], w) for c, w in d)

    multis = {
        tuple((w, c) for c, w in compress(d))
        for c0 in live
        for d in slot_dists[c0] + (root_dist,)
        if len(d) > 1
    }
    prob_id = {br: n_classes + i for i, br in enumerate(sorted(multis))}

    def resolve(d: Tuple[Tuple[int, Fraction], ...]) -> int:
        d = compress(d)
        if len(d) == 1:
            return d[0][0]
        return prob_id[tuple((w, c) for c, w in d)]

    nodes: List[Node] = [None] * (n_classes + len(prob_id))  # type: ignore[list-item]
    for c in live:
        node = dets[rep[c]]
        new = remap[c]
        if isinstance(node, Stop):
            nodes[new] = STOP
        elif isinstance(node, DeadEnd):
            nodes[new] = DEAD
        elif isinstance(node, Post):
            d1, d2 = slot_dists[c]
            nodes[new] = Post(node.action, resolve(d1), resolve(d2))
        else:
            d0, d1, d2 = slot_dists[c]
            nodes[new] = Fork(resolve(d0), resolve(d1), resolve(d2))
    for br, i in prob_id.items():
        nodes[i] = Prob(br)
    return ThreadGraph(tuple(nodes), resolve(root_dist))


def _dict_ranked_class_dists(
    supports: Dict[int, Tuple[Tuple[int, int], ...]], block: Dict[int, int]
) -> Tuple[Dict[int, int], List[Tuple[Tuple[int, int], ...]]]:
    """Rank the block-level distribution of every child by its exact value.

    Weights are integer numerators over one common denominator, so a
    distribution is a tuple of `(block, numerator)` int pairs sorted by
    block, and ordering these tuples orders the exact distributions.
    Returns each child's rank and the distinct distributions in rank
    order.  Weights are added only where two support nodes share a block.
    """
    dist_of: Dict[int, Tuple[Tuple[int, int], ...]] = {}
    for c, items in supports.items():
        if len(items) == 1:
            d, w = items[0]
            dist_of[c] = ((block[d], w),)
        else:
            agg: Dict[int, int] = {}
            for d, w in items:
                bid = block[d]
                agg[bid] = agg.get(bid, 0) + w
            dist_of[c] = tuple(sorted(agg.items()))
    ordered = sorted(set(dist_of.values()))
    index = {k: i for i, k in enumerate(ordered)}
    return {c: index[k] for c, k in dist_of.items()}, ordered


def oracle_quotient(root: int, support, det) -> ThreadGraph:
    """The canonical graph of the behaviour at `root`.

    `support(ref)` is the distribution of `ref` over deterministic refs
    as `(den, {ref: numerator})`, as `head_distributions` gives it, and
    `det(ref)` is the tau-closed deterministic node at such a ref.  The
    nodes gathered are those that the supports of the root, and of the
    gathered nodes' children, reach, so every class of the result is
    reachable.  Equal behaviours are lumped by partition refinement;
    the numbering depends on neither refs nor denominators.
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
    refs = sorted(dets)
    slots = {r: _children(dets[r]) for r in refs}
    # every support weight becomes an integer numerator over `den`, the
    # lcm of their denominators; only the quotient's choices see a Fraction
    den = lcm(*{hden for hden, _ in head.values()})
    supports = {}
    for c, (hden, nums) in head.items():
        f = den // hden
        supports[c] = tuple((d, x * f) for d, x in nums.items())

    def base_key(r: int):
        node = dets[r]
        if isinstance(node, Stop):
            return (0, "", "")
        if isinstance(node, DeadEnd):
            return (1, "", "")
        if isinstance(node, Post):
            return (2, node.action.focus, node.action.method)
        return (3, "", "")

    ranking = {k: i for i, k in enumerate(sorted({base_key(r) for r in refs}))}
    block = {r: ranking[base_key(r)] for r in refs}

    # Partition refinement: split blocks until each is closed under the
    # block-level branch distributions of every child slot.  A node's
    # signature is its block followed by the ranks of its slots' class
    # distributions; ranks follow the exact order of the distributions,
    # so sorting these int tuples orders nodes exactly as sorting the
    # distributions would, without hashing or comparing a Fraction per
    # node.  The block indices are re-derived from sorted signatures
    # each round, so the final numbering is intrinsic to the behaviour,
    # not the input order.
    while True:
        rank, dists = _dict_ranked_class_dists(supports, block)
        sigs = {r: (block[r], *[rank[c] for c in slots[r]]) for r in refs}
        ranking = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        new_block = {r: ranking[sigs[r]] for r in refs}
        if new_block == block:
            break
        block = new_block

    # the last round ran on the final blocks, so its ranks and
    # distributions describe the quotient: class c is node c, and every
    # distribution rank is some class's slot or the root's
    rep: Dict[int, int] = {}
    for r in refs:
        rep.setdefault(block[r], r)
    n_classes = len(rep)

    # choice nodes are interned by distribution rank and numbered in
    # the order of their (weight, target) branch tuples, which over the
    # common denominator is the order of their (numerator, target) tuples
    branches = {k: tuple((w, c) for c, w in d) for k, d in enumerate(dists) if len(d) > 1}
    prob_id = {
        k: n_classes + i for i, k in enumerate(sorted(branches, key=branches.__getitem__))
    }

    def resolve(ref: int) -> int:
        k = rank[ref]
        return dists[k][0][0] if len(dists[k]) == 1 else prob_id[k]

    nodes: List[Node] = [None] * (n_classes + len(prob_id))  # type: ignore[list-item]
    for c, r in rep.items():
        node = dets[r]
        if isinstance(node, Stop):
            nodes[c] = STOP
        elif isinstance(node, DeadEnd):
            nodes[c] = DEAD
        elif isinstance(node, Post):
            nodes[c] = Post(node.action, resolve(node.then_), resolve(node.else_))
        else:
            nodes[c] = Fork(resolve(node.forked), resolve(node.then_), resolve(node.else_))
    # numerators repeat across choices: build each weight's Fraction once
    weight = {w: Fraction(w, den) for w in {w for b in branches.values() for w, _ in b}}
    for k, i in prob_id.items():
        nodes[i] = _built_prob(tuple((weight[w], c) for w, c in branches[k]))
    out = ThreadGraph(tuple(nodes), resolve(root))
    object.__setattr__(out, "canonical", True)
    return out


def _solve(
    a: List[Dict[int, Fraction]], b: List[Dict[int, Fraction]]
) -> List[Dict[int, Fraction]]:
    """Solve a @ x = b exactly by Gauss-Jordan elimination on sparse rows.

    Row i of `a` maps a column in range(len(a)) to its coefficient and
    row i of `b` maps a right-hand-side column (a natural number) to its
    value; zeros are left out.  Row i of the result maps each
    right-hand-side column to the nonzero entries of unknown i.  Only
    nonzero entries are stored and touched; pivots are chosen as in the
    dense method, and the solution is unique, so it is exactly the dense
    one.  Raises ArithmeticError when a column has no pivot.
    """
    n = len(a)
    rows = [dict(row) for row in a]
    for row, rhs in zip(rows, b):
        for j, v in rhs.items():
            row[n + j] = v
    for col in range(n):
        piv = next((r for r in range(col, n) if col in rows[r]), None)
        if piv is None:
            raise ArithmeticError("singular linear system")
        rows[col], rows[piv] = rows[piv], rows[col]
        pivot = rows[col]
        factor = pivot[col]
        if factor != 1:
            pivot = {k: v / factor for k, v in pivot.items()}
            rows[col] = pivot
        for r, row in enumerate(rows):
            f = row.get(col)
            if f is None or r == col:
                continue
            for k, v in pivot.items():
                old = row.get(k)
                x = -f * v if old is None else old - f * v
                if x:
                    row[k] = x
                else:
                    del row[k]
    return [{k - n: v for k, v in row.items() if k >= n} for row in rows]


def oracle_solve(a: List[List[Fraction]], b: List[List[Fraction]]) -> List[List[Fraction]]:
    """Solve a @ x = b exactly by Gauss-Jordan elimination."""
    n = len(a)
    width = len(b[0]) if b else 0
    rows = [list(a[i]) + list(b[i]) for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            raise ArithmeticError("singular linear system")
        rows[col], rows[piv] = rows[piv], rows[col]
        factor = rows[col][col]
        rows[col] = [x / factor for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def oracle_abstract_tau(g: ThreadGraph) -> ThreadGraph:
    """The thread `g` with every internal step concealed.

    Exact on regular threads: escape probabilities out of internal
    regions come from a rational linear solve, and non-escaping mass
    maps to inaction.
    """
    n = threads.normalize(g)
    tau_refs = [
        r
        for r, node in enumerate(n.nodes)
        if isinstance(node, Post) and node.action.is_tau
    ]
    if not tau_refs:
        return n
    tau_set = set(tau_refs)
    head = oracle_head_distributions(n, range(len(n.nodes)))
    visible = {
        r
        for r, node in enumerate(n.nodes)
        if not isinstance(node, Prob) and r not in tau_set
    }

    # one-step distribution of each internal node
    step = {t: head[n.nodes[t].then_] for t in tau_refs}

    # internal nodes from which some visible node is reachable
    escaping = set()
    changed = True
    while changed:
        changed = False
        for t in tau_refs:
            if t in escaping:
                continue
            if any(d in visible or d in escaping for d in step[t]):
                escaping.add(t)
                changed = True

    solved: Dict[int, Dict[int, Fraction]] = {}
    if escaping:
        order = sorted(escaping)
        pos = {t: i for i, t in enumerate(order)}
        targets = sorted({d for t in order for d in step[t] if d in visible})
        tpos = {d: j for j, d in enumerate(targets)}
        a: List[Dict[int, Fraction]] = []
        b: List[Dict[int, Fraction]] = []
        for t in order:
            row = {pos[t]: meadow.ONE}
            rhs = {}
            for d, w in step[t].items():
                if d in tpos:
                    rhs[tpos[d]] = w
                elif d == t:
                    row[pos[t]] = meadow.ONE - w  # nonzero: t escapes
                elif d in pos:
                    row[pos[d]] = -w
            a.append(row)
            b.append(rhs)
        x = _solve(a, b)
        for t in order:
            solved[t] = {targets[j]: v for j, v in x[pos[t]].items()}

    def absorb(ref: int) -> Dict[int, Fraction]:
        out: Dict[int, Fraction] = {}
        for dref, w in head[ref].items():
            if dref in visible:
                out[dref] = out.get(dref, meadow.ZERO) + w
            elif dref in solved:
                for d, q in solved[dref].items():
                    out[d] = out.get(d, meadow.ZERO) + w * q
            # anything else never becomes visible again
        return out

    b = OracleGraphBuilder()
    placed: Dict[int, int] = {}
    pending: List[int] = []

    def placed_ref(v: int) -> int:
        got = placed.get(v)
        if got is None:
            got = b.reserve()
            placed[v] = got
            pending.append(v)
        return got

    def resolve(dist: Dict[int, Fraction]) -> int:
        total = sum(dist.values(), meadow.ZERO)
        if total == 0:
            return b.add(DEAD)
        branches = [(w, placed_ref(v)) for v, w in sorted(dist.items())]
        if total != 1:
            branches.append((1 - total, b.add(DEAD)))
        return b.prob(branches)

    root = resolve(absorb(n.root))
    while pending:
        v = pending.pop()
        node = n.nodes[v]
        if isinstance(node, Stop):
            content = STOP
        elif isinstance(node, DeadEnd):
            content = DEAD
        elif isinstance(node, Post):
            content = Post(
                node.action, resolve(absorb(node.then_)), resolve(absorb(node.else_))
            )
        else:
            content = Fork(
                resolve(absorb(node.forked)),
                resolve(absorb(node.then_)),
                resolve(absorb(node.else_)),
            )
        b.fill(placed[v], content)

    return threads.normalize(threads.trim(b.graph(root)))


def oracle_resolve_abstract_tau(g: ThreadGraph) -> ThreadGraph:
    """The `abstract_tau` that built its result as a second graph.

    Escape distributions are solved component by component on integer
    numerators, as `oracle_component_abstract_tau` solves them, then turned
    back into Fraction-weighted `Prob` nodes over the visible nodes in a
    `GraphBuilder`, which is trimmed and normalized.
    """
    n = threads.trim(g)
    nodes = n.nodes
    tau_refs = [
        r
        for r, node in enumerate(nodes)
        if isinstance(node, Post) and node.action.is_tau
    ]
    if not tau_refs:
        return threads.normalize(n)
    tau_set = set(tau_refs)
    head = threads.head_distributions(n, range(len(nodes)))
    # escape distributions over visible nodes as (den, {ref: numerator}),
    # reduced so that den is the lcm of the reduced denominators; a
    # visible node escapes to itself, and a node that never escapes is
    # left out, so it contributes nothing
    escape: Dict[int, Tuple[int, Dict[int, int]]] = {
        r: (1, {r: 1})
        for r, node in enumerate(nodes)
        if not isinstance(node, Prob) and r not in tau_set
    }

    # one-step distribution of each internal node, as (den, {ref: numerator})
    step = {t: head[nodes[t].then_] for t in tau_refs}

    # internal nodes from which some visible node is reachable, by one
    # backward search from those that step to one
    preds: Dict[int, List[int]] = {t: [] for t in tau_refs}
    todo = []
    for t in tau_refs:
        for d in step[t][1]:
            if d in tau_set:
                preds[d].append(t)
        if any(d in escape for d in step[t][1]):
            todo.append(t)
    escaping = set(todo)
    while todo:
        for t in preds[todo.pop()]:
            if t not in escaping:
                escaping.add(t)
                todo.append(t)

    def mix(dist: Tuple[int, Dict[int, int]]) -> Tuple[int, Dict[int, int]]:
        # the sum of x/den * escape[d] over the head distribution's support
        den, nums = dist
        return threads.weighted_sum(
            [(x, den * escape[d][0], escape[d][1]) for d, x in nums.items() if d in escape]
        )

    def solve(comp: List[int]) -> None:
        # every component that `comp` reaches is solved already
        if len(comp) == 1 and comp[0] not in step[comp[0]][1]:
            escape[comp[0]] = mix(step[comp[0]])
            return
        pos = {t: i for i, t in enumerate(comp)}
        targets: Dict[int, int] = {}
        a: List[Dict[int, Fraction]] = []
        rhs: List[Dict[int, Fraction]] = []
        for t in comp:
            row = {pos[t]: meadow.ONE}
            col: Dict[int, Fraction] = {}
            sden, snums = step[t]
            for d, y in snums.items():
                if d in pos:
                    row[pos[d]] = row.get(pos[d], meadow.ZERO) - Fraction(y, sden)
                elif d in escape:
                    den, nums = escape[d]
                    for v, x in nums.items():
                        j = targets.setdefault(v, len(targets))
                        col[j] = col.get(j, meadow.ZERO) + Fraction(y * x, sden * den)
            a.append(row)
            rhs.append(col)
        columns = list(targets)
        for t, x in zip(comp, _solve(a, rhs)):
            den = lcm(*(q.denominator for q in x.values()))
            escape[t] = (
                den,
                {columns[j]: q.numerator * (den // q.denominator) for j, q in x.items()},
            )

    # Tarjan's search on an explicit stack emits each component of the
    # escaping region after every component it reaches; a node it has
    # entered is still on its stack until solved into `escape`
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack: List[int] = []
    work = []

    def enter(t: int) -> None:
        index[t] = low[t] = len(index)
        stack.append(t)
        work.append((t, iter(step[t][1])))

    for s in tau_refs:
        if s in escaping and s not in index:
            enter(s)
        while work:
            v, it = work[-1]
            for d in it:
                if d not in escaping:
                    continue
                if d not in index:
                    enter(d)
                    break
                if d not in escape and index[d] < low[v]:
                    low[v] = index[d]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    solve(comp)

    b = GraphBuilder()
    resolved: Dict[int, int] = {}

    def resolve(ref: int) -> int:
        # the escape distribution of `ref` as a node over visible slots
        got = resolved.get(ref)
        if got is not None:
            return got
        den, nums = mix(head[ref])
        if not nums:
            got = b.add(DEAD)
        else:
            branches = [(Fraction(x, den), b.slot(v)) for v, x in sorted(nums.items())]
            rest = den - sum(nums.values())
            if rest:
                branches.append((Fraction(rest, den), b.add(DEAD)))
            got = branches[0][1] if len(branches) == 1 else b.add(Prob(tuple(branches)))
        resolved[ref] = got
        return got

    def content(v: int) -> threads.Node:
        node = nodes[v]
        if isinstance(node, Post):
            return Post(node.action, resolve(node.then_), resolve(node.else_))
        if isinstance(node, Fork):
            return Fork(resolve(node.forked), resolve(node.then_), resolve(node.else_))
        return node

    root = resolve(n.root)
    b.expand(content)
    return threads.normalize(threads.trim(b.graph(root)))


def oracle_component_abstract_tau(g: ThreadGraph) -> ThreadGraph:
    """The thread `g` with every internal step concealed.

    Exact on regular threads: escape probabilities out of internal
    regions are solved component by component, and non-escaping mass
    maps to inaction.  They depend only on behaviour, so the input is
    walked from its root and no graph is built before the canonical
    quotient.
    """
    order = threads.reachable(g)
    # one extra inaction node, `dead`, takes the mass that never escapes
    dead = len(g.nodes)
    nodes = g.nodes + (DEAD,)
    tau_refs = [
        r for r in order if isinstance(nodes[r], Post) and nodes[r].action.is_tau
    ]
    tau_set = set(tau_refs)
    head = threads.head_distributions(g, order)
    # escape distributions over visible nodes as (den, {ref: numerator}),
    # reduced so that den is the lcm of the reduced denominators; a
    # visible node escapes to itself, and a node that never escapes
    # goes to `dead`
    escape: Dict[int, Tuple[int, Dict[int, int]]] = {
        r: (1, {r: 1})
        for r in order
        if not isinstance(nodes[r], Prob) and r not in tau_set
    }

    # one-step distribution of each internal node, as (den, {ref: numerator})
    step = {t: head[nodes[t].then_] for t in tau_refs}

    def mix(dist: Tuple[int, Dict[int, int]]) -> Tuple[int, Dict[int, int]]:
        # the sum of x/den * escape[d] over the head distribution's support
        den, nums = dist
        return threads.weighted_sum(
            [(x, den * escape[d][0], escape[d][1]) for d, x in nums.items()]
        )

    def solve(comp: List[int]) -> None:
        # every component that `comp` reaches is solved already.  Each
        # member stands for itself in the rows until it is eliminated:
        # its self-loop is divided out, or, when all of its row's mass
        # loops back, it never escapes; then it is substituted into every
        # row that still names it.  A component with an exit keeps every
        # pivot positive, so no pivoting is needed
        for t in comp:
            escape[t] = (1, {t: 1})
        rows = {t: mix(step[t]) for t in comp}
        for t in comp:
            den, nums = rows[t]
            loop = nums.pop(t, 0)
            row = (1, {dead: 1}) if loop == den else threads.weighted_sum([(1, den - loop, nums)])
            rows[t] = row
            for u, (uden, unums) in rows.items():
                x = unums.pop(t, None)
                if x is not None:
                    rows[u] = threads.weighted_sum([(1, uden, unums), (x, uden * row[0], row[1])])
        escape.update(rows)

    # Tarjan's search emits each component of the internal nodes after
    # every component it reaches; a node it has entered is on `stack`
    # until solved into `escape`
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack: List[int] = []

    def search(v: int):
        index[v] = low[v] = len(index)
        stack.append(v)
        for d in step[v][1]:
            if d not in step:
                continue
            if d not in index:
                yield search(d)
                low[v] = min(low[v], low[d])
            elif d not in escape:
                low[v] = min(low[v], index[d])
        if low[v] == index[v]:
            comp = [stack.pop()]
            while comp[-1] != v:
                comp.append(stack.pop())
            solve(comp)

    for s in tau_refs:
        if s not in index:
            threads.run_stackless(search(s))

    # the result is the quotient of what the escape distributions of
    # the root and of visible nodes' children reach
    return threads.quotient(g.root, lambda r: mix(head[r]), nodes.__getitem__)


def _merge(into: Dict[Trace, Fraction], table: Dict[Trace, Fraction], w: Fraction, prefix: Trace = ()) -> None:
    for trace, mass in table.items():
        key = prefix + trace
        into[key] = into.get(key, meadow.ZERO) + w * mass


def oracle_outcome_distribution(
    g: ThreadGraph,
    env: Environment,
    depth: int,
    *,
    with_traces: bool = False,
    memo: Optional[Dict[Tuple[int, int], tuple]] = None,
) -> OutcomeDistribution:
    """Exact outcome masses of `g` within `depth` performed actions.

    The depth counts actions only; probabilistic choices are free.  A
    node that would perform an action beyond the bound contributes its
    whole mass to `surviving` (the thread is still running there, not
    inactive).  The optional trace table maps each performed action
    sequence to its total mass.

    `memo` holds the outcome of each (node, actions left) pair, which
    does not depend on `depth`: a caller may pass one memo to the calls
    on one graph, environment and `with_traces`.  A pair that raised is
    not in it, so each call still raises its own first error.
    """
    if depth < 0:
        raise ValueError("depth must be a natural number")
    if memo is None:
        memo = {}

    def go(ref: int, k: int) -> tuple:
        key = (ref, k)
        got = memo.get(key)
        if got is not None:
            return got
        node = g.nodes[ref]
        if isinstance(node, Stop):
            out = (meadow.ONE, meadow.ZERO, meadow.ZERO, {(): meadow.ONE})
        elif isinstance(node, DeadEnd):
            out = (meadow.ZERO, meadow.ONE, meadow.ZERO, {(): meadow.ONE})
        elif isinstance(node, Fork):
            raise UnresolvedFork(
                "a fork node can only be executed under strategic interleaving"
            )
        elif isinstance(node, Prob):
            t = d = s = meadow.ZERO
            traces: Dict[Trace, Fraction] = {}
            for w, target in node.branches:
                bt, bd, bs, btr = go(target, k)
                t += w * bt
                d += w * bd
                s += w * bs
                if with_traces:
                    _merge(traces, btr, w)
            out = (t, d, s, traces)
        elif k == 0:
            out = (meadow.ZERO, meadow.ZERO, meadow.ONE, {(): meadow.ONE})
        else:
            p = env.reply(node.action)
            tt, td, ts, ttr = go(node.then_, k - 1)
            et, ed, es, etr = go(node.else_, k - 1)
            q = 1 - p
            traces = {}
            if with_traces:
                step = (str(node.action),)
                if p != 0:
                    _merge(traces, ttr, p, step)
                if q != 0:
                    _merge(traces, etr, q, step)
            out = (
                p * tt + q * et,
                p * td + q * ed,
                p * ts + q * es,
                traces,
            )
        memo[key] = out
        return out

    t, d, s, traces = go(g.root, depth)
    table = tuple(sorted(traces.items())) if with_traces else None
    return OutcomeDistribution(t, d, s, table)


def _merged_traces(
    coef: Tuple[Tuple[int, int], ...], step: Trace, tables: Dict[int, Dict[Trace, int]]
) -> Dict[Trace, int]:
    """The trace table of `step` followed by the `coef`-weighted `tables`."""
    table: Dict[Trace, int] = {}
    for c, m in coef:
        for trace, v in tables[m].items():
            key = step + trace
            table[key] = table.get(key, 0) + c * v
    return table


def oracle_backward_outcome_distribution(
    g: ThreadGraph,
    env: Environment,
    depth: int,
    *,
    with_traces: bool = False,
) -> OutcomeDistribution:
    """`analysis.outcome_distribution` as it was when trace tables were
    merged backwards, level by level, and the masses were iterated node
    by node over pairs that one depth-first walk found.

    The depth counts actions only; probabilistic choices are free.  A
    node that would perform an action beyond the bound contributes its
    whole mass to `surviving` (the thread is still running there, not
    inactive).  The optional trace table maps each performed action
    sequence to its total mass.

    Bounded value iteration with integer numerators.  A depth-first
    pass finds the `(node, actions left)` pairs the bound reaches, in
    the order of a recursive walk (reply first, then the True branch,
    then the False branch), so the first missing reply or fork met is
    the one reported.  Choice layers are flattened into one-step
    coefficients scaled by `L`, the lcm of their denominators; then the
    masses of every reached node with `k` actions left are integers
    over `L**(k - low)`, computed from the previous level only, from
    `low`, the lowest level the bound reaches, up to `depth`.  Memory
    follows the levels reached, not `depth`.  Trace tables are kept
    only `with_traces`.  Each mass becomes one Fraction at the end, and
    each distinct trace mass one Fraction shared by all its traces.
    """
    if depth < 0:
        raise ValueError("depth must be a natural number")
    nodes = g.nodes
    heads = threads.head_distributions(g, threads.reachable(g))

    # discovery: reached[k] holds the deterministic nodes reached with
    # k actions left; a node's reply is asked for when first reached
    # with k > 0.  A level is made when first reached, from `depth` down.
    reached: Dict[int, set] = {depth: set()}
    replies: Dict[int, Fraction] = {}
    # a Post node's successors, in reverse walk order for the stack
    successors: Dict[int, Tuple[int, ...]] = {}
    stack = [(m, depth) for m in reversed(heads[g.root][1])]
    while stack:
        ref, k = stack.pop()
        level = reached[k]
        if ref in level:
            continue
        level.add(ref)
        node = nodes[ref]
        if isinstance(node, Fork):
            raise UnresolvedFork(_FORK_MESSAGE)
        if k and isinstance(node, Post):
            order = successors.get(ref)
            if order is None:
                replies[ref] = env.reply(node.action)
                order = successors[ref] = (
                    *reversed(heads[node.else_][1]),
                    *reversed(heads[node.then_][1]),
                )
            below = reached.get(k - 1)
            if below is None:
                below = reached[k - 1] = set()
            stack.extend([(m, k - 1) for m in order if m not in below])

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
    step_den = lcm(*(den for den, _ in exact.values()), root[0])

    def scaled(coef: Tuple[int, Dict[int, int]]) -> Tuple[Tuple[int, int], ...]:
        den, nums = coef
        f = step_den // den
        return tuple((x * f, m) for m, x in nums.items())

    coefs = {ref: scaled(coef) for ref, coef in exact.items()}

    # iteration: numerators over scale = step_den**(k - low) of
    # (terminate, deadlock, surviving) and, with traces, of the trace
    # table, for the nodes reached with k actions left, from those of
    # level k - 1.  The lowest level reached holds no action to perform
    # (every action reaches the level below), so it needs no predecessor,
    # and dividing every scale by step_den**low leaves each Fraction as
    # it was.
    steps = {ref: (str(nodes[ref].action),) for ref in coefs} if with_traces else {}
    prev: Dict[int, Tuple[int, int, int]] = {}
    prev_tables: Dict[int, Dict[Trace, int]] = {}
    low = min(reached)
    scale = 1
    for k in range(low, depth + 1):
        acting = coefs if k else {}
        cur: Dict[int, Tuple[int, int, int]] = {}
        for ref in reached[k]:
            coef = acting.get(ref)
            if coef is not None:
                t = d = s = 0
                for c, m in coef:
                    mt, md, ms = prev[m]
                    t += c * mt
                    d += c * md
                    s += c * ms
                cur[ref] = (t, d, s)
            elif isinstance(nodes[ref], Stop):
                cur[ref] = (scale, 0, 0)
            elif isinstance(nodes[ref], DeadEnd):
                cur[ref] = (0, scale, 0)
            else:  # an action beyond the bound
                cur[ref] = (0, 0, scale)
        if with_traces:
            prev_tables = {
                ref: _merged_traces(acting[ref], steps[ref], prev_tables)
                if ref in acting
                else {(): scale}
                for ref in reached[k]
            }
        prev = cur
        scale *= step_den

    top = scaled(root)
    t, d, s = (sum(c * prev[m][i] for c, m in top) for i in range(3))
    table_out = None
    if with_traces:
        merged = _merged_traces(top, (), prev_tables)
        # one Fraction per distinct mass, shared by every trace with it
        mass = {v: Fraction(v, scale) for v in set(merged.values())}
        table_out = tuple([(trace, mass[v]) for trace, v in sorted(merged.items())])
    return OutcomeDistribution(
        Fraction(t, scale), Fraction(d, scale), Fraction(s, scale), table_out
    )


def _draw(rng: random.Random) -> Fraction:
    return Fraction(rng.getrandbits(64), 1 << 64)


def oracle_sample_run(
    g: ThreadGraph,
    env: Environment,
    depth: int,
    seed: int,
) -> Tuple[str, Trace]:
    """One pseudo-random execution; identical seeds replay identically."""
    rng = random.Random(seed)
    ref = g.root
    trace: list = []
    k = depth
    while True:
        node = g.nodes[ref]
        if isinstance(node, Stop):
            return TERMINATE, tuple(trace)
        if isinstance(node, DeadEnd):
            return DEADLOCK, tuple(trace)
        if isinstance(node, Fork):
            raise UnresolvedFork(
                "a fork node can only be executed under strategic interleaving"
            )
        if isinstance(node, Prob):
            r = _draw(rng)
            acc = meadow.ZERO
            ref = node.branches[-1][1]
            for w, target in node.branches:
                acc += w
                if r < acc:
                    ref = target
                    break
            continue
        if k == 0:
            return SURVIVING, tuple(trace)
        p = env.reply(node.action)
        trace.append(str(node.action))
        ref = node.then_ if _draw(rng) < p else node.else_
        k -= 1


def oracle_sample_outcomes(
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
    counts = {TERMINATE: 0, DEADLOCK: 0, SURVIVING: 0}
    for index in range(runs):
        tag, _ = oracle_sample_run(g, env, depth, seed + index)
        counts[tag] += 1
    return {tag: Fraction(count, runs) for tag, count in counts.items()}


# ---------------------------------------------------------------------------
# the product constructions before they shared `GraphBuilder`'s worklist


def oracle_use(
    g: ThreadGraph,
    family: ServiceFamily,
    *,
    state_bound: int = DEFAULT_STATE_BOUND,
) -> ThreadGraph:
    """The thread `g` with its actions processed by the named services.

    Raises NonRegularProduct when the reachable (node, family-state)
    pairs exceed `state_bound`.
    """
    nodes: List = []
    slots: Dict[Tuple[int, ServiceFamily], int] = {}
    aux: Dict = {}
    queue = deque()

    def slot(ref: int, fam: ServiceFamily) -> int:
        key = (ref, fam)
        got = slots.get(key)
        if got is None:
            if len(slots) >= state_bound:
                raise NonRegularProduct(
                    f"more than {state_bound} (node, service-state) pairs"
                )
            got = len(nodes)
            nodes.append(None)
            slots[key] = got
            queue.append(key)
        return got

    def aux_node(node) -> int:
        got = aux.get(node)
        if got is None:
            got = len(nodes)
            nodes.append(node)
            aux[node] = got
        return got

    root = slot(g.root, family)
    while queue:
        ref, fam = queue.popleft()
        node = g.nodes[ref]
        if isinstance(node, Stop):
            content = STOP
        elif isinstance(node, DeadEnd):
            content = DEAD
        elif isinstance(node, Prob):
            content = Prob(tuple((w, slot(t, fam)) for w, t in node.branches))
        elif isinstance(node, Fork):
            content = Fork(
                slot(node.forked, fam), slot(node.then_, fam), slot(node.else_, fam)
            )
        elif node.action.is_tau:
            t = slot(node.then_, fam)
            content = Post(TAU, t, t)
        else:
            service = fam.get(node.action.focus)
            if service is None:
                content = Post(
                    node.action, slot(node.then_, fam), slot(node.else_, fam)
                )
            else:
                p = service.reply(node.action.method)
                if p is None:
                    dead = aux_node(DEAD)
                    content = Post(TAU, dead, dead)
                else:
                    p = meadow.as_probability(p)
                    derived = fam.replace(
                        node.action.focus, service.derive(node.action.method)
                    )
                    branches = [
                        (w, target)
                        for w, target in (
                            (p, node.then_),
                            (1 - p, node.else_),
                        )
                        if w != 0
                    ]
                    if len(branches) == 1:
                        inner = slot(branches[0][1], derived)
                    else:
                        inner = aux_node(
                            Prob(tuple((w, slot(t, derived)) for w, t in branches))
                        )
                    content = Post(TAU, inner, inner)
        nodes[slots[(ref, fam)]] = content

    return threads.trim(ThreadGraph(tuple(nodes), root))


class OracleEngine:
    """Shared product construction for the interleaving operators."""

    def __init__(self, spec: SchedulerSpec, threads_: Sequence[ThreadGraph], bound: int):
        if not threads_:
            raise ValueError("at least one thread is required")
        self.spec = spec
        self.bound = bound
        self.nodes: List = []
        self.slots: Dict[tuple, int] = {}
        self.aux: Dict = {}
        self.turns: Dict[tuple, List[Tuple[int, Fraction]]] = {}
        self.queue = deque()
        arena: List = []
        self.roots: List[int] = []
        for t in threads_:
            t = threads.normalize(t)
            offset = len(arena)
            arena.extend(threads._map_refs(node, _Offset(offset)) for node in t.nodes)
            self.roots.append(t.root + offset)
        self.arena = arena

    def aux_node(self, node) -> int:
        got = self.aux.get(node)
        if got is None:
            got = len(self.nodes)
            self.nodes.append(node)
            self.aux[node] = got
        return got

    def state_slot(self, key: tuple) -> int:
        got = self.slots.get(key)
        if got is None:
            if len(self.slots) >= self.bound:
                raise NonRegularProduct(
                    f"more than {self.bound} interleaving states"
                )
            got = len(self.nodes)
            self.nodes.append(None)
            self.slots[key] = got
            self.queue.append(key)
        return got

    def advance(self, view: History, ctrl, n: int, i: int, step: StepKind, count_after: int):
        """New (view, state) after 1-based thread `i` does `step`."""
        new_ctrl = self.spec.update(n, view, ctrl, i, step)
        new_view = self.spec.digest(view + ((i, count_after),))
        return new_view, new_ctrl

    def positional(self, sd: bool, view: History, ctrl, refs: Tuple[int, ...], i: int) -> int:
        """Output reference for thread `i` (0-based) taking the next turn."""
        node = self.arena[refs[i]]
        n = len(refs)
        if isinstance(node, Prob):
            branches = [
                (w, self.positional(sd, view, ctrl, refs[:i] + (t,) + refs[i + 1 :], i))
                for w, t in node.branches
            ]
            if len(branches) == 1:
                return branches[0][1]
            return self.aux_node(Prob(tuple(branches)))
        if isinstance(node, Stop):
            if n == 1:
                return self.aux_node(DEAD if sd else STOP)
            view2, ctrl2 = self.advance(view, ctrl, n, i + 1, TERMINATION_STEP, n - 1)
            return self.state_slot((sd, view2, ctrl2, refs[:i] + refs[i + 1 :]))
        if isinstance(node, DeadEnd):
            if n == 1:
                return self.aux_node(DEAD)
            view2, ctrl2 = self.advance(view, ctrl, n, i + 1, INACTION_STEP, n - 1)
            return self.state_slot((True, view2, ctrl2, refs[:i] + refs[i + 1 :]))
        if isinstance(node, Fork):
            view2, ctrl2 = self.advance(view, ctrl, n, i + 1, FORK_STEP, n + 1)
            target = self.state_slot(
                (sd, view2, ctrl2, refs[:i] + (node.then_,) + refs[i + 1 :] + (node.forked,))
            )
            return self.aux_node(Post(TAU, target, target))
        view2, ctrl2 = self.advance(view, ctrl, n, i + 1, BasicStep(node.action), n)
        t1 = self.state_slot((sd, view2, ctrl2, refs[:i] + (node.then_,) + refs[i + 1 :]))
        t2 = self.state_slot((sd, view2, ctrl2, refs[:i] + (node.else_,) + refs[i + 1 :]))
        return self.aux_node(Post(node.action, t1, t2))

    def fill(self, key: tuple) -> None:
        sd, view, ctrl, refs = key
        n = len(refs)
        # `schedule` is pure: check its turn vector once per (n, view, ctrl)
        turns = self.turns.get((n, view, ctrl))
        if turns is None:
            weights = [meadow.as_probability(w) for w in self.spec.schedule(n, view, ctrl)]
            if len(weights) != n:
                raise ValueError(
                    f"scheduler returned {len(weights)} weights for {n} threads"
                )
            if sum(weights) != 1:
                raise WeightSumNotOne(f"turn probabilities sum to {sum(weights)}, not 1")
            turns = self.turns[n, view, ctrl] = [(i, w) for i, w in enumerate(weights) if w]
        branches = [(w, self.positional(sd, view, ctrl, refs, i)) for i, w in turns]
        # a single live branch still needs a node of its own: alias it
        # with a one-branch choice so the slot has content to hold
        self.nodes[self.slots[key]] = Prob(tuple(branches))

    def run(self, root: int) -> ThreadGraph:
        while self.queue:
            self.fill(self.queue.popleft())
        return threads.trim(ThreadGraph(tuple(self.nodes), root))


class _Offset:
    """Mapping view that shifts references by a fixed amount."""

    __slots__ = ("offset",)

    def __init__(self, offset: int):
        self.offset = offset

    def __getitem__(self, ref: int) -> int:
        return ref + self.offset


def oracle_interleave(
    spec: SchedulerSpec,
    threads_: Sequence[ThreadGraph],
    history: History = (),
    state=_DEFAULT,
    *,
    state_bound: int = interleaving.DEFAULT_STATE_BOUND,
) -> ThreadGraph:
    """The single thread arising from scheduling the given threads."""
    engine = OracleEngine(spec, threads_, state_bound)
    ctrl = spec.initial_state if state is _DEFAULT else state
    view = spec.digest(tuple(history))
    root = engine.state_slot((False, view, ctrl, tuple(engine.roots)))
    return engine.run(root)


def oracle_positional_interleave(
    spec: SchedulerSpec,
    i: int,
    threads_: Sequence[ThreadGraph],
    history: History = (),
    state=_DEFAULT,
    *,
    state_bound: int = interleaving.DEFAULT_STATE_BOUND,
) -> ThreadGraph:
    """Interleaving conditioned on thread `i` (1-based) taking the next turn."""
    if not 1 <= i <= len(threads_):
        raise ValueError(f"position {i} outside 1..{len(threads_)}")
    engine = OracleEngine(spec, threads_, state_bound)
    ctrl = spec.initial_state if state is _DEFAULT else state
    view = spec.digest(tuple(history))
    root = engine.positional(False, view, ctrl, tuple(engine.roots), i - 1)
    return engine.run(root)


class HashConsEngine:
    """Shared product construction for the interleaving operators."""

    def __init__(self, spec: SchedulerSpec, threads_: Sequence[ThreadGraph], bound: int):
        if not threads_:
            raise ValueError("at least one thread is required")
        self.spec = spec
        self.b = GraphBuilder(bound, "interleaving states")
        self.turns: Dict[tuple, List[Tuple[int, Fraction]]] = {}
        arena: List = []
        self.roots: List[int] = []
        for t in threads_:
            t = threads.normalize(t)
            shift = range(len(arena), len(arena) + len(t.nodes))
            arena.extend(threads._map_refs(node, shift) for node in t.nodes)
            self.roots.append(shift[t.root])
        self.arena = arena
        # interning keys: (weight id, targets) for a choice and
        # (arena ref, then, else) for an action step
        ids: Dict[Tuple[Fraction, ...], int] = {}
        self.weight_id: Dict[int, int] = {
            r: ids.setdefault(tuple(w for w, _ in node.branches), len(ids))
            for r, node in enumerate(arena)
            if isinstance(node, Prob)
        }
        self.interned: Dict[tuple, int] = {}

    def advance(self, view: History, ctrl, n: int, i: int, step: StepKind, count_after: int):
        """New (view, state) after 1-based thread `i` does `step`."""
        new_ctrl = self.spec.update(n, view, ctrl, i, step)
        new_view = self.spec.digest(view + ((i, count_after),))
        return new_view, new_ctrl

    def positional(self, sd: bool, view: History, ctrl, refs: Tuple[int, ...], i: int) -> int:
        """Output reference for thread `i` (0-based) taking the next turn."""
        r = refs[i]
        node = self.arena[r]
        n = len(refs)
        b = self.b
        if isinstance(node, Prob):
            targets = tuple(
                self.positional(sd, view, ctrl, refs[:i] + (t,) + refs[i + 1 :], i)
                for _, t in node.branches
            )
            if len(targets) == 1:
                return targets[0]
            key = (self.weight_id[r], targets)
            ref = self.interned.get(key)
            if ref is None:
                branches = tuple((w, u) for (w, _), u in zip(node.branches, targets))
                ref = self.interned[key] = b.add(Prob(branches))
            return ref
        if isinstance(node, Stop):
            if n == 1:
                return b.add(DEAD if sd else STOP)
            view2, ctrl2 = self.advance(view, ctrl, n, i + 1, TERMINATION_STEP, n - 1)
            return b.slot((sd, view2, ctrl2, refs[:i] + refs[i + 1 :]))
        if isinstance(node, DeadEnd):
            if n == 1:
                return b.add(DEAD)
            view2, ctrl2 = self.advance(view, ctrl, n, i + 1, INACTION_STEP, n - 1)
            return b.slot((True, view2, ctrl2, refs[:i] + refs[i + 1 :]))
        if isinstance(node, Fork):
            view2, ctrl2 = self.advance(view, ctrl, n, i + 1, FORK_STEP, n + 1)
            t1 = t2 = b.slot(
                (sd, view2, ctrl2, refs[:i] + (node.then_,) + refs[i + 1 :] + (node.forked,))
            )
            action = TAU
        else:
            action = node.action
            view2, ctrl2 = self.advance(view, ctrl, n, i + 1, BasicStep(action), n)
            t1 = b.slot((sd, view2, ctrl2, refs[:i] + (node.then_,) + refs[i + 1 :]))
            t2 = b.slot((sd, view2, ctrl2, refs[:i] + (node.else_,) + refs[i + 1 :]))
        key = (r, t1, t2)
        ref = self.interned.get(key)
        if ref is None:
            ref = self.interned[key] = b.add(Post(action, t1, t2))
        return ref

    def content(self, key: tuple) -> Prob:
        sd, view, ctrl, refs = key
        n = len(refs)
        # `schedule` is pure: check its turn vector once per (n, view, ctrl)
        turns = self.turns.get((n, view, ctrl))
        if turns is None:
            weights = [meadow.as_probability(w) for w in self.spec.schedule(n, view, ctrl)]
            if len(weights) != n:
                raise ValueError(
                    f"scheduler returned {len(weights)} weights for {n} threads"
                )
            if sum(weights) != 1:
                raise WeightSumNotOne(f"turn probabilities sum to {sum(weights)}, not 1")
            turns = self.turns[n, view, ctrl] = [(i, w) for i, w in enumerate(weights) if w]
        branches = [(w, self.positional(sd, view, ctrl, refs, i)) for i, w in turns]
        # a single live branch still needs a node of its own: alias it
        # with a one-branch choice so the slot has content to hold
        return Prob(tuple(branches))

    def run(self, root: int) -> ThreadGraph:
        self.b.expand(self.content)
        return self.b.graph(root)


def oracle_hashcons_product(
    spec: SchedulerSpec,
    threads_: Sequence[ThreadGraph],
    position: int = 0,
    *,
    state_bound: int = interleaving.DEFAULT_STATE_BOUND,
) -> ThreadGraph:
    """`interleave` by `HashConsEngine`, or `positional_interleave` at the
    1-based `position` when one is given."""
    engine = HashConsEngine(spec, threads_, state_bound)
    view = spec.digest(())
    refs = tuple(engine.roots)
    if position:
        root = engine.positional(False, view, spec.initial_state, refs, position - 1)
    else:
        root = engine.b.slot((False, view, spec.initial_state, refs))
    return engine.run(root)


class TupleKeyEngine:
    """Shared product construction for the interleaving operators."""

    def __init__(self, spec: SchedulerSpec, threads_: Sequence[ThreadGraph], bound: int):
        if not threads_:
            raise ValueError("at least one thread is required")
        self.spec = spec
        self.b = GraphBuilder(bound, "interleaving states")
        self.turns: Dict[tuple, List[Tuple[int, Fraction]]] = {}
        arena: List = []
        self.roots: List[int] = []
        for t in threads_:
            t = threads.normalize(t)
            shift = range(len(arena), len(arena) + len(t.nodes))
            arena.extend(threads._map_refs(node, shift) for node in t.nodes)
            self.roots.append(shift[t.root])
        self.arena = arena
        # interning keys: (weight id, targets) for a choice and
        # (action id, then, else) for a step
        ids: Dict[Tuple[Fraction, ...], int] = {}
        self.weight_id: Dict[int, int] = {
            r: ids.setdefault(tuple(w for w, _ in node.branches), len(ids))
            for r, node in enumerate(arena)
            if isinstance(node, Prob)
        }
        actions: Dict[Action, int] = {TAU: 0}
        self.action_id: Dict[int, int] = {
            r: actions.setdefault(node.action, len(actions))
            for r, node in enumerate(arena)
            if isinstance(node, Post)
        }
        self.steps = [BasicStep(action) for action in actions]
        self.interned: Dict[tuple, int] = {}

    def advance(self, view: History, ctrl, n: int, i: int, step: StepKind, count_after: int):
        """New (view, state) after 1-based thread `i` does `step`."""
        new_ctrl = self.spec.update(n, view, ctrl, i, step)
        new_view = self.spec.digest(view + ((i, count_after),))
        return new_view, new_ctrl

    def positional(
        self, sd: bool, view: History, ctrl, refs: Tuple[int, ...], i: int, r: int
    ) -> int:
        """Output reference for thread `i` (0-based), at arena node `r`,
        taking the next turn; `refs[i]` is not read."""
        node = self.arena[r]
        n = len(refs)
        b = self.b
        if isinstance(node, Prob):
            targets = tuple(
                self.positional(sd, view, ctrl, refs, i, t) for _, t in node.branches
            )
            key = (self.weight_id[r], targets)
            ref = self.interned.get(key)
            if ref is None:
                branches = tuple((w, u) for (w, _), u in zip(node.branches, targets))
                ref = self.interned[key] = b.append(threads._built_prob(branches))
            return ref
        if isinstance(node, Stop):
            if n == 1:
                return b.add(DEAD if sd else STOP)
            view2, ctrl2 = self.advance(view, ctrl, n, i + 1, TERMINATION_STEP, n - 1)
            return b.slot((sd, view2, ctrl2, refs[:i] + refs[i + 1 :]))
        if isinstance(node, DeadEnd):
            if n == 1:
                return b.add(DEAD)
            view2, ctrl2 = self.advance(view, ctrl, n, i + 1, INACTION_STEP, n - 1)
            return b.slot((True, view2, ctrl2, refs[:i] + refs[i + 1 :]))
        if isinstance(node, Fork):
            view2, ctrl2 = self.advance(view, ctrl, n, i + 1, FORK_STEP, n + 1)
            t1 = t2 = b.slot(
                (sd, view2, ctrl2, refs[:i] + (node.then_,) + refs[i + 1 :] + (node.forked,))
            )
            aid, action = 0, TAU
        else:
            aid, action = self.action_id[r], node.action
            view2, ctrl2 = self.advance(view, ctrl, n, i + 1, self.steps[aid], n)
            t1 = b.slot((sd, view2, ctrl2, refs[:i] + (node.then_,) + refs[i + 1 :]))
            t2 = b.slot((sd, view2, ctrl2, refs[:i] + (node.else_,) + refs[i + 1 :]))
        key = (aid, t1, t2)
        ref = self.interned.get(key)
        if ref is None:
            ref = self.interned[key] = b.append(Post(action, t1, t2))
        return ref

    def content(self, key: tuple) -> Prob:
        sd, view, ctrl, refs = key
        n = len(refs)
        # `schedule` is pure: check its turn vector once per (n, view, ctrl)
        turns = self.turns.get((n, view, ctrl))
        if turns is None:
            weights = [meadow.as_probability(w) for w in self.spec.schedule(n, view, ctrl)]
            if len(weights) != n:
                raise ValueError(
                    f"scheduler returned {len(weights)} weights for {n} threads"
                )
            if sum(weights) != 1:
                raise WeightSumNotOne(f"turn probabilities sum to {sum(weights)}, not 1")
            turns = self.turns[n, view, ctrl] = [(i, w) for i, w in enumerate(weights) if w]
        branches = tuple(
            [(w, self.positional(sd, view, ctrl, refs, i, refs[i])) for i, w in turns]
        )
        # a single live branch still needs a node of its own: alias it
        # with a one-branch choice so the slot has content to hold
        return threads._built_prob(branches)

    def run(self, root: int) -> ThreadGraph:
        self.b.expand(self.content)
        return self.b.graph(root)


def oracle_tuple_key_product(
    spec: SchedulerSpec,
    threads_: Sequence[ThreadGraph],
    position: int = 0,
    *,
    state_bound: int = interleaving.DEFAULT_STATE_BOUND,
) -> ThreadGraph:
    """`interleave` by `TupleKeyEngine`, or `positional_interleave` at the
    1-based `position` when one is given."""
    engine = TupleKeyEngine(spec, threads_, state_bound)
    view = spec.digest(())
    refs = tuple(engine.roots)
    if position:
        root = engine.positional(
            False, view, spec.initial_state, refs, position - 1, refs[position - 1]
        )
    else:
        root = engine.b.slot((False, view, spec.initial_state, refs))
    return engine.run(root)


def _print_children(node) -> Tuple[int, ...]:
    # children in printed order; an equal-branch test prints only once
    if isinstance(node, Post):
        if node.then_ == node.else_:
            return (node.then_,)
        return (node.then_, node.else_)
    if isinstance(node, Fork):
        return (node.forked, node.then_, node.else_)
    if isinstance(node, Prob):
        return tuple(t for _, t in node.branches)
    return ()


def oracle_print_term(g: ThreadGraph) -> str:
    """Deterministic textual form of a graph; `parse_thread` inverts it."""
    color: Dict[int, int] = {}
    pre: Dict[int, int] = {}
    visits: Dict[int, int] = {}
    named: Set[int] = set()

    def dfs(r: int) -> None:
        visits[r] = visits.get(r, 0) + 1
        c = color.get(r)
        if c == 0:
            named.add(r)
            return
        if c == 1:
            return
        color[r] = 0
        pre[r] = len(pre)
        for ch in _print_children(g.nodes[r]):
            dfs(ch)
        color[r] = 1

    dfs(g.root)
    for r, count in visits.items():
        if count > 1 and not isinstance(g.nodes[r], (Stop, DeadEnd)):
            named.add(r)
    if named:
        named.add(g.root)
    names = {r: f"X{i}" for i, r in enumerate(sorted(named, key=pre.get))}

    def render(r: int, as_def: bool = False) -> str:
        if r in names and not as_def:
            return names[r]
        node = g.nodes[r]
        if isinstance(node, Stop):
            return "S"
        if isinstance(node, DeadEnd):
            return "D"
        if isinstance(node, Post):
            if node.then_ == node.else_:
                return f"prefix({node.action}, {render(node.then_)})"
            return (
                f"post({node.action}, "
                f"{render(node.then_)}, {render(node.else_)})"
            )
        if isinstance(node, Fork):
            return f"fork({render(node.forked)}, {render(node.then_)}, {render(node.else_)})"
        branches = ", ".join(
            f"{meadow.format_rational(w)}: {render(t)}" for w, t in node.branches
        )
        return f"prob({branches})"

    if not named:
        return render(g.root)
    main = names[g.root]
    eqs = " ".join(
        f"{names[r]} = {render(r, as_def=True)};" for r in sorted(named, key=pre.get)
    )
    return f"rec {main} {{ {eqs} }} in {main}"


def _unguarded_free(term: Term, bound: frozenset) -> frozenset:
    """Variables occurring in `term` outside any action test.

    Also validates that every variable is bound and that no recursion
    cycle avoids action tests.  A variable occurrence is guarded only
    under an action test: probabilistic choices and forks do not guard
    (their finite-depth approximations consume no depth, so a cycle
    through them alone has no approximants).
    """
    if isinstance(term, TVar):
        if term.name not in bound:
            raise ValueError(f"unbound variable {term.name!r}")
        return frozenset((term.name,))
    if isinstance(term, TPost):
        # `tprefix` shares one object between the branches: walk it once
        _unguarded_free(term.then_, bound)
        if term.else_ is not term.then_:
            _unguarded_free(term.else_, bound)
        return frozenset()
    if isinstance(term, TFork):
        return (
            _unguarded_free(term.forked, bound)
            | _unguarded_free(term.then_, bound)
            | _unguarded_free(term.else_, bound)
        )
    if isinstance(term, TProb):
        out = frozenset()
        for _, t in term.branches:
            out |= _unguarded_free(t, bound)
        return out
    if isinstance(term, TRec):
        names = [n for n, _ in term.equations]
        if len(set(names)) != len(names):
            raise ValueError("duplicate equation variable")
        if term.body not in names:
            raise ValueError(f"selected variable {term.body!r} has no equation")
        inner = bound | frozenset(names)
        exposed = {n: _unguarded_free(rhs, inner) for n, rhs in term.equations}
        # a cycle along unguarded occurrences has no unique solution
        state: Dict[str, int] = {}

        def visit(name: str) -> None:
            if state.get(name) == 1:
                return
            if state.get(name) == 0:
                raise UnguardedRecursion(
                    f"variable {name!r} recurs without an action test guarding it"
                )
            state[name] = 0
            for dep in exposed[name]:
                if dep in exposed:
                    visit(dep)
            state[name] = 1

        for name in names:
            visit(name)
        # outer variables unguardedly reachable from the selected equation
        seen = set()
        frontier = [term.body]
        out = frozenset()
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            out |= exposed[name] - frozenset(names)
            frontier.extend(dep for dep in exposed[name] if dep in exposed)
        return out
    return frozenset()


def _assemble(term: Term, env: Dict[str, int], b: GraphBuilder) -> int:
    if isinstance(term, TStop):
        return b.add(STOP)
    if isinstance(term, TDead):
        return b.add(DEAD)
    if isinstance(term, TPost):
        then_ = _assemble(term.then_, env, b)
        else_ = then_ if term.else_ is term.then_ else _assemble(term.else_, env, b)
        return b.add(Post(term.action, then_, else_))
    if isinstance(term, TFork):
        return b.add(
            Fork(
                _assemble(term.forked, env, b),
                _assemble(term.then_, env, b),
                _assemble(term.else_, env, b),
            )
        )
    if isinstance(term, TProb):
        weights = probability_weights([w for w, _ in term.branches])
        kept = [
            (w, _assemble(t, env, b))
            for w, (_, t) in zip(weights, term.branches)
            if w != 0
        ]
        if len(kept) == 1:
            return kept[0][1]
        return b.add(Prob(tuple(kept)))
    if isinstance(term, TVar):
        return env[term.name]
    if isinstance(term, TRec):
        # alias equations (X = Y) share the target's slot outright
        aliases = {n: rhs.name for n, rhs in term.equations if isinstance(rhs, TVar)}
        inner = dict(env)
        for name, rhs in term.equations:
            if name not in aliases:
                inner[name] = b.reserve()
        for name in aliases:
            target = aliases[name]
            while target in aliases:
                target = aliases[target]
            inner[name] = inner[target]
        for name, rhs in term.equations:
            if name not in aliases:
                b.copy_into(inner[name], _assemble(rhs, inner, b))
        return inner[term.body]
    raise TypeError(f"not a term: {term!r}")


def oracle_build(term: Term) -> ThreadGraph:
    """Graph whose unfolding is the given closed term.

    Recursion must be guarded: no dependency cycle among equations may
    avoid action tests.  Zero-weight branches are dropped on input; a
    weight of one collapses the choice; weights outside [0, 1] are
    rejected.
    """
    _unguarded_free(term, frozenset())
    b = GraphBuilder()
    root = _assemble(term, {}, b)
    return trim(b.graph(root))


def oracle_nary_prob(weights: Sequence[Fraction], targets: Sequence[Term]) -> Term:
    """Right-nested binary choices realizing a distribution over targets.

    Built inductively: the first branch keeps its weight and the
    remaining weights are renormalized by meadow division, so a zero
    remainder never divides.  Weights must sum to exactly one.
    """
    if not targets or len(weights) != len(targets):
        raise ValueError("weights and targets must be nonempty and equal length")
    ws = probability_weights(weights)

    def rec(ws: List[Fraction], tails: List[Term]) -> Term:
        if len(tails) == 1 or ws[0] == 1:
            return tails[0]
        w0 = ws[0]
        rest = rec([meadow.div(w, 1 - w0) for w in ws[1:]], tails[1:])
        return TProb(((w0, tails[0]), (1 - w0, rest)))

    return rec(ws, list(targets))


def oracle_project(n: int, g: ThreadGraph) -> ThreadGraph:
    """The approximation of `g` cut off after `n` action steps.

    Depth zero is inaction.  Performing an action consumes one level;
    probabilistic choices and forks are passed through unchanged, so
    only action tests count towards the depth.
    """
    if n < 0:
        raise ValueError("projection depth must be a natural number")
    b = GraphBuilder()
    memo: Dict[Tuple[int, int], int] = {}
    # a post-order walk over (node, depth) pairs with an explicit stack,
    # adding nodes to `b` in the order a recursive walk would
    expanded = set()
    stack = [(g.root, n)]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        r, k = key
        node = g.nodes[r]
        if k == 0:
            needs: Tuple[Tuple[int, int], ...] = ()
        elif isinstance(node, Post):
            needs = ((node.then_, k - 1), (node.else_, k - 1))
        else:
            needs = tuple((c, k) for c in _children(node))
        missing = [c for c in needs if c not in memo]
        if missing:
            # met again before its children are done: a depth-free cycle
            if key in expanded:
                raise UnguardedRecursion("cycle through probabilistic choices")
            expanded.add(key)
            stack.extend(reversed(missing))
            continue
        stack.pop()
        if k == 0 or isinstance(node, DeadEnd):
            out = b.add(DEAD)
        elif isinstance(node, Stop):
            out = b.add(STOP)
        elif isinstance(node, Post):
            out = b.add(Post(node.action, memo[needs[0]], memo[needs[1]]))
        elif isinstance(node, Fork):
            out = b.add(Fork(*(memo[c] for c in needs)))
        else:
            out = b.add(Prob(tuple((w, memo[c]) for (w, _), c in zip(node.branches, needs))))
        memo[key] = out
    return b.graph(memo[(g.root, n)])


def oracle_equal_up_to(n: int, g1: ThreadGraph, g2: ThreadGraph) -> bool:
    """Whether the depth-`n` approximations have equal canonical forms."""
    return threads.normalize(threads.project(n, g1)) == threads.normalize(threads.project(n, g2))


class OracleParser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def fail(self, message: str):
        raise ParseError(message, self.peek().pos)

    # ---- rationals ---------------------------------------------------

    def rational(self):
        negative = False
        if self.peek().text == "-":
            self.next()
            negative = True
        tok = self.next()
        if tok.kind != "int":
            raise ParseError(f"expected a number, found {tok.text!r}", tok.pos)
        num = int(tok.text)
        den = 1
        if self.peek().text == "/":
            self.next()
            dtok = self.next()
            if dtok.kind != "int":
                raise ParseError(f"expected a denominator, found {dtok.text!r}", dtok.pos)
            den = int(dtok.text)
            if den == 0:
                raise ParseError("zero denominator", dtok.pos)
        value = meadow.rat(num, den)
        return -value if negative else value

    # ---- actions -----------------------------------------------------

    def action(self) -> Action:
        tok = self.next()
        if tok.kind != "name":
            raise ParseError(f"expected an action, found {tok.text!r}", tok.pos)
        if tok.text == "tau":
            return TAU
        if tok.text in KEYWORDS:
            raise ParseError(f"keyword {tok.text!r} cannot name an action", tok.pos)
        focus = tok.text
        if self.peek().text != ".":
            return threads.basic(threads.MAIN_FOCUS, focus)
        self.next()
        mtok = self.next()
        if mtok.kind != "name":
            raise ParseError(f"expected a method name, found {mtok.text!r}", mtok.pos)
        method = mtok.text
        if self.peek().text == "(":
            self.next()
            p = self.rational()
            self.expect(")")
            method = f"{method}({meadow.format_rational(p)})"
        return threads.basic(focus, method)

    # ---- terms -------------------------------------------------------

    def term(self, scope: Set[str]):
        # a generator: sub-terms are yielded to `threads.run_stackless`,
        # so nesting depth costs no Python stack
        tok = self.peek()
        if tok.text == "S":
            self.next()
            return TStop()
        if tok.text == "D":
            self.next()
            return TDead()
        if tok.text == "post":
            self.next()
            self.expect("(")
            a = self.action()
            self.expect(",")
            t1 = yield self.term(scope)
            self.expect(",")
            t2 = yield self.term(scope)
            self.expect(")")
            return TPost(a, t1, t2)
        if tok.text == "prefix":
            self.next()
            self.expect("(")
            a = self.action()
            self.expect(",")
            t = yield self.term(scope)
            self.expect(")")
            return TPost(a, t, t)
        if tok.text == "fork":
            self.next()
            self.expect("(")
            tf = yield self.term(scope)
            self.expect(",")
            t1 = yield self.term(scope)
            self.expect(",")
            t2 = yield self.term(scope)
            self.expect(")")
            return TFork(tf, t1, t2)
        if tok.text == "prob":
            self.next()
            self.expect("(")
            branches = [(yield self.branch(scope))]
            while self.peek().text == ",":
                self.next()
                branches.append((yield self.branch(scope)))
            self.expect(")")
            return TProb(tuple(branches))
        if tok.text == "rec":
            return (yield self.rec(scope))
        if tok.kind == "name" and tok.text not in KEYWORDS:
            self.next()
            if tok.text not in scope:
                raise ParseError(f"unbound variable {tok.text!r}", tok.pos)
            return TVar(tok.text)
        raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}", tok.pos)

    def branch(self, scope: Set[str]):
        w = self.rational()
        self.expect(":")
        return (w, (yield self.term(scope)))

    def rec(self, scope: Set[str]):
        self.expect("rec")
        head = self.next()
        if head.kind != "name" or head.text in KEYWORDS:
            raise ParseError(f"expected a variable, found {head.text!r}", head.pos)
        self.expect("{")
        names: Set[str] = set()
        # collect the variable names first so equations may refer forward
        mark = self.i
        while self.peek().text != "}":
            vtok = self.next()
            if vtok.kind != "name" or vtok.text in KEYWORDS:
                raise ParseError(f"expected a variable, found {vtok.text!r}", vtok.pos)
            if vtok.text in names:
                raise ParseError(f"duplicate equation variable {vtok.text!r}", vtok.pos)
            names.add(vtok.text)
            self.expect("=")
            self.skip_term()
            self.expect(";")
        self.i = mark
        inner = scope | names
        equations: List[Tuple[str, Term]] = []
        while self.peek().text != "}":
            vtok = self.next()
            self.expect("=")
            equations.append((vtok.text, (yield self.term(inner))))
            self.expect(";")
        self.expect("}")
        self.expect("in")
        body = self.next()
        if body.text not in names:
            raise ParseError(f"selected variable {body.text!r} has no equation", body.pos)
        if head.text not in names:
            raise ParseError(f"variable {head.text!r} has no equation", head.pos)
        return TRec(tuple(equations), body.text)

    def skip_term(self) -> None:
        # skim tokens of one equation body: balanced parens up to ';'
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                raise ParseError("unterminated equation", tok.pos)
            if depth == 0 and tok.text in (";", "}"):
                return
            if tok.text in "({":
                depth += 1
            elif tok.text in ")}":
                depth -= 1
            self.next()


def oracle_parse_term(text: str) -> Term:
    """Parse the textual syntax into a term."""
    p = OracleParser(text)
    t = threads.run_stackless(p.term(set()))
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return t
