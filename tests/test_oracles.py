"""Differential tests: the production algorithms against the oracles.

`threads.normalize` must return exactly the graph of the original
Fraction-signature refinement, and the sparse `interaction._solve` must
return exactly the solution of the dense Gauss-Jordan elimination.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import genlib
import threadalg as ta
from oracles import oracle_normalize, oracle_solve
from threadalg import interaction, interleaving, threads
from threadalg.threads import TDead, TPost, TProb, TRec, TStop, TVar

DATA = Path(__file__).parent / "data"


def rec_term(rng, k):
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
        return TPost(genlib.action(rng, "ab"), body(depth - 1), body(depth - 1))

    eqs = tuple((n, TPost(genlib.action(rng, "ab"), body(2), body(2))) for n in names)
    return TRec(eqs, names[0])


def random_threads(rng, count):
    out = []
    for _ in range(count):
        if rng.random() < 0.5:
            out.append(ta.build(rec_term(rng, rng.randint(1, 4))))
        else:
            out.append(genlib.thread(rng, rng.randint(0, 4), allow_fork=True))
    return out


def test_normalize_matches_oracle_on_random_threads():
    rng = random.Random(20)
    for g in random_threads(rng, 150):
        assert threads.normalize(g) == oracle_normalize(g)


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


def _dense_solve(a, b):
    n = len(a)
    width = 1 + max((j for row in b for j in row), default=-1)
    dense_a = [[row.get(j, Fraction(0)) for j in range(n)] for row in a]
    dense_b = [[row.get(j, Fraction(0)) for j in range(width)] for row in b]
    return [{j: v for j, v in enumerate(row) if v} for row in oracle_solve(dense_a, dense_b)]


def test_abstract_tau_matches_oracle_pipeline(monkeypatch):
    rng = random.Random(23)
    cases = []
    for _ in range(60):
        term = genlib.term(rng, rng.randint(1, 4), mk_action=genlib.service_action)
        g = interaction.use(ta.build(term), genlib.family(rng))
        cases.append((g, interaction.abstract_tau(g)))
    cases += [(g, interaction.abstract_tau(g)) for g in random_threads(rng, 60)]
    monkeypatch.setattr(threads, "normalize", oracle_normalize)
    monkeypatch.setattr(interaction, "_solve", _dense_solve)
    for g, got in cases:
        assert got == interaction.abstract_tau(g)


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
        assert interaction._solve(a, b) == _dense_solve(a, b)


def test_sparse_solve_of_empty_system():
    assert interaction._solve([], []) == []


def test_singular_system_raises():
    half = Fraction(1, 2)
    duplicate_rows = [{0: half, 1: Fraction(1)}, {0: half, 1: Fraction(1)}]
    missing_column = [{0: Fraction(1)}, {0: Fraction(2)}]
    for a in (duplicate_rows, missing_column):
        b = [{0: Fraction(1)}, {0: Fraction(1)}]
        with pytest.raises(ArithmeticError):
            interaction._solve(a, b)
        with pytest.raises(ArithmeticError):
            _dense_solve(a, b)
