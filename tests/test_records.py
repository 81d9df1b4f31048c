"""The library's record classes behave as immutable values, and the
package starts without generating code for them."""

import copy
import functools
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from threadalg import analysis, interaction, interleaving, pglb, services, threads
from threadalg.threads import (
    Action,
    DeadEnd,
    Fork,
    Post,
    Prob,
    Stop,
    TDead,
    TFork,
    TPost,
    TProb,
    TRec,
    TStop,
    TVar,
    ThreadGraph,
)

SRC = Path(__file__).resolve().parents[1] / "src"

A = Action("main", "a")
B = Action("main", "b")
HALF = Fraction(1, 2)


def _spec_schedule(n, h, s):
    return (Fraction(1, n),) * n


def _spec_update(n, h, s, i, step):
    return s


# every record class, with its fields as (name, value) pairs in order, and
# a second set of values that differs in the last field
RECORDS = [
    (Action, [("focus", "main"), ("method", "a")], "b"),
    (Stop, [], None),
    (DeadEnd, [], None),
    (Post, [("action", A), ("then_", 1), ("else_", 2)], 3),
    (Fork, [("forked", 1), ("then_", 2), ("else_", 3)], 4),
    (Prob, [("branches", ((HALF, 0), (HALF, 1)))], ((HALF, 0), (HALF, 2))),
    (ThreadGraph, [("nodes", (Stop(),)), ("root", 0)], 1),
    (TStop, [], None),
    (TDead, [], None),
    (TPost, [("action", A), ("then_", TStop()), ("else_", TDead())], TStop()),
    (TFork, [("forked", TStop()), ("then_", TStop()), ("else_", TDead())], TStop()),
    (TProb, [("branches", ((HALF, TStop()), (HALF, TDead())))], ((1, TStop()),)),
    (TVar, [("name", "X")], "Y"),
    (TRec, [("equations", (("X", TVar("X")),)), ("body", "X")], "Y"),
    (pglb.BasicInstr, [("test", "pos"), ("name", "a")], "b"),
    (pglb.RandomInstr, [("test", "neg"), ("prob", HALF)], Fraction(1, 3)),
    (pglb.JumpInstr, [("backward", True), ("offset", 2)], 3),
    (pglb.HaltInstr, [], None),
    (pglb.Program, [("instructions", (pglb.HALT,))], (pglb.HALT, pglb.HALT)),
    (services.EmptyService, [], None),
    (services.RandomService, [], None),
    (services.RegisterService, [("value", False)], True),
    (services.ServiceFamily, [("entries", (("r", services.RANDOM),))], ()),
    (interleaving.BasicStep, [("action", A)], B),
    (interleaving.ForkStep, [], None),
    (interleaving.TerminationStep, [], None),
    (interleaving.InactionStep, [], None),
    (
        interleaving.SchedulerSpec,
        [
            ("initial_state", 0),
            ("schedule", _spec_schedule),
            ("update", _spec_update),
            ("digest", interleaving._keep_last),
        ],
        interleaving._keep_none,
    ),
    (
        analysis.OutcomeDistribution,
        [("terminate", HALF), ("deadlock", 0), ("surviving", HALF), ("traces", ())],
        ((("a",), 1),),
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_records_are_values(cls, fields, other):
    names = [name for name, _ in fields]
    values = [value for _, value in fields]
    first, second = cls(*values), cls(**dict(fields))
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert first is not second or not fields
    assert first != object() and first != None  # noqa: E711
    assert [getattr(first, name) for name in names] == values
    assert copy.copy(first) == first and copy.deepcopy(first) == first
    if cls is not interleaving.SchedulerSpec:  # its fields are functions
        assert pickle.loads(pickle.dumps(first)) == first
    assert repr(first) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in fields)})"
    if fields:
        changed = cls(*values[:-1], other)
        assert changed != first and not changed == first
        # keyword and positional arguments mix as a signature allows
        assert cls(*values[:1], **dict(fields[1:])) == first
        with pytest.raises(TypeError):
            cls(*values[:-1], other, **{names[-1]: other})
    with pytest.raises(TypeError):
        cls(*values, None)
    for name in [*names, "other"]:
        with pytest.raises(AttributeError):
            setattr(first, name, None)
        with pytest.raises(AttributeError):
            delattr(first, name)
    assert [getattr(first, name) for name in names] == values


def test_records_of_different_classes_are_unequal():
    pairs = [
        (Stop(), DeadEnd()),
        (TStop(), Stop()),
        (TDead(), DeadEnd()),
        (TPost(A, 1, 2), Post(A, 1, 2)),
        (TFork(1, 2, 3), Fork(1, 2, 3)),
        (TProb(((1, 0),)), Prob(((1, 0),))),
        (interleaving.ForkStep(), interleaving.InactionStep()),
        (interleaving.TerminationStep(), interleaving.ForkStep()),
        (interleaving.BasicStep(A), A),
        (services.EmptyService(), services.RandomService()),
        (pglb.HaltInstr(), Stop()),
    ]
    for left, right in pairs:
        assert left != right and right != left, (left, right)
        assert not left == right and not right == left, (left, right)
    # a dict tells them apart even where their hashes agree
    records = [record for pair in pairs for record in pair]
    assert len({record: 0 for record in records}) == len({type(r) for r in records})


def test_defaults_and_literal_reprs():
    dist = analysis.OutcomeDistribution(HALF, 0, HALF)
    assert dist.traces is None and dist.trace_table == {}
    assert dist == analysis.OutcomeDistribution(HALF, 0, HALF, None)
    assert repr(dist) == (
        "OutcomeDistribution(terminate=Fraction(1, 2), deadlock=0, "
        "surviving=Fraction(1, 2), traces=None)"
    )
    with pytest.raises(ValueError):
        analysis.OutcomeDistribution(HALF, HALF, HALF)
    spec = interleaving.SchedulerSpec(0, _spec_schedule, _spec_update)
    assert spec.digest is interleaving._keep_all
    assert spec == interleaving.SchedulerSpec(0, _spec_schedule, _spec_update, interleaving._keep_all)
    assert repr(Post(Action("main", "a"), 1, 2)) == (
        "Post(action=Action(focus='main', method='a'), then_=1, else_=2)"
    )
    assert repr(services.RegisterService(False)) == "RegisterService(value=False)"
    assert repr(services.EMPTY_SERVICE) == "EmptyService()"
    assert repr(threads.TAU) == "Action(focus='', method='tau')"
    assert str(A) == "main.a" and str(threads.TAU) == "tau"
    assert repr(pglb.parse_program("+a ; %1/3 ; #2 ; !")) == (
        "Program(instructions=(BasicInstr(test='pos', name='a'), "
        "RandomInstr(test='plain', prob=Fraction(1, 3)), "
        "JumpInstr(backward=False, offset=2), HaltInstr()))"
    )
    with pytest.raises(ValueError):
        pglb.Program(())
    with pytest.raises(threads.MalformedProbability):
        Prob(())


def test_the_canonical_mark_is_no_field():
    g = ThreadGraph((Stop(),), 0)
    assert g.canonical is False
    marked = threads.normalize(g)
    assert marked.canonical is True
    same = ThreadGraph(marked.nodes, marked.root)
    assert not same.canonical
    assert same == marked and hash(same) == hash(marked)
    assert repr(same) == repr(marked) == "ThreadGraph(nodes=(Stop(),), root=0)"
    assert len(same) == 1
    with pytest.raises(TypeError):
        ThreadGraph((Stop(),), 0, True)
    with pytest.raises(TypeError):
        ThreadGraph((Stop(),), 0, canonical=True)
    with pytest.raises(AttributeError):
        same.canonical = True


def test_actions_are_ordered_by_focus_then_method():
    actions = [Action("r", "get"), Action("main", "b"), threads.TAU, Action("main", "a")]
    assert sorted(actions) == [threads.TAU, Action("main", "a"), Action("main", "b"), Action("r", "get")]
    assert Action("main", "a") < Action("main", "b") <= Action("main", "b")
    assert Action("r", "a") > Action("main", "z") >= Action("main", "z")
    assert not Action("main", "a") < Action("main", "a")
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(A, op)(("main", "a")) is NotImplemented
    with pytest.raises(TypeError):
        A < ("main", "b")  # noqa: B015
    with pytest.raises(TypeError):
        A >= 1  # noqa: B015
    with pytest.raises(TypeError):
        sorted([A, interleaving.BasicStep(A)])


def test_records_keep_no_instance_dict():
    for cls, fields, _ in RECORDS:
        assert not hasattr(cls(*[value for _, value in fields]), "__dict__"), cls


def test_the_package_starts_without_code_generation():
    # `dataclasses` would generate each record's methods from source at
    # import time, and it pulls in `inspect`; neither belongs in start-up
    code = (
        "import sys; import threadalg.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect'} & set(sys.modules))))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert done.stdout.strip() == ""


def _counted(calls, fn):
    # the tracer's counting wrapper (perfbench/spans.py's `_counted`)
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    return wrapper


def test_the_tracers_hooks_see_the_calls(monkeypatch):
    # the tracer patches `Prob.__post_init__` and each concrete service's
    # `reply` on the class, after saving them from the class's own
    # `__dict__`; a check or reply that bypassed the class attribute would
    # leave those counters reading a dead hook
    checked = []
    assert "__post_init__" in Prob.__dict__
    monkeypatch.setattr(Prob, "__post_init__", _counted(checked, Prob.__dict__["__post_init__"]))
    node = Prob(((HALF, 0), (HALF, 1)))
    assert checked == [node]
    with pytest.raises(threads.WeightSumNotOne):
        Prob(((HALF, 0),))
    assert len(checked) == 2
    built = threads._built_prob(((HALF, 0), (HALF, 1)))
    assert built == node and len(checked) == 2
    threads.normalize(threads.build(threads.tchoice(TStop(), Fraction(1, 3), TDead())))
    assert len(checked) == 2, "built and canonical choices are not checked again"

    replies = []
    concrete = (services.RandomService, services.RegisterService, services.EmptyService)
    for cls in concrete:
        assert "reply" in cls.__dict__, cls
        monkeypatch.setattr(cls, "reply", _counted(replies, cls.__dict__["reply"]))
    g = pglb.extract(pglb.parse_program("+r1.get ; #2 ; r1.set:true ; +%1/3 ; a ; z.m ; !"),
                     with_abstraction=False)
    # `z` named twice collapses to the empty service
    family = services.parse_family("{r1: Register(false), random: Random, z: Random, z: Random}")
    interaction.use(g, family)
    assert {type(s) for s in replies} == set(concrete)
