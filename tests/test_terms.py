"""Parsing and printing of the textual term syntax."""

import random
import time
from fractions import Fraction

import pytest

import genlib
import threadalg as ta
from threadalg import terms
from threadalg.errors import ParseError, UnguardedRecursion
from threadalg.threads import Post, TPost, TProb, TStop


def roundtrip(text: str) -> str:
    return terms.print_term(ta.normalize(terms.parse_thread(text)))


def test_parse_constants():
    assert terms.parse_term("S") == TStop()
    assert terms.parse_thread("D").nodes[0] == ta.threads.DEAD


def test_parse_post_and_prefix():
    t = terms.parse_term("post(main.a, S, D)")
    assert t == TPost(ta.basic("main", "a"), TStop(), ta.threads.TDead())
    p = terms.parse_term("prefix(a, S)")
    assert p == TPost(ta.basic("main", "a"), TStop(), TStop())


def test_bare_action_gets_main_focus():
    t = terms.parse_term("prefix(a, S)")
    assert t.action == ta.basic("main", "a")


def test_parse_dotted_and_parameterized_actions():
    t = terms.parse_term("prefix(random.get(1/2), S)")
    assert t.action == ta.basic("random", "get(1/2)")
    t = terms.parse_term("prefix(r1.set:true, S)")
    assert t.action == ta.basic("r1", "set:true")


def test_parse_tau():
    t = terms.parse_term("prefix(tau, S)")
    assert t.action == ta.TAU


def test_parse_prob():
    t = terms.parse_term("prob(1/2: S, 1/2: D)")
    assert isinstance(t, TProb)
    assert t.branches[0][0] == Fraction(1, 2)


def test_parse_rec():
    g = terms.parse_thread("rec X { X = prefix(a, X); } in X")
    assert len(g.nodes) == 1
    assert isinstance(g.nodes[0], Post)


def test_parse_mutual_recursion():
    g = terms.parse_thread(
        "rec X { X = prefix(a, Y); Y = prefix(b, X); } in X"
    )
    actions = {n.action.method for n in g.nodes if isinstance(n, Post)}
    assert actions == {"a", "b"}


def test_parse_forward_reference():
    g = terms.parse_thread("rec X { X = prefix(a, Y); Y = S; } in X")
    assert ta.bisimilar(g, terms.parse_thread("prefix(a, S)"))


@pytest.mark.parametrize(
    "text, same",
    [
        ("rec X { X = prob(1: Y); Y = prefix(a, X); } in X", "rec X { X = prefix(a, X); } in X"),
        ("rec X { X = prob(1: Y, 0: S); Y = prefix(a, S); } in X", "prefix(a, S)"),
    ],
)
def test_choice_collapsing_onto_a_later_equation(text, same):
    assert ta.bisimilar(terms.parse_thread(text), terms.parse_thread(same))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "post(a, S)",
        "prob(1/2: S)",  # weights must sum to one
        "prob(1/2: S, 1/3: D)",
        "rec X { X = prefix(a, X); } in Y",
        "rec X { } in X",
        "prefix(a, S) garbage",
        "post(in, S, D)",
        "prob(1/0: S)",
        "X",
        "rec X { X = S; X = D; } in X",
        # checked although its branch has weight zero
        "prob(1: S, 0: prob(1/2: S))",
    ],
)
def test_parse_errors(text):
    with pytest.raises((ParseError, ta.errors.WeightSumNotOne)):
        terms.parse_thread(text)


def test_unguarded_is_rejected_at_build():
    with pytest.raises(UnguardedRecursion):
        terms.parse_thread("rec X { X = prob(1/2: X, 1/2: S); } in X")


def test_print_examples():
    assert roundtrip("S") == "S"
    assert roundtrip("prob(1: S)") == "S"
    assert roundtrip("post(tau, S, S)") == "prefix(tau, S)"


def test_print_recursive():
    text = "rec X { X = prefix(a, X); } in X"
    printed = roundtrip(text)
    assert printed.startswith("rec")
    assert ta.bisimilar(terms.parse_thread(printed), terms.parse_thread(text))


def test_roundtrip_is_stable_on_random_graphs():
    rng = random.Random(31)
    for _ in range(150):
        g = genlib.thread(rng, rng.randint(0, 4), allow_fork=True)
        printed = terms.print_term(ta.normalize(g))
        reparsed = terms.parse_thread(printed)
        assert ta.bisimilar(reparsed, g)
        assert terms.print_term(ta.normalize(reparsed)) == printed


def test_roundtrip_recursive_graphs():
    rng = random.Random(32)
    for _ in range(40):
        body = genlib.term(rng, 2)
        g = ta.build(
            ta.TRec((("X", TPost(ta.basic("main", "a"), body, ta.TVar("X"))),), "X")
        )
        printed = terms.print_term(ta.normalize(g))
        assert ta.bisimilar(terms.parse_thread(printed), g)


def test_parse_error_carries_position():
    try:
        terms.parse_term("post(a S, D)")
    except ParseError as exc:
        assert exc.position is not None
    else:
        pytest.fail("expected a parse error")


def test_nested_prefix_parses_in_linear_time():
    # `prefix` shares one subterm between both branches; building must
    # walk it once, not once per branch
    text = "D"
    for i in range(60):
        text = f"prefix(a{i}, prob(1/2: {text}, 1/2: D))"
    start = time.perf_counter()
    g = terms.parse_thread(text)
    assert time.perf_counter() - start < 1.0
    assert len(g.nodes) == 2 * 60 + 1


def test_printing_a_deep_projection_needs_no_recursion():
    loop = terms.parse_thread("rec X { X = prefix(main.a, X); } in X")
    printed = terms.print_term(ta.project(5000, loop))
    assert printed == "prefix(main.a, " * 5000 + "D" + ")" * 5000


def _token_reads(monkeypatch, text):
    """How often the parser reads a token's text while parsing `text`."""
    slot = terms._Token.__dict__["text"]
    reads = [0]

    class CountingToken(terms._Token):
        __slots__ = ()

        @property
        def text(self):
            reads[0] += 1
            return slot.__get__(self)

        @text.setter
        def text(self, value):
            slot.__set__(self, value)

    monkeypatch.setattr(terms, "_Token", CountingToken)
    terms.parse_term(text)
    return reads[0]


def _outer_reference_nest(d):
    # d nested systems; the innermost equation names the outermost
    # variable d times, so each of its occurrences waits for every close
    inner = "X0"
    for _ in range(d):
        inner = f"post(a, X0, {inner})"
    return (
        "".join(f"rec X{i} {{ X{i} = " for i in range(d))
        + inner
        + "".join(f"; }} in X{i}" for i in reversed(range(d)))
    )


def test_closing_a_system_reads_only_its_own_pending_names(monkeypatch):
    # an occurrence that only an outer system binds is carried up once
    # per name, not inspected again at every close it passes: doubling
    # the nest and the occurrences doubles the token reads
    small = _token_reads(monkeypatch, _outer_reference_nest(200))
    large = _token_reads(monkeypatch, _outer_reference_nest(400))
    assert large < 2.5 * small, (small, large)
