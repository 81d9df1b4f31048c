"""Instruction sequences: parsing, thread extraction, and behaviour."""

import random
from fractions import Fraction

import pytest

import threadalg as ta
from threadalg.errors import ParseError
from threadalg.pglb import (
    BasicInstr,
    HALT,
    HaltInstr,
    JumpInstr,
    Program,
    RandomInstr,
    extract,
    extract_at,
    parse_program,
    print_program,
)
from threadalg.terms import print_term
from threadalg.threads import Post, TDead, TPost, TStop


def prog(text: str) -> Program:
    return parse_program(text)


# ---------------------------------------------------------------------------
# parsing


def test_parse_direct_token_mapping():
    p = prog("+%1/2 ; ! ; #0")
    assert p.instructions == (
        RandomInstr("pos", Fraction(1, 2)),
        HALT,
        JumpInstr(False, 0),
    )


def test_parse_basic_and_backward_jump():
    p = prog("a ; \\2")
    assert p.instructions == (BasicInstr("plain", "a"), JumpInstr(True, 2))


def test_parse_tests_and_plain_random():
    p = prog("+a ; -b ; %1/3 ; -%2/3")
    assert p.instructions == (
        BasicInstr("pos", "a"),
        BasicInstr("neg", "b"),
        RandomInstr("plain", Fraction(1, 3)),
        RandomInstr("neg", Fraction(2, 3)),
    )


def test_parse_dotted_names_and_comments():
    p = prog("r1.set:true // store\n ; random.get(1/2) ; !")
    assert p.instructions[0] == BasicInstr("plain", "r1.set:true")
    assert p.instructions[1] == BasicInstr("plain", "random.get(1/2)")


def test_action_arguments_are_kept_in_lowest_terms():
    # spelled as the term syntax spells them, so the two syntaxes agree
    p = prog("random.get(2/4) ; +r.m(-3/6) ; r.m(4/2) ; !")
    assert p.instructions[:3] == (
        BasicInstr("plain", "random.get(1/2)"),
        BasicInstr("pos", "r.m(-1/2)"),
        BasicInstr("plain", "r.m(2)"),
    )
    assert parse_program(print_program(p)) == p
    g = extract(prog("random.get(2/4) ; !"), with_random=False)
    assert g == ta.normalize(ta.parse_thread("prefix(random.get(2/4), S)"))
    assert print_term(g) == "prefix(random.get(1/2), S)"


@pytest.mark.parametrize("text, offset", [("random.get(1/0) ; !", 0), ("a ;  r.m(3/0)", 5)])
def test_zero_denominator_in_an_action_argument_is_a_parse_error(text, offset):
    with pytest.raises(ParseError) as info:
        parse_program(text)
    assert info.value.position == offset
    assert "zero denominator" in str(info.value)


@pytest.mark.parametrize("text", ["#", "a ;; b", "", "%3/2", "! ; ", "+#1", "a b"])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_program(text)


def test_a_program_has_an_instruction():
    with pytest.raises(ValueError, match="at least one instruction"):
        Program(())


def test_print_roundtrip():
    rng = random.Random(71)
    texts = ["+%1/2 ; ! ; #0", "a ; \\2", "+a ; -b ; %1/3 ; !", "#3 ; ! ; \\1 ; r.get"]
    for text in texts:
        p = prog(text)
        assert parse_program(print_program(p)) == p


# ---------------------------------------------------------------------------
# thread extraction, clause by clause


def test_halt_extracts_to_termination():
    assert ta.bisimilar(extract_at(1, prog("!")), ta.build(TStop()))


def test_out_of_range_positions_are_inaction():
    p = prog("a ; !")
    for i in (0, 3, 4, 10):
        assert ta.bisimilar(extract_at(i, p), ta.build(TDead()))
    # exhaustively for a few small programs
    for text in ("!", "a ; !", "+a ; ! ; b ; !"):
        q = prog(text)
        for i in list(range(-2, 0)) + list(range(len(q) + 1, len(q) + 4)):
            assert ta.bisimilar(extract_at(i, q), ta.build(TDead()))


def test_plain_basic_continues_regardless_of_reply():
    g = extract_at(1, prog("a ; !"))
    expected = ta.build(ta.tprefix(ta.basic("main", "a"), TStop()))
    assert ta.bisimilar(g, expected)


def test_positive_test_branches():
    g = extract_at(1, prog("+a ; ! ; b ; !"))
    expected = ta.build(
        TPost(
            ta.basic("main", "a"),
            TStop(),
            ta.tprefix(ta.basic("main", "b"), TStop()),
        )
    )
    assert ta.bisimilar(g, expected)


def test_negative_test_swaps_branches():
    g = extract_at(1, prog("-a ; ! ; b ; !"))
    expected = ta.build(
        TPost(
            ta.basic("main", "a"),
            ta.tprefix(ta.basic("main", "b"), TStop()),
            TStop(),
        )
    )
    assert ta.bisimilar(g, expected)


def test_random_instructions_request_the_random_service():
    g = extract_at(1, prog("+%1/2 ; ! ; #0"))
    root = g.nodes[g.root]
    assert isinstance(root, Post)
    assert root.action == ta.basic("random", "get(1/2)")


def test_forward_jump_zero_is_inaction():
    assert ta.bisimilar(extract_at(1, prog("#0")), ta.build(TDead()))


def test_jump_chain_of_three_is_inaction():
    # 1 -> 3 -> 1: an infinite jump chain
    assert ta.bisimilar(extract_at(1, prog("#2 ; ! ; \\2")), ta.build(TDead()))


def test_backward_jump_is_clamped():
    # jumping five back from position 1 lands before the sequence
    assert ta.bisimilar(extract_at(1, prog("\\5 ; !")), ta.build(TDead()))


def test_backward_jump_builds_loops():
    g = extract_at(1, prog("a ; \\1"))
    expected = ta.build(
        ta.TRec((("X", ta.tprefix(ta.basic("main", "a"), ta.TVar("X"))),), "X")
    )
    assert ta.bisimilar(g, expected)


def test_jump_forward_skips():
    g = extract_at(1, prog("#2 ; ! ; b ; !"))
    assert ta.bisimilar(g, ta.build(ta.tprefix(ta.basic("main", "b"), TStop())))


# ---------------------------------------------------------------------------
# full behaviour extraction


def test_coin_program_behaviour():
    g = extract(prog("+%1/2 ; ! ; #0"))
    expected = ta.build(
        ta.TProb(((Fraction(1, 2), TStop()), (Fraction(1, 2), TDead())))
    )
    assert ta.normalize(g) == ta.normalize(expected)


def test_halt_behaviour():
    assert ta.normalize(extract(prog("!"))) == ta.normalize(ta.build(TStop()))


def test_plain_random_collapses_when_branches_agree():
    g = extract(prog("%1/3 ; a ; !"))
    expected = ta.build(ta.tprefix(ta.basic("main", "a"), TStop()))
    assert ta.normalize(g) == ta.normalize(expected)


def test_extraction_leaves_no_internal_residue():
    rng = random.Random(72)
    for _ in range(120):
        p = random_program(rng, allow_random=True)
        g = extract(p)
        for node in g.nodes:
            if isinstance(node, Post):
                assert not node.action.is_tau
                assert node.action.focus != "random"


def test_entry_flag_matches_extract_at():
    p = prog("+a ; ! ; b ; !")
    for i in (1, 2, 3, 4, 9):
        lhs = extract(p, entry=i, with_random=False, with_abstraction=False)
        assert ta.bisimilar(lhs, extract_at(i, p))


def test_plain_random_equivalent_to_positive_when_successors_agree():
    # when both successor positions behave alike, the produced threads
    # are behaviourally equal
    plain = extract(prog("%2/5 ; a ; a ; !"))
    positive = extract(prog("+%2/5 ; a ; a ; !"))
    assert not ta.bisimilar(plain, positive)  # 3-step vs 2-step path differ
    plain = extract(prog("%2/5 ; ! ; !"))
    positive = extract(prog("+%2/5 ; ! ; !"))
    assert ta.bisimilar(plain, positive)


# ---------------------------------------------------------------------------
# reference oracle for the non-probabilistic fragment


def random_program(rng, allow_random=False, length=None):
    k = length or rng.randint(1, 7)
    instrs = []
    for _ in range(k):
        c = rng.randrange(8 if allow_random else 7)
        if c <= 1:
            instrs.append(BasicInstr(rng.choice(["plain", "pos", "neg"]), rng.choice("abc")))
        elif c == 2:
            instrs.append(HALT)
        elif c == 3:
            instrs.append(JumpInstr(False, rng.randint(0, k + 1)))
        elif c == 4:
            instrs.append(JumpInstr(True, rng.randint(0, k + 1)))
        elif c <= 6:
            instrs.append(BasicInstr("plain", rng.choice("abc")))
        else:
            den = rng.randint(1, 8)
            instrs.append(
                RandomInstr(rng.choice(["plain", "pos", "neg"]), Fraction(rng.randint(0, den), den))
            )
    return Program(tuple(instrs))


def reference_behaviour(i, instructions, depth):
    """Independent depth-bounded unfolding of the extraction clauses."""
    if depth == 0:
        return TDead()
    k = len(instructions)
    fuel = k + 1
    while True:
        if not 1 <= i <= k:
            return TDead()
        u = instructions[i - 1]
        if not isinstance(u, JumpInstr):
            break
        if fuel == 0:
            return TDead()  # more jumps in a row than positions: a cycle
        fuel -= 1
        i = i + u.offset if not u.backward else max(i - u.offset, 0)
    if isinstance(u, HaltInstr):
        return TStop()
    act = ta.action_from_name(u.name)
    after = reference_behaviour(i + 1, instructions, depth - 1)
    skipped = reference_behaviour(i + 2, instructions, depth - 1)
    if u.test == "plain":
        return TPost(act, after, after)
    if u.test == "pos":
        return TPost(act, after, skipped)
    return TPost(act, skipped, after)


def test_extract_matches_reference_on_plain_programs():
    rng = random.Random(73)
    for _ in range(150):
        p = random_program(rng, allow_random=False)
        g = extract(p)
        for depth in range(5):
            ref = ta.build(reference_behaviour(1, p.instructions, depth))
            assert ta.equal_up_to(depth, g, ref), (p, depth)
