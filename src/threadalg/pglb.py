"""An assembly-like instruction notation with random choice instructions.

Instruction sequences are written as `;`-separated primitive
instructions::

    a       plain basic instruction (reply ignored)
    +a      positive test: True continues, False skips one instruction
    -a      negative test: the reverse
    %p      plain random choice with probability p (reply ignored)
    +%p     positive random choice
    -%p     negative random choice
    #l      jump l instructions forward (0 means inactive)
    \\l      jump l instructions backward (clamped at the start)
    !       terminate

`//` starts a line comment.  Basic instruction names may be dotted
(`f.m`) to address a named service; bare names get the focus `main`.
A method's `(rational)` argument is kept in lowest terms, as the term
syntax spells it.

`extract_at` maps a position in a sequence to the thread it produces:
out-of-range positions and infinite jump chains give inaction, tests
branch on replies, and random choices become requests to the `random`
service.  `extract` is the behaviour of the whole sequence: the thread
from position 1, run against the random Boolean generator, with
internal steps concealed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Tuple, Union

from . import interaction, meadow, services, threads
from .errors import ParseError
from .threads import Action, DEAD, GraphBuilder, Post, Record, STOP, ThreadGraph, _set

RANDOM_FOCUS = "random"


class BasicInstr(Record):
    __slots__ = ("test", "name")

    def __init__(self, test: str, name: str):
        _set(self, "test", test)  # 'plain' | 'pos' | 'neg'
        _set(self, "name", name)


class RandomInstr(Record):
    __slots__ = ("test", "prob")

    def __init__(self, test: str, prob: Fraction):
        _set(self, "test", test)  # 'plain' | 'pos' | 'neg'
        _set(self, "prob", prob)


class JumpInstr(Record):
    __slots__ = ("backward", "offset")

    def __init__(self, backward: bool, offset: int):
        _set(self, "backward", backward)
        _set(self, "offset", offset)


class HaltInstr(Record):
    __slots__ = ()


Instruction = Union[BasicInstr, RandomInstr, JumpInstr, HaltInstr]

HALT = HaltInstr()


class Program(Record):
    """A nonempty instruction sequence."""

    __slots__ = ("instructions",)

    def __init__(self, instructions: Tuple[Instruction, ...]):
        if not instructions:
            raise ValueError("an instruction sequence has at least one instruction")
        _set(self, "instructions", instructions)

    def __len__(self) -> int:
        return len(self.instructions)


_INSTR_RE = re.compile(
    rf"""  !
        | \#(?P<fwd>\d+)
        | \\(?P<bwd>\d+)
        | (?P<rtest>[+-])?%(?P<rprob>{meadow.RATIONAL})
        | (?P<btest>[+-])?(?P<bname>{threads.ACTION_NAME})
    """,
    re.VERBOSE,
)
_TESTS = {"+": "pos", "-": "neg", None: "plain"}
_SIGNS = {"pos": "+", "neg": "-", "plain": ""}


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("//", 1)[0] for line in text.splitlines())


def parse_program(text: str) -> Program:
    """Parse `;`-separated instructions; whitespace is insignificant."""
    stripped = _strip_comments(text)
    if not stripped.strip():
        raise ParseError("empty instruction sequence", 0)
    instructions: List[Instruction] = []
    offset = 0
    for chunk in stripped.split(";"):
        piece = chunk.strip()
        pos = offset + (len(chunk) - len(chunk.lstrip()))
        offset += len(chunk) + 1
        if not piece:
            raise ParseError("empty instruction", pos)
        m = _INSTR_RE.fullmatch(piece)
        if not m:
            raise ParseError(f"malformed instruction {piece!r}", pos)
        if piece == "!":
            instructions.append(HALT)
        elif m.group("fwd") is not None:
            instructions.append(JumpInstr(False, meadow.parse_int(m.group("fwd"), pos)))
        elif m.group("bwd") is not None:
            instructions.append(JumpInstr(True, meadow.parse_int(m.group("bwd"), pos)))
        elif m.group("rprob") is not None:
            p = meadow.parse_rational(m.group("rprob"), pos)
            if not meadow.is_probability(p):
                raise ParseError(f"choice probability {piece!r} outside [0, 1]", pos)
            instructions.append(RandomInstr(_TESTS[m.group("rtest")], p))
        else:
            name = threads.canonical_name(m.group("bname"), pos)
            instructions.append(BasicInstr(_TESTS[m.group("btest")], name))
    return Program(tuple(instructions))


def print_program(p: Program) -> str:
    parts = []
    for u in p.instructions:
        if isinstance(u, HaltInstr):
            parts.append("!")
        elif isinstance(u, JumpInstr):
            parts.append(("\\" if u.backward else "#") + str(u.offset))
        elif isinstance(u, RandomInstr):
            parts.append(f"{_SIGNS[u.test]}%{meadow.format_rational(u.prob)}")
        else:
            parts.append(_SIGNS[u.test] + u.name)
    return " ; ".join(parts)


def random_action(p: Fraction) -> Action:
    """The request a random choice instruction makes: random.get(p)."""
    return threads.basic(RANDOM_FOCUS, f"get({meadow.format_rational(p)})")


def extract_at(position: int, program: Program) -> ThreadGraph:
    """The thread produced by execution starting at the given position."""
    instrs = program.instructions
    k = len(instrs)
    b = GraphBuilder()

    def target(j: int) -> int:
        # follow jumps to an instruction's slot; running off the sequence
        # or around an infinite jump chain gives inaction
        seen = set()
        while 1 <= j <= k and j not in seen:
            u = instrs[j - 1]
            if not isinstance(u, JumpInstr):
                return b.slot(j)
            seen.add(j)
            j = max(j - u.offset, 0) if u.backward else j + u.offset
        return b.add(DEAD)

    def content(j: int) -> threads.Node:
        u = instrs[j - 1]
        if isinstance(u, HaltInstr):
            return STOP
        if isinstance(u, BasicInstr):
            act = threads.action_from_name(u.name)
        else:
            act = random_action(u.prob)
        nxt = target(j + 1)
        if u.test == "plain":
            return Post(act, nxt, nxt)
        skip = target(j + 2)
        if u.test == "pos":
            return Post(act, nxt, skip)
        return Post(act, skip, nxt)

    root = target(position)
    b.expand(content)
    return b.graph(root)


def extract(
    program: Program,
    *,
    entry: int = 1,
    with_random: bool = True,
    with_abstraction: bool = True,
) -> ThreadGraph:
    """The behaviour of an instruction sequence under execution.

    Random choice instructions are resolved exactly by the random
    Boolean generator and internal steps are concealed; the flags turn
    the two stages off for inspection.
    """
    g = extract_at(entry, program)
    if with_random:
        g = interaction.use(
            g, services.singleton(RANDOM_FOCUS, services.RANDOM)
        )
    if with_abstraction:
        g = interaction.abstract_tau(g)
    return g
