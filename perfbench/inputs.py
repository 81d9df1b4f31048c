"""Seeded input generators for the benchmark workloads.

The generators that draw take a `random.Random` from the workload seed, so
the same seed writes byte-identical input files.  The program under test
only ever sees these files and the argv built from them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from random import Random
from typing import List

# Exact choice probabilities used by the generators.  Small denominators
# keep single inputs readable; the exact solvers still grow them.
PROBS = ["1/2", "1/3", "2/3", "1/4", "3/4", "1/5", "2/5", "3/5", "4/5"]

N_ACTIONS = 8


def action_name(i: int) -> str:
    return f"a{i}"


# ---------------------------------------------------------------------------
# Instruction sequences (.pglb)


def block_program(rng: Random, size: int, loops: bool) -> str:
    """About `size` instructions made of shuffled blocks, ending in `!`.

    Blocks: random-choice skips `+%p ; #2 ; a_i`, random retry loops
    `-%p ; \\k` (only when `loops`), tested actions `+a_i ; #2 ; %p`
    and plain actions `a_i`.  The block mix is fixed and only its order,
    probabilities, names and jump targets are drawn, so programs of one
    size cost about the same.
    """
    unit = ["skip", "skip", "tested", "tested", "plain", "plain", "plain"]
    if loops:
        unit.append("retry")
    width = {"skip": 3, "tested": 3, "plain": 1, "retry": 2}
    kinds: List[str] = []
    while sum(width[k] for k in kinds) < size - 1:
        kinds += unit
    rng.shuffle(kinds)
    out: List[str] = []
    for kind in kinds:
        if len(out) >= size - 1:
            break
        p = rng.choice(PROBS)
        a = action_name(rng.randrange(N_ACTIONS))
        if kind == "skip":
            out += [f"+%{p}", "#2", a]
        elif kind == "retry":
            # jump back onto the choice itself or into earlier blocks
            back = rng.randint(1, min(6, len(out) + 1))
            out += [f"-%{p}", f"\\{back}"]
        elif kind == "tested":
            out += [f"+{a}", "#2", f"%{p}"]
        else:
            out.append(a)
    out.append("!")
    return " ; ".join(out) + "\n"


def chain_program(size: int) -> str:
    """ROADMAP's worst case for `normalize`: `+%1/3 ; #2 ; a` repeated."""
    return " ; ".join(["+%1/3 ; #2 ; a"] * (size // 3) + ["!"]) + "\n"


def register_program(rng: Random, size: int, registers: int, probs: List[str]) -> str:
    """A cyclic program over Boolean registers `r0..`, for `--no-random`
    runs against stateful services.  Shuffled blocks, in a fixed mix:
    register tests `+r.get ; #2 ; a_i`, register sets, random choices
    left as requests to the `random` service, and plain actions."""
    unit = ["test", "set", "random", "action"]
    kinds: List[str] = []
    while 8 * len(kinds) // 4 < size - 1:
        kinds += unit
    rng.shuffle(kinds)
    out: List[str] = []
    for kind in kinds:
        r = f"r{rng.randrange(registers)}"
        if kind == "test":
            out += [f"+{r}.get", "#2", action_name(rng.randrange(N_ACTIONS))]
        elif kind == "set":
            out.append(f"{r}.set:{rng.choice(['true', 'false'])}")
        elif kind == "random":
            out += [f"+random.get({rng.choice(probs)})", "#2", f"{r}.set:true"]
        else:
            out.append(action_name(rng.randrange(N_ACTIONS)))
    # a backward jump to the start makes the program cyclic
    out.append(f"\\{len(out)}")
    return " ; ".join(out) + "\n"


# ---------------------------------------------------------------------------
# Thread terms


def cyclic_thread(
    rng: Random, tag: str, states: int, exits: bool = False, probs: List[str] = PROBS
) -> str:
    """A guarded `rec` thread over `states` states with its own actions.

    Each state chooses probabilistically between a step to the next
    state and an action test whose branches jump to random states.
    With `exits`, the last state's test terminates on False and, with
    two or more states, the first state's test becomes inactive on
    False, so outcome masses spread over all three outcomes.
    """
    eqs = []
    for s in range(states):
        p = rng.choice(probs)
        q = str(1 - Fraction(p))
        nxt = (s + 1) % states
        t1, t2 = f"X{rng.randrange(states)}", f"X{rng.randrange(states)}"
        if exits and s == states - 1:
            t2 = "S"
        elif exits and s == 0:
            t2 = "D"
        eqs.append(
            f"X{s} = prob({p}: prefix({tag}.a{s}, X{nxt}), "
            f"{q}: post({tag}.b{s}, {t1}, {t2}));"
        )
    return "rec X0 { " + " ".join(eqs) + " } in X0\n"


def retry_term(probs: List[str]) -> str:
    """A cyclic term that restarts, retries or gets stuck at every state,
    with state s continuing by `probs[s]`: the input of the trace tables
    and of sampling."""
    eqs = []
    for s, p in enumerate(probs):
        q = str(1 - Fraction(p))
        nxt = f"X{s + 1}" if s + 1 < len(probs) else "S"
        eqs.append(
            f"X{s} = prob({p}: post(c{s}, {nxt}, X0), {q}: post(d{s}, X{s}, D));"
        )
    return "rec X0 { " + " ".join(eqs) + " } in X0\n"


def environment(rng: Random, names: List[str], probs: List[str] = PROBS) -> str:
    """A reply table `f.m = p` for every listed action."""
    return "".join(f"{n} = {rng.choice(probs)}\n" for n in names)


def scheduler_table(rng: Random, max_threads: int, digest: str) -> str:
    """A two-state scheduler table with seeded turn weights."""
    states = {}
    for name, other in (("s0", "s1"), ("s1", "s0")):
        turn = {}
        for n in range(1, max_threads + 1):
            tickets = [rng.randint(1, 4) for _ in range(n)]
            total = sum(tickets)
            turn[str(n)] = [str(Fraction(t, total)) for t in tickets]
        states[name] = {"turn": turn, "next": {"basic": other}}
    return json.dumps({"initial": "s0", "digest": digest, "states": states}, indent=1) + "\n"
