"""Output checks, run outside the timed region.

`check_output` returns None when a query's stdout is acceptable and a
one-line reason otherwise.  Distribution reports are checked by exact
arithmetic on what was printed.  Loop-free instruction sequences are
checked against `pglb_outcomes`, an interpreter written here from the
notation's definition that shares no code with the program: the exact
outcome masses and trace table it computes must equal those the
program's own analysis gives for the thread `extract` printed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

ORACLE_DEPTH = 8

_RAT = re.compile(r"-?\d+(?:/\d+)?")
OUTCOMES = ("terminate", "deadlock", "surviving")


def _rational(text: str) -> Fraction:
    if not _RAT.fullmatch(text):
        raise ValueError(f"not an exact rational: {text!r}")
    return Fraction(text)


def _outcome_lines(lines: List[str]) -> Tuple[Fraction, ...]:
    if len(lines) < 3:
        raise ValueError("fewer than three outcome lines")
    masses = []
    for line, tag in zip(lines, OUTCOMES):
        key, sep, value = line.partition(": ")
        if key != tag or not sep:
            raise ValueError(f"expected `{tag}: ...`, got {line[:60]!r}")
        m = _rational(value)
        if not 0 <= m <= 1:
            raise ValueError(f"{tag} mass {m} outside [0, 1]")
        masses.append(m)
    if sum(masses) != 1:
        raise ValueError(f"outcome masses sum to {sum(masses)}, not 1")
    return tuple(masses)


def _check_traces(lines: List[str]) -> None:
    total = Fraction(0)
    for line in lines:
        key, sep, value = line.rpartition(": ")
        if not sep or not (key == "trace" or key.startswith("trace ")):
            raise ValueError(f"malformed trace line {line[:60]!r}")
        m = _rational(value)
        if not 0 < m <= 1:
            raise ValueError(f"trace mass {m} outside (0, 1]")
        total += m
    if total != 1:
        raise ValueError(f"trace masses sum to {total}, not 1")


def _check_sample(lines: List[str], runs: int) -> None:
    if len(lines) != 3:
        raise ValueError(f"expected three frequency lines, got {len(lines)}")
    for m in _outcome_lines(lines):
        if (m * runs).denominator != 1:
            raise ValueError(f"frequency {m} is not a count over {runs} runs")


# ---------------------------------------------------------------------------
# Independent interpreter for loop-free instruction sequences


def _instructions(text: str) -> List[str]:
    body = "\n".join(line.split("//", 1)[0] for line in text.splitlines())
    return [piece.strip() for piece in body.split(";")]


def _replies(env_text: str) -> Dict[str, Fraction]:
    out = {}
    for line in env_text.splitlines():
        name, _, value = line.partition("=")
        if name.strip():
            out[name.strip()] = _rational(value.strip())
    return out


def pglb_outcomes(text: str, env_text: str, depth: int):
    """Exact outcome masses and trace table of an instruction sequence.

    Returns (terminate, deadlock, surviving, traces), where traces maps
    each sequence of performed actions to its mass.  Random choices
    resolve internally with their stated probability and cost no depth;
    a basic instruction is one action, answered True with the
    probability the reply table gives `main.<name>`.  A jump outside the
    sequence or into a jump cycle is inaction.  Runs only programs
    without backward jumps, so the recursion depth is bounded by the
    program length.
    """
    instrs = _instructions(text)
    replies = _replies(env_text)
    if any(u.startswith("\\") for u in instrs):
        raise ValueError("the oracle runs loop-free programs only")
    n = len(instrs)
    memo: Dict[Tuple[int, int], tuple] = {}
    zero, one = Fraction(0), Fraction(1)
    inactive = (zero, one, zero, {(): one})

    def run(pos: int, k: int):
        seen = set()
        while 1 <= pos <= n and instrs[pos - 1].startswith("#"):
            step = int(instrs[pos - 1][1:])
            if pos in seen or step == 0:
                return inactive
            seen.add(pos)
            pos += step
        if not 1 <= pos <= n:
            return inactive
        key = (pos, k)
        if key in memo:
            return memo[key]
        u = instrs[pos - 1]
        test = {"+": "pos", "-": "neg"}.get(u[0], "plain")
        body = u[1:] if test != "plain" else u
        if u == "!":
            out = (one, zero, zero, {(): one})
        elif not body.startswith("%") and k == 0:
            out = (zero, zero, one, {(): one})
        else:
            if body.startswith("%"):
                p, cost, step = _rational(body[1:]), 0, ()
            else:
                name = body if "." in body else f"main.{body}"
                p, cost, step = replies[name], 1, (name,)
            yes, no = pos + 1, pos + 1
            if test == "pos":
                no = pos + 2
            elif test == "neg":
                yes = pos + 2
            masses = [zero, zero, zero]
            traces: Dict[tuple, Fraction] = {}
            for w, target in ((p, yes), (1 - p, no)):
                if w == 0:
                    continue
                *sub, sub_traces = run(target, k - cost)
                for i in range(3):
                    masses[i] += w * sub[i]
                for trace, m in sub_traces.items():
                    traces[step + trace] = traces.get(step + trace, zero) + w * m
            out = (*masses, traces)
        memo[key] = out
        return out

    return run(1, depth)


# ---------------------------------------------------------------------------
# Printed terms
#
# The program's own `parse_thread` takes time exponential in the nesting
# of `prefix(...)` (it walks both branches of the equal-branch test it
# builds), so printed terms are read by this linear, iterative parser.

_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*(?::[A-Za-z0-9_]+)*)"
    r"|(?P<rat>-?\d+(?:/\d+)?)|(?P<punct>[(){},;:=.]))"
)


def _tokens(text: str) -> List[str]:
    out, i = [], 0
    text = text.rstrip()
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m or m.end() == i:
            raise ValueError(f"unexpected character at {i}")
        out.append(m.group(m.lastgroup))
        i = m.end()
    return out


def read_term(text: str):
    """Nodes and root of a printed term, checking its well-formedness.

    A node is ("S",), ("D",), ("post", action, then, else),
    ("fork", forked, then, else) or ("prob", ((weight, target), ...)).
    Each choice must have weights in (0, 1] that sum to exactly 1.
    """
    toks = _tokens(text)
    pos = 0
    nodes: List[tuple] = []
    var_slot: Dict[str, int] = {}

    def take(expected=None) -> str:
        nonlocal pos
        if pos >= len(toks):
            raise ValueError("unexpected end of term")
        tok = toks[pos]
        pos += 1
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        return tok

    def action() -> str:
        name = take()
        if toks[pos] == ".":
            take(".")
            name += "." + take()
            if toks[pos] == "(":
                take("(")
                name += "(" + str(_rational(take())) + ")"
                take(")")
        return name

    def new(node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def slot(name: str) -> int:
        if name not in var_slot:
            var_slot[name] = new(("var", name))
        return var_slot[name]

    def term() -> int:
        # iterative: frames hold a constructor waiting for its arguments
        stack: List[list] = []
        while True:
            tok = take()
            if tok in ("post", "prefix", "fork"):
                take("(")
                stack.append([tok, action() if tok != "fork" else None, [], []])
                if tok != "fork":
                    take(",")
                continue
            if tok == "prob":
                take("(")
                stack.append(["prob", None, [], [_rational(take())]])
                take(":")
                continue
            if tok == "S" or tok == "D":
                value = new((tok,))
            elif tok[0].isalpha() or tok[0] == "_":
                value = slot(tok)
            else:
                raise ValueError(f"expected a term, found {tok!r}")
            while True:
                if not stack:
                    return value
                frame = stack[-1]
                frame[2].append(value)
                sep = take()
                if sep == ",":
                    if frame[0] == "prob":
                        frame[3].append(_rational(take()))
                        take(":")
                    break
                if sep != ")":
                    raise ValueError(f"expected ',' or ')', found {sep!r}")
                kind, act, kids, weights = stack.pop()
                arity = {"post": 2, "prefix": 1, "fork": 3}.get(kind, len(weights))
                if len(kids) != arity:
                    raise ValueError(f"{kind} with {len(kids)} arguments")
                if kind == "prefix":
                    value = new(("post", act, kids[0], kids[0]))
                elif kind == "post":
                    value = new(("post", act, kids[0], kids[1]))
                elif kind == "fork":
                    value = new(("fork", *kids))
                else:
                    if any(not 0 < w <= 1 for w in weights) or sum(weights) != 1:
                        raise ValueError(f"choice weights {weights} not a distribution")
                    value = new(("prob", tuple(zip(weights, kids))))

    if toks and toks[0] == "rec":
        take("rec")
        main = take()
        take("{")
        bodies: Dict[str, int] = {}
        while toks[pos] != "}":
            name = take()
            take("=")
            bodies[name] = term()
            take(";")
        take("}")
        take("in")
        if take() != main:
            raise ValueError("selected variable differs from the head")
        root = slot(main)
    else:
        bodies = {}
        root = term()
    if pos != len(toks):
        raise ValueError(f"trailing input {toks[pos]!r}")

    def resolve(ref: int) -> int:
        seen = set()
        while nodes[ref][0] == "var":
            name = nodes[ref][1]
            if name not in bodies or ref in seen:
                raise ValueError(f"variable {name!r} has no guarded equation")
            seen.add(ref)
            ref = bodies[name]
        return ref

    def remap(node):
        if node[0] == "post":
            return ("post", node[1], resolve(node[2]), resolve(node[3]))
        if node[0] == "fork":
            return ("fork",) + tuple(resolve(r) for r in node[1:])
        if node[0] == "prob":
            return ("prob", tuple((w, resolve(t)) for w, t in node[1]))
        return node

    return [remap(n) for n in nodes], resolve(root)


def to_graph(nodes, root, threads):
    """The program's ThreadGraph for nodes read by `read_term`."""
    table = []
    for node in nodes:
        if node[0] == "S":
            table.append(threads.STOP)
        elif node[0] in ("D", "var"):
            table.append(threads.DEAD)  # variable placeholders are unreachable
        elif node[0] == "post":
            table.append(threads.Post(threads.action_from_name(node[1]), node[2], node[3]))
        elif node[0] == "fork":
            table.append(threads.Fork(*node[1:]))
        else:
            table.append(threads.Prob(node[1]))
    return threads.ThreadGraph(tuple(table), root)


# ---------------------------------------------------------------------------


def check_output(query, stdout: str, pkg) -> Optional[str]:
    """None if `stdout` is a correct answer to `query`, else the reason.

    `pkg` is the package under test.  For loop-free instruction
    sequences its `outcome_distribution` of the printed thread must
    equal the independent interpreter's masses.
    """
    lines = stdout.splitlines()
    try:
        if query.check == "term":
            if len(lines) != 1:
                raise ValueError(f"expected one term line, got {len(lines)}")
            nodes, root = read_term(lines[0])
            if query.oracle_program is not None:
                analysis = pkg.analysis
                g = to_graph(nodes, root, pkg.threads)
                env = analysis.Environment.from_table(query.oracle_env)
                got = analysis.outcome_distribution(g, env, ORACLE_DEPTH, with_traces=True)
                t, d, sv, traces = pglb_outcomes(
                    query.oracle_program, query.oracle_env, ORACLE_DEPTH
                )
                if (got.terminate, got.deadlock, got.surviving) != (t, d, sv):
                    raise ValueError(
                        f"extract disagrees with the oracle at depth {ORACLE_DEPTH}: "
                        f"{(got.terminate, got.deadlock, got.surviving)} != {(t, d, sv)}"
                    )
                if got.trace_table != {tuple(k): v for k, v in traces.items()}:
                    raise ValueError(
                        f"extract's trace table disagrees with the oracle at depth {ORACLE_DEPTH}"
                    )
        elif query.check == "dist":
            if len(lines) != 3:
                raise ValueError(f"expected three outcome lines, got {len(lines)}")
            _outcome_lines(lines)
        elif query.check == "traces":
            _outcome_lines(lines[:3])
            _check_traces(lines[3:])
        elif query.check == "sample":
            _check_sample(lines, int(query.argv[query.argv.index("--runs") + 1]))
        else:
            raise ValueError(f"unknown check {query.check!r}")
    except (ValueError, ArithmeticError) as exc:
        return str(exc)
    except Exception as exc:  # the program's analysis failing on its own output
        return f"{type(exc).__name__}: {exc}"
    return None
