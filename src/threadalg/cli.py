"""Command-line front end.

Input files are thread terms, except that a `.pglb` suffix marks an
instruction sequence, which is run through extraction first; `normalize`
reads a term and `extract` a program whatever the suffix.  All output
is deterministic: identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import analysis, interaction, interleaving, pglb, services, terms, threads
from .errors import Error


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise Error(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise Error(f"{path}: not UTF-8 text: {exc}") from exc


def _load_thread(path: str, args) -> threads.ThreadGraph:
    """A term file, or a program file when `args.program` says so; when
    it is None, a `.pglb` suffix marks a program."""
    program = path.endswith(".pglb") if args.program is None else args.program
    if program:
        return pglb.extract(
            pglb.parse_program(_read(path)),
            entry=args.entry,
            with_random=not args.no_random,
            with_abstraction=not args.no_abstraction,
        )
    return terms.parse_thread(_read(path))


def _at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _scheduler(text: str) -> interleaving.SchedulerSpec:
    if text.startswith("table:"):
        path = text[len("table:") :]
        try:
            return interleaving.scheduler_from_table(json.loads(_read(path)))
        except KeyError as exc:
            raise Error(f"scheduler table {path}: missing key {exc}") from exc
        except ValueError as exc:
            raise Error(f"scheduler table {path}: {exc}") from exc
    try:
        return interleaving.builtin_scheduler(text)
    except ValueError as exc:
        raise Error(str(exc)) from exc


def _pipeline(args) -> threads.ThreadGraph:
    """Build the analyzed thread from input files plus pipeline flags."""
    loaded = [_load_thread(path, args) for path in args.inputs]
    if args.services:
        family = services.parse_family(args.services)
        loaded = [interaction.use(g, family) for g in loaded]
    if len(loaded) > 1 or args.scheduler:
        if not args.scheduler:
            raise Error("interleaving several threads requires --scheduler")
        return interleaving.interleave(_scheduler(args.scheduler), loaded)
    return loaded[0]


def _environment(args) -> analysis.Environment:
    if args.env:
        return analysis.Environment.from_table(_read(args.env))
    return analysis.EMPTY_ENVIRONMENT


def _cmd_print(args) -> int:
    print(terms.print_term(threads.normalize(_pipeline(args))))
    return 0


def _cmd_dist(args) -> int:
    g = _pipeline(args)
    dist = analysis.outcome_distribution(
        g, _environment(args), args.depth, with_traces=args.traces
    )
    print(f"terminate: {dist.terminate}")
    print(f"deadlock: {dist.deadlock}")
    print(f"surviving: {dist.surviving}")
    if args.traces:
        # traces of equal mass share one Fraction: format each one once
        shared = {id(m): m for _, m in dist.traces}
        text = {k: str(m) for k, m in shared.items()}
        sys.stdout.write("".join(
            f"{' '.join(('trace', *trace))}: {text[id(mass)]}\n" for trace, mass in dist.traces
        ))
    return 0


def _cmd_equiv(args) -> int:
    g1 = _load_thread(args.first, args)
    g2 = _load_thread(args.second, args)
    if threads.equal_up_to(args.depth, g1, g2):
        print("equivalent")
    else:
        print("not equivalent")
    return 0


def _cmd_sample(args) -> int:
    g = _pipeline(args)
    env = _environment(args)
    if args.runs is None:
        tag, trace = analysis.sample_run(g, env, args.depth, args.seed)
        print(f"outcome: {tag}")
        print("trace:" + ("" if not trace else " " + " ".join(trace)))
    else:
        freq = analysis.sample_outcomes(g, env, args.depth, args.seed, args.runs)
        for tag in (analysis.TERMINATE, analysis.DEADLOCK, analysis.SURVIVING):
            print(f"{tag}: {freq[tag]}")
    return 0


def _add_extraction_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--entry", type=int, default=1, help="start position (default 1)")
    p.add_argument(
        "--no-abstraction",
        action="store_true",
        help="keep internal steps visible after extraction",
    )
    p.add_argument(
        "--no-random",
        action="store_true",
        help="leave random choice instructions as service requests",
    )


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    _add_extraction_flags(p)
    p.add_argument("--services", help="family literal, e.g. '{random: Random}'")
    p.add_argument(
        "--scheduler",
        help="cyclic | uniform | lottery:defaultTickets=N | table:FILE.json",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threadalg",
        description="Exact analysis of probabilistic threads, "
        "instruction sequences, services, and interleaving.",
    )
    # the values of the flags a subcommand does not take
    parser.set_defaults(
        func=_cmd_print,
        program=None,
        entry=1,
        no_random=False,
        no_abstraction=False,
        services=None,
        scheduler=None,
        env=None,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="print the canonical form of a term file")
    p.add_argument("inputs", nargs=1, metavar="input")
    p.set_defaults(program=False)

    p = sub.add_parser("extract", help="behaviour of an instruction sequence")
    p.add_argument("inputs", nargs=1, metavar="input")
    _add_extraction_flags(p)
    p.set_defaults(program=True)

    p = sub.add_parser("use", help="run a thread against named services")
    p.add_argument("inputs", nargs=1, metavar="input")
    p.add_argument("--services", required=True)
    _add_extraction_flags(p)

    p = sub.add_parser("interleave", help="schedule several threads into one")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--scheduler", required=True)
    _add_extraction_flags(p)

    p = sub.add_parser("dist", help="exact outcome distribution at a depth bound")
    p.add_argument("inputs", nargs="+")
    _add_pipeline_flags(p)
    p.add_argument("--depth", type=_at_least(0), required=True)
    p.add_argument("--env", help="reply table file with `f.m = p` lines")
    p.add_argument("--traces", action="store_true", help="include the trace table")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("equiv", help="compare two inputs up to a depth")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--depth", type=_at_least(0), required=True)
    _add_extraction_flags(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("sample", help="seeded pseudo-random executions")
    p.add_argument("inputs", nargs="+")
    _add_pipeline_flags(p)
    p.add_argument("--depth", type=_at_least(0), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--runs", type=_at_least(1), help="aggregate frequencies over this many runs")
    p.add_argument("--env", help="reply table file with `f.m = p` lines")
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
