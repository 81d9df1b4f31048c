"""The benchmark workloads: seeded input files plus the CLI queries over them.

A workload is a list of rounds.  The timed loop plays whole rounds in
order and starts over, so every run holds the same queries in the same
proportions; the rounds rotate through distinct inputs so that one run
averages over many programs or threads of each size.  Within a round the
query kinds are interleaved, which spreads the heavy queries out.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import List, Optional, Tuple

import inputs

WORKLOADS = ("extract", "interleave", "dist")


@dataclass
class Query:
    """One CLI invocation and how to check what it prints."""

    qid: str
    argv: List[str]
    check: str  # "term" | "dist" | "traces" | "sample"
    size_class: Optional[str] = None
    # the input this query shares with one query of the other growth class
    pair: Optional[str] = None
    # loop-free program text, checked against the independent interpreter
    oracle_program: Optional[str] = None
    oracle_env: Optional[str] = None


@dataclass
class Workload:
    name: str
    rounds: List[List[Query]]
    # the two size classes `growth` compares; the second is twice the first
    growth_classes: Tuple[str, str]


def _interleave_kinds(groups: List[List[Query]]) -> List[Query]:
    """Merge query groups so that every prefix keeps their proportions."""
    placed = []
    for g in groups:
        for i, q in enumerate(g):
            placed.append(((i + 0.5) / len(g), -len(g), q.qid, q))
    placed.sort(key=lambda t: t[:3])
    return [t[3] for t in placed]


class _Files:
    def __init__(self, workdir: Path):
        self.workdir = workdir

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)


# ---------------------------------------------------------------------------
# extract: pglb -> use(Random) -> abstract_tau -> normalize -> print

# A run plays 8 to 12 rounds: six distinct ones let its quantiles rest on
# 48 distinct 150-instruction programs rather than on a few repeated.
EXTRACT_ROUNDS = 6
# Per round: 6 + 8 + 4 block programs, the 150-instruction chain twice
# and the 300-instruction one once.  Sorted by time, the median falls in
# the middle of the 150 class and the 90th percentile on the 150 chain,
# which is the same for every seed.
EXTRACT_PER_ROUND = {75: 6, 150: 8, 300: 4}
CHAIN_REPEATS = {150: 2, 300: 1}


def _extract(rng: Random, files: _Files) -> Workload:
    env_names = [f"main.{inputs.action_name(i)}" for i in range(inputs.N_ACTIONS)]
    env_text = inputs.environment(rng, env_names)
    chains = {
        size: Query(
            f"chain{size}",
            ["extract", files.write(f"chain{size}.pglb", inputs.chain_program(size))],
            "term",
        )
        for size in CHAIN_REPEATS
    }
    rounds = []
    for r in range(EXTRACT_ROUNDS):
        groups = [[chains[size]] * n for size, n in CHAIN_REPEATS.items()]
        for size, count in EXTRACT_PER_ROUND.items():
            group = []
            for i in range(count):
                loops = i % 2 == 0  # every other program gets the oracle
                text = inputs.block_program(rng, size, loops)
                name = f"mixed{size}-{r}-{i}.pglb"
                group.append(
                    Query(
                        name,
                        ["extract", files.write(name, text)],
                        "term",
                        size_class=f"mixed{size}",
                        oracle_program=None if loops else text,
                        oracle_env=None if loops else env_text,
                    )
                )
            groups.append(group)
        rounds.append(_interleave_kinds(groups))
    return Workload("extract", rounds, ("mixed150", "mixed300"))


# ---------------------------------------------------------------------------
# interleave: product construction under five schedulers, then normalize

INTERLEAVE_ROUNDS = 3
# States per thread for k = 3..6.  The joint thread-state space of the
# two largest classes is 2^5 = 32 and 2^6 = 64; larger threads at k = 6
# reach the recursion failures of ROADMAP item 4 in `print_term`.
THREAD_STATES = {3: (2, 3, 4), 4: (2, 2, 3, 2), 5: (2,) * 5, 6: (2,) * 6}
# cheap k = 3 sets added to each round, so that a run holds enough queries
EXTRA_K3_SETS = 1


def _interleave(rng: Random, files: _Files) -> Workload:
    rounds = []
    for r in range(INTERLEAVE_ROUNDS):
        tables = {
            digest: files.write(
                f"sched-{r}-{digest}.json",
                inputs.scheduler_table(rng, max(THREAD_STATES), digest),
            )
            for digest in ("none", "last-pair")
        }
        schedulers = [
            "cyclic",
            "uniform",
            "lottery:defaultTickets=2",
            f"table:{tables['none']}",
            f"table:{tables['last-pair']}",
        ]
        groups = []
        sets = [(k, states, "") for k, states in THREAD_STATES.items()]
        sets += [(3, THREAD_STATES[3], f"x{x}") for x in range(EXTRA_K3_SETS)]
        for k, states, tag in sets:
            paths = [
                files.write(f"k{k}{tag}-{r}-t{j}.term", inputs.cyclic_thread(rng, f"t{j}", n))
                for j, n in enumerate(states)
            ]
            rng.shuffle(paths)
            groups.append(
                [
                    Query(
                        f"k{k}{tag}-{r}-{s.split(':')[0]}{i}",
                        ["interleave", *paths, "--scheduler", s],
                        "term",
                        size_class=f"k{k}",
                        # growth compares k = 5 and 6 under the same
                        # scheduler, whose choice moves the time most
                        pair=f"{r}-{i}",
                    )
                    for i, s in enumerate(schedulers)
                ]
            )
        rounds.append(_interleave_kinds(groups))
    return Workload("interleave", rounds, ("k5", "k6"))


# ---------------------------------------------------------------------------
# dist: exact outcome analysis and sampling

DIST_ROUNDS = 6
# Thread choices in thirds and replies in fifths: the exact masses grow
# denominators of the same kind in every input, so inputs of one shape
# cost about the same whatever the seed.
THREAD_PROBS = ["1/3", "2/3"]
REPLY_PROBS = ["1/5", "2/5", "3/5", "4/5"]
DIST_DEPTHS = (20, 40)
REGISTERS = 4
REGISTER_PROGRAM_SIZE = 40
# 10 programs at two depths and 10 heavier queries a round put the median
# in the middle of the depth-40 register queries
REGISTER_PROGRAMS = 10
# The trace tables and sampling read one fixed term under fixed replies,
# in every round and for every seed: its cost depends steeply on its
# probabilities, and these queries are the heaviest of a round, where
# the 90th percentile lies.  The seed still draws the sampler's seed.
RETRY_PROBS = ["2/3", "1/3", "2/3"]
RETRY_REPLIES = {"c": "3/5", "d": "2/5"}
TRACE_DEPTHS = (8, 9, 10)
SAMPLE_DEPTH = 200
SAMPLE_RUNS = 10000


def _dist(rng: Random, files: _Files) -> Workload:
    family = (
        "{"
        + ", ".join(f"r{i}: Register(false)" for i in range(REGISTERS))
        + ", random: Random}"
    )
    rounds = []
    for r in range(DIST_ROUNDS):
        thread_sets = {
            label: [
                files.write(
                    f"dist-{r}-{label}-t{j}.term",
                    # one two-state thread at k = 3, one-state threads
                    # otherwise: larger threads take seconds per query
                    inputs.cyclic_thread(
                        rng, f"t{j}", 2 if j == 0 and k == 3 else 1,
                        exits=True, probs=THREAD_PROBS,
                    ),
                )
                for j in range(k)
            ]
            for label, k in (("k3a", 3), ("k3b", 3), ("k4", 4))
        }
        names = [
            f"t{j}.{m}{s}" for j in range(4) for m in "ab" for s in range(3)
        ] + [f"main.{inputs.action_name(i)}" for i in range(inputs.N_ACTIONS)]
        replies = "".join(
            f"main.{c}{s} = {p}\n"
            for c, p in RETRY_REPLIES.items() for s in range(len(RETRY_PROBS))
        )
        env = files.write(
            f"dist-{r}.env", inputs.environment(rng, names, REPLY_PROBS) + replies
        )

        interleaved = []
        for label, paths in thread_sets.items():
            for d in DIST_DEPTHS:
                interleaved.append(
                    Query(
                        f"{label}-{r}-d{d}",
                        ["dist", *paths, "--scheduler", "uniform",
                         "--depth", str(d), "--env", env],
                        "dist",
                    )
                )
        registers = []
        for i in range(REGISTER_PROGRAMS):
            prog = files.write(
                f"reg-{r}-{i}.pglb",
                inputs.register_program(
                    rng, REGISTER_PROGRAM_SIZE, REGISTERS, THREAD_PROBS
                ),
            )
            for d in DIST_DEPTHS:
                registers.append(
                    Query(
                        f"reg-{r}-{i}-d{d}",
                        ["dist", prog, "--no-random", "--no-abstraction",
                         "--services", family, "--depth", str(d), "--env", env],
                        "dist",
                        # growth follows each register program as depth
                        # doubles: 10 distinct ones a round, where the
                        # thread sets give two
                        size_class=f"d{d}",
                        pair=f"reg-{r}-{i}",
                    )
                )
        term = files.write(f"retry-{r}.term", inputs.retry_term(RETRY_PROBS))
        traces = [
            Query(
                f"traces-{r}-d{d}",
                ["dist", term, "--depth", str(d), "--traces", "--env", env],
                "traces",
            )
            for d in TRACE_DEPTHS
        ]
        sample = [
            Query(
                f"sample-{r}",
                ["sample", term, "--depth", str(SAMPLE_DEPTH), "--runs",
                 str(SAMPLE_RUNS), "--seed", str(rng.randrange(1 << 30)), "--env", env],
                "sample",
            )
        ]
        rounds.append(_interleave_kinds([interleaved, registers, traces, sample]))
    return Workload("dist", rounds, ("d20", "d40"))


_MAKERS = {"extract": _extract, "interleave": _interleave, "dist": _dist}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's input files under `workdir` and list its rounds."""
    # one stream per workload, so adding a workload leaves the others' inputs alone
    rng = Random(f"{name}:{seed}")
    return _MAKERS[name](rng, _Files(workdir))
