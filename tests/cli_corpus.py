"""The command corpus exercised for output determinism."""

from pathlib import Path

DATA = Path(__file__).parent / "data"
CYCLIC = [str(DATA / f"cyc{j}.term") for j in range(4)]

ALL_COMMANDS = [
    ("normalize", str(DATA / "retry.term")),
    ("normalize", str(DATA / "choice.term")),
    ("extract", str(DATA / "coin.pglb")),
    ("extract", str(DATA / "retry.pglb")),
    ("extract", str(DATA / "loop.pglb"), "--no-abstraction"),
    ("extract", str(DATA / "register.pglb"), "--no-random"),
    ("use", str(DATA / "register.pglb"), "--no-random", "--services", "{r1: Register(false)}"),
    ("interleave", str(DATA / "left.term"), str(DATA / "right.term"), "--scheduler", "cyclic"),
    ("interleave", str(DATA / "left.term"), str(DATA / "right.term"), "--scheduler", "uniform"),
    ("interleave", str(DATA / "left.term"), str(DATA / "right.term"), "--scheduler", "lottery:defaultTickets=2"),
    ("interleave", str(DATA / "left.term"), str(DATA / "right.term"), "--scheduler", f"table:{DATA / 'sched.json'}"),
    ("dist", str(DATA / "coin.pglb"), "--depth", "3"),
    ("dist", str(DATA / "retry.term"), "--depth", "4", "--env", str(DATA / "env.table"), "--traces"),
    ("dist", str(DATA / "left.term"), str(DATA / "right.term"), "--scheduler", "uniform", "--depth", "3", "--env", str(DATA / "env.table")),
    ("dist", str(DATA / "registers.pglb"), "--no-random", "--no-abstraction", "--services", "{r1: Register(false), r2: Register(true), random: Random}", "--depth", "6", "--env", str(DATA / "env.table")),
    ("equiv", str(DATA / "alt1.term"), str(DATA / "alt2.term"), "--depth", "4"),
    ("equiv", str(DATA / "coin.pglb"), str(DATA / "choice.term"), "--depth", "4"),
    ("sample", str(DATA / "coin.pglb"), "--depth", "3", "--seed", "11", "--runs", "50"),
    ("sample", str(DATA / "register.pglb"), "--services", "{r1: Register(false)}", "--depth", "10", "--seed", "1"),
    # 550 trace lines sharing 53 distinct masses
    ("dist", str(DATA / "retry3.term"), "--depth", "6", "--env", str(DATA / "retry3.table"), "--traces"),
    # choices that collapse onto equations defined after them
    ("normalize", str(DATA / "collapse.term")),
    # ten overlapping retry loops: one 19-node tau component
    ("extract", str(DATA / "ring.pglb")),
    # nodes that only the else branches of tau steps reach
    ("normalize", str(DATA / "orphan.term")),
    # action arguments not in lowest terms
    ("extract", str(DATA / "spelling.pglb"), "--no-random"),
    # sampling walks the product's raw choice layers, not its canonical form
    ("sample", str(DATA / "choice.term"), str(DATA / "retry.term"), "--scheduler", "uniform", "--depth", "12", "--seed", "5", "--runs", "200", "--env", str(DATA / "env.table")),
    ("sample", str(DATA / "choice.term"), str(DATA / "retry.term"), "--scheduler", "lottery:defaultTickets=2", "--depth", "12", "--seed", "3", "--env", str(DATA / "env.table")),
    ("sample", str(DATA / "choice.term"), str(DATA / "retry.term"), "--scheduler", f"table:{DATA / 'sched.json'}", "--depth", "12", "--seed", "5", "--runs", "200", "--env", str(DATA / "env.table")),
    # a built-in scheduler named without arguments
    ("interleave", str(DATA / "left.term"), str(DATA / "right.term"), "--scheduler", "lottery"),
    # four 2-state cyclic threads: the round-robin product splits over
    # five refinement rounds, and under a last-pair table its final
    # partition lumps states that differ only in their history view
    ("interleave", *CYCLIC, "--scheduler", "cyclic"),
    ("interleave", *CYCLIC, "--scheduler", f"table:{DATA / 'lastpair.json'}"),
    ("dist", *CYCLIC, "--scheduler", "uniform", "--depth", "3", "--env", str(DATA / "env.table"), "--traces"),
    # 414 traces of a product that terminates, deadlocks and survives
    ("dist", str(DATA / "collapse.term"), str(DATA / "retry.term"), "--scheduler", "uniform", "--depth", "8", "--env", str(DATA / "env.table"), "--traces"),
    # a uniform product of three threads with exits, deep enough that
    # many product states share their outcome masses
    ("dist", str(DATA / "choice.term"), str(DATA / "collapse.term"), str(DATA / "retry.term"), "--scheduler", "uniform", "--depth", "40", "--env", str(DATA / "env.table")),
]
