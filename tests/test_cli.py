"""The command-line front end: behaviour, exit codes, determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_corpus import ALL_COMMANDS
from threadalg import analysis, cli, pglb, services, terms, threads
from threadalg.errors import Error

DATA = Path(__file__).parent / "data"
SRC = str(Path(__file__).parent.parent / "src")


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_prints_canonical_form(capsys, tmp_path):
    f = tmp_path / "t.term"
    f.write_text("prob(1: S)")
    code, out, _ = run(capsys, "normalize", f)
    assert code == 0
    assert out == "S\n"


def test_normalize_merges_choice(capsys, tmp_path):
    f = tmp_path / "t.term"
    f.write_text("prob(1/2: prefix(a, S), 1/2: prefix(a, S))")
    code, out, _ = run(capsys, "normalize", f)
    assert code == 0
    assert out == "prefix(main.a, S)\n"


def test_extract_coin(capsys):
    code, out, _ = run(capsys, "extract", DATA / "coin.pglb")
    assert code == 0
    assert out == "prob(1/2: S, 1/2: D)\n"


def test_extract_flags(capsys):
    code, out, _ = run(capsys, "extract", DATA / "coin.pglb", "--no-abstraction", "--no-random")
    assert code == 0
    assert out == "post(random.get(1/2), S, D)\n"
    code, out, _ = run(capsys, "extract", DATA / "coin.pglb", "--entry", "2")
    assert code == 0
    assert out == "S\n"


def test_normalize_reads_terms_and_extract_programs_whatever_the_suffix(capsys, tmp_path):
    term = tmp_path / "t.pglb"
    term.write_text("prob(1/2: S, 1/2: D)")
    program = tmp_path / "coin.txt"
    program.write_text((DATA / "coin.pglb").read_text())
    assert run(capsys, "normalize", term) == (0, "prob(1/2: S, 1/2: D)\n", "")
    assert run(capsys, "extract", program) == (0, "prob(1/2: S, 1/2: D)\n", "")
    # the other way round, each file fails to parse
    for argv in (("normalize", program), ("extract", term)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error: ")


def test_use_register(capsys, tmp_path):
    f = tmp_path / "t.term"
    f.write_text("post(r1.get, S, D)")
    code, out, _ = run(capsys, "use", f, "--services", "{r1: Register(true)}")
    assert code == 0
    assert out == "prefix(tau, S)\n"


def test_interleave_cyclic(capsys):
    code, out, _ = run(
        capsys,
        "interleave",
        DATA / "left.term",
        DATA / "right.term",
        "--scheduler",
        "cyclic",
    )
    assert code == 0
    assert out == "prefix(main.a, prefix(main.c, prefix(main.b, S)))\n"


def test_interleave_with_table_scheduler(capsys):
    code, out, _ = run(
        capsys,
        "interleave",
        DATA / "left.term",
        DATA / "right.term",
        "--scheduler",
        f"table:{DATA / 'sched.json'}",
    )
    assert code == 0
    assert "prob(1/3: prefix(main.a," in out


def test_dist_coin(capsys):
    code, out, _ = run(capsys, "dist", DATA / "coin.pglb", "--depth", "3")
    assert code == 0
    assert out == "terminate: 1/2\ndeadlock: 1/2\nsurviving: 0\n"


def test_dist_with_env_and_traces(capsys):
    code, out, _ = run(
        capsys,
        "dist",
        DATA / "choice.term",
        "--depth",
        "2",
        "--env",
        DATA / "env.table",
        "--traces",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "terminate: 1/3"
    assert lines[1] == "deadlock: 2/3"
    assert lines[2] == "surviving: 0"
    assert "trace main.a: 1/3" in lines
    assert "trace main.b: 2/3" in lines


def test_dist_of_a_long_instruction_sequence(capsys, tmp_path):
    program = tmp_path / "long.pglb"
    program.write_text(" ; ".join(["a"] * 3000 + ["!"]))
    env = tmp_path / "env.table"
    env.write_text("main.a = 1/2\n")
    code, out, err = run(
        capsys, "dist", program, "--no-abstraction", "--depth", 5, "--env", env
    )
    assert (code, err) == (0, "")
    assert out == "terminate: 0\ndeadlock: 0\nsurviving: 1\n"


def test_dist_interleaved_pipeline(capsys):
    code, out, _ = run(
        capsys,
        "dist",
        DATA / "left.term",
        DATA / "right.term",
        "--scheduler",
        "cyclic",
        "--depth",
        "3",
        "--env",
        DATA / "env.table",
    )
    assert code == 0
    assert out.splitlines()[0] == "terminate: 1"


def test_dist_requires_scheduler_for_multiple_inputs(capsys):
    code, _, err = run(capsys, "dist", DATA / "left.term", DATA / "right.term", "--depth", "2")
    assert code == 1
    assert "scheduler" in err


def test_dist_missing_reply_is_domain_error(capsys):
    code, _, err = run(capsys, "dist", DATA / "choice.term", "--depth", "2")
    assert code == 1
    assert "reply" in err


def test_equiv_commuted_choices(capsys):
    code, out, _ = run(capsys, "equiv", DATA / "alt1.term", DATA / "alt2.term", "--depth", "4")
    assert code == 0
    assert out == "equivalent\n"


def test_equiv_detects_difference(capsys):
    code, out, _ = run(capsys, "equiv", DATA / "alt1.term", DATA / "choice.term", "--depth", "4")
    assert code == 0
    assert out == "not equivalent\n"


def test_equiv_of_a_cyclic_thread_at_a_deep_bound(capsys, monkeypatch):
    # depth 4000 is far past the two 2-state threads' node count, where
    # equality up to the depth is bisimilarity: no projection is built
    def no_projection(n, g):
        raise AssertionError(f"projected at depth {n}")

    monkeypatch.setattr(threads, "project", no_projection)
    for other, verdict in (("cyc0", "equivalent"), ("cyc1", "not equivalent")):
        code, out, _ = run(
            capsys, "equiv", DATA / "cyc0.term", DATA / f"{other}.term", "--depth", "4000"
        )
        assert (code, out) == (0, verdict + "\n")


def test_equiv_mixes_input_kinds(capsys):
    code, out, _ = run(capsys, "equiv", DATA / "coin.pglb", DATA / "coin.pglb", "--depth", "5")
    assert code == 0
    assert out == "equivalent\n"


def test_sample_single_run(capsys):
    code, out, _ = run(
        capsys, "sample", DATA / "coin.pglb", "--depth", "3", "--seed", "42"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("outcome: ")
    assert lines[1].startswith("trace:")


def test_sample_frequencies(capsys):
    code, out, _ = run(
        capsys,
        "sample",
        DATA / "coin.pglb",
        "--depth",
        "3",
        "--seed",
        "7",
        "--runs",
        "200",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("terminate: ")
    assert lines[1].startswith("deadlock: ")
    assert lines[2].startswith("surviving: ")


def test_sample_with_services_pipeline(capsys):
    code, out, _ = run(
        capsys,
        "sample",
        DATA / "register.pglb",
        "--services",
        "{r1: Register(false)}",
        "--depth",
        "10",
        "--seed",
        "1",
    )
    assert code == 0
    assert out.splitlines()[0] == "outcome: terminate"


def test_usage_errors_exit_two(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["dist", str(DATA / "coin.pglb")]) == 2  # missing --depth
    capsys.readouterr()
    assert cli.main(["unknown-command"]) == 2
    capsys.readouterr()
    code, out, err = run(capsys, "dist", DATA / "coin.pglb", "--depth", "abc")
    assert (code, out) == (2, "")
    assert "argument --depth: expected an integer >= 0, got 'abc'" in err


def test_domain_errors_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.term"
    for text in ("prob(1/2: S)", "rec X { X = S; X = D; } in X"):
        bad.write_text(text)
        code, _, err = run(capsys, "normalize", bad)
        assert code == 1
        assert err.startswith("error:")
    missing = tmp_path / "absent.term"
    code, _, err = run(capsys, "normalize", missing)
    assert code == 1
    # unreadable files: a directory, and bytes that are not UTF-8
    binary = tmp_path / "binary.term"
    binary.write_bytes(b"\xff\xfe")
    for unreadable in (tmp_path, binary):
        for argv in (
            ("normalize", unreadable),
            ("dist", DATA / "left.term", "--depth", "2", "--env", unreadable),
            (
                "interleave", DATA / "left.term", DATA / "right.term",
                "--scheduler", f"table:{unreadable}",
            ),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 1, argv
            assert err.startswith(f"error: {unreadable}:"), argv
    # a second reply for one action
    loop = tmp_path / "loop.term"
    loop.write_text("rec X { X = post(a, X, S); } in X")
    env = tmp_path / "env.table"
    env.write_text("main.a = 1/2\nmain.a = 1/3\n")
    code, out, err = run(capsys, "dist", loop, "--depth", "2", "--env", env)
    assert (code, out) == (1, "")
    assert err == "error: line 2: second reply for main.a (first on line 1)\n"
    # an action name with an empty method
    env.write_text("main.a = 1/2\nmain. = 1/3\n")
    for command in (("dist",), ("sample", "--seed", "1")):
        code, out, err = run(capsys, *command, loop, "--depth", "2", "--env", env)
        assert (code, out) == (1, ""), command
        assert err == "error: line 2: malformed action name 'main.'\n", command
    # a reply outside [0, 1]
    env.write_text("main.a = 3/2\n")
    code, out, err = run(capsys, "dist", loop, "--depth", "2", "--env", env)
    assert (code, out) == (1, "")
    assert err == "error: line 1: 3/2 is not a probability in [0, 1]\n"
    # an unknown scheduler, a weight outside [0, 1] and a stray character
    code, out, err = run(
        capsys, "interleave", DATA / "left.term", DATA / "right.term", "--scheduler", "bogus"
    )
    assert (code, out, err) == (1, "", "error: unknown scheduler 'bogus'\n")
    for text, message in (
        ("prob(-1/2: S, 3/2: D)", "weight -1/2 outside [0, 1]"),
        ("prefix(a, S) $", "unexpected character '$' (at offset 13)"),
    ):
        bad.write_text(text)
        code, out, err = run(capsys, "normalize", bad)
        assert (code, out, err) == (1, "", f"error: {message}\n"), text


LONG = "9" * 5000  # more digits than `int` converts on Python 3.11+


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int converts any length here"
)
@pytest.mark.parametrize(
    "name, text, where",
    [
        ("weight.term", f"prob({LONG}: S)", "(at offset 5)"),
        ("parameter.term", f"prefix(a.b(1/{LONG}), S)", "(at offset 13)"),
        ("random.pglb", f"a ; +%1/{LONG} ; !", "(at offset 4)"),
        ("forward.pglb", f"a ; #{LONG}", "(at offset 4)"),
        ("backward.pglb", f"a ; \\{LONG}", "(at offset 4)"),
        ("action.pglb", f"a ;  r.m(1/{LONG}) ; !", "(at offset 5)"),
        ("reply.table", f"main.a = 1/2\nmain.b = {LONG}/{LONG}\n", "line 2: "),
        ("action.table", f"main.a = 1/2\nr.m({LONG}) = 1\n", "line 2: "),
    ],
    ids=[
        "term-weight", "term-action", "pglb-choice", "pglb-jump", "pglb-back-jump",
        "pglb-action", "env-reply", "env-action",
    ],
)
def test_overlong_integers_are_parse_errors(capsys, tmp_path, name, text, where):
    path = tmp_path / name
    path.write_text(text)
    argv = {
        ".term": ("normalize", path),
        ".pglb": ("extract", path),
        ".table": ("dist", DATA / "left.term", "--depth", "2", "--env", path),
    }[path.suffix]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "integer of 5000 characters is too long" in err
    assert where in err


def spelled(num, den=1):
    """`num/den` in lowest terms, spelled through `Decimal`, which turns an
    int of any length into digits."""
    v = Fraction(num, den)
    text = str(Decimal(v.numerator))
    return text if v.denominator == 1 else f"{text}/{Decimal(v.denominator)}"


def loop_masses(depth):
    """The outcome masses of `rec X { X = post(a, S, prob(1/3: X, 2/3:
    post(b, X, D))); } in X` with replies 1/7 to `a` and 2/5 to `b`, as
    numerators over 35 ** k on k actions left: X's and `post(b, X, D)`'s."""
    x = y = (0, 0, 1)
    for k in range(1, depth + 1):
        unit = 35 ** (k - 1)
        x, y = (
            tuple(5 * unit * e + 10 * a + 20 * b for e, a, b in zip((1, 0, 0), x, y)),
            tuple(14 * a + 21 * unit * e for e, a in zip((0, 1, 0), x)),
        )
    return [spelled(v, 35**depth) for v in x]


# coprime 2501-digit integers: the square of either, and their product,
# have more digits than `str` converts on Python 3.11 and later
N, M = 10**2500 + 1, 10**2500 + 3
LONG_RATIONAL_CASES = {
    "normalize": (
        {"in.term": f"prob(1/{N}: prob(1/{N}: prefix(a, S), {N - 1}/{N}: D), {N - 1}/{N}: D)"},
        ["normalize", "in.term"],
        (0, f"prob({spelled(N * N - 1, N * N)}: D, {spelled(1, N * N)}: prefix(main.a, S))\n", ""),
    ),
    "extract": (
        {"in.pglb": f"+%1/{N} ; #3 ; +%1/{N} ; #2 ; a ; !"},
        ["extract", "in.pglb"],
        (
            0,
            f"prob({spelled(N - 1, N * N)}: S, "
            f"{spelled(N * N - N + 1, N * N)}: prefix(main.a, S))\n",
            "",
        ),
    ),
    "dist": (
        {
            "in.term": "rec X { X = post(a, S, prob(1/3: X, 2/3: post(b, X, D))); } in X",
            "env.table": "main.a = 1/7\nmain.b = 2/5\n",
        },
        ["dist", "in.term", "--depth", "4000", "--env", "env.table"],
        (0, "".join(
            f"{tag}: {mass}\n"
            for tag, mass in zip(("terminate", "deadlock", "surviving"), loop_masses(4000))
        ), ""),
    ),
    "weight-sum": (
        {"in.term": f"prob(1/{N}: S, 1/{M}: D)"},
        ["normalize", "in.term"],
        (1, "", f"error: weights sum to {spelled(N + M, N * M)}, not 1\n"),
    ),
}


@pytest.mark.parametrize("case", sorted(LONG_RATIONAL_CASES))
def test_rationals_of_any_length_are_printed_exactly(capsys, tmp_path, case):
    files, argv, expected = LONG_RATIONAL_CASES[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert run(capsys, *argv) == expected


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int converts any length here"
)
def test_a_printed_long_weight_is_too_long_to_read_back(capsys, tmp_path):
    files, argv, (_, out, _) = LONG_RATIONAL_CASES["normalize"]
    path = tmp_path / "printed.term"
    path.write_text(out)
    code, out, err = run(capsys, "normalize", path)
    assert (code, out) == (1, "")
    assert err == "error: integer of 5001 characters is too long (at offset 5)\n"


@pytest.mark.parametrize("literal", ["{1x: Random}", "{: Random}", "{a.b: Random}"])
def test_malformed_focus_in_family_literal_exits_one(capsys, literal):
    code, _, err = run(capsys, "use", DATA / "left.term", "--services", literal)
    assert code == 1
    assert err.startswith("error: malformed focus name")


def test_unguarded_recursion_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.term"
    bad.write_text("rec X { X = prob(1/2: X, 1/2: S); } in X")
    code, _, err = run(capsys, "normalize", bad)
    assert code == 1
    assert "guard" in err


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_every_subcommand_is_byte_deterministic(capsys, argv):
    first_code, first_out, _ = run(capsys, *argv)
    second_code, second_out, _ = run(capsys, *argv)
    assert first_code == second_code == 0
    assert first_out == second_out
    assert first_out


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: f"{a[0]} {Path(a[1]).name}")
def test_stdout_does_not_depend_on_the_string_hash_seed(argv):
    # one interpreter per hash seed: within one process every string
    # hashes alike, so only separate runs can expose an order that
    # follows hash values
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-m", "threadalg.cli", *argv], env=env, capture_output=True
        )
        outs.append((done.returncode, done.stdout))
    assert outs[0] == outs[1]
    assert outs[0][1]


# Checked-in stdout of every corpus command, one file each, named (like
# the test ids) by index, subcommand and the first argument's file name.
GOLDEN = [
    (f"{i:02d}-{argv[0]}-{Path(argv[1]).name}", argv)
    for i, argv in enumerate(ALL_COMMANDS)
]


@pytest.mark.parametrize("name, argv", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_stdout_matches_the_golden_file(capsys, name, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == (DATA / "expected" / f"{name}.out").read_bytes()


def test_dist_formats_each_distinct_trace_mass_once(capsys, monkeypatch):
    formatted = []
    to_str = Fraction.__str__
    monkeypatch.setattr(Fraction, "__str__", lambda f: formatted.append(f) or to_str(f))
    code, out, _ = run(capsys, *ALL_COMMANDS[19])
    assert code == 0
    masses = [line.rsplit(": ", 1)[1] for line in out.splitlines() if line.startswith("trace ")]
    assert (len(masses), len(set(masses))) == (550, 53)
    # the three outcome lines, then each distinct trace mass
    assert len(formatted) == 3 + 53


def test_negative_depth_is_usage_error(capsys):
    code, _, err = run(capsys, "dist", DATA / "coin.pglb", "--depth", "-1")
    assert code == 2
    assert "--depth" in err and "Traceback" not in err


def test_zero_runs_is_usage_error(capsys):
    code, _, err = run(
        capsys, "sample", DATA / "coin.pglb", "--depth", "3", "--seed", "1", "--runs", "0"
    )
    assert code == 2
    assert "--runs" in err and "Traceback" not in err


def test_scheduler_table_that_is_not_json(capsys, tmp_path):
    table = tmp_path / "sched.json"
    table.write_text("not json")
    code, _, err = run(
        capsys, "interleave", DATA / "left.term", DATA / "right.term",
        "--scheduler", f"table:{table}",
    )
    assert code == 1
    assert err.startswith("error:")


def test_scheduler_table_without_initial_state(capsys, tmp_path):
    table = tmp_path / "sched.json"
    table.write_text(json.dumps({"states": {"s0": {"turn": {"2": ["1/2", "1/2"]}}}}))
    code, _, err = run(
        capsys, "interleave", DATA / "left.term", DATA / "right.term",
        "--scheduler", f"table:{table}",
    )
    assert code == 1
    assert err.startswith("error:") and "initial" in err


@pytest.mark.parametrize("target", ["s9", ["s0"]])
def test_scheduler_table_with_undefined_next_state(capsys, tmp_path, target):
    table = tmp_path / "sched.json"
    table.write_text(json.dumps({
        "initial": "s0",
        "states": {"s0": {"turn": {"2": ["1/2", "1/2"]}, "next": {"basic": target}}},
    }))
    code, _, err = run(
        capsys, "interleave", DATA / "left.term", DATA / "right.term",
        "--scheduler", f"table:{table}",
    )
    assert code == 1
    assert err.startswith("error:") and repr(target) in err and "not defined" in err


def test_scheduler_table_without_turn_weights_for_thread_count(capsys, tmp_path):
    table = tmp_path / "sched.json"
    table.write_text(json.dumps({"initial": "s0", "states": {"s0": {"turn": {"3": ["1/3"] * 3}}}}))
    code, _, err = run(
        capsys, "interleave", DATA / "left.term", DATA / "right.term",
        "--scheduler", f"table:{table}",
    )
    assert code == 1
    assert err.startswith("error:") and "'s0'" in err and "2 threads" in err


@pytest.mark.parametrize(
    "table, message",
    [
        ([], "table is not a JSON object"),
        ({"initial": "s0", "states": ["s0"]}, "'states' is not a JSON object"),
        (
            {"initial": "s0", "states": {"s0": {"turn": {"2": ["1"]}}}},
            "state 's0': turn weights for 2 threads are not 2 rationals",
        ),
        (
            {"initial": "s0", "states": {"s0": {"turn": {"2": "1/2"}}}},
            "state 's0': turn weights for 2 threads are not 2 rationals",
        ),
        (
            {"initial": "s0", "states": {"s0": {"turn": {"2": ["abc", "1/2"]}}}},
            "state 's0': turn weights for 2 threads: malformed rational 'abc'",
        ),
        (
            {"initial": "s0", "states": {"s0": {"turn": {"2": ["1/2", "1/0"]}}}},
            "state 's0': turn weights for 2 threads: zero denominator in rational '1/0'",
        ),
        (
            {"initial": "s0", "states": {"s0": {"turn": {"2": ["3/2", "-1/2"]}}}},
            "state 's0': turn weights for 2 threads: weight 3/2 outside [0, 1]",
        ),
        (
            {"initial": "s0", "states": {"s0": {"turn": {"2": ["1/3", "1/3"]}}}},
            "state 's0': turn weights for 2 threads: weights sum to 2/3, not 1",
        ),
        (
            {"initial": "s0", "states": {"s0": {"turn": {"x": ["1"]}}}},
            "state 's0': thread count 'x' is not an integer",
        ),
        ({"initial": "s0", "states": {"s0": []}}, "state 's0' is not a JSON object"),
        ({"initial": ["s0"], "states": {"s0": {}}}, "initial state ['s0'] not defined"),
        ({"initial": "s0", "digest": [], "states": {"s0": {}}}, "unknown digest []"),
    ],
    ids=[
        "not-an-object", "states-not-an-object", "wrong-length", "turn-not-a-list",
        "malformed-turn-weight", "zero-denominator-turn-weight", "turn-weight-out-of-range",
        "turn-weights-not-summing-to-one", "thread-count-not-an-integer", "state-not-an-object",
        "unhashable-initial", "unhashable-digest",
    ],
)
def test_malformed_scheduler_table_is_rejected_when_parsed(capsys, tmp_path, table, message):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(table))
    code, _, err = run(
        capsys, "interleave", DATA / "left.term", DATA / "right.term",
        "--scheduler", f"table:{path}",
    )
    assert code == 1
    assert err == f"error: scheduler table {path}: {message}\n"


# Each text boundary with well-formed texts to edit, and pieces to edit
# them with: every piece of its syntax, and an integer too long to convert
TEXT_BOUNDARIES = {
    "term": (
        terms.parse_thread,
        [
            "prob(1/2: prefix(r1.get(1/3), S), 1/2: fork(S, D, S))",
            "prob(1/3: S, 2/3: D)",
            "rec X { X = post(a, Y, S); Y = prefix(tau, X); } in X",
        ],
        ["S", "X", "Y", "rec", "in", "post", "prob", "(", ")", "{", "}", ",", ";", ":", "=", ".", "/", "-", "0"],
    ),
    "pglb": (
        pglb.parse_program,
        ["+%1/2 ; #2 ; a ; \\1 ; !", "r1.set:true ; -r1.get ; random.get(1/3) ; #0 // c"],
        ["#", "\\", "%", "+", "-", "!", ";", ".", "(", ")", "/", "0", "a", "//", "\n"],
    ),
    "environment": (
        analysis.Environment.from_table,
        ["main.a = 1/2\nr1.get = 1 // c\n\nb = 0\n"],
        ["=", ".", "/", "-", "0", "a", "tau", "//", "\n"],
    ),
    "family": (
        services.parse_family,
        ["{random: Random, r1: Register(true)}", "{}"],
        ["{", "}", ":", ",", "(", ")", "Random", "Register(false)", "r1", "1x"],
    ),
}


@st.composite
def edited(draw, bases, pieces):
    """One of `bases`, with up to four of its words or characters
    replaced by a piece, or a piece put before them."""
    words = re.findall(r"\w+|\s+|.", draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(words)))
        piece = draw(st.one_of(st.just(LONG), st.sampled_from(pieces + ["", " "])))
        words[i : i + draw(st.integers(0, 1))] = [piece]
    return "".join(words)


@pytest.mark.parametrize("boundary", sorted(TEXT_BOUNDARIES))
@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(data=st.data())
def test_text_boundaries_raise_only_domain_errors(boundary, data):
    parse, bases, pieces = TEXT_BOUNDARIES[boundary]
    text = data.draw(edited(bases, pieces))
    try:
        parse(text)
    except Error:
        pass


# `dist` and `sample` over the data files, some of them edited: every
# argv ends in output (exit 0), a domain error (exit 1) or a usage error
# (exit 2), never in a traceback.  Depths stay small, and smaller with
# `--traces`, whose tables grow exponentially with depth.
FUZZ_INPUTS = sorted(str(p) for p in DATA.iterdir() if p.suffix in (".term", ".pglb"))
FUZZ_TABLES = sorted(str(p) for p in DATA.iterdir() if p.suffix == ".table")
FUZZ_SCHEDULERS = [
    "cyclic",
    "uniform",
    "uniform",
    "lottery:defaultTickets=2",
    f"table:{DATA / 'sched.json'}",
    f"table:{DATA / 'lastpair.json'}",
    "round-robin",
]
FUZZ_FAMILIES = [
    "{r1: Register(false)}",
    "{r1: Register(true), r2: Register(false), random: Random}",
    "{random: Random}",
    "{r1: Stack}",
]
# pieces that add actions without replies and broken syntax
FUZZ_PIECES = ["post(z, S, D)", "prefix(a, ", ")", "S", "D", "tau", "#0", "!", ";"]


def fuzz_inputs(draw, scratch, min_size, max_size, pool=FUZZ_INPUTS):
    """Files from `pool`, the first of them perhaps edited into `scratch`."""
    inputs = draw(st.lists(st.sampled_from(pool), min_size=min_size, max_size=max_size))
    edit = draw(st.sampled_from([None, None, "fork", "fork", "pieces", "rational"]))
    if edit:
        path = Path(inputs[0])
        text = path.read_text()
        ends = [m.start() for m in re.finditer(r"\bS\b", text)]
        rationals = list(re.finditer(r"\d+/\d+", text))
        if edit == "fork" and ends:
            # a fork where a thread term terminates
            at = draw(st.sampled_from(ends))
            text = text[:at] + "fork(S, S, D)" + text[at + 1 :]
        elif edit == "rational" and rationals:
            # the rationals become 1/N and (N - 1)/N in turn, so that the
            # two weights of a choice still sum to 1; products of such
            # weights have more digits than `str` converts
            for k, m in reversed(list(enumerate(rationals))):
                text = text[: m.start()] + (f"1/{N}", f"{N - 1}/{N}")[k % 2] + text[m.end() :]
        else:
            text = draw(edited([text], FUZZ_PIECES))
        inputs[0] = str(scratch / f"edited{path.suffix}")
        Path(inputs[0]).write_text(text)
    return inputs


@st.composite
def fuzz_argv(draw, scratch):
    command = draw(st.sampled_from(["dist", "sample"]))
    inputs = fuzz_inputs(draw, scratch, 1, 3)
    argv = [command, *inputs]
    if len(inputs) > 1 or draw(st.integers(0, 3)) == 0:
        argv += ["--scheduler", draw(st.sampled_from(FUZZ_SCHEDULERS))]
    traces = command == "dist" and draw(st.booleans())
    argv += ["--depth", str(draw(st.integers(-1, 6 if traces else 12)))]
    if traces:
        argv.append("--traces")
    # mostly the replies of every table, so that most queries get answers
    table = draw(st.sampled_from([None, *FUZZ_TABLES, "all", "all", "all"]))
    if table == "all":
        table = str(scratch / "all.table")
        Path(table).write_text("".join(Path(t).read_text() for t in FUZZ_TABLES))
    if table:
        argv += ["--env", table]
    if draw(st.booleans()):
        argv += ["--services", draw(st.sampled_from(FUZZ_FAMILIES))]
    argv += draw(st.sampled_from([[], ["--no-random"], ["--no-abstraction"]]))
    if command == "sample":
        argv += ["--seed", str(draw(st.integers(0, 99)))]
        argv += draw(st.sampled_from([[], ["--runs", "20"], ["--runs", "0"]]))
    return argv


def fuzz_scratch(tmp_path_factory) -> Path:
    scratch = tmp_path_factory.getbasetemp() / "fuzz"
    scratch.mkdir(exist_ok=True)
    return scratch


def assert_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == bool(out.getvalue()), argv


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(data=st.data())
def test_dist_and_sample_argv_exit_cleanly(tmp_path_factory, data):
    assert_exits_cleanly(data.draw(fuzz_argv(fuzz_scratch(tmp_path_factory))))


# the other five subcommands the same way; each required flag is
# sometimes left out, which is a usage error
FUZZ_PROGRAMS = [p for p in FUZZ_INPUTS if p.endswith(".pglb")]
FUZZ_INPUT_COUNTS = {
    "normalize": (1, 1),
    "extract": (1, 1),
    "use": (1, 1),
    "interleave": (1, 3),
    "equiv": (2, 2),
}


@st.composite
def fuzz_pipeline_argv(draw, scratch):
    command = draw(st.sampled_from(sorted(FUZZ_INPUT_COUNTS)))
    # `extract` mostly reads programs, which the other commands rarely do
    pool = FUZZ_PROGRAMS if command == "extract" and draw(st.booleans()) else FUZZ_INPUTS
    argv = [command, *fuzz_inputs(draw, scratch, *FUZZ_INPUT_COUNTS[command], pool)]
    required = draw(st.sampled_from([True, True, True, False]))
    if command == "use" and required:
        argv += ["--services", draw(st.sampled_from(FUZZ_FAMILIES))]
    if command == "interleave" and required:
        argv += ["--scheduler", draw(st.sampled_from(FUZZ_SCHEDULERS))]
    if command == "equiv" and required:
        argv += ["--depth", str(draw(st.integers(-1, 12)))]
    if command != "normalize":
        if draw(st.integers(0, 3)) == 0:
            argv += ["--entry", str(draw(st.integers(-1, 6)))]
        argv += draw(st.sampled_from([[], ["--no-random"], ["--no-abstraction"],
                                      ["--no-random", "--no-abstraction"]]))
    return argv


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(data=st.data())
def test_pipeline_argv_exit_cleanly(tmp_path_factory, data):
    assert_exits_cleanly(data.draw(fuzz_pipeline_argv(fuzz_scratch(tmp_path_factory))))
