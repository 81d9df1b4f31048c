"""Service behaviour and the family algebra laws."""

import random
import sys
from fractions import Fraction

import pytest

import genlib
from threadalg import services
from threadalg.errors import ContractViolation, ParseError
from threadalg.services import (
    EMPTY_FAMILY,
    EMPTY_SERVICE,
    RANDOM,
    check_service,
    compose,
    empty_family,
    encapsulate,
    make_random,
    make_register,
    parse_family,
    singleton,
)

PROBE = ["get", "set:true", "set:false", "get(1/2)", "get(0)", "get(1)", "nonsense"]


# ---------------------------------------------------------------------------
# concrete services


def test_random_replies_with_requested_probability():
    assert RANDOM.reply("get(1/2)") == Fraction(1, 2)
    assert RANDOM.reply("get(0)") == Fraction(0)
    assert RANDOM.reply("get(1)") == Fraction(1)


def test_random_is_stateless_on_get():
    assert RANDOM.derive("get(1/3)") == RANDOM


def test_random_rejects_other_methods():
    assert RANDOM.reply("set:true") is None
    assert RANDOM.derive("set:true") == EMPTY_SERVICE
    assert RANDOM.reply("get(3/2)") is None  # outside [0, 1]


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int converts any length here"
)
def test_random_rejects_an_overlong_probability():
    # a denominator longer than `int` converts names no probability
    method = f"get(1/{'9' * 5000})"
    assert RANDOM.reply(method) is None
    assert RANDOM.derive(method) == EMPTY_SERVICE


def test_register_reads_its_state():
    assert make_register(True).reply("get") == Fraction(1)
    assert make_register(False).reply("get") == Fraction(0)


def test_register_set_then_get():
    s = make_register(False).derive("set:true")
    assert s.reply("get") == Fraction(1)
    s = s.derive("set:false")
    assert s.reply("get") == Fraction(0)


def test_register_is_fully_deterministic():
    for method in ("get", "set:true", "set:false"):
        for init in (True, False):
            reply = make_register(init).reply(method)
            assert reply in (Fraction(0), Fraction(1))


def test_empty_service_is_absorbing():
    s = EMPTY_SERVICE
    for method in PROBE:
        assert s.reply(method) is None
        s = s.derive(method)
    assert s == EMPTY_SERVICE


def test_builtin_services_conform():
    check_service(RANDOM, PROBE)
    check_service(make_register(True), PROBE)
    check_service(make_register(False), PROBE)
    check_service(EMPTY_SERVICE, PROBE)


def test_conformance_check_catches_violations():
    class Broken(services.Service):
        def reply(self, method):
            return None  # claims it cannot process anything

        def derive(self, method):
            return self  # yet never becomes the empty service

        def __eq__(self, other):
            return isinstance(other, Broken)

        def __hash__(self):
            return 17

    with pytest.raises(ContractViolation):
        check_service(Broken(), ["get"])

    class Overflowing(services.Service):
        def reply(self, method):
            return Fraction(3, 2)  # no probability

        def derive(self, method):
            return self

    with pytest.raises(ContractViolation, match="reply 3/2 to 'get' is not a probability"):
        check_service(Overflowing(), ["get"])


# ---------------------------------------------------------------------------
# family algebra laws


def test_compose_with_empty_is_identity():
    rng = random.Random(41)
    for _ in range(200):
        u = genlib.family(rng)
        assert compose(u, empty_family()) == u
        assert compose(empty_family(), u) == u


def test_compose_commutative():
    rng = random.Random(42)
    for _ in range(300):
        u, v = genlib.family(rng), genlib.family(rng)
        assert compose(u, v) == compose(v, u)


def test_compose_associative():
    rng = random.Random(43)
    for _ in range(300):
        u, v, w = genlib.family(rng), genlib.family(rng), genlib.family(rng)
        assert compose(compose(u, v), w) == compose(u, compose(v, w))


def test_name_collision_collapses_to_empty_service():
    rng = random.Random(44)
    for _ in range(100):
        s1, s2 = genlib.register_service(rng), genlib.register_service(rng)
        combined = compose(singleton("f", s1), singleton("f", s2))
        assert combined.get("f") == EMPTY_SERVICE


def test_disjoint_composition_is_union():
    fam = compose(singleton("f", make_register(True)), singleton("g", RANDOM))
    assert fam.get("f") == make_register(True)
    assert fam.get("g") == RANDOM
    assert len(fam) == 2


def test_encapsulation_laws():
    rng = random.Random(45)
    for _ in range(300):
        u, v = genlib.family(rng), genlib.family(rng)
        hidden = {f for f in ("random", "r1", "r2", "r3") if rng.random() < 0.5}
        # empty family is fixed
        assert encapsulate(hidden, empty_family()) == empty_family()
        # distribution over composition
        assert encapsulate(hidden, compose(u, v)) == compose(
            encapsulate(hidden, u), encapsulate(hidden, v)
        )
    # singletons are kept or dropped by name
    assert encapsulate({"f"}, singleton("f", RANDOM)) == empty_family()
    assert encapsulate({"f"}, singleton("g", RANDOM)) == singleton("g", RANDOM)


def test_replace_touches_only_the_named_focus():
    fam = compose(singleton("f", make_register(True)), singleton("g", RANDOM))
    fam2 = fam.replace("f", make_register(False))
    assert fam2.get("f") == make_register(False)
    assert fam2.get("g") == RANDOM


# ---------------------------------------------------------------------------
# family literals


def test_parse_family_literal():
    fam = parse_family("{random: Random, r1: Register(true)}")
    assert fam.get("random") == RANDOM
    assert fam.get("r1") == make_register(True)


def test_parse_empty_family():
    assert parse_family("{}") == EMPTY_FAMILY


@pytest.mark.parametrize(
    "text", ["random: Random", "{random Random}", "{x: Mystery}", "{1x: Random}"]
)
def test_parse_family_rejects(text):
    with pytest.raises((ParseError, ValueError)):
        parse_family(text)


def test_singleton_rejects_a_malformed_focus():
    with pytest.raises(ValueError, match="malformed focus name '1x'"):
        singleton("1x", RANDOM)


def test_make_random_returns_the_shared_service():
    assert make_random() == RANDOM
