"""Named probabilistic services and their families.

A service processes methods: `reply(m)` is the probability that the
service answers True to `m`, or None when it cannot process `m` at
all, and `derive(m)` is the service as changed by the processing.  An
absent reply and derivation to the empty service go together; that
linkage is what `check_service` verifies over a probe list of methods,
since the method alphabet itself is infinite.

A family maps focus names to services.  Composing families whose
names collide collapses the colliding name to the empty service, and
encapsulation removes a set of names wholesale.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Optional, Tuple

from . import meadow
from .errors import ContractViolation, ParseError
from .meadow import ONE, ZERO
from .threads import Record, _set


class Service:
    """A method processor with probabilistic Boolean replies.

    Services are immutable, hashable values; `derive` returns a new
    service, and `reply` and `derive` depend only on the service and the
    method, so `interaction.use` asks each state each method once.
    Concrete services subclass this and implement both methods.
    """

    __slots__ = ()

    def reply(self, method: str) -> Optional[Fraction]:
        raise NotImplementedError

    def derive(self, method: str) -> "Service":
        raise NotImplementedError


class EmptyService(Service, Record):
    """The service that cannot process any method."""

    __slots__ = ()

    def reply(self, method: str) -> Optional[Fraction]:
        return None

    def derive(self, method: str) -> Service:
        return self


EMPTY_SERVICE = EmptyService()

_GET_RE = re.compile(r"get\((.+)\)")


def _get_probability(method: str) -> Optional[Fraction]:
    m = _GET_RE.fullmatch(method)
    if not m:
        return None
    try:
        p = meadow.parse_rational(m.group(1))
    except ParseError:
        return None
    if not meadow.is_probability(p):
        return None
    return p


class RandomService(Service, Record):
    """A random Boolean generator.

    The method `get(p)` replies True with probability p and leaves the
    service unchanged; any other method cannot be processed.
    """

    __slots__ = ()

    def reply(self, method: str) -> Optional[Fraction]:
        return _get_probability(method)

    def derive(self, method: str) -> Service:
        if _get_probability(method) is None:
            return EMPTY_SERVICE
        return self


RANDOM = RandomService()


def make_random() -> Service:
    return RANDOM


class RegisterService(Service, Record):
    """One Boolean cell, with sure replies.

    `set:true` and `set:false` store a value and reply True; `get`
    replies True exactly when the stored value is true and leaves the
    cell unchanged.  Everything else cannot be processed.
    """

    __slots__ = ("value",)

    def __init__(self, value: bool):
        _set(self, "value", value)

    def reply(self, method: str) -> Optional[Fraction]:
        if method == "get":
            return ONE if self.value else ZERO
        if method in ("set:true", "set:false"):
            return ONE
        return None

    def derive(self, method: str) -> Service:
        if method == "get":
            return self
        if method == "set:true":
            return RegisterService(True)
        if method == "set:false":
            return RegisterService(False)
        return EMPTY_SERVICE


def make_register(initial: bool) -> Service:
    return RegisterService(bool(initial))


def check_service(service: Service, methods: Iterable[str]) -> None:
    """Probe the reply/derive linkage: no reply iff derivation is empty.

    Also checks that present replies are probabilities.  Raises
    ContractViolation on the first offending method.
    """
    for m in methods:
        reply = service.reply(m)
        derived = service.derive(m)
        if (reply is None) != (derived == EMPTY_SERVICE):
            raise ContractViolation(
                f"service {service!r}: method {m!r} has "
                f"{'no reply' if reply is None else 'a reply'} but derives "
                f"{'the empty service' if derived == EMPTY_SERVICE else 'a non-empty service'}"
            )
        if reply is not None and not meadow.is_probability(reply):
            raise ContractViolation(
                f"service {service!r}: reply {reply} to {m!r} is not a probability"
            )


# ---------------------------------------------------------------------------
# Families

_FOCUS_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ServiceFamily(Record):
    """A finite map from focus names to services; at most one per focus."""

    __slots__ = ("entries",)

    def __init__(self, entries: Tuple[Tuple[str, Service], ...]):
        _set(self, "entries", entries)

    def get(self, focus: str) -> Optional[Service]:
        for f, s in self.entries:
            if f == focus:
                return s
        return None

    def foci(self) -> Tuple[str, ...]:
        return tuple(f for f, _ in self.entries)

    def replace(self, focus: str, service: Service) -> "ServiceFamily":
        return ServiceFamily(
            tuple((f, service if f == focus else s) for f, s in self.entries)
        )

    def __len__(self) -> int:
        return len(self.entries)


EMPTY_FAMILY = ServiceFamily(())


def empty_family() -> ServiceFamily:
    return EMPTY_FAMILY


def singleton(focus: str, service: Service) -> ServiceFamily:
    """One named service."""
    if not _FOCUS_RE.fullmatch(focus):
        raise ValueError(f"malformed focus name {focus!r}")
    return ServiceFamily(((focus, service),))


def compose(u: ServiceFamily, v: ServiceFamily) -> ServiceFamily:
    """Union of two families; a focus named in both collapses to empty."""
    merged = dict(u.entries)
    for f, s in v.entries:
        merged[f] = EMPTY_SERVICE if f in merged else s
    return ServiceFamily(tuple(sorted(merged.items(), key=lambda e: e[0])))


def encapsulate(hidden: Iterable[str], u: ServiceFamily) -> ServiceFamily:
    """Drop every entry whose focus is in `hidden`."""
    hidden = frozenset(hidden)
    return ServiceFamily(tuple((f, s) for f, s in u.entries if f not in hidden))


# ---------------------------------------------------------------------------
# Family literals, e.g. {random: Random, r1: Register(true)}


def parse_family(text: str) -> ServiceFamily:
    """Parse a family literal over the built-in services."""
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ParseError(f"family literal must be braced: {text!r}")
    body = s[1:-1].strip()
    family = EMPTY_FAMILY
    if not body:
        return family
    for part in body.split(","):
        focus, colon, spec = part.partition(":")
        if not colon:
            raise ParseError(f"family entry {part.strip()!r} is missing a colon")
        focus = focus.strip()
        if not _FOCUS_RE.fullmatch(focus):
            raise ParseError(f"malformed focus name {focus!r} in family literal")
        family = compose(family, singleton(focus, _parse_service(spec.strip())))
    return family


def _parse_service(spec: str) -> Service:
    if spec == "Random":
        return RANDOM
    m = re.fullmatch(r"Register\((true|false)\)", spec)
    if m:
        return make_register(m.group(1) == "true")
    raise ParseError(f"unknown service {spec!r} (expected Random or Register(true|false))")
