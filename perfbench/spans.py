"""Spans and counters recorded around the program's public functions.

The program is not changed: `Tracer.install` replaces module attributes
such as `threads.normalize` with wrappers.  Every call inside the
package that goes through a module attribute (`threads.normalize(g)`
from `interaction`, or a module-global call inside `threads` itself)
then reaches the wrapper, so the spans nested inside `abstract_tau` or
the interleaving engine are recorded too.

A span is (name, start, end, parent, query).  Spans stay in memory and
are written out when the run ends.  A span's self time is its duration
minus its children's durations and minus the time the tracer spent on
bookkeeping for those children, so counters that inspect results do not
inflate the caller.  Very hot functions (`meadow.is_probability`,
`Prob.__post_init__`, service replies) are counted only: a span per
call would distort the run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# Every timed function, as `module.function`; the module is its layer.
TIMED = (
    "threads.normalize",
    "threads.head_distributions",
    "threads.trim",
    "threads.project",
    "interaction.abstract_tau",
    "interaction.use",
    "interleaving.interleave",
    "analysis.outcome_distribution",
    "analysis.sample_run",
    "analysis.sample_outcomes",
    "terms.parse_thread",
    "terms.print_term",
    "pglb.parse_program",
    "pglb.extract_at",
    "services.parse_family",
    "cli.main",
)


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values), default=0)


def _prob_weights(g):
    for node in g.nodes:
        for w, _ in getattr(node, "branches", ()):
            yield w


def _annotators(pkg) -> Dict[str, Callable]:
    """Counters taken from a call's arguments and result, by span name."""
    threads = pkg.threads

    def normalize(args, kwargs, out, add, peak):
        g = args[0]
        add("nodes_in", len(g.nodes))
        add("nodes_out", len(out.nodes))
        add("noop_calls", int(out == g))

    def abstract_tau(args, kwargs, out, add, peak):
        add("tau_nodes_in", sum(
            1 for n in args[0].nodes if isinstance(n, threads.Post) and n.action.is_tau
        ))
        peak("den_bits_max", _den_bits(_prob_weights(out)))

    def product(bound):
        def annotate(args, kwargs, out, add, peak):
            add("states_out", len(out.nodes))
            peak("bound_share", len(out.nodes) / kwargs.get("state_bound", bound))
        return annotate

    def outcome_distribution(args, kwargs, out, add, peak):
        masses = [out.terminate, out.deadlock, out.surviving]
        masses += [m for _, m in out.traces or ()]
        peak("den_bits_max", _den_bits(masses))

    def print_term(args, kwargs, out, add, peak):
        add("bytes_out", len(out.encode("utf-8")))

    def extract_at(args, kwargs, out, add, peak):
        add("nodes_out", len(out.nodes))

    return {
        "threads.normalize": normalize,
        "interaction.abstract_tau": abstract_tau,
        "interaction.use": product(pkg.interaction.DEFAULT_STATE_BOUND),
        "interleaving.interleave": product(pkg.interleaving.DEFAULT_STATE_BOUND),
        "analysis.outcome_distribution": outcome_distribution,
        "terms.print_term": print_term,
        "pglb.extract_at": extract_at,
    }


class Tracer:
    def __init__(self):
        self.active = False
        self.query = -1
        # name, start, end, parent index, query, bookkeeping time of children
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.peaks: Dict[str, float] = defaultdict(float)
        self.errors: Dict[str, int] = defaultdict(int)
        self._saved: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, pkg) -> None:
        annotate = _annotators(pkg)
        for name in TIMED:
            module, func = name.split(".")
            mod = getattr(pkg, module)
            self._patch(mod, func, self._timed(name, getattr(mod, func), annotate.get(name)))
        self._patch(pkg.meadow, "is_probability",
                    self._counted("meadow.is_probability.calls", pkg.meadow.is_probability))
        self._patch(pkg.meadow, "as_probability",
                    self._counted("meadow.as_probability.calls", pkg.meadow.as_probability))
        prob = pkg.threads.Prob
        self._patch(prob, "__post_init__",
                    self._counted("threads.Prob.validations", prob.__post_init__))
        for cls in (pkg.services.RandomService, pkg.services.RegisterService,
                    pkg.services.EmptyService):
            self._patch(cls, "reply", self._counted("services.reply.calls", cls.reply))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers --------------------------------------------------------

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name: str, fn, annotate: Optional[Callable]):
        clock = time.perf_counter
        spans, stack, counts, peaks = self.spans, self.stack, self.counts, self.peaks

        def add(key, value):
            counts[f"{name}.{key}"] += value

        def peak(key, value):
            k = f"{name}.{key}"
            if value > peaks[k]:
                peaks[k] = value

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            entered = clock()
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, 0.0, 0.0, parent, self.query, 0.0]
            spans.append(span)
            stack.append(index)
            counts[f"{name}.calls"] += 1
            span[1] = start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                self.errors[name] += 1
                raise
            else:
                span[2] = clock()
                if annotate is not None:
                    annotate(args, kwargs, out, add, peak)
                return out
            finally:
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += clock() - span[2] + start - entered

        return wrapper

    # -- results ---------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _, overhead) in enumerate(self.spans):
            out[name] += end - start - covered[i] - overhead
        return out

    def layers_seen(self) -> set:
        return {name.split(".", 1)[0] for name, *_ in self.spans} | {
            key.split(".", 1)[0] for key, value in self.counts.items() if value
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start,end,parent,query\n")
            for name, start, end, parent, query, _ in self.spans:
                f.write(f"{name},{start:.9f},{end:.9f},{parent},{query}\n")
