"""Spans around the package's public functions, kept in memory.

``Tracer.install`` swaps each traced function for a wrapper in every
``mathieucf`` module that holds it, so calls between modules (``cli`` into
``series``, ``closed_form_bounds`` into ``cf_bounds``) are traced as well.
A span is ``(name, start_ns, end_ns, parent, op, info)``: ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the operation id the
harness set, and ``info`` a tuple of counts read from the call's arguments
and return value.  Nothing is written until ``write`` is called, after the
timed phase.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, int, int, int, int, Optional[tuple]]


def _theorem1_info(args, kwargs, result) -> tuple:
    return result[1], int(result[2])


def _direct_info(args, kwargs, result) -> tuple:
    # M is not returned; it follows from the documented rule
    # M = max(ceil((2/tol)^(1/3)), ceil(r/sqrt(3)), 1), or m_terms when given.
    r = args[0]
    m_terms = kwargs.get("m_terms", args[2] if len(args) > 2 else None)
    if m_terms is not None:
        return (m_terms,)
    tol = kwargs.get("tol", args[1] if len(args) > 1 else 1e-10)
    return (max(math.ceil((2 / tol) ** (1 / 3)), math.ceil(r / math.sqrt(3)), 1),)


# (span name = module.function, info extractor)
TARGETS: List[Tuple[str, Optional[Callable]]] = [
    ("cli.run", lambda a, k, res: (len(res[0]),)),
    ("cli.render", lambda a, k, res: (len(a[1]),)),
    ("series.theorem1_to_width", _theorem1_info),
    ("series.tail_enclosure", lambda a, k, res: (res.terms_used,)),
    ("series.mathieu_partial_sum", None),
    ("series.mathieu_direct", _direct_info),
    ("series.asymptotic", lambda a, k, res: (res.terms_used,)),
    ("oracles.mathieu_trigamma", None),
    ("oracles.mathieu_integral", None),
    ("bounds.closed_form_bounds", None),
    ("bounds.cf_bounds", None),
]


class Tracer:
    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.op = 0
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                counts = info(args, kwargs, result) if info and result is not None else None
                spans[idx] = (name, start, end, parent, self.op, counts)

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every TARGETS function wherever a ``package`` module holds it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for name, info in TARGETS:
            mod_name, fn_name = name.split(".")
            original = getattr(getattr(package, mod_name), fn_name)
            wrapper = self.wrap(name, original, info)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    self._undo.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._undo):
            setattr(module, fn_name, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fp:
            for i, (name, start, end, parent, op, counts) in enumerate(self.spans):
                extra = ",".join(str(c) for c in counts) if counts else ""
                fp.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{op}\t{extra}\n")


def read_spans(path: str, op: int, offset: int) -> List[Span]:
    """Spans written by ``Tracer.write``, re-based to follow ``offset`` spans
    and assigned to operation ``op``."""
    spans: List[Span] = []
    with open(path) as fp:
        for line in fp:
            _, name, start, end, parent, _, extra = line.rstrip("\n").split("\t")
            counts = tuple(int(c) for c in extra.split(",")) if extra else None
            p = int(parent)
            spans.append((name, int(start), int(end), p + offset if p >= 0 else -1, op, counts))
    return spans


def self_times(spans: List[Span]) -> List[int]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def aggregate(spans: List[Span]) -> Dict[str, list]:
    """Per span name: [calls, self_ns, total_ns, sum of each info count...]."""
    table: Dict[str, list] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s[0], [0, 0, 0])
        row[0] += 1
        row[1] += own
        row[2] += s[2] - s[1]
        for i, c in enumerate(s[5] or ()):
            if len(row) <= 3 + i:
                row.append(0)
            row[3 + i] += c
    return table


def self_by_op(spans: List[Span]) -> Dict[int, int]:
    """Total self time of each operation's spans."""
    out: Dict[int, int] = {}
    for s, own in zip(spans, self_times(spans)):
        out[s[4]] = out.get(s[4], 0) + own
    return out


def import_split(stderr_text: str):
    """(package import s, scipy.integrate share of it in s) from ``-X importtime``
    output; scipy counts only when it was imported inside the package import."""
    scipy_us = 0
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line.split("|")
        if not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name == "scipy.integrate":
            scipy_us = int(parts[1])
        elif name == "mathieucf":
            return int(parts[1]) / 1e6, scipy_us / 1e6
    return None
