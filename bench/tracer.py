"""In-memory span recording around calls into bdlab's public functions.

Spans are recorded by wrappers that this file installs on module and
class attributes of the imported package; the package's files are never
changed.  Each span is one row of seven integers, kept in a flat
``array('q')``: pass id, span id, parent span id, name id, start ns,
end ns, and a per-span count (jumps of a simulated path, hits of an
estimate, pmf terms of an exact sum, ...).  Nothing is aggregated while
a pass runs; ``Tracer.table`` turns the rows into numpy columns at the
end and ``self_ns`` derives self time as a span's duration minus the
time its direct children cover.
"""

from __future__ import annotations

import itertools
from array import array
from time import perf_counter_ns

import numpy as np

FLUSH_ROWS = 1 << 16
FIELDS = ("pass_id", "span_id", "parent", "name", "start_ns", "end_ns", "count")


class Tracer:
    """Span rows for one benchmark process; pass id 0 is the layer sweep."""

    def __init__(self) -> None:
        self.rows = array("q")
        # recent rows as tuples: a list append is the cheapest record;
        # flushed into the compact array every FLUSH_ROWS rows
        self._buf: list[tuple] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.stack = [0]
        self.next_id = itertools.count(1).__next__
        self.pass_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording ---------------------------------------------------------

    def spanned(self, fn, name, count=None):
        """fn wrapped so that each call records a span.

        name is a span name, or a function of the call's positional
        arguments returning one (for names that carry the kind of an
        event or the horizon T); count(result) fills the span's count.
        """
        stack, push, pop = self.stack, self.stack.append, self.stack.pop
        next_id, record, name_id = self.next_id, self.record, self.name_id
        fixed = name_id(name) if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else name_id(name(args))
            sid = next_id()
            parent = stack[-1]
            push(sid)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                pop()
            record((self.pass_id, sid, parent, nid, t0, t1, count(out) if count else 0))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def open(self) -> tuple[int, int, int]:
        sid = self.next_id()
        parent = self.stack[-1]
        self.stack.append(sid)
        return sid, parent, perf_counter_ns()

    def close(self, nid: int, token: tuple[int, int, int], n: int = 0) -> None:
        t1 = perf_counter_ns()
        sid, parent, t0 = token
        self.stack.pop()
        self.record((self.pass_id, sid, parent, nid, t0, t1, n))

    def record(self, row: tuple) -> None:
        buf = self._buf
        buf.append(row)
        if len(buf) >= FLUSH_ROWS:
            self.rows.extend(itertools.chain.from_iterable(buf))
            buf.clear()

    # -- installing --------------------------------------------------------

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace owner.attr by its span-recording wrapper."""
        self.replace(owner, attr, self.spanned(getattr(owner, attr), name, count))

    def replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def table(self) -> dict[str, np.ndarray]:
        self.rows.extend(itertools.chain.from_iterable(self._buf))
        self._buf.clear()
        a = np.frombuffer(self.rows, dtype=np.int64).reshape(-1, len(FIELDS)).copy()
        return {f: a[:, i] for i, f in enumerate(FIELDS)}


class TracedGenerator:
    """Stands in for a numpy Generator and records each draw block.

    A block span runs from the draw call to the end of the ``tolist``
    that consumes it, which is how the package uses its generators.
    Blocks are leaves, so they need no place on the span stack.
    """

    __slots__ = ("_gen", "_tracer", "_nid")

    def __init__(self, gen, tracer: Tracer, nid: int) -> None:
        self._gen = gen
        self._tracer = tracer
        self._nid = nid

    def standard_exponential(self, size):
        t0 = perf_counter_ns()
        return _Block(self._gen.standard_exponential(size), self, t0)

    def random(self, size):
        t0 = perf_counter_ns()
        return _Block(self._gen.random(size), self, t0)


class _Block:
    __slots__ = ("_arr", "_gen", "_t0")

    def __init__(self, arr, gen: TracedGenerator, t0: int) -> None:
        self._arr = arr
        self._gen = gen
        self._t0 = t0

    def tolist(self):
        out = self._arr.tolist()
        t1 = perf_counter_ns()
        tr = self._gen._tracer
        tr.record((tr.pass_id, tr.next_id(), tr.stack[-1], self._gen._nid, self._t0, t1, len(out)))
        return out


def self_ns(tab: dict[str, np.ndarray]) -> np.ndarray:
    """Self time of every span: its duration minus its direct children's."""
    dur = tab["end_ns"] - tab["start_ns"]
    if dur.size == 0:
        return dur
    top = int(max(tab["span_id"].max(), tab["parent"].max())) + 1
    covered = np.zeros(top, dtype=np.int64)
    np.add.at(covered, tab["parent"], dur)
    return dur - covered[tab["span_id"]]


def nesting_errors(tab: dict[str, np.ndarray]) -> int:
    """Spans that lie outside their parent span or overlap an earlier
    sibling (0 for a sound tree, whose self times count no time twice)."""
    ids = tab["span_id"]
    if ids.size == 0:
        return 0
    top = int(ids.max()) + 1
    start = np.full(top, -1, dtype=np.int64)
    end = np.full(top, -1, dtype=np.int64)
    start[ids] = tab["start_ns"]
    end[ids] = tab["end_ns"]
    child = tab["parent"] > 0
    p = tab["parent"][child]
    bad = (tab["start_ns"][child] < start[p]) | (tab["end_ns"][child] > end[p])
    order = np.lexsort((tab["start_ns"], tab["parent"]))
    par, s, e = tab["parent"][order], tab["start_ns"][order], tab["end_ns"][order]
    overlap = (par[1:] == par[:-1]) & (s[1:] < e[:-1])
    return int(bad.sum()) + int(overlap.sum()) + int((tab["end_ns"] < tab["start_ns"]).sum())

