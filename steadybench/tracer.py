"""In-memory span recorder and the wrappers that put it around library calls.

A span is (name, start, end, parent, op id).  Spans live in flat arrays
while the pass runs -- a wire pass records a few hundred thousand of
them -- and are written out once, as tab-separated text, when the run
ends.  Self time is a span's duration minus the time its direct
children cover.

Tracing happens only from outside the program: :func:`patched` swaps a
public callable on its owner (a class or a module) for a timing wrapper
and restores it on exit, so the code under ``src/`` is never edited.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Tuple

_now = time.perf_counter


class Tracer:
    """Records nested spans; the innermost open span is every new span's parent."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("q")
        self._open: List[int] = []
        #: Op id given to spans opened by :func:`timed` wrappers; a
        #: closed-loop client sets it before each library call.
        self.op_id = -1

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, op: int = -1) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(op)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        self._open.pop()

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def spans_named(self, name: str) -> List[int]:
        nid = self._name_ids.get(name)
        return [i for i, n in enumerate(self.name) if n == nid]

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (count, total duration, total self time)."""
        child_time = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        count: Dict[str, int] = defaultdict(int)
        total: Dict[str, float] = defaultdict(float)
        self_time: Dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            d = self.end[i] - self.start[i]
            count[name] += 1
            total[name] += d
            self_time[name] += d - child_time[i]
        return {n: (count[n], total[n], self_time[n]) for n in count}

    def write(self, path: str) -> None:
        """Write every span as ``index name start end parent op`` lines."""
        names = self.names
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\top\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.name)):
                out.write(
                    f"{i}\t{names[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.op[i]}\n"
                )


def timed(tracer: Tracer, name: str, fn: Callable, on_return=None) -> Callable:
    """``fn`` wrapped in a span called ``name``; ``on_return(result)`` sees results."""
    nid = tracer.name_id(name)
    open_, close = tracer.open, tracer.close

    def wrapper(*args, **kwargs):
        idx = open_(nid, tracer.op_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if on_return is not None:
            on_return(result)
        return result

    return wrapper


@contextlib.contextmanager
def patched(owner, attr: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.attr`` by ``make(original)`` for the ``with`` block.

    Classmethods are unwrapped first and rewrapped after, so a wrapper
    sees the plain function with ``cls`` as its first argument.
    """
    raw = vars(owner).get(attr)
    if isinstance(raw, classmethod):
        replacement = classmethod(make(raw.__func__))
    else:
        replacement = make(getattr(owner, attr))
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        if raw is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, raw)


def patch_all(stack: contextlib.ExitStack, patches) -> None:
    """Enter every ``(owner, attr, make)`` patch on ``stack``."""
    for owner, attr, make in patches:
        stack.enter_context(patched(owner, attr, make))

