"""In-memory span tracer for the zerosum layers.

A Tracer wraps every public module-level function of the layer modules at
every ``zerosum.*`` module attribute that binds it, so a call made through
``zerosum.verify.sigma_n`` and one made inside ``zerosum.weighted`` both land
in the same span stream.  ``Group`` and the other classes are left alone, and
nothing under ``src/`` is edited: the wrappers live only in this process and
``uninstall`` puts every original binding back.

Each span is ``(id, name, parent, thread, start_ns, end_ns)``.  A span opened
on a worker thread with no open span of its own takes as parent the innermost
span open on the installing thread, which is the ``sweep`` call that handed
the work to the pool; self time is then a span's duration minus the union of
its children's intervals, so parallel children are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from array import array
from pathlib import Path

LAYERS = ("groups", "setsum", "sequences", "weighted", "invariants", "verify", "cli")
_FIELDS = 6


def layer_functions() -> dict[str, object]:
    """Qualified name ("verify.sweep") -> function, for every public layer function."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"zerosum.{layer}"]
        for attr, value in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != mod.__name__
                    # a generator's call returns before its work is done
                    or inspect.isgeneratorfunction(value)):
                continue
            out[f"{layer}.{attr}"] = value
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        targets = {id(fn): name for name, fn in layer_functions().items()}
        local = threading.local()
        main_stack: list[int] = []
        local.stack = main_stack
        ids = itertools.count()
        record = self.spans.extend
        clock = time.perf_counter_ns
        ident = threading.get_ident
        wrappers: dict[int, object] = {}

        def make(fn, name_id: int):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
                parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
                sid = next(ids)
                stack.append(sid)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    record((sid, name_id, parent, ident(), start, end))
            return wrapper

        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "zerosum" or modname.startswith("zerosum.")):
                continue
            for attr, value in list(vars(mod).items()):
                name = targets.get(id(value))
                if name is None:
                    continue
                if id(value) not in wrappers:
                    self.names.append(name)
                    wrappers[id(value)] = make(value, len(self.names) - 1)
                self._restore.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in self._restore:
            setattr(mod, attr, value)
        unrestored = [f"{mod.__name__}.{attr}" for mod, attr, value in self._restore
                      if getattr(mod, attr) is not value]
        self._restore.clear()
        if unrestored:
            raise RuntimeError(f"wrappers left in place: {unrestored}")

    def rows(self) -> list[tuple[int, int, int, int, int, int]]:
        s = self.spans
        return [tuple(s[i:i + _FIELDS]) for i in range(0, len(s), _FIELDS)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("id\tparent\tthread\tname\tstart_ns\tend_ns\n")
            for sid, name_id, parent, tid, start, end in self.rows():
                out.write(f"{sid}\t{parent}\t{tid}\t{self.names[name_id]}\t{start}\t{end}\n")


def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class SpanStats:
    """Per-name call counts, inclusive and self seconds derived from spans."""

    def __init__(self, tracer: Tracer) -> None:
        rows = tracer.rows()
        names = tracer.names
        by_id = {r[0]: r for r in rows}
        children: dict[int, list[tuple[int, int]]] = {}
        for sid, _, parent, _, start, end in rows:
            children.setdefault(parent, []).append((start, end))
        self.calls: dict[str, int] = {}
        self.inclusive_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.durations_s: dict[str, list[float]] = {}
        self._children_names: dict[int, set[str]] = {}
        for sid, name_id, parent, _, start, end in rows:
            name = names[name_id]
            dur = end - start
            own = dur - _covered(start, end, children.get(sid, []))
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own / 1e9
            self.durations_s.setdefault(name, []).append(dur / 1e9)
            # only the outermost of nested same-name spans adds to inclusive time
            up = by_id.get(parent)
            while up is not None and names[up[1]] != name:
                up = by_id.get(up[2])
            if up is None:
                self.inclusive_s[name] = self.inclusive_s.get(name, 0.0) + dur / 1e9
            self._children_names.setdefault(parent, set()).add(name)
        self._rows = rows
        self._names = names

    def quick_path(self) -> tuple[int, int]:
        """(attempts, hits) of the balanced-setpartition quick path.

        An attempt is a check_instance span with a balanced_setpartition child;
        it is a hit when the same check_instance never falls back to sigma_n.
        """
        attempts = hits = 0
        for sid, name_id, *_ in self._rows:
            if self._names[name_id] != "verify.check_instance":
                continue
            kids = self._children_names.get(sid, set())
            if "sequences.balanced_setpartition" in kids:
                attempts += 1
                hits += "weighted.sigma_n" not in kids
        return attempts, hits
