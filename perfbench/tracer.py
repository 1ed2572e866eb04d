"""In-memory span tracer that wraps a layer's public functions from outside.

The program under test carries no benchmark hooks.  For a traced run,
:meth:`Tracer.wrap` replaces one attribute (a method on a class, or a
function looked up through a module global) with a timing wrapper, and
:meth:`Tracer.remove` puts every original back.  Each wrapped call
becomes one span: name, start, end and the enclosing wrapped call as
its parent.  Aggregates are kept online, so a per-layer table never has
to re-read the spans:

- ``calls`` and ``total_s`` per span name;
- ``self_s``: a call's duration minus the time its wrapped children
  took;
- ``root_s``: time covered by spans with no wrapped parent, from which
  the unattributed share of a pass follows.

Spans are kept in flat arrays (at most :data:`MAX_SPANS`, about 24 MB;
later ones only feed the aggregates) and written out by
:meth:`Tracer.save`.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: After-call hook: ``(args, result, duration_s)``.
AfterHook = Callable[[tuple, Any, float], None]

_MISSING = object()

MAX_SPANS = 1_000_000


class ModuleView:
    """Stands in for a module inside one caller's globals.

    ``ckpt.format`` calls ``os.fsync`` through its own ``os`` global;
    pointing that global at a view lets the tracer time those calls
    without touching ``os`` for the rest of the process.
    """

    def __init__(self, module) -> None:
        self._module = module

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


class Tracer:
    """Times wrapped calls into spans and per-name aggregates."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self.spans_dropped = 0
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        #: Open wrapped calls: [name, span index, child time].
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def wrap(
        self, owner, attr: str, name: str, after: Optional[AfterHook] = None
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper recording ``name``.

        ``owner`` is a class, a module or a :class:`ModuleView`.  A call
        made while the innermost open span already has ``name`` (a
        ``super()`` chain through two wrapped overrides, or a direct
        recursive call) is folded into that span rather than counted
        twice.
        """
        own = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not callable")
        self._patches.append((owner, attr, own))
        setattr(owner, attr, self._wrapper(original, name, after))

    def set_global(self, module, attr: str, value) -> None:
        """Rebind one module global until :meth:`remove`."""
        self._patches.append((module, attr, vars(module).get(attr, _MISSING)))
        setattr(module, attr, value)

    def remove(self) -> None:
        """Restore every wrapped or rebound attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _wrapper(self, original, name: str, after: Optional[AfterHook]):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return original(*args, **kwargs)
            frame = [name, self._open(name), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, start, end)
            if after is not None:
                after(args, result, end - start)
            return result

        return traced

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        if len(self._span_start) >= MAX_SPANS:
            self.spans_dropped += 1
            return -1
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        self._span_name.append(index)
        self._span_parent.append(self._stack[-1][1] if self._stack else -1)
        self._span_start.append(0.0)
        self._span_end.append(0.0)
        return len(self._span_start) - 1

    def _close(self, frame: list, start: float, end: float) -> None:
        name, span, child_s = frame
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration
        if span >= 0:
            self._span_start[span] = start
            self._span_end[span] = end

    @property
    def span_count(self) -> int:
        return len(self._span_start)

    def save(self, path) -> None:
        """Write the kept spans as arrays: name index, parent, start, end."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self._span_name, dtype=np.int32),
            parent=np.frombuffer(self._span_parent, dtype=np.int32),
            start=np.frombuffer(self._span_start, dtype=np.float64),
            end=np.frombuffer(self._span_end, dtype=np.float64),
        )
