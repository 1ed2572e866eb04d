"""One answer to "is this a nondeterministic source?" for kalis-lint.

KL001, KL105 and KL203 all ask it, so they share this resolver.  A name,
attribute chain or import binding is resolved through the
:class:`~repro.analysis.project.Project` import index (``module_aliases``
and ``imported_names``) to a fully-qualified name, whatever the import
form: plain (``import time``), aliased (``import time as t``),
from-import (``from time import perf_counter``,
``from numpy import random as npr``) or dotted (``numpy.random.rand``).
Imports below module level, which the project index does not hold, are
read from the file itself.  The name is then classified:

- **wall clock** — ``time.time``/``monotonic``/``perf_counter`` (and
  their ``_ns`` forms), ``datetime.datetime.now``/``utcnow``/``today``,
  ``datetime.date.today``;
- **entropy** — ``os.urandom``, ``uuid.uuid1``, ``uuid.uuid4``;
- **identity** — the builtin ``id()``, whose values vary across runs;
- **randomness** — anything under ``random`` or ``numpy.random``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.astutil import attribute_chain
from repro.analysis.project import Project, SourceFile

WALL_CLOCK = "wall-clock"
ENTROPY = "entropy"
IDENTITY = "identity"
RANDOMNESS = "randomness"

_TIME_READS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
    }
)
_DATETIME_CLASSES = frozenset({"datetime.datetime", "datetime.date"})
_DATETIME_READS = frozenset({"now", "utcnow", "today"})
_ENTROPY_CALLS = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})
_RANDOM_MODULES = ("random", "numpy.random")
#: The fully-qualified name reported for the builtin ``id``.
IDENTITY_NAME = "id"


def classify(name: str) -> Optional[str]:
    """The source kind of a fully-qualified name, or None."""
    if name == IDENTITY_NAME:
        return IDENTITY
    owner, _, attr = name.rpartition(".")
    if owner == "time" and attr in _TIME_READS:
        return WALL_CLOCK
    if owner in _DATETIME_CLASSES and attr in _DATETIME_READS:
        return WALL_CLOCK
    if name in _ENTROPY_CALLS:
        return ENTROPY
    if any(
        name == module or name.startswith(module + ".")
        for module in _RANDOM_MODULES
    ):
        return RANDOMNESS
    return None


@dataclass(frozen=True)
class SourceUse:
    """One use of a nondeterministic source in a file."""

    node: ast.AST
    #: Fully-qualified source, e.g. ``time.perf_counter``.
    name: str
    kind: str
    #: True for an import binding the file never references.
    imported: bool = False

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 0)

    @property
    def column(self) -> Optional[int]:
        return getattr(self.node, "col_offset", None)


class NondeterminismResolver:
    """Resolves references in one source file to nondeterministic sources."""

    def __init__(self, project: Project, source: SourceFile) -> None:
        self.project = project
        self.source = source
        # One walk: import statements, plus the Name/Attribute loads that
        # head a chain outside a type annotation (the candidate uses).
        self._imports: List[ast.stmt] = []
        self._loads: List[ast.expr] = []
        skip: Set[ast.AST] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                if isinstance(node.ctx, ast.Load):
                    self._loads.append(node)
                if isinstance(node, ast.Attribute):
                    skip.add(node.value)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                self._imports.append(node)
            elif isinstance(node, (ast.arg, ast.AnnAssign)):
                if node.annotation is not None:
                    skip.update(ast.walk(node.annotation))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.returns is not None:
                    skip.update(ast.walk(node.returns))
        self._loads = [node for node in self._loads if node not in skip]
        module_level = set(source.tree.body)
        self._nested: Dict[str, str] = {
            local: target
            for statement in self._imports
            if statement not in module_level
            for local, target in _import_targets(source, statement)
        }

    def target(self, name: str) -> Optional[str]:
        """The fully-qualified name an import binds ``name`` to."""
        module = self.source.module
        target = self.project.module_aliases.get((module, name))
        if target is not None:
            return target
        link = self.project.imported_names.get((module, name))
        if link is not None:
            return f"{link[0]}.{link[1]}"
        return self._nested.get(name)

    def resolve(self, node: ast.AST) -> Optional[Tuple[str, str]]:
        """``(name, kind)`` when a Name/Attribute denotes a source."""
        chain = attribute_chain(node)
        if not chain:
            return None
        head = self.target(chain[0])
        if head is None:
            if chain != [IDENTITY_NAME]:
                return None
            head = IDENTITY_NAME
        name = ".".join([head, *chain[1:]])
        kind = classify(name)
        return (name, kind) if kind is not None else None

    def uses(self) -> List[SourceUse]:
        """Every source reference in the file (outermost chains, outside
        type annotations), plus each import binding of a source that the
        file never references."""
        found: List[SourceUse] = []
        referenced: Set[str] = set()
        for node in self._loads:
            hit = self.resolve(node)
            if hit is not None:
                found.append(SourceUse(node, hit[0], hit[1]))
                referenced.add(attribute_chain(node)[0])
        for statement in self._imports:
            for local, target in _import_targets(self.source, statement):
                kind = classify(target)
                if kind is not None and local not in referenced:
                    found.append(SourceUse(statement, target, kind, imported=True))
        return found


def _import_targets(
    source: SourceFile, statement: ast.stmt
) -> Iterator[Tuple[str, str]]:
    """``(local name, fully-qualified target)`` per alias of an import."""
    if isinstance(statement, ast.Import):
        for alias in statement.names:
            if alias.asname is not None:
                yield alias.asname, alias.name
            else:
                head = alias.name.split(".", 1)[0]
                yield head, head
        return
    origin = Project.absolute_import(source, statement)
    if origin is None:
        return
    for alias in statement.names:
        yield alias.asname or alias.name, f"{origin}.{alias.name}"
