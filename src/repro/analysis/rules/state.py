"""KL201, KL202, KL204, KL205 — checkpoint-safety and shard-isolation rules.

These rules run on the :mod:`repro.analysis.stategraph` whole-program
state inventory.  They are the static gate for ROADMAP items 1 and 5: a
sharded multi-site fleet and a resumable service mode with
KB/DataStore/RNG snapshot-restore.

- **KL201** — hidden mutable state: a module-level mutable binding that
  some code mutates, or a class-body mutable display shared by every
  instance and mutated in place.  Both live outside any checkpoint root,
  so a snapshot silently misses them and two shards in one process share
  them.
- **KL202** — non-picklable state reachable from a checkpoint root:
  locks, open file handles, lambdas, generators, weakrefs, live hashlib
  objects.  A class carrying one must define ``__getstate__``/
  ``__setstate__``/``__reduce__`` or a rebuild hook, or the snapshot
  fails (or worse, half-succeeds).
- **KL204** — stale-after-restore caches: a derived field (spatial grid,
  timestamp ring, bound counters) mutated in place with no rebuild/
  invalidate hook referencing it.  A restore would resurrect the stale
  cache alongside fresh primary state.
- **KL205** — cross-shard aliasing: one mutable local passed into two or
  more shard-root constructors (``Simulator``/``KalisNode`` and
  subclasses), or a mutable default parameter value on a reachable
  class's method (shared across all instances and calls).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.engine import Rule, register_rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project
from repro.analysis.stategraph import (
    DERIVED,
    MUTABLE_FACTORY_NAMES,
    StateGraph,
    derive_stategraph,
    _chain_of,
    _is_mutable_literal,
)

def shared_stategraph(project: Project) -> StateGraph:
    """Build (and memoize on the project) the whole-program state graph."""
    cached = getattr(project, "_stategraph_cache", None)
    if cached is not None:
        return cached
    graph = getattr(project, "_callgraph_cache", None)
    if graph is None:
        graph = CallGraph.build(project)
        project._callgraph_cache = graph  # type: ignore[attr-defined]
    state = derive_stategraph(project, graph)
    project._stategraph_cache = state  # type: ignore[attr-defined]
    return state


@register_rule
class HiddenMutableStateRule(Rule):
    """KL201: no mutable state outside the checkpoint inventory."""

    ID = "KL201"
    TITLE = "state: hidden module/class-level mutable state"

    def check(self, project: Project) -> Iterable[Finding]:
        state = shared_stategraph(project)
        for entry in state.module_globals:
            if not entry.mutated_lines:
                continue
            yield self.finding(
                Severity.WARNING,
                entry.path,
                entry.line,
                f"module-level mutable {entry.name!r} is mutated at line"
                f" {entry.mutated_lines[0]} — this state lives outside every"
                " checkpoint root and is shared across shards in one process",
                key=entry.name,
            )
        for key in sorted(state.classes):
            class_state = state.classes[key]
            for name in sorted(class_state.fields):
                field = class_state.fields[name]
                if (
                    field.class_level
                    and field.mutable_literal
                    and field.mutated_lines
                ):
                    yield self.finding(
                        Severity.WARNING,
                        class_state.path,
                        field.line,
                        f"class-level mutable {class_state.name}.{name} is"
                        " mutated in place — it is shared by every instance"
                        " and invisible to per-instance snapshots",
                        key=f"{class_state.name}.{name}",
                    )


@register_rule
class NonPicklableStateRule(Rule):
    """KL202: checkpoint-reachable state must survive pickling."""

    ID = "KL202"
    TITLE = "state: non-picklable state reachable from a checkpoint root"

    def check(self, project: Project) -> Iterable[Finding]:
        state = shared_stategraph(project)
        for class_state in state.reachable_classes():
            if class_state.has_pickle_hook():
                continue
            for name in sorted(class_state.fields):
                field = class_state.fields[name]
                if field.non_picklable is None:
                    continue
                roots = ", ".join(sorted(class_state.roots))
                yield self.finding(
                    Severity.ERROR,
                    class_state.path,
                    field.line,
                    f"{class_state.name}.{name} holds a non-picklable value"
                    f" ({field.non_picklable}) and is reachable from"
                    f" checkpoint root(s) {roots} without a"
                    " __getstate__/__setstate__/rebuild hook",
                    key=f"{class_state.name}.{name}",
                )


@register_rule
class StaleCacheRule(Rule):
    """KL204: in-place-mutated derived caches need a rebuild hook."""

    ID = "KL204"
    TITLE = "state: derived cache mutated in place without a rebuild hook"

    def check(self, project: Project) -> Iterable[Finding]:
        state = shared_stategraph(project)
        for class_state in state.reachable_classes():
            for name in sorted(class_state.fields):
                field = class_state.fields[name]
                if field.kind != DERIVED or not field.mutated_lines:
                    continue
                if class_state.hook_covers(name):
                    continue
                yield self.finding(
                    Severity.WARNING,
                    class_state.path,
                    field.line or field.mutated_lines[0],
                    f"derived cache {class_state.name}.{name} is mutated in"
                    f" place (line {field.mutated_lines[0]}) but no"
                    " rebuild_derived_state/invalidate hook references it —"
                    " a snapshot-restore would resurrect it stale",
                    key=f"{class_state.name}.{name}",
                )


@register_rule
class CrossShardAliasRule(Rule):
    """KL205: no mutable object shared between two shard roots."""

    ID = "KL205"
    TITLE = "state: mutable object aliased across shard roots"

    #: Keyword names that are deliberately process-wide (observability).
    SHARED_OK_NAMES = frozenset({"telemetry", "clock"})

    def check(self, project: Project) -> Iterable[Finding]:
        state = shared_stategraph(project)
        yield from self._aliased_constructor_args(state)
        yield from self._mutable_default_params(state)

    def _aliased_constructor_args(
        self, state: StateGraph
    ) -> Iterable[Finding]:
        # Group root-constructor calls by enclosing function; a bare name
        # passed to >= 2 of them, bound to a statically-mutable value in
        # that function, is a shared mutable alias.
        by_scope: Dict[
            Tuple[str, Optional[str]], List
        ] = {}
        for call in state.root_calls:
            by_scope.setdefault((call.module, call.function), []).append(call)
        for scope in sorted(by_scope, key=lambda s: (s[0], s[1] or "")):
            calls = by_scope[scope]
            if len(calls) < 2:
                continue
            uses: Dict[str, List] = {}
            for call in calls:
                for keyword, name in call.name_args:
                    if keyword in self.SHARED_OK_NAMES:
                        continue
                    if name in self.SHARED_OK_NAMES:
                        continue
                    uses.setdefault(name, []).append(call)
            module, function = scope
            mutable_locals = self._mutable_locals(state, module, function)
            for name in sorted(uses):
                sites = uses[name]
                if len(sites) < 2:
                    continue
                if name not in mutable_locals:
                    continue
                first = sites[0]
                lines = ", ".join(str(c.line) for c in sites)
                yield self.finding(
                    Severity.ERROR,
                    first.path,
                    first.line,
                    f"mutable {name!r} is passed into {len(sites)} shard-root"
                    f" constructors (lines {lines}) — the shards alias one"
                    " object and cannot be checkpointed or migrated"
                    " independently",
                    key=name,
                )

    def _mutable_locals(
        self, state: StateGraph, module: str, function: Optional[str]
    ) -> Set[str]:
        """Names bound to statically-mutable values in the scope."""
        names: Set[str] = set()
        if function is not None:
            info = state.graph.functions.get((module, function))
            body = info.node if info is not None else None
        else:
            source = state.project.by_module.get(module)
            body = source.tree if source is not None else None
        if body is None:
            return names
        for node in ast.walk(body):
            if isinstance(node, ast.Assign):
                if not self._is_shared_mutable(state, node.value):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @staticmethod
    def _is_shared_mutable(state: StateGraph, value: ast.expr) -> bool:
        if _is_mutable_literal(value):
            return True
        if isinstance(value, ast.Call):
            chain = _chain_of(value.func)
            if chain is None:
                return False
            callee = chain[-1]
            if callee in MUTABLE_FACTORY_NAMES:
                return True
            return callee in state.by_name
        return False

    def _mutable_default_params(self, state: StateGraph) -> Iterable[Finding]:
        for key in sorted(state.classes):
            class_state = state.classes[key]
            if not class_state.reachable:
                continue
            info_list = state.graph.classes.get(class_state.name, [])
            for info in info_list:
                if info.module != class_state.module:
                    continue
                for method_name in sorted(info.methods):
                    method = info.methods[method_name]
                    args = method.node.args
                    defaults = list(args.defaults) + list(args.kw_defaults)
                    for default in defaults:
                        if default is None:
                            continue
                        if isinstance(
                            default, (ast.List, ast.Dict, ast.Set)
                        ) or (
                            isinstance(default, ast.Call)
                            and (_chain_of(default.func) or ["?"])[-1]
                            in MUTABLE_FACTORY_NAMES
                        ):
                            yield self.finding(
                                Severity.ERROR,
                                class_state.path,
                                default.lineno,
                                f"mutable default on"
                                f" {class_state.name}.{method_name} — one"
                                " object is shared by every call and every"
                                " instance across shards",
                                key=f"{class_state.name}.{method_name}",
                            )
