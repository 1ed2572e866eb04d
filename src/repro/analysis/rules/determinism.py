"""KL001, KL105, KL203 — determinism: one invariant per rule.

The discrete-event simulation, the Kalis core, the protocol stacks and
the attack injectors must be reproducible bit-for-bit from a seed
(ROADMAP: reproducible experiments are the credibility baseline for any
IDS evaluation).  All three rules ask the shared
:class:`~repro.analysis.nondeterminism.NondeterminismResolver` what a
reference denotes, and each owns a disjoint slice of the answer, so one
defect yields one finding:

- **KL203** — raw randomness (``random.*``, ``numpy.random.*``) anywhere
  outside :mod:`repro.util.rng`: every stream must flow from the node
  seed through a :class:`~repro.util.rng.SeededRng`.  Constructing a
  ``SeededRng``/``HashedStream`` from a numeric literal (instead of a
  derived seed) is a WARNING; the injectable-default idiom
  ``rng if rng is not None else SeededRng(0, "label")`` is exempt — the
  literal branch is the documented test-only fallback.
- **KL001** — wall-clock, entropy and identity use in ``sim``, ``core``,
  ``proto`` and ``attacks``: simulated time comes from
  :class:`repro.util.clock.Clock`.
- **KL105** — a wall-clock, entropy or identity value reaching a
  decision sink in ``eventbus``, ``experiments`` and ``firewall``, found
  by an intraprocedural taint walk.  The sinks are a branch condition
  (``if``/``while`` tests), an event-bus publish (``*.bus.publish(…)``
  arguments), an alert payload (``raise_alert(…)`` arguments) and a
  Knowledge Base write (``kb.put``/``put_static`` arguments).  Taint
  propagates through assignments within one function body, to a fixed
  point, so chains like ``a = time.time(); b = a * 2`` are caught.

:mod:`repro.obs` may timestamp freely: telemetry is excluded from the
replay-equality oracle, so no rule scans it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.analysis.astutil import attribute_chain
from repro.analysis.engine import FileRule, register_rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.nondeterminism import RANDOMNESS, NondeterminismResolver
from repro.analysis.project import Project, SourceFile
from repro.analysis.stategraph import EXCLUDED_PACKAGES

#: Packages in which wall-clock, entropy and identity use is banned.
KL001_PACKAGES = ("repro.sim", "repro.core", "repro.proto", "repro.attacks")
#: Packages in which those values must not reach a decision sink.
KL105_PACKAGES = ("repro.eventbus", "repro.experiments", "repro.firewall")
#: The one module allowed to touch raw randomness primitives.
RNG_HOME_MODULE = "repro.util.rng"
#: Seeded constructors whose seed must be derived, not a literal.
SEEDED_CONSTRUCTORS = frozenset({"SeededRng", "HashedStream"})

_FIX_HINT = (
    "route time through repro.util.clock.Clock and seeded values through"
    " repro.util.rng.SeededRng"
)
_KB_RECEIVERS = frozenset({"kb", "_kb"})
_KB_WRITES = frozenset({"put", "put_static"})


def _in_any(source: SourceFile, packages: Iterable[str]) -> bool:
    return any(source.in_package(package) for package in packages)


@register_rule
class RngProvenanceRule(FileRule):
    """KL203: all randomness flows from the node seed via util.rng."""

    ID = "KL203"
    TITLE = "raw randomness or a literal RNG seed outside util.rng"

    def check_file(
        self, project: Project, source: SourceFile
    ) -> Iterable[Finding]:
        if source.module == RNG_HOME_MODULE or _in_any(
            source, EXCLUDED_PACKAGES
        ):
            return
        # Cheap, sound prefilters: a randomness source resolves through an
        # import naming ``random``, and a literal seed needs the
        # constructor's name in the text.
        if "random" in source.text:
            yield from self._raw_randomness(project, source)
        if any(name in source.text for name in SEEDED_CONSTRUCTORS):
            yield from self._literal_seeds(source)

    def _raw_randomness(
        self, project: Project, source: SourceFile
    ) -> Iterator[Finding]:
        for use in NondeterminismResolver(project, source).uses():
            if use.kind != RANDOMNESS:
                continue
            what = "import of" if use.imported else "use of"
            yield self.finding(
                Severity.ERROR,
                source.relpath,
                use.line,
                f"{what} raw randomness {use.name} bypasses util.rng seed derivation —"
                " draws are irreproducible and unlabelled (paper's"
                " deterministic-replay seam)",
                key=f"import.{use.name}" if use.imported else use.name,
                column=use.column,
            )

    def _literal_seeds(self, source: SourceFile) -> Iterator[Finding]:
        exempt_lines = _injectable_default_lines(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if (
                chain
                and chain[-1] in SEEDED_CONSTRUCTORS
                and node.args
                and _is_numeric_literal(node.args[0])
                and node.lineno not in exempt_lines
            ):
                yield self.finding(
                    Severity.WARNING,
                    source.relpath,
                    node.lineno,
                    f"{chain[-1]} constructed from a numeric literal —"
                    " the stream is not derived from the node seed, so"
                    " reseeding the experiment will not reseed it",
                    key=chain[-1],
                )


@register_rule
class DeterminismRule(FileRule):
    """KL001: no wall-clock, entropy or identity in the substrate."""

    ID = "KL001"
    TITLE = "no wall-clock, entropy or identity in sim/core/proto/attacks"

    def check_file(
        self, project: Project, source: SourceFile
    ) -> Iterable[Finding]:
        if not _in_any(source, KL001_PACKAGES):
            return
        for use in NondeterminismResolver(project, source).uses():
            if use.kind == RANDOMNESS:
                continue  # KL203's
            what = "import of" if use.imported else "use of"
            yield self.finding(
                Severity.ERROR,
                source.relpath,
                use.line,
                f"{what} {use.kind} source {use.name} in a deterministic"
                f" package ({source.module}); {_FIX_HINT}",
                key=f"import.{use.name}" if use.imported else use.name,
                column=use.column,
            )


class _FunctionTaint:
    """Taint state for one function body."""

    def __init__(
        self, resolver: NondeterminismResolver, body: List[ast.stmt]
    ) -> None:
        self.resolver = resolver
        self.tainted: Dict[str, str] = {}  # name -> source description
        self._propagate(body)

    def _propagate(self, body: List[ast.stmt]) -> None:
        statements = [
            node
            for stmt in body
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        ]
        changed = True
        while changed:
            changed = False
            for node in statements:
                value = node.value
                if value is None:
                    continue
                what = self.taint_of(value)
                if what is None:
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    for name_node in ast.walk(target):
                        if (
                            isinstance(name_node, ast.Name)
                            and name_node.id not in self.tainted
                        ):
                            self.tainted[name_node.id] = what
                            changed = True

    def taint_of(self, node: ast.AST) -> Optional[str]:
        """Why the expression is tainted, or None if it is clean."""
        names: Set[str] = set()
        for child in ast.walk(node):
            hit = self.resolver.resolve(child)
            if hit is not None and hit[1] != RANDOMNESS:  # KL203's
                return hit[0]
            if isinstance(child, ast.Name):
                names.add(child.id)
        for name in sorted(names):
            if name in self.tainted:
                return self.tainted[name]
        return None


@register_rule
class DeterminismTaintRule(FileRule):
    """KL105: nondeterministic values must not reach decision sinks."""

    ID = "KL105"
    TITLE = "determinism taint: sources must not flow into sinks"

    def check_file(
        self, project: Project, source: SourceFile
    ) -> Iterable[Finding]:
        if not _in_any(source, KL105_PACKAGES):
            return
        resolver = NondeterminismResolver(project, source)
        for function in ast.walk(source.tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                taint = _FunctionTaint(resolver, function.body)
                yield from self._check_sinks(source, function, taint)

    def _check_sinks(
        self, source: SourceFile, function: ast.AST, taint: _FunctionTaint
    ) -> Iterator[Finding]:
        for node in ast.walk(function):
            if isinstance(node, (ast.If, ast.While)):
                what = taint.taint_of(node.test)
                if what is not None:
                    yield self._flow(
                        source, node, function, what, "a branch condition"
                    )
            elif isinstance(node, ast.Call):
                sink = self._sink_kind(node)
                if sink is None:
                    continue
                for argument in list(node.args) + [
                    kw.value for kw in node.keywords
                ]:
                    what = taint.taint_of(argument)
                    if what is not None:
                        yield self._flow(source, node, function, what, sink)
                        break

    @staticmethod
    def _sink_kind(call: ast.Call) -> Optional[str]:
        chain = attribute_chain(call.func)
        if not chain:
            return None
        method = chain[-1]
        if method == "raise_alert":
            return "an alert payload"
        if len(chain) < 2:
            return None
        receiver = chain[-2]
        if method == "publish" and (
            receiver == "bus" or receiver.endswith("bus")
        ):
            return "a bus publish"
        if method in _KB_WRITES and receiver in _KB_RECEIVERS:
            return "a knowledge write"
        return None

    def _flow(
        self,
        source: SourceFile,
        node: ast.AST,
        function: ast.AST,
        what: str,
        sink: str,
    ) -> Finding:
        name = getattr(function, "name", "<function>")
        line = getattr(node, "lineno", 0)
        return self.finding(
            Severity.ERROR,
            source.relpath,
            line,
            f"nondeterministic value from {what} flows into {sink} in"
            f" {name}() — replay equality breaks; route through the seeded"
            " wrappers in repro.util, or record via repro.obs",
            key=f"{name}:{what}:{sink}",
        )


def _is_numeric_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(
            node.value, bool
        )
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_numeric_literal(node.operand)
    return False


def _injectable_default_lines(tree: ast.AST) -> Set[int]:
    """Lines of RNG calls inside the injectable-default IfExp idiom."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.IfExp):
            continue
        branches = [node.body, node.orelse]
        names = [b for b in branches if isinstance(b, ast.Name)]
        calls = [b for b in branches if isinstance(b, ast.Call)]
        if len(names) == 1 and len(calls) == 1:
            for call in ast.walk(calls[0]):
                if isinstance(call, ast.Call):
                    lines.add(call.lineno)
    return lines
