"""KL101–KL104 — whole-program knowledge-flow and topic liveness.

These rules are kalis-lint's only knowledge-label and bus-topic checks.
They run on the :mod:`repro.analysis.knowflow` graph, so sites hidden
behind wrappers (``ModuleSupervisor._publish``,
``TrafficStatsModule._publish_rate``) and single-assignment locals are
resolved before liveness is judged.

- **KL101** — knowgget read-before-any-write: a ``Requirement`` label or
  a defaultless ``kb.get``/``get_knowgget`` read that no code ever puts.
  A ``Requirement(…, when_absent=True)`` tolerates absence like a
  ``default=`` read does.
  The module can never activate (paper §IV-B4): "no alerts" and "module
  never activated" look identical at runtime, so this must be static.
  Config-driven ``put_static`` injection is an operator override, not a
  liveness guarantee, so a dynamic ``put_static`` does *not* silence the
  rule — only a fully-dynamic ``put`` does.
- **KL102** — dead knowledge: a write pattern no read or Requirement
  ever overlaps, and whose label is not referenced as a string constant
  elsewhere (a knowgget nobody will ever look at).
- **KL103** — orphan bus topic: a publication with no overlapping
  subscription (WARNING — may be an intentional operational surface) or
  a subscription with no overlapping publication (ERROR — the handler
  can never fire).  Wrapper-derived publish sites count, so
  ``self._publish(TOPIC_MODULE_RESTORE, …)`` is not a blind spot.
- **KL104** — module contract drift: a detection module whose code
  strictly reads (``get``/``get_knowgget`` without ``default=``) a
  knowgget its ``REQUIREMENTS`` never declare and the module itself
  never writes.  Tolerant list-reads (``with_label``/``sublabels``) and
  defaulted reads are the sanctioned way to consume optional knowledge.
  The exception is ``required()``: activation may depend only on
  declared labels, so any read there — defaulted or not — of a label
  the ``REQUIREMENTS`` do not declare is an ERROR.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.analysis.astutil import patterns_overlap
from repro.analysis.callgraph import CallGraph
from repro.analysis.engine import Rule, register_rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.knowflow import FlowSite, KnowFlow, derive_knowflow
from repro.analysis.project import Project

#: Topic prefixes whose families are deliberately open-ended: knowledge
#: change notifications fan out per-knowgget key, and observers attach
#: at runtime (``subscribe_prefix``) — individual keys are not required
#: to have a static subscriber each.
DYNAMIC_TOPIC_ALLOWLIST = ("knowledge.",)

#: kb read methods that are strict: absence of the label at runtime is a
#: behavioural difference (``None``/miss), unlike list-reads which just
#: return empty.
_STRICT_READS = frozenset({"get", "get_knowgget"})


def _shared_flow(project: Project) -> KnowFlow:
    """Build (and memoize on the project) the whole-program flow."""
    cached = getattr(project, "_knowflow_cache", None)
    if cached is not None:
        return cached
    graph = getattr(project, "_callgraph_cache", None)
    if graph is None:
        graph = CallGraph.build(project)
        project._callgraph_cache = graph  # type: ignore[attr-defined]
    flow = derive_knowflow(project, graph)
    project._knowflow_cache = flow  # type: ignore[attr-defined]
    return flow


@register_rule
class KnowggetLivenessRule(Rule):
    """KL101: every required/strictly-read knowgget has a writer."""

    ID = "KL101"
    TITLE = "whole-program: required knowggets must have a writer"

    def check(self, project: Project) -> Iterable[Finding]:
        flow = _shared_flow(project)
        # A fully-dynamic ``put`` could write any label; stay quiet
        # rather than guess wrong.  (``put_static`` injection from
        # config deliberately does not count — see module docstring.)
        if any(
            site.pattern[0] == "dynamic" and site.via != "put_static"
            for site in flow.writes
        ):
            return
        reported: Set[str] = set()
        for site in flow.reads:
            kind, label = site.pattern
            if kind != "exact" or label is None:
                continue
            strict = not site.has_default and (
                site.via == "requirement" or site.via in _STRICT_READS
            )
            if not strict or flow.written(label):
                continue
            if label in reported:
                continue
            reported.add(label)
            what = (
                f"Requirement of {site.owner}"
                if site.via == "requirement"
                else f"strict {site.via} read"
            )
            yield self.finding(
                Severity.ERROR,
                site.path,
                site.line,
                f"knowgget label {label!r} is a {what} but no code in the"
                " tree ever writes it (wrappers included) — the consumer"
                " can never be satisfied",
                key=label,
            )


@register_rule
class DeadKnowledgeRule(Rule):
    """KL102: every written knowgget has a reader (or a reference)."""

    ID = "KL102"
    TITLE = "whole-program: written knowggets must be read somewhere"

    def check(self, project: Project) -> Iterable[Finding]:
        flow = _shared_flow(project)
        reported: Set[str] = set()
        for site in flow.writes:
            kind, value = site.pattern
            if kind == "dynamic" or value is None:
                continue
            if flow.read_overlaps(site.pattern):
                continue
            rendered = site.render()
            if rendered in reported:
                continue
            if kind == "exact" and flow.referenced_elsewhere(
                value, {s.path for s in flow.writes if s.render() == rendered}
            ):
                continue
            reported.add(rendered)
            origin = (
                f" (via {site.derived_from})" if site.derived_from else ""
            )
            yield self.finding(
                Severity.WARNING,
                site.path,
                site.line,
                f"knowgget {rendered!r} is written here{origin} but no"
                " Requirement or Knowledge Base read anywhere in the tree"
                " ever consumes it — dead knowledge",
                key=rendered,
            )


@register_rule
class OrphanTopicRule(Rule):
    """KL103: publish/subscribe topic sides must pair up."""

    ID = "KL103"
    TITLE = "whole-program: no orphan bus topics"

    def check(self, project: Project) -> Iterable[Finding]:
        flow = _shared_flow(project)
        has_dynamic_publish = flow.has_dynamic_publish()
        has_dynamic_subscribe = any(
            site.pattern[0] == "dynamic" for site in flow.subscribes
        )
        reported: Set[str] = set()
        for site in flow.publishes:
            kind, value = site.pattern
            if kind == "dynamic" or value is None:
                continue
            if _allowlisted(value):
                continue
            if has_dynamic_subscribe:
                continue
            if any(
                patterns_overlap(site.pattern, other.pattern)
                for other in flow.subscribes
            ):
                continue
            rendered = site.render()
            if rendered in reported:
                continue
            reported.add(rendered)
            origin = (
                f" (via {site.derived_from})" if site.derived_from else ""
            )
            yield self.finding(
                Severity.WARNING,
                site.path,
                site.line,
                f"topic {rendered!r} is published here{origin} but nothing"
                " in the tree subscribes to it",
                key=rendered,
            )
        for site in flow.subscribes:
            kind, value = site.pattern
            if kind == "dynamic" or value is None:
                continue
            if _allowlisted(value):
                continue
            if has_dynamic_publish:
                continue
            if any(
                patterns_overlap(site.pattern, other.pattern)
                for other in flow.publishes
            ):
                continue
            rendered = site.render()
            key = f"sub:{rendered}"
            if key in reported:
                continue
            reported.add(key)
            yield self.finding(
                Severity.ERROR,
                site.path,
                site.line,
                f"topic {rendered!r} is subscribed here but never published"
                " anywhere in the tree (wrappers included) — the handler"
                " can never fire",
                key=rendered,
            )


def _allowlisted(value: str) -> bool:
    return any(
        value == prefix or value.startswith(prefix)
        for prefix in DYNAMIC_TOPIC_ALLOWLIST
    )


@register_rule
class ContractDriftRule(Rule):
    """KL104: module reads must match its declared requirements."""

    ID = "KL104"
    TITLE = "whole-program: module reads match declared Requirements"

    def check(self, project: Project) -> Iterable[Finding]:
        flow = _shared_flow(project)
        # Only classes that declare Requirements have a contract to
        # drift from; others are free-form consumers.
        contracts = flow.requirement_labels
        if not contracts:
            return
        writes_by_owner: Dict[str, List[FlowSite]] = {}
        for site in flow.writes:
            if site.owner:
                writes_by_owner.setdefault(site.owner, []).append(site)
        for site in flow.reads:
            owner = site.owner
            if owner is None or owner not in contracts:
                continue
            kind, label = site.pattern
            required = contracts[owner]
            if site.function == f"{owner}.required":
                if kind == "exact" and label in required:
                    continue
                rendered = site.render()
                yield self.finding(
                    Severity.ERROR,
                    site.path,
                    site.line,
                    f"{owner}.required() reads knowgget {rendered!r} but its"
                    " REQUIREMENTS never declare it — activation then"
                    " depends on a label outside the module's declared"
                    " contract; declare the Requirement",
                    key=f"{owner}:{rendered}",
                )
                continue
            if site.via not in _STRICT_READS or site.has_default:
                continue
            if kind != "exact" or label is None:
                continue
            if label in required:
                continue
            if any(
                label.startswith(req + ".") or req.startswith(label + ".")
                for req in required
            ):
                continue
            if any(
                patterns_overlap(site.pattern, write.pattern)
                for write in writes_by_owner.get(owner, ())
            ):
                continue  # the module's own state, not an input contract
            yield self.finding(
                Severity.WARNING,
                site.path,
                site.line,
                f"{owner} strictly reads knowgget {label!r} but its"
                " REQUIREMENTS never declare it and the module never writes"
                " it — declare the Requirement, or read tolerantly"
                " (default= / with_label)",
                key=f"{owner}:{label}",
            )
