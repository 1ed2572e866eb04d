"""Full-rescan activation: the oracle for incremental activation.

Production :class:`~repro.core.manager.ModuleManager` re-checks only the
modules whose requirements read the knowgget that changed (plus modules
that override ``required()``).  :class:`ReferenceModuleManager` does
none of that: on every knowledge change it re-checks every registered
module in registration order, and repeats the whole pass until a pass
writes no knowledge (an activation hook may write knowggets).  Tests
drive both with the same modules and writes and require identical
activation tables, transition counts and supervisor failure counts.
"""

from __future__ import annotations

from repro.core.manager import ModuleManager


class ReferenceModuleManager(ModuleManager):
    """Re-checks every module on every knowledge change, to a fixed point."""

    def __init__(self, *args, **kwargs) -> None:
        self._rescanning = False
        self._dirty = False
        super().__init__(*args, **kwargs)

    def _on_knowledge_change(self, event) -> None:
        self._dirty = True
        if self._rescanning:
            return  # the running rescan passes again
        self._rescanning = True
        try:
            while self._dirty:
                self._dirty = False
                for module in self.modules():
                    self._apply_state(module)
        finally:
            self._rescanning = False
