"""Whole-program flow rules (KL101–KL105), the knowledge-flow graph,
its exports, and the ``--changed`` CLI mode."""

import json
import subprocess
import textwrap
from pathlib import Path

from repro.analysis.astutil import pattern_covers
from repro.analysis.cli import main
from repro.analysis.engine import run_rules
from repro.analysis.knowflow import derive_knowflow, export_dot, export_json
from repro.analysis.project import Project

ROOT = Path(__file__).resolve().parent.parent


def make_project(tmp_path, files):
    """Write a ``src/`` tree from {relpath: source} and parse it."""
    for relpath, content in files.items():
        path = tmp_path / "src" / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    for directory in sorted((tmp_path / "src").rglob("*")):
        if directory.is_dir():
            init = directory / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
    return Project.load([tmp_path / "src" / "repro"], root=tmp_path)


def run(tmp_path, files, rule):
    return run_rules(make_project(tmp_path, files), select=[rule])


class TestKL101KnowggetLiveness:
    VIOLATION = {
        "repro/core/modules/detection/ghost.py": """
        from repro.core.modules.base import Requirement

        class GhostModule:
            REQUIREMENTS = (Requirement(label="NeverWritten"),)
        """,
    }
    CLEAN = {
        "repro/core/modules/detection/ghost.py": """
        from repro.core.modules.base import Requirement

        class GhostModule:
            REQUIREMENTS = (Requirement(label="Written"),)
        """,
        "repro/core/modules/sensing/feeder.py": """
        class Feeder:
            def go(self):
                self.ctx.kb.put("Written", 1)
        """,
    }

    def test_requirement_without_writer_flagged(self, tmp_path):
        findings = run(tmp_path, self.VIOLATION, "KL101")
        assert [f.key for f in findings] == ["NeverWritten"]
        assert "GhostModule" in findings[0].message

    def test_clean_twin_passes(self, tmp_path):
        assert run(tmp_path, self.CLEAN, "KL101") == []

    def test_wrapper_write_satisfies_requirement(self, tmp_path):
        """A label only written through a forwarding wrapper counts."""
        files = dict(self.VIOLATION)
        files["repro/core/modules/sensing/feeder.py"] = """
        class Feeder:
            def _emit(self, label, value):
                self.ctx.kb.put(label, value)

            def go(self):
                self._emit("NeverWritten", 1)
        """
        assert run(tmp_path, files, "KL101") == []

    def test_defaultless_read_without_writer_flagged(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/core/reader.py": """
                class Reader:
                    def go(self):
                        return self.kb.get("Missing", str)
                """,
            },
            "KL101",
        )
        assert [f.key for f in findings] == ["Missing"]

    def test_defaulted_read_is_tolerant(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/core/reader.py": """
                class Reader:
                    def go(self):
                        return self.kb.get("Missing", str, default=None)
                """,
            },
            "KL101",
        )
        assert findings == []

    def test_absent_tolerant_requirement_is_tolerant(self, tmp_path):
        """``when_absent=True`` reads like a ``default=`` read."""
        tolerant = {
            "repro/core/modules/detection/ghost.py": """
            from repro.core.modules.base import Requirement

            class GhostModule:
                REQUIREMENTS = (
                    Requirement(label="NeverWritten", when_absent=True),
                    Requirement("AlsoNever", True, bool, True, False),
                )
            """,
        }
        findings = run(tmp_path, tolerant, "KL101")
        assert [f.key for f in findings] == ["AlsoNever"]

    def test_dynamic_put_silences_rule(self, tmp_path):
        """An unanalyzable ``put`` could write anything — stay quiet."""
        files = dict(self.VIOLATION)
        files["repro/core/loader.py"] = """
        class Loader:
            def go(self, labels):
                for label in labels:
                    self.kb.put(label, 1)
        """
        assert run(tmp_path, files, "KL101") == []


class TestKL102DeadKnowledge:
    VIOLATION = {
        "repro/core/modules/sensing/feeder.py": """
        class Feeder:
            def go(self):
                self.ctx.kb.put("Orphan", 1)
        """,
    }

    def test_write_without_reader_flagged(self, tmp_path):
        findings = run(tmp_path, self.VIOLATION, "KL102")
        assert [f.key for f in findings] == ["Orphan"]

    def test_clean_twin_passes(self, tmp_path):
        files = dict(self.VIOLATION)
        files["repro/core/reader.py"] = """
        class Reader:
            def go(self):
                return self.kb.get("Orphan", str, default=None)
        """
        assert run(tmp_path, files, "KL102") == []

    def test_requirement_counts_as_reader(self, tmp_path):
        files = dict(self.VIOLATION)
        files["repro/core/modules/detection/user.py"] = """
        from repro.core.modules.base import Requirement

        class UserModule:
            REQUIREMENTS = (Requirement(label="Orphan"),)
        """
        assert run(tmp_path, files, "KL102") == []

    def test_string_reference_elsewhere_softens(self, tmp_path):
        files = dict(self.VIOLATION)
        files["repro/core/compilelike.py"] = (
            'FREEZABLE = ("Orphan",)\n'
        )
        assert run(tmp_path, files, "KL102") == []

    def test_prefix_write_covered_by_exact_read(self, tmp_path):
        files = {
            "repro/core/modules/sensing/feeder.py": """
            class Feeder:
                def go(self, kind):
                    self.ctx.kb.put(f"Rate.{kind}", 1)
            """,
            "repro/core/reader.py": """
            class Reader:
                def go(self):
                    return self.kb.get("Rate.udp", str, default=None)
            """,
        }
        assert run(tmp_path, files, "KL102") == []


class TestKL103OrphanTopics:
    def test_subscribe_without_publisher_flagged(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/core/listener.py": """
                class Listener:
                    def go(self):
                        self.bus.subscribe("никто.не.шлёт", print)
                """,
            },
            "KL103",
        )
        assert len(findings) == 1
        assert findings[0].severity.value == "error"

    def test_publish_without_subscriber_flagged_as_warning(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/core/teller.py": """
                class Teller:
                    def go(self):
                        self.bus.publish("void.topic", 1)
                """,
            },
            "KL103",
        )
        assert [f.key for f in findings] == ["void.topic"]
        assert findings[0].severity.value == "warning"

    def test_clean_twin_passes(self, tmp_path):
        files = {
            "repro/core/teller.py": """
            class Teller:
                def go(self):
                    self.bus.publish("pair.topic", 1)
            """,
            "repro/core/listener.py": """
            class Listener:
                def go(self):
                    self.bus.subscribe("pair.topic", print)
            """,
        }
        assert run(tmp_path, files, "KL103") == []

    def test_wrapper_publish_counts(self, tmp_path):
        """A publish through a topic-forwarding wrapper still pairs
        with its subscription."""
        files = {
            "repro/core/super.py": """
            TOPIC = "module.event"

            class Supervisor:
                def _publish(self, topic, payload):
                    self.bus.publish(topic, payload)

                def go(self):
                    self._publish(TOPIC, None)
            """,
            "repro/core/listener.py": """
            from repro.core.super import TOPIC

            class Listener:
                def go(self):
                    self.bus.subscribe(TOPIC, print)
            """,
        }
        assert run(tmp_path, files, "KL103") == []

    def test_knowledge_prefix_allowlisted(self, tmp_path):
        files = {
            "repro/core/teller.py": """
            class Teller:
                def go(self, key):
                    self.bus.publish("knowledge." + key, 1)
            """,
        }
        assert run(tmp_path, files, "KL103") == []


class TestKL104ContractDrift:
    VIOLATION = {
        "repro/core/modules/detection/drifty.py": """
        from repro.core.modules.base import Requirement

        class DriftyModule:
            REQUIREMENTS = (Requirement(label="Declared"),)

            def handle(self):
                return self.ctx.kb.get("Undeclared", str)
        """,
        "repro/core/modules/sensing/feeder.py": """
        class Feeder:
            def go(self):
                self.ctx.kb.put("Declared", 1)
                self.ctx.kb.put("Undeclared", 1)
        """,
    }

    def test_undeclared_strict_read_flagged(self, tmp_path):
        findings = run(tmp_path, self.VIOLATION, "KL104")
        assert [f.key for f in findings] == ["DriftyModule:Undeclared"]

    def test_clean_twin_declares_requirement(self, tmp_path):
        files = dict(self.VIOLATION)
        files["repro/core/modules/detection/drifty.py"] = """
        from repro.core.modules.base import Requirement

        class DriftyModule:
            REQUIREMENTS = (
                Requirement(label="Declared"),
                Requirement(label="Undeclared"),
            )

            def handle(self):
                return self.ctx.kb.get("Undeclared", str)
        """
        assert run(tmp_path, files, "KL104") == []

    def test_defaulted_read_is_sanctioned(self, tmp_path):
        files = dict(self.VIOLATION)
        files["repro/core/modules/detection/drifty.py"] = """
        from repro.core.modules.base import Requirement

        class DriftyModule:
            REQUIREMENTS = (Requirement(label="Declared"),)

            def handle(self):
                return self.ctx.kb.get("Undeclared", str, default=None)
        """
        assert run(tmp_path, files, "KL104") == []

    def test_self_written_label_is_module_state(self, tmp_path):
        files = dict(self.VIOLATION)
        files["repro/core/modules/detection/drifty.py"] = """
        from repro.core.modules.base import Requirement

        class DriftyModule:
            REQUIREMENTS = (Requirement(label="Declared"),)

            def remember(self):
                self.ctx.kb.put("Undeclared", 1)

            def handle(self):
                return self.ctx.kb.get("Undeclared", str)
        """
        assert run(tmp_path, files, "KL104") == []

    REQUIRED_OVERRIDE = """
        from repro.core.modules.base import Requirement

        class GatedModule:
            REQUIREMENTS = (Requirement(label="Declared"),)

            def required(self, kb):
                return not kb.get("{label}", bool, default=False)
        """

    def test_required_override_reading_undeclared_label_is_error(
        self, tmp_path
    ):
        """Activation reads must be declared, even tolerant ones."""
        files = dict(self.VIOLATION)
        files["repro/core/modules/detection/drifty.py"] = (
            self.REQUIRED_OVERRIDE.replace("{label}", "Undeclared")
        )
        findings = run(tmp_path, files, "KL104")
        assert [(f.key, f.severity.value) for f in findings] == [
            ("GatedModule:Undeclared", "error")
        ]
        assert "required()" in findings[0].message

    def test_required_override_reading_declared_label_passes(self, tmp_path):
        files = dict(self.VIOLATION)
        files["repro/core/modules/detection/drifty.py"] = (
            self.REQUIRED_OVERRIDE.replace("{label}", "Declared")
        )
        assert run(tmp_path, files, "KL104") == []


class TestKL105DeterminismTaint:
    def test_taint_into_branch_condition(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/experiments/decider.py": """
                import time

                def decide(threshold):
                    now = time.time()
                    jitter = now * 2
                    if jitter > threshold:
                        return True
                    return False
                """,
            },
            "KL105",
        )
        assert len(findings) == 1
        assert "time.time" in findings[0].message
        assert "branch condition" in findings[0].message

    def test_taint_into_bus_publish(self, tmp_path):
        # The random-nonce twin of this fixture is KL203's
        # (test_raw_random_reaching_a_sink_is_kl203_only).
        findings = run(
            tmp_path,
            {
                "repro/eventbus/teller.py": """
                import uuid

                class Teller:
                    def go(self):
                        nonce = uuid.uuid4()
                        self.bus.publish("alert", nonce)
                """,
            },
            "KL105",
        )
        assert len(findings) == 1
        assert "uuid.uuid4" in findings[0].message
        assert "bus publish" in findings[0].message

    def test_taint_into_alert_payload_and_kb_write(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/firewall/alarmist.py": """
                import os

                class Alarmist:
                    def go(self):
                        token = os.urandom(8)
                        self.ctx.raise_alert("spoofing", token)
                        self.kb.put("Token", token)
                """,
            },
            "KL105",
        )
        assert {f.message.split(" flows into ")[1].split(" in ")[0] for f in findings} == {
            "an alert payload",
            "a knowledge write",
        }

    def test_id_into_condition_flagged(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/experiments/orderer.py": """
                def pick(a, b):
                    if id(a) < id(b):
                        return a
                    return b
                """,
            },
            "KL105",
        )
        assert [f.key for f in findings] == ["pick:id:a_branch_condition"]

    def test_aliased_clock_imports_flagged(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/experiments/pacer.py": """
                import time as t
                from time import perf_counter

                def pace(budget, bus):
                    if perf_counter() > budget:
                        return True
                    started = t.time()
                    bus.publish("pace", started)
                    return False
                """,
            },
            "KL105",
        )
        assert [f.key for f in findings] == [
            "pace:time.perf_counter:a_branch_condition",
            "pace:time.time:a_bus_publish",
        ]

    def test_clean_twin_passes(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/experiments/decider.py": """
                def decide(clock, threshold):
                    now = clock.now()
                    if now > threshold:
                        return True
                    return False
                """,
            },
            "KL105",
        )
        assert findings == []

    def test_obs_package_is_sanctioned_sink(self, tmp_path):
        findings = run(
            tmp_path,
            {
                "repro/obs/recorder.py": """
                import time

                def stamp(bus):
                    now = time.time()
                    bus.publish("obs.tick", now)
                """,
            },
            "KL105",
        )
        assert findings == []

    def test_unguarded_package_not_scanned(self, tmp_path):
        # repro.core is KL001's; KL105 does not rescan it.
        for package in ("tools", "core"):
            findings = run(
                tmp_path / package,
                {
                    f"repro/{package}/bench.py": """
                    import time

                    def loop(bus):
                        t = time.time()
                        if t > 0:
                            bus.publish("x", t)
                    """,
                },
                "KL105",
            )
            assert findings == []


class TestKnowFlowGraph:
    FILES = {
        "repro/core/modules/sensing/feeder.py": """
        class Feeder:
            def _emit(self, label, value):
                self.ctx.kb.put(label, value)

            def go(self, kind):
                self._emit(f"Rate.{kind}", 1)
                name = f"Shared{kind}"
                self.ctx.kb.put(name, 2)
        """,
        "repro/core/reader.py": """
        class Reader:
            def go(self):
                return self.kb.get("Rate.udp", str, default=None)
        """,
    }

    def test_wrapper_derived_write_site(self, tmp_path):
        flow = derive_knowflow(make_project(tmp_path, self.FILES))
        derived = [s for s in flow.writes if s.derived_from]
        assert [s.render() for s in derived] == ["Rate.*"]
        assert "Feeder._emit" in derived[0].derived_from

    def test_local_constant_propagation(self, tmp_path):
        """``name = f"Shared{kind}"; kb.put(name, …)`` is a prefix write."""
        flow = derive_knowflow(make_project(tmp_path, self.FILES))
        assert any(s.render() == "Shared*" for s in flow.writes)

    def test_json_export_is_deterministic(self, tmp_path):
        project = make_project(tmp_path, self.FILES)
        first = export_json(derive_knowflow(project))
        second = export_json(
            derive_knowflow(
                Project.load([tmp_path / "src" / "repro"], root=tmp_path)
            )
        )
        assert first == second
        payload = json.loads(first)
        assert set(payload) == {"knowledge", "topics"}
        patterns = [e["pattern"] for e in payload["knowledge"]["edges"]]
        assert patterns == sorted(patterns)

    def test_dot_export_shape(self, tmp_path):
        rendered = export_dot(
            derive_knowflow(make_project(tmp_path, self.FILES))
        )
        assert rendered.startswith("digraph kalis_flow {")
        assert '"label:Rate.*"' in rendered
        assert rendered.endswith("}\n")


class TestGraphCli:
    def test_graph_json_on_real_tree_deterministic(self, capsys):
        argv = ["graph", "--root", str(ROOT), str(ROOT / "src" / "repro")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        topics = {e["pattern"] for e in payload["topics"]["edges"]}
        assert "alert" in topics
        assert "module.restore" in topics  # wrapper-derived publish

    def test_graph_dot_output_file(self, tmp_path):
        out = tmp_path / "flow.dot"
        assert (
            main(
                [
                    "graph",
                    "--root",
                    str(ROOT),
                    "--format",
                    "dot",
                    "--output",
                    str(out),
                    str(ROOT / "src" / "repro"),
                ]
            )
            == 0
        )
        assert out.read_text(encoding="utf-8").startswith("digraph kalis_flow")


class TestRuntimeCrossCheck:
    def test_chaos_bus_topics_covered_by_static_graph(self):
        """ISSUE acceptance: every topic observed on the bus in the E14
        chaos scenario appears in the static topic graph."""
        from repro.experiments import chaos_scenario

        result = chaos_scenario.run(seed=23, symptom_instances=6)
        observed = result.extra["bus_topics"]
        assert observed, "chaos run produced no bus traffic"

        project = Project.load([ROOT / "src" / "repro"], root=ROOT)
        flow = derive_knowflow(project)
        static_patterns = [
            s.pattern for s in flow.publishes if s.pattern[0] != "dynamic"
        ]
        uncovered = [
            topic
            for topic in observed
            if not any(
                pattern_covers(pattern, topic) for pattern in static_patterns
            )
        ]
        assert uncovered == [], (
            f"topics on the live bus missing from the static graph:"
            f" {uncovered}"
        )


class TestChangedMode:
    def _git(self, cwd, *args):
        subprocess.run(
            ["git", *args],
            cwd=cwd,
            check=True,
            capture_output=True,
            env={
                "GIT_AUTHOR_NAME": "t",
                "GIT_AUTHOR_EMAIL": "t@example.invalid",
                "GIT_COMMITTER_NAME": "t",
                "GIT_COMMITTER_EMAIL": "t@example.invalid",
                "HOME": str(cwd),
                "PATH": "/usr/bin:/bin:/usr/local/bin",
            },
        )

    def _setup_repo(self, tmp_path):
        files = {
            "repro/sim/clean.py": """
            def ok():
                return 1
            """,
            "repro/sim/dirty.py": """
            def also_ok():
                return 2
            """,
        }
        make_project(tmp_path, files)
        (tmp_path / "pyproject.toml").write_text("", encoding="utf-8")
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", "-A")
        self._git(tmp_path, "commit", "-qm", "seed")
        return tmp_path

    def test_only_changed_file_findings_reported(self, tmp_path, capsys):
        root = self._setup_repo(tmp_path)
        # Plant violations in BOTH files, but only touch one.
        clean = root / "src" / "repro" / "sim" / "clean.py"
        dirty = root / "src" / "repro" / "sim" / "dirty.py"
        planted = "\nimport time\n\ndef stamp():\n    return time.time()\n"
        dirty.write_text(
            dirty.read_text(encoding="utf-8") + planted, encoding="utf-8"
        )
        # The un-touched violation must exist before HEAD to stay out of
        # the diff — rewrite it and commit, then re-dirty the other.
        clean.write_text(
            clean.read_text(encoding="utf-8") + planted, encoding="utf-8"
        )
        self._git(root, "add", str(clean))
        self._git(root, "commit", "-qm", "sneak in clean.py violation")

        code = main(
            [
                "--root",
                str(root),
                "--no-baseline",
                "--changed",
                "HEAD",
                str(root / "src" / "repro"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "dirty.py" in out
        assert "clean.py" not in out

    def test_importers_of_changed_file_in_scope(self, tmp_path, capsys):
        root = self._setup_repo(tmp_path)
        user = root / "src" / "repro" / "sim" / "user.py"
        user.write_text(
            textwrap.dedent(
                """
                from repro.sim.consts import LABEL

                class Reader:
                    def go(self):
                        return self.kb.get(LABEL, str)
                """
            ),
            encoding="utf-8",
        )
        consts = root / "src" / "repro" / "sim" / "consts.py"
        consts.write_text('LABEL = "NeverWritten"\n', encoding="utf-8")
        self._git(root, "add", str(user))
        self._git(root, "commit", "-qm", "add reader (importer)")
        # Only consts.py is changed vs. HEAD, but the KL101 finding
        # lands in user.py — reachable through the import graph.
        code = main(
            [
                "--root",
                str(root),
                "--no-baseline",
                "--changed",
                "HEAD",
                str(root / "src" / "repro"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "user.py" in out
        assert "KL101" in out

    def test_no_changes_is_clean(self, tmp_path, capsys):
        root = self._setup_repo(tmp_path)
        code = main(
            [
                "--root",
                str(root),
                "--no-baseline",
                "--changed",
                "HEAD",
                str(root / "src" / "repro"),
            ]
        )
        capsys.readouterr()
        assert code == 0
