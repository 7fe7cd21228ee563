"""Tests for the determinism lint pass and the runtime sanitizer.

Covers ``repro.devtools.lint`` (rules TWL001–TWL011, pragma
suppression and staleness auditing, the JSON report schema, the
full-tree-clean invariant) and ``repro.devtools.sanitize`` (global-RNG
booby traps armed inside engine stepping and cell runs, disarmed
elsewhere).  The index pass and the cross-module state & effect rules
have their own dedicated suite in ``tests/test_project_index.py``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import textwrap

import numpy as np
import pytest

from repro.attacks.registry import make_attack
from repro.config import ScaledArrayConfig
from repro.devtools import sanitize
from repro.devtools.lint import (
    RULES,
    Violation,
    check_classifications,
    check_field_classification,
    default_lint_root,
    iter_python_files,
    lint_paths,
    lint_source,
    module_name_for,
    run_lint_report,
)
from repro.engine import BatchSnapshot, EngineObserver, SimulationEngine
from repro.errors import DeterminismViolation
from repro.exec import FailurePolicy, attack_cell, run_cell, run_cells
from repro.pcm.array import PCMArray
from repro.sim.drivers import AttackDriver
from repro.wearlevel.registry import make_scheme

SCALED = ScaledArrayConfig(n_pages=64, endurance_mean=768.0)


def _lint(source: str, module: str = "repro.sim.example") -> list:
    """Lint dedented ``source`` as if it were the named module."""
    return lint_source(textwrap.dedent(source), path="<fixture>", module=module)


def _rules(violations) -> set:
    return {v.rule for v in violations}


class TestRuleTWL001Randomness:
    def test_random_module_call_flagged(self):
        out = _lint("import random\nx = random.random()\n")
        assert _rules(out) == {"TWL001"}

    def test_from_import_flagged(self):
        out = _lint("from random import randint\nx = randint(0, 5)\n")
        assert _rules(out) == {"TWL001"}

    def test_numpy_global_state_flagged(self):
        out = _lint("import numpy as np\nx = np.random.rand(3)\n")
        assert _rules(out) == {"TWL001"}

    def test_unseeded_default_rng_flagged(self):
        out = _lint("import numpy as np\nrng = np.random.default_rng()\n")
        assert _rules(out) == {"TWL001"}

    def test_seeded_default_rng_allowed(self):
        assert _lint("import numpy as np\nrng = np.random.default_rng(42)\n") == []

    def test_explicit_generator_allowed(self):
        source = """
            import numpy as np
            rng = np.random.Generator(np.random.PCG64(1))
        """
        assert _lint(source) == []

    def test_os_entropy_flagged(self):
        out = _lint("import os\nblob = os.urandom(16)\n")
        assert _rules(out) == {"TWL001"}

    def test_repro_rng_is_exempt(self):
        source = "import random\nx = random.random()\n"
        assert lint_source(source, module="repro.rng.streams") == []

    def test_pragma_with_reason_suppresses(self):
        source = (
            "import random\n"
            "x = random.random()  # twl: allow(TWL001) reason=test fixture\n"
        )
        assert _lint(source) == []

    def test_pragma_without_reason_does_not_suppress(self):
        source = "import random\nx = random.random()  # twl: allow(TWL001)\n"
        assert _rules(_lint(source)) == {"TWL001"}


class TestRuleTWL002Clocks:
    def test_time_time_flagged(self):
        out = _lint("import time\nt = time.time()\n")
        assert _rules(out) == {"TWL002"}

    def test_perf_counter_flagged(self):
        out = _lint("from time import perf_counter\nt = perf_counter()\n")
        assert _rules(out) == {"TWL002"}

    def test_datetime_now_flagged(self):
        out = _lint("import datetime\nt = datetime.datetime.now()\n")
        assert _rules(out) == {"TWL002"}

    def test_sleep_allowed(self):
        assert _lint("import time\ntime.sleep(0.01)\n") == []

    def test_repro_exec_is_exempt(self):
        source = "import time\nt = time.perf_counter()\n"
        assert lint_source(source, module="repro.exec.executor") == []


class TestRuleTWL003Classification:
    def test_clean_on_real_specs(self):
        assert check_classifications() == []

    def test_unclassified_field_flagged(self):
        @dataclasses.dataclass
        class Spec:
            seed: int = 0
            mystery: int = 0

        out = check_field_classification(
            Spec, frozenset({"seed"}), frozenset(), path="<fixture>"
        )
        assert _rules(out) == {"TWL003"}
        assert any("mystery" in v.message for v in out)

    def test_double_classified_field_flagged(self):
        @dataclasses.dataclass
        class Spec:
            seed: int = 0

        out = check_field_classification(
            Spec, frozenset({"seed"}), frozenset({"seed"}), path="<fixture>"
        )
        assert _rules(out) == {"TWL003"}

    def test_phantom_classification_flagged(self):
        @dataclasses.dataclass
        class Spec:
            seed: int = 0

        out = check_field_classification(
            Spec, frozenset({"seed", "ghost"}), frozenset(), path="<fixture>"
        )
        assert _rules(out) == {"TWL003"}


class TestRuleTWL004Ordering:
    MODULE = "repro.exec.hashing"

    def test_set_iteration_flagged(self):
        source = "for item in {1, 2, 3}:\n    pass\n"
        out = lint_source(source, module=self.MODULE)
        assert _rules(out) == {"TWL004"}

    def test_dict_keys_iteration_flagged(self):
        source = "d = {}\nfor key in d.keys():\n    pass\n"
        out = lint_source(source, module=self.MODULE)
        assert _rules(out) == {"TWL004"}

    def test_sorted_iteration_allowed(self):
        source = "d = {}\nfor key in sorted(d.keys()):\n    pass\n"
        assert lint_source(source, module=self.MODULE) == []

    def test_json_dump_without_sort_keys_flagged(self):
        source = "import json\ntext = json.dumps({})\n"
        out = lint_source(source, module=self.MODULE)
        assert _rules(out) == {"TWL004"}

    def test_json_dump_with_sort_keys_allowed(self):
        source = "import json\ntext = json.dumps({}, sort_keys=True)\n"
        assert lint_source(source, module=self.MODULE) == []

    def test_rule_scoped_to_fingerprinted_modules(self):
        source = "d = {}\nfor key in d.keys():\n    pass\n"
        assert lint_source(source, module="repro.sim.runner") == []


class TestRuleTWL006ScalarHotLoop:
    MODULE = "repro.tables.example"

    def test_tolist_loop_flagged_in_hot_path(self):
        source = "def f(arr):\n    for x in arr.tolist():\n        pass\n"
        out = lint_source(source, module=self.MODULE)
        assert _rules(out) == {"TWL006"}

    def test_enumerate_tolist_flagged(self):
        source = (
            "def f(arr):\n"
            "    for i, x in enumerate(arr.tolist()):\n"
            "        pass\n"
        )
        out = lint_source(source, module=self.MODULE)
        assert _rules(out) == {"TWL006"}

    def test_comprehension_over_tolist_flagged(self):
        source = "def f(arr):\n    return [x + 1 for x in arr.tolist()]\n"
        out = lint_source(source, module=self.MODULE)
        assert _rules(out) == {"TWL006"}

    def test_vectorized_code_clean(self):
        source = "def f(arr):\n    return arr + 1\n"
        assert lint_source(source, module=self.MODULE) == []

    def test_reasoned_pragma_suppresses(self):
        source = (
            "def f(arr):\n"
            "    for x in arr.tolist():  "
            "# twl: allow(TWL006) reason=exact scalar tail\n"
            "        pass\n"
        )
        assert lint_source(source, module=self.MODULE) == []

    def test_pragma_without_reason_does_not_suppress(self):
        source = (
            "def f(arr):\n"
            "    for x in arr.tolist():  # twl: allow(TWL006)\n"
            "        pass\n"
        )
        out = lint_source(source, module=self.MODULE)
        assert _rules(out) == {"TWL006"}

    def test_rule_scoped_to_hot_path_modules(self):
        source = "def f(arr):\n    for x in arr.tolist():\n        pass\n"
        assert lint_source(source, module="repro.report.tables") == []

    def test_hot_path_tree_is_clean_or_pragmaed(self):
        import repro.core.twl as twl_module
        import repro.wearlevel.start_gap as sg_module

        for module in (twl_module, sg_module):
            with open(module.__file__, encoding="utf-8") as handle:
                assert lint_source(handle.read(), path=module.__file__) == []


class TestRuleTWL007Materialization:
    MODULE = "repro.sim.example"

    def test_materialize_call_flagged_in_streaming_hot_path(self):
        source = "def f(stream):\n    return stream.materialize()\n"
        out = lint_source(source, module=self.MODULE)
        assert _rules(out) == {"TWL007"}

    def test_load_trace_flagged(self):
        source = (
            "from repro.traces import load_trace\n"
            "def f(path):\n    return load_trace(path)\n"
        )
        out = lint_source(source, module=self.MODULE)
        assert _rules(out) == {"TWL007"}

    def test_engine_modules_also_covered(self):
        source = "def f(stream):\n    return stream.materialize()\n"
        out = lint_source(source, module="repro.engine.core")
        assert _rules(out) == {"TWL007"}

    def test_chunked_iteration_clean(self):
        source = (
            "def f(stream):\n"
            "    for ops, pages in stream.chunks():\n"
            "        pass\n"
        )
        assert lint_source(source, module=self.MODULE) == []

    def test_rule_scoped_to_streaming_hot_paths(self):
        source = "def f(stream):\n    return stream.materialize()\n"
        assert lint_source(source, module="repro.traces.text_format") == []
        assert lint_source(source, module="repro.exec.cells") == []

    def test_reasoned_pragma_suppresses(self):
        source = (
            "def f(stream):\n"
            "    return stream.materialize()  "
            "# twl: allow(TWL007) reason=materialized adapter\n"
        )
        assert lint_source(source, module=self.MODULE) == []

    def test_pragma_without_reason_does_not_suppress(self):
        source = (
            "def f(stream):\n"
            "    return stream.materialize()  # twl: allow(TWL007)\n"
        )
        out = lint_source(source, module=self.MODULE)
        assert _rules(out) == {"TWL007"}


class TestRuleTWL005DunderAll:
    def test_undefined_name_flagged(self):
        out = _lint('__all__ = ["missing"]\n')
        assert _rules(out) == {"TWL005"}

    def test_duplicate_flagged(self):
        source = '__all__ = ["f", "f"]\ndef f():\n    pass\n'
        assert _rules(_lint(source)) == {"TWL005"}

    def test_missing_public_name_flagged(self):
        source = '__all__ = ["f"]\ndef f():\n    pass\ndef g():\n    pass\n'
        out = _lint(source)
        assert _rules(out) == {"TWL005"}
        assert any("g" in v.message for v in out)

    def test_consistent_all_clean(self):
        source = (
            '__all__ = ["f"]\n'
            "def f():\n    pass\n"
            "def _private():\n    pass\n"
        )
        assert _lint(source) == []


class TestInfrastructure:
    def test_module_name_for_resolves_package_path(self):
        assert module_name_for("src/repro/exec/hashing.py") == "repro.exec.hashing"

    def test_syntax_error_reported_not_raised(self):
        out = lint_source("def broken(:\n", path="<fixture>")
        assert len(out) == 1
        assert out[0].rule == "TWL000"

    def test_violation_format_has_rule_and_location(self):
        violation = Violation("x.py", 3, 7, "TWL001", "boom")
        assert violation.format() == "x.py:3:7: TWL001 boom"

    def test_rules_table_covers_all_rules(self):
        assert set(RULES) == {
            "TWL001",
            "TWL002",
            "TWL003",
            "TWL004",
            "TWL005",
            "TWL006",
            "TWL007",
            "TWL008",
            "TWL009",
            "TWL010",
            "TWL011",
        }


class TestRuleTWL010StalePragmas:
    def test_stale_pragma_flagged(self):
        out = _lint("x = 1  # twl: allow(TWL001) reason=nothing here\n")
        assert _rules(out) == {"TWL010"}
        assert "allow(TWL001)" in out[0].message

    def test_used_pragma_not_flagged(self):
        source = (
            "import random\n"
            "x = random.random()  # twl: allow(TWL001) reason=test fixture\n"
        )
        assert _lint(source) == []

    def test_reasonless_pragma_counts_as_used(self):
        # A reasonless pragma doesn't suppress (the finding still
        # reports), but it isn't *stale* either — the fix is to add a
        # reason, not to delete it.
        source = "import random\nx = random.random()  # twl: allow(TWL001)\n"
        assert _rules(_lint(source)) == {"TWL001"}

    def test_single_file_pass_skips_project_rule_pragmas(self):
        # TWL008/TWL009 only fire in the project pass; a single-file
        # pass can't tell whether their pragmas are earning their keep,
        # so it must not call them stale.
        out = _lint("x = 1  # twl: allow(TWL008) reason=set mirror\n")
        assert out == []

    def test_twl010_itself_suppressible_with_reason(self):
        source = "x = 1  # twl: allow(TWL001, TWL010) reason=kept on purpose\n"
        assert _lint(source) == []

    def test_pragma_text_inside_string_literal_ignored(self):
        source = 'text = "# twl: allow(TWL001) reason=doc example"\n'
        assert _lint(source) == []

    def test_pragma_mentioned_mid_comment_ignored(self):
        source = "x = 1  # docs: add a `# twl: allow(TWL001)` pragma here\n"
        assert _lint(source) == []


BASE_SCHEME = textwrap.dedent(
    """
    class Scheme:
        def __init__(self):
            self.moves = 0

        def snapshot_state(self):
            return {"moves": self.moves}

        def restore_state(self, state):
            self.moves = state["moves"]
    """
)

CHILD_SCHEME = textwrap.dedent(
    """
    from base import Scheme


    class Rotating(Scheme):
        def write(self, logical):
            self.cursor = logical


    scheme = Rotating()
    scheme.write(0)
    scheme.restore_state(scheme.snapshot_state())
    """
)

DEAD_API = textwrap.dedent(
    """
    def used():
        return 1


    def unused():
        return used() + unused()
    """
)


class TestProjectPass:
    """The two-phase pipeline end to end, over throwaway trees."""

    def _tree(self, tmp_path, child_source=CHILD_SCHEME):
        (tmp_path / "base.py").write_text(BASE_SCHEME)
        (tmp_path / "child.py").write_text(child_source)
        return str(tmp_path)

    def test_cross_file_twl008_finding(self, tmp_path):
        out = lint_paths([self._tree(tmp_path)])
        assert _rules(out) == {"TWL008"}
        (violation,) = out
        assert violation.path.endswith("child.py")
        assert "'cursor'" in violation.message

    def test_reasoned_pragma_suppresses_project_rule(self, tmp_path):
        suppressed = CHILD_SCHEME.replace(
            "self.cursor = logical",
            "self.cursor = logical  "
            "# twl: allow(TWL008) reason=derived, rebuilt on restore",
        )
        assert lint_paths([self._tree(tmp_path, suppressed)]) == []

    def test_project_pass_audits_project_rule_pragmas(self, tmp_path):
        stale = CHILD_SCHEME.replace(
            "self.cursor = logical",
            "pass  # twl: allow(TWL008) reason=obsolete",
        )
        out = lint_paths([self._tree(tmp_path, stale)])
        assert _rules(out) == {"TWL010"}

    def test_json_report_schema(self, tmp_path):
        suppressed = CHILD_SCHEME.replace(
            "self.cursor = logical",
            "self.cursor = logical  "
            "# twl: allow(TWL008) reason=derived, rebuilt on restore",
        )
        report = run_lint_report([self._tree(tmp_path, suppressed)], classify=False)
        payload = json.loads(json.dumps(report.to_json_dict(), sort_keys=True))
        assert payload["version"] == 1
        assert payload["files_checked"] == 2
        (finding,) = payload["findings"]
        assert finding["rule"] == "TWL008"
        assert finding["suppressed"] is True
        assert finding["pragma"] == {
            "reason": "derived, rebuilt on restore",
            "rules": ["TWL008"],
        }
        assert set(finding) == {
            "rule",
            "path",
            "line",
            "col",
            "message",
            "suppressed",
            "pragma",
        }

    def test_json_cli_output_parses(self, tmp_path, capsys):
        from repro.devtools.lint import main as lint_main

        code = lint_main([self._tree(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        unsuppressed = [f for f in payload["findings"] if not f["suppressed"]]
        assert [f["rule"] for f in unsuppressed] == ["TWL008"]


    def _api_lint(self, tmp_path, module=DEAD_API, init="", bench=None):
        """TWL011 over a ``src/`` layout with an optional benchmark tree."""
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(init)
        (package / "mod.py").write_text(module)
        if bench is not None:
            (tmp_path / "benchmarks").mkdir()
            (tmp_path / "benchmarks" / "bench.py").write_text(bench)
        return lint_paths([str(package)])

    def test_twl011_dead_function_flagged_at_its_def_line(self, tmp_path):
        (violation,) = self._api_lint(tmp_path)
        assert (violation.rule, violation.line) == ("TWL011", 6)
        assert violation.path.endswith("mod.py")
        assert "public function 'unused'" in violation.message

    def test_twl011_dead_property_reported_once_at_its_getter(self, tmp_path):
        module = (
            "class Box:\n    @property\n    def size(self):\n        return 1\n\n"
            "    @size.setter\n    def size(self, value):\n        pass\n\n\nBOX = Box()\n"
        )
        out = self._api_lint(tmp_path, module)
        assert [(v.line, v.message.split(" has")[0]) for v in out] == [
            (3, "public property 'Box.size'")
        ]

    def test_twl011_benchmark_caller_clears_it(self, tmp_path):
        bench = "from pkg.mod import unused\n\nunused()\n"
        assert self._api_lint(tmp_path, bench=bench) == []

    def test_twl011_getattr_string_clears_it(self, tmp_path):
        module = DEAD_API + 'HOOK = getattr(object(), "unused", None)\n'
        assert self._api_lint(tmp_path, module) == []

    def test_twl011_import_or_module_all_alone_does_not_clear_it(self, tmp_path):
        module = '__all__ = ["used", "unused"]\n' + DEAD_API
        out = self._api_lint(tmp_path, module, bench="from pkg.mod import unused\n")
        assert [(v.rule, v.line) for v in out] == [("TWL011", 7)]

    def test_twl011_package_all_does_not_exempt_a_name(self, tmp_path):
        init = 'from .mod import unused\n\n__all__ = ["unused"]\n'
        out = self._api_lint(tmp_path, init=init)
        assert [(v.path.endswith("mod.py"), v.line) for v in out] == [(True, 6)]
        assert "public function 'unused'" in out[0].message

    def test_twl011_dead_class_flagged_at_its_class_line(self, tmp_path):
        module = DEAD_API + (
            "\n\nclass Orphan:\n    def __eq__(self, other):\n"
            "        return isinstance(other, Orphan)\n"
        )
        out = self._api_lint(tmp_path, module)
        assert [(v.line, v.message.split(" has")[0]) for v in out] == [
            (6, "public function 'unused'"),
            (10, "public class 'Orphan'"),
        ]

    def test_twl011_class_used_only_in_a_called_annotation_is_kept(self, tmp_path):
        module = (
            "class Shape:\n    pass\n\n\n"
            "class Orphan:\n    pass\n\n\n"
            "def area(shape: Shape) -> int:\n    return 0\n\n\n"
            "VALUE = area(None)\n"
        )
        out = self._api_lint(tmp_path, module)
        assert [v.message.split(" has")[0] for v in out] == ["public class 'Orphan'"]

    def test_twl011_visitors_dunders_and_entry_points_are_exempt(self, tmp_path):
        module = (
            "import ast\n\n\nclass Finder(ast.NodeVisitor):\n"
            "    def __repr__(self):\n        return 'f'\n\n"
            "    def visit_Name(self, node):\n        pass\n\n\n"
            "def main():\n    Finder()\n"
        )
        (tmp_path / "pyproject.toml").write_text(
            '[project.scripts]\npkg = "pkg.mod:main"\n\n[tool.other]\nx = 1\n'
        )
        assert self._api_lint(tmp_path, module) == []

    def test_twl011_reasoned_pragma_suppresses(self, tmp_path):
        module = DEAD_API.replace(
            "def unused():", "def unused():  # twl: allow(TWL011) reason=test oracle"
        )
        assert self._api_lint(tmp_path, module) == []

    def test_twl011_stale_pragma_is_twl010(self, tmp_path):
        module = DEAD_API.replace(
            "def used():", "def used():  # twl: allow(TWL011) reason=obsolete"
        )
        out = self._api_lint(tmp_path, module, bench="from pkg.mod import unused\nunused()\n")
        assert [(v.rule, v.line) for v in out] == [("TWL010", 2)]


class TestTreeClean:
    def test_full_source_tree_is_lint_clean(self):
        violations = run_lint_report().violations
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_walker_finds_the_source_tree(self):
        assert len(iter_python_files([default_lint_root()])) > 50


class _EvilObserver(EngineObserver):
    """Plants a global-RNG read inside the engine's step loop."""

    def on_batch(self, snapshot: BatchSnapshot) -> None:
        random.random()


def _engine(observers=()):
    array = PCMArray.uniform(64, 10**6)
    scheme = make_scheme("nowl", array, seed=3)
    attack = make_attack("scan", scheme.logical_pages, seed=3)
    return SimulationEngine(scheme, AttackDriver(attack), observers=observers)


@pytest.fixture
def armed_sanitizer():
    sanitize.install()
    try:
        yield
    finally:
        sanitize.uninstall()


class TestSanitizer:
    def test_clean_engine_run_passes(self, armed_sanitizer):
        assert _engine().drive(500) == 500

    def test_planted_violation_in_stepping_raises(self, armed_sanitizer):
        engine = _engine(observers=[_EvilObserver()])
        with pytest.raises(DeterminismViolation, match="TWL001"):
            engine.drive(500)

    def test_numpy_global_state_raises_in_region(self, armed_sanitizer):
        with sanitize.protected("test region"):
            with pytest.raises(DeterminismViolation):
                np.random.rand(3)

    def test_unseeded_default_rng_raises_in_region(self, armed_sanitizer):
        with sanitize.protected("test region"):
            with pytest.raises(DeterminismViolation):
                np.random.default_rng()
            # Explicit seeding stays legal even inside the region.
            assert np.random.default_rng(7).integers(10) >= 0

    def test_random_allowed_outside_region(self, armed_sanitizer):
        assert 0.0 <= random.random() < 1.0

    def test_exec_backoff_allowed_under_sanitizer(self, armed_sanitizer):
        policy = FailurePolicy(max_retries=2)
        delay = policy.retry_delay("fingerprint", 1)
        assert delay == policy.retry_delay("fingerprint", 1)

    def test_cell_run_is_protected(self, armed_sanitizer, monkeypatch):
        cell = attack_cell("nowl", "scan", scaled=SCALED, seed=11)
        result = run_cell(cell)
        assert result.demand_writes > 0

    def test_campaign_smoke_with_env(self, monkeypatch):
        monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
        cells = [attack_cell("nowl", "scan", scaled=SCALED, seed=11)]
        try:
            results = run_cells(cells, jobs=1, progress=False)
        finally:
            sanitize.uninstall()
        assert len(results) == 1

    def test_env_campaign_fails_on_planted_violation(self, monkeypatch):
        monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
        cell = attack_cell("nowl", "scan", scaled=SCALED, seed=11)
        try:
            sanitize.maybe_install_from_env()
            with sanitize.protected(cell.describe()):
                with pytest.raises(DeterminismViolation):
                    random.random()
        finally:
            sanitize.uninstall()

    def test_install_is_idempotent(self):
        sanitize.install()
        sanitize.install()
        try:
            with sanitize.protected("installed twice"):
                with pytest.raises(DeterminismViolation):
                    random.random()
        finally:
            sanitize.uninstall()
        # One uninstall must fully restore the patched entry points: a
        # call inside a protected region after it must not raise.
        with sanitize.protected("after uninstall"):
            assert 0.0 <= random.random() < 1.0
