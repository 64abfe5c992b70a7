"""nrplint self-tests: fixtures, suppressions, baseline, schema, CI gate.

The analyzer lives in ``tools/nrplint`` (outside the installed package),
so the tests put ``tools`` on ``sys.path`` explicitly — the same way the
CI lint job runs it (``PYTHONPATH=tools python -m nrplint src``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TOOLS = REPO / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from nrplint.baseline import DEFAULT_BASELINE_PATH, Baseline  # noqa: E402
from nrplint.core import lint_paths, module_name_for, rule_registry  # noqa: E402
from nrplint.report import (  # noqa: E402
    REPORT_SCHEMA_ID,
    SARIF_VERSION,
    render_json,
    render_sarif,
    validate_report,
    validate_sarif,
)

FIXTURES = REPO / "tests" / "fixtures" / "nrplint" / "src"

#: file name → the single rule its findings must all belong to.
EXPECTED_BAD = {
    "bad_layering.py": "layering",
    "labelstore.py": "layering",
    "bad_layering_obs.py": "layering",
    "bad_leaf.py": "layering",
    "bad_determinism.py": "determinism",
    "bad_float_eq.py": "float-eq",
    "bad_obs_guard.py": "obs-guard",
    "bad_private.py": "private-access",
    "bad_purity.py": "purity",
    "reference.py": "purity",  # the kernel module: every function is a kernel
    "bad_kernels_layering.py": "layering",
    "bad_serve_import.py": "layering",
    "bad_except.py": "silent-except",
    "bad_except_resilience.py": "silent-except",
    "bad_except_serve.py": "silent-except",
    "bad_except_obs.py": "silent-except",
    "bad_lock_discipline.py": "lock-discipline",
    "bad_blocking_lock.py": "blocking-lock",
    "bad_atomic_write.py": "atomic-write",
    "bad_param_threading.py": "param-threading",
}


@pytest.fixture(scope="module")
def fixture_result():
    return lint_paths([FIXTURES])


class TestRegistry:
    def test_eleven_rules_registered(self):
        rules = rule_registry()
        assert set(rules) == {
            "layering",
            "determinism",
            "float-eq",
            "obs-guard",
            "private-access",
            "purity",
            "silent-except",
            "lock-discipline",
            "blocking-lock",
            "atomic-write",
            "param-threading",
        }
        codes = {rule.code for rule in rules.values()}
        assert len(codes) == len(rules), "rule codes must be unique"

    def test_unknown_rule_selection_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_paths([FIXTURES], select=["no-such-rule"])

    def test_module_name_resolution(self):
        assert (
            module_name_for(FIXTURES / "repro" / "core" / "bad_purity.py")
            == "repro.core.bad_purity"
        )
        assert module_name_for(FIXTURES / "repro" / "core" / "__init__.py") == (
            "repro.core"
        )


class TestFixtures:
    def test_each_bad_fixture_triggers_exactly_its_rule(self, fixture_result):
        by_file: dict[str, set[str]] = defaultdict(set)
        for finding in fixture_result.findings:
            by_file[Path(finding.path).name].add(finding.rule)
        for name, rule in EXPECTED_BAD.items():
            assert by_file.get(name) == {rule}, (
                f"{name}: expected exactly {{{rule}!r}}, got {by_file.get(name)}"
            )

    def test_no_cross_triggering_or_clean_noise(self, fixture_result):
        allowed = set(EXPECTED_BAD) | {"suppressed.py"}
        flagged = {Path(f.path).name for f in fixture_result.findings}
        assert flagged <= allowed, f"unexpected findings in {flagged - allowed}"
        assert "clean.py" not in flagged
        assert "clean_serve.py" not in flagged
        assert not fixture_result.errors

    def test_fixture_counts_are_stable(self, fixture_result):
        counts: dict[str, int] = defaultdict(int)
        for finding in fixture_result.findings:
            counts[Path(finding.path).name] += 1
        assert counts["bad_determinism.py"] == 2  # RNG + wall clock
        assert counts["bad_float_eq.py"] == 2  # == and !=
        assert counts["bad_private.py"] == 2  # import + attribute reach
        assert counts["bad_purity.py"] == 3  # arg, module state, global
        assert counts["reference.py"] == 2  # non-kernel-named arg + module state
        assert counts["bad_except.py"] == 2  # bare + silent broad
        assert counts["bad_except_resilience.py"] == 1  # silent BaseException
        assert counts["bad_except_serve.py"] == 1  # silent broad in a worker
        assert counts["bad_except_obs.py"] == 1  # bare except in an export
        # ring store + count advance + rmw rebind + cross-object + inferred
        assert counts["bad_lock_discipline.py"] == 5
        assert counts["bad_blocking_lock.py"] == 3  # sleep + one-hop I/O + get
        assert counts["bad_atomic_write.py"] == 3  # index + wal + sidecar
        assert counts["bad_param_threading.py"] == 3  # 2 dropped kw + 1 helper


class TestSuppressions:
    def test_justified_trailing_directive_suppresses(self, fixture_result):
        suppressed = {
            (Path(f.path).name, f.line): reason
            for f, reason in fixture_result.suppressed
        }
        assert ("suppressed.py", 7) in suppressed
        assert "justification" in suppressed[("suppressed.py", 7)]

    def test_next_line_directive_suppresses(self, fixture_result):
        names = {
            (Path(f.path).name, f.line) for f, _ in fixture_result.suppressed
        }
        assert ("suppressed.py", 16) in names

    def test_file_wide_directive_suppresses_everything(self, fixture_result):
        filewide = [
            f for f, _ in fixture_result.suppressed
            if Path(f.path).name == "filewide.py"
        ]
        assert len(filewide) == 2
        assert not any(
            Path(f.path).name == "filewide.py" for f in fixture_result.findings
        )

    def test_unjustified_directive_keeps_finding_active(self, fixture_result):
        active = [
            f for f in fixture_result.findings
            if Path(f.path).name == "suppressed.py"
        ]
        assert len(active) == 1
        assert active[0].line == 11
        assert "suppression ignored" in active[0].message


class TestBaseline:
    def test_roundtrip(self, fixture_result, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.from_findings(fixture_result.findings).save(path)
        reloaded = Baseline.load(path)
        assert len(reloaded) == len(fixture_result.findings)
        new, baselined = reloaded.split(fixture_result.findings)
        assert new == []
        assert len(baselined) == len(fixture_result.findings)

    def test_unbaselined_finding_stays_new(self, fixture_result):
        findings = list(fixture_result.findings)
        partial = Baseline.from_findings(findings[1:])
        new, baselined = partial.split(findings)
        assert len(new) == 1 and new[0] == findings[0]
        assert len(baselined) == len(findings) - 1

    def test_missing_file_loads_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "absent.json")) == 0

    def test_shipped_baseline_is_minimal(self):
        assert len(Baseline.load(DEFAULT_BASELINE_PATH)) == 0, (
            "the shipped baseline must stay minimal: fix findings or add an "
            "inline justified suppression instead of grandfathering them"
        )


class TestJsonReport:
    def test_report_validates_against_checked_in_schema(self, fixture_result):
        baseline = Baseline.from_findings(fixture_result.findings[:2])
        new, baselined = baseline.split(fixture_result.findings)
        document = render_json(fixture_result, new, baselined)
        assert document["schema"] == REPORT_SCHEMA_ID
        assert validate_report(document) == []
        assert document["summary"]["findings"] == len(new)
        assert document["summary"]["baselined"] == 2
        assert document["summary"]["suppressed"] == len(fixture_result.suppressed)

    def test_validator_rejects_malformed_documents(self, fixture_result):
        document = render_json(fixture_result, fixture_result.findings, [])
        document["summary"]["files"] = -1
        assert validate_report(document)
        del document["findings"]
        assert any("findings" in e for e in validate_report(document))


class TestSarifReport:
    def test_sarif_validates_against_checked_in_schema(self, fixture_result):
        baseline = Baseline.from_findings(fixture_result.findings[:2])
        new, baselined = baseline.split(fixture_result.findings)
        document = render_sarif(fixture_result, new, baselined)
        assert document["version"] == SARIF_VERSION
        assert validate_sarif(document) == []

    def test_sarif_levels_and_suppressions(self, fixture_result):
        baseline = Baseline.from_findings(fixture_result.findings[:2])
        new, baselined = baseline.split(fixture_result.findings)
        results = render_sarif(fixture_result, new, baselined)["runs"][0][
            "results"
        ]
        errors = [r for r in results if r["level"] == "error"]
        notes = [r for r in results if r["level"] == "note"]
        assert len(errors) == len(new)
        assert len(notes) == len(baselined) + len(fixture_result.suppressed)
        assert all("suppressions" not in r for r in errors)
        kinds = {s["kind"] for r in notes for s in r["suppressions"]}
        assert kinds == {"external", "inSource"}
        for r in notes:
            for s in r["suppressions"]:
                assert s["justification"].strip()

    def test_sarif_rule_catalogue_matches_registry(self, fixture_result):
        document = render_sarif(fixture_result, [], [])
        rules = document["runs"][0]["tool"]["driver"]["rules"]
        assert {r["id"] for r in rules} == {
            rule.code for rule in rule_registry().values()
        }
        # ruleIndex in every result must point at the right catalogue row
        document = render_sarif(
            fixture_result, fixture_result.findings, []
        )
        for result in document["runs"][0]["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_sarif_fingerprints_are_line_number_independent(
        self, fixture_result
    ):
        """The fingerprint is (rule, path, snippet) — the same identity the
        baseline uses — so a pure line shift does not re-open alerts."""
        document = render_sarif(fixture_result, fixture_result.findings, [])
        by_key: dict[str, dict] = {}
        for finding, result in zip(
            fixture_result.findings, document["runs"][0]["results"]
        ):
            key = result["partialFingerprints"]["nrplintKey/v1"]
            assert key == f"{finding.rule}::{finding.path}::{finding.snippet}"
            by_key[key] = result
        assert by_key, "fixtures must produce fingerprinted results"


class TestSchemaDriftGate:
    """tools/check_obs_schema.py cross-checks the nrplint schema."""

    def test_shipped_schemas_do_not_drift(self):
        import check_obs_schema

        assert check_obs_schema.nrplint_schema_errors() == []

    def test_version_drift_is_detected(self, tmp_path, monkeypatch):
        import check_obs_schema
        from nrplint import report as nrplint_report

        monkeypatch.setattr(
            nrplint_report, "REPORT_SCHEMA_ID", "nrplint.report/99"
        )
        errors = check_obs_schema.nrplint_schema_errors()
        assert any("drift" in e for e in errors)


class TestShippedTree:
    """The acceptance gate: the shipped src tree is clean."""

    def test_src_is_clean_under_all_rules(self):
        result = lint_paths([REPO / "src"])
        baseline = Baseline.load(DEFAULT_BASELINE_PATH)
        new, _ = baseline.split(result.findings)
        assert not result.errors
        assert new == [], "\n".join(
            f"{f.path}:{f.line}: {f.code} {f.message}" for f in new
        )

    def test_shipped_suppressions_are_all_justified(self):
        result = lint_paths([REPO / "src"])
        for finding, reason in result.suppressed:
            assert reason.strip(), f"{finding.path}:{finding.line} lacks a reason"


def _run_cli(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(TOOLS)
    return subprocess.run(
        [sys.executable, "-m", "nrplint", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


class TestCliGate:
    """End-to-end: exactly what the CI lint job executes."""

    def test_cli_exits_zero_on_shipped_tree(self):
        proc = _run_cli("src")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_cli_fails_on_reintroduced_layering_violation(self, tmp_path):
        """A fresh core module importing the CLI must fail the gate."""
        pkg = tmp_path / "repro"
        (pkg / "core").mkdir(parents=True)
        (pkg / "__init__.py").write_text('"""tmp."""\n')
        (pkg / "core" / "__init__.py").write_text('"""tmp."""\n')
        (pkg / "core" / "regression.py").write_text(
            '"""Regression: the PR-1 layering split must stay machine-checked."""\n'
            "from repro.cli import main\n"
        )
        proc = _run_cli(str(tmp_path), "--no-baseline")
        assert proc.returncode == 1
        assert "NRP001" in proc.stdout
        assert "repro.core must not import repro.cli" in proc.stdout

    def test_cli_fails_on_reintroduced_ring_race(self, tmp_path):
        """PR 8's unlocked ring advance, seeded fresh, must fail the gate."""
        pkg = tmp_path / "repro"
        (pkg / "serve").mkdir(parents=True)
        (pkg / "__init__.py").write_text('"""tmp."""\n')
        (pkg / "serve" / "__init__.py").write_text('"""tmp."""\n')
        (pkg / "serve" / "regression.py").write_text(
            '"""Regression: the PR-8 ring race must stay machine-checked."""\n'
            "import threading\n"
            "\n"
            "\n"
            "class Ring:\n"
            "    def __init__(self) -> None:\n"
            "        self._lock = threading.Lock()\n"
            "        self._ring: list = [None] * 8"
            "  # nrplint: guarded-by=_lock\n"
            "        self._count = 0  # nrplint: guarded-by=_lock\n"
            "\n"
            "    def record(self, rec: tuple) -> None:\n"
            "        self._ring[self._count % 8] = rec\n"
            "        self._count += 1\n"
        )
        proc = _run_cli(str(tmp_path), "--no-baseline")
        assert proc.returncode == 1
        assert "NRP008" in proc.stdout
        assert "outside its lock" in proc.stdout

    def test_cli_fails_on_reintroduced_batch_fallthrough(self, tmp_path):
        """PR 8's answer_batch parameter drop, seeded fresh, must fail."""
        pkg = tmp_path / "repro"
        (pkg / "core").mkdir(parents=True)
        (pkg / "__init__.py").write_text('"""tmp."""\n')
        (pkg / "core" / "__init__.py").write_text('"""tmp."""\n')
        (pkg / "core" / "regression.py").write_text(
            '"""Regression: the answer_batch fallthrough must stay '
            'machine-checked."""\n'
            "\n"
            "\n"
            "class Engine:\n"
            "    def answer(self, s, t, deadline_s=None):\n"
            "        return (s, t, deadline_s)\n"
            "\n"
            "    def answer_batch(self, qs, deadline_s=None):\n"
            "        return [self.answer(s, t) for s, t in qs]\n"
        )
        proc = _run_cli(str(tmp_path), "--no-baseline")
        assert proc.returncode == 1
        assert "NRP011" in proc.stdout
        assert "drops deadline_s" in proc.stdout

    def test_cli_json_output_is_schema_valid(self):
        proc = _run_cli(str(FIXTURES), "--format", "json", "--no-baseline")
        assert proc.returncode == 1  # fixtures are deliberately broken
        document = json.loads(proc.stdout)
        assert validate_report(document) == []

    def test_cli_sarif_output_is_schema_valid(self):
        proc = _run_cli(str(FIXTURES), "--format", "sarif", "--no-baseline")
        assert proc.returncode == 1  # exit code still reflects findings
        document = json.loads(proc.stdout)
        assert validate_sarif(document) == []
        assert document["runs"][0]["invocations"][0]["exitCode"] == 1

    def test_cli_select_new_rules_only(self):
        proc = _run_cli(
            str(FIXTURES),
            "--select",
            "lock-discipline,blocking-lock,atomic-write,param-threading",
            "--format",
            "json",
            "--no-baseline",
        )
        assert proc.returncode == 1
        document = json.loads(proc.stdout)
        rules = {f["rule"] for f in document["findings"]}
        assert rules == {
            "lock-discipline",
            "blocking-lock",
            "atomic-write",
            "param-threading",
        }

    def test_cli_list_rules(self):
        proc = _run_cli("--list-rules")
        assert proc.returncode == 0
        for code in (
            "NRP001", "NRP002", "NRP003", "NRP004", "NRP005", "NRP006",
            "NRP007", "NRP008", "NRP009", "NRP010", "NRP011",
        ):
            assert code in proc.stdout

    def test_cli_usage_error_on_unknown_rule(self):
        proc = _run_cli("src", "--select", "no-such-rule")
        assert proc.returncode == 2
