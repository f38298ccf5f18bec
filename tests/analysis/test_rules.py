"""Per-rule fixture coverage: one positive and one negative per rule,
with exact line/column assertions on the positives, plus the path-scoping
behaviour of R4/R6/R8 (checked through virtual paths)."""

from __future__ import annotations

from pathlib import Path, PurePath

from repro.analysis.framework import DEFAULT_RULES, Analyzer

FIXTURES = Path(__file__).parent / "fixtures"

#: Neutral virtual path: inside repro but outside every scoped allowlist.
NEUTRAL = PurePath("src/repro/clustering/fixture.py")


def lint(rule_id: str, fixture: str, path: PurePath = NEUTRAL):
    source = (FIXTURES / fixture).read_text(encoding="utf-8")
    analyzer = Analyzer(rules=DEFAULT_RULES.create([rule_id]))
    return analyzer.check_source(source, path)


class TestR1GlobalNumpyRandom:
    def test_positive_flags_global_rand_at_exact_position(self):
        findings = lint("R1", "r1_positive.py")
        assert len(findings) == 1
        finding = findings[0]
        assert (finding.rule, finding.line, finding.col) == ("R1", 5, 11)
        assert "np.random.rand" in finding.message

    def test_negative_seeded_generator_is_clean(self):
        assert lint("R1", "r1_negative.py") == []

    def test_unseeded_randomstate_flagged(self):
        findings = Analyzer(rules=DEFAULT_RULES.create(["R1"])).check_source(
            "import numpy as np\nrng = np.random.RandomState()\n")
        assert len(findings) == 1
        assert "without a seed" in findings[0].message

    def test_seeded_randomstate_allowed(self):
        findings = Analyzer(rules=DEFAULT_RULES.create(["R1"])).check_source(
            "import numpy as np\nrng = np.random.RandomState(7)\n")
        assert findings == []

    def test_from_import_of_global_fn_flagged(self):
        findings = Analyzer(rules=DEFAULT_RULES.create(["R1"])).check_source(
            "from numpy.random import shuffle\n")
        assert len(findings) == 1
        assert "shuffle" in findings[0].message

    def test_from_import_of_default_rng_allowed(self):
        findings = Analyzer(rules=DEFAULT_RULES.create(["R1"])).check_source(
            "from numpy.random import default_rng\n")
        assert findings == []


class TestR2GuardedBy:
    def test_positive_unlocked_access_at_exact_position(self):
        findings = lint("R2", "r2_positive.py")
        assert len(findings) == 1
        finding = findings[0]
        assert (finding.rule, finding.line, finding.col) == ("R2", 10, 8)
        assert "guarded-by: _lock" in finding.message

    def test_negative_locked_access_is_clean(self):
        assert lint("R2", "r2_negative.py") == []

    def test_init_is_exempt(self):
        # The fixture's __init__ assigns self._count without the lock and
        # must not be flagged — covered by the positive yielding exactly one
        # finding (the one in bump), asserted above.
        findings = lint("R2", "r2_positive.py")
        assert all(f.line != 7 for f in findings)


class TestR3FrozenCache:
    def test_positive_marker_without_freeze_at_exact_position(self):
        findings = lint("R3", "r3_positive.py")
        assert len(findings) == 1
        finding = findings[0]
        assert (finding.rule, finding.line, finding.col) == ("R3", 1, 0)
        assert "returns-frozen" in finding.message

    def test_negative_marker_with_freeze_is_clean(self):
        assert lint("R3", "r3_negative.py") == []

    def test_mutating_cache_lookup_result_flagged_and_copy_allowed(self):
        findings = lint("R3", "r3_mutation.py")
        assert len(findings) == 1
        finding = findings[0]
        assert (finding.rule, finding.line, finding.col) == ("R3", 3, 4)
        assert "copy before mutating" in finding.message

    def test_snapshot_field_mutation_flagged(self):
        source = ("def bad(service):\n"
                  "    snap = service.snapshot()\n"
                  "    snap.predictions[0] = 7\n")
        findings = Analyzer(rules=DEFAULT_RULES.create(["R3"])).check_source(source)
        assert len(findings) == 1
        assert "snap.predictions" in findings[0].message


class TestR4ParamDataRebind:
    def test_positive_outside_nn_at_exact_position(self):
        findings = lint("R4", "r4_positive.py",
                        PurePath("src/repro/serve/fixture.py"))
        assert len(findings) == 1
        finding = findings[0]
        assert (finding.rule, finding.line, finding.col) == ("R4", 2, 4)
        assert "version-bump" in finding.message

    def test_negative_read_only_access_is_clean(self):
        assert lint("R4", "r4_negative.py",
                    PurePath("src/repro/serve/fixture.py")) == []

    def test_same_code_inside_nn_is_exempt(self):
        assert lint("R4", "r4_positive.py",
                    PurePath("src/repro/nn/fixture.py")) == []


class TestR5SerializableConfig:
    def test_positive_orphan_config_at_exact_position(self):
        findings = lint("R5", "r5_positive.py")
        assert len(findings) == 1
        finding = findings[0]
        assert (finding.rule, finding.line, finding.col) == ("R5", 5, 0)
        assert "SerializableConfig" in finding.message

    def test_negative_direct_and_transitive_subclasses_are_clean(self):
        assert lint("R5", "r5_negative.py") == []


class TestR6WallClock:
    def test_positive_wall_clock_at_exact_position(self):
        findings = lint("R6", "r6_positive.py")
        assert len(findings) == 1
        finding = findings[0]
        assert (finding.rule, finding.line, finding.col) == ("R6", 5, 11)
        assert "time.time" in finding.message

    def test_negative_perf_counter_is_clean(self):
        assert lint("R6", "r6_negative.py") == []

    def test_serve_module_is_allowlisted(self):
        assert lint("R6", "r6_positive.py",
                    PurePath("src/repro/serve/metrics.py")) == []

    def test_experiments_module_is_allowlisted(self):
        assert lint("R6", "r6_positive.py",
                    PurePath("src/repro/experiments/reporting.py")) == []

    def test_datetime_now_flagged(self):
        source = ("from datetime import datetime\n"
                  "stamp = datetime.now()\n")
        findings = Analyzer(rules=DEFAULT_RULES.create(["R6"])).check_source(
            source, NEUTRAL)
        assert len(findings) == 1
        assert "datetime.now" in findings[0].message


class TestR7SwallowedExceptions:
    def test_positive_bare_except_and_swallow_at_exact_positions(self):
        findings = lint("R7", "r7_positive.py")
        assert len(findings) == 2
        bare, swallow = findings
        assert (bare.line, bare.col) == (4, 4)
        assert "bare 'except:'" in bare.message
        assert (swallow.line, swallow.col) == (11, 4)
        assert "swallowed silently" in swallow.message

    def test_negative_logged_and_reraised_is_clean(self):
        assert lint("R7", "r7_negative.py") == []

    def test_docstring_only_pass_still_flagged(self):
        source = ("def f(job):\n"
                  "    try:\n"
                  "        job()\n"
                  "    except ValueError:\n"
                  "        'ignored: best effort'\n"
                  "        pass\n")
        findings = Analyzer(rules=DEFAULT_RULES.create(["R7"])).check_source(source)
        assert len(findings) == 1


class TestR8RegistryCompleteness:
    def test_positive_unregistered_trainer_at_exact_position(self):
        findings = lint("R8", "r8_positive.py",
                        PurePath("src/repro/baselines/fixture.py"))
        assert len(findings) == 1
        finding = findings[0]
        assert (finding.rule, finding.line, finding.col) == ("R8", 1, 0)
        assert "register_method" in finding.message

    def test_negative_registered_and_private_trainers_are_clean(self):
        assert lint("R8", "r8_negative.py",
                    PurePath("src/repro/baselines/fixture.py")) == []

    def test_rule_only_applies_under_baselines(self):
        assert lint("R8", "r8_positive.py", NEUTRAL) == []


class TestR9PicklablePoolWorker:
    def test_positive_nested_def_and_lambda_at_exact_positions(self):
        findings = lint("R9", "r9_positive.py")
        assert len(findings) == 2
        nested, lam = findings
        assert (nested.rule, nested.line, nested.col) == ("R9", 10, 32)
        assert "nested function 'worker'" in nested.message
        assert "executor.map" in nested.message
        assert (lam.rule, lam.line, lam.col) == ("R9", 11, 34)
        assert "lambda" in lam.message
        assert "thread_pool.submit" in lam.message

    def test_negative_module_level_workers_are_clean(self):
        assert lint("R9", "r9_negative.py") == []

    def test_module_level_lambda_flagged(self):
        source = "results = executor.map(lambda item: item, [1, 2])\n"
        findings = Analyzer(rules=DEFAULT_RULES.create(["R9"])).check_source(
            source, NEUTRAL)
        assert len(findings) == 1
        assert "lambda" in findings[0].message

    def test_quarantined_violation_module_is_flagged(self):
        violation = (Path(__file__).parents[2] / "src" / "repro" / "analysis"
                     / "violations" / "parallel_closure.py")
        # Drop the first line (the skip-file marker) so the rule actually
        # runs; the quarantine relies on that marker plus DEFAULT_EXCLUDES.
        source = violation.read_text(encoding="utf-8").split("\n", 1)[1]
        findings = Analyzer(rules=DEFAULT_RULES.create(["R9"])).check_source(
            source, PurePath("src/repro/clustering/fixture.py"))
        assert len(findings) == 2
        assert {"R9"} == {finding.rule for finding in findings}

    def test_shipped_workers_module_is_clean(self):
        workers = (Path(__file__).parents[2] / "src" / "repro" / "experiments"
                   / "runner.py")
        findings = Analyzer(rules=DEFAULT_RULES.create(["R9"])).check_source(
            workers.read_text(encoding="utf-8"), PurePath(workers.as_posix()))
        assert findings == []


class TestRepoIsClean:
    def test_full_rule_set_reports_nothing_on_src(self):
        src_root = Path(__file__).parents[2] / "src"
        analyzer = Analyzer(rules=DEFAULT_RULES.create())
        assert analyzer.run([str(src_root)]) == []
