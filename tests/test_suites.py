import pytest

from qspec.suites import (
    SuiteConfig,
    _Runner,
    available_suites,
    report_lines,
    run_many,
    run_suite,
)


def test_registry_names_are_stable():
    names = available_suites()
    assert "scalar-algebra" in names
    assert "shift-decomposability" in names
    assert len(names) == len(set(names)) == 18


@pytest.mark.parametrize("name", available_suites())
def test_each_suite_passes_smoke(name):
    r = run_suite(name, SuiteConfig(seed=5, trials=3))
    assert r.ok, [c.failures for c in r.counts if c.failures]


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("missing", SuiteConfig())


def test_run_many_all_expands():
    results = run_many(["all"], SuiteConfig(seed=1, trials=2))
    assert len(results) == 18


def test_reports_deterministic_per_seed():
    cfg = SuiteConfig(seed=9, trials=4)
    a = report_lines(run_many(["scalar-algebra", "series-algebra"], cfg))
    b = report_lines(run_many(["scalar-algebra", "series-algebra"], cfg))
    assert a == b
    assert a[-1].startswith("total:")


def test_failure_line_reports_exception_message():
    r = _Runner(SuiteConfig(seed=3, trials=2))

    def check(rng, k):
        if k == 1:
            raise ValueError("boom")
        return True

    r.run("raises", check)
    (count,) = r.result("probe").counts
    assert (count.passed, count.total) == (1, 2)
    assert count.failures == ("raises[1] ValueError: boom",)
    assert "boom" in r.result("probe").lines()[-1]
