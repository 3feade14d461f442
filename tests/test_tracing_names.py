"""The benchmark's tracer (``perfbench/tracing.py``) wraps qspec's layers by
name from outside the package, so a refactor that moves one of those names
breaks the traced benchmark run.  These tests read the tracer's tables, as
``scripts/output_gate.py`` reads ``perfbench/workloads.py``, and change
nothing there."""

import importlib
import os
import sys

import pytest

from qspec import suites

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    # no bytecode cache: the benchmark folder stays as it is
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing")


def test_each_traced_method_is_defined_on_its_own_class(tracing):
    # the tracer reads cls.__dict__[meth]: an inherited method is not there
    for short, cls_name, meth, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"qspec.{short}"), cls_name)
        assert meth in cls.__dict__, (short, cls_name, meth)


def test_every_benchmarked_suite_is_registered(tracing):
    workloads = importlib.import_module("workloads")
    assert set(workloads.SUITE_NAMES) <= set(suites.SUITES)


def test_every_traced_module_imports(tracing):
    for short in tracing.MODULES:
        importlib.import_module(f"qspec.{short}")
