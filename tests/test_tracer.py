"""The benchmark's tracer (perfbench/tracing.py) patches splitgrad by module
attribute. Installing it on the package, then uninstalling it, must find
every name it wraps and put each one back."""

import importlib.util
import sys
from pathlib import Path

import splitgrad
import splitgrad.cli  # noqa: F401  (install reads sg.cli and sg.verify)
import splitgrad.verify  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("cli", "verify", "algorithms", "objectives", "schedules", "analysis",
           "constructions")


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _attributes():
    return {name: dict(vars(getattr(splitgrad, name))) for name in MODULES}


def test_tracer_install_then_uninstall_restores_the_package(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    before, suites = _attributes(), dict(splitgrad.verify.SUITES)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, splitgrad)   # a name it wraps that is gone raises here
        during = _attributes()
        patched = {(m, k) for m in MODULES for k in before[m] if during[m][k] is not before[m][k]}
        assert {("constructions", "symplectic_euler"), ("verify", "symplectic_euler"),
                ("constructions", "nesterov_lie_trotter"),
                ("schedules", "make_schedule")} <= patched
        assert all(splitgrad.verify.SUITES[k] is not suites[k] for k in suites)
    finally:
        tracer.uninstall()
    after = _attributes()
    for m in MODULES:
        assert after[m].keys() == before[m].keys(), m
        assert [k for k in before[m] if after[m][k] is not before[m][k]] == [], m
    assert splitgrad.verify.SUITES == suites
    assert all(splitgrad.verify.SUITES[k] is suites[k] for k in suites)
