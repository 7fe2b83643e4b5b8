"""The benchmark's traced run (perfbench/layers.py) wraps ballharm functions
by module and attribute name, so a rename, or a move that drops the old
name, breaks it; these checks catch that in the test suite instead.

A move that keeps the old name as an import does not break it:
``Tracer.patch`` rebinds the wrapper under every name that binds the
original in any ``ballharm`` module.  ``_direct_pnorm`` lives in
``quadrature`` and ``cli`` imports it, so the ``cli._direct_pnorm`` target
still resolves and wraps the one function both names share."""

import importlib
import os

import pytest
import scipy.special

import ballharm

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
MODULES = (
    "_zonalseries", "cli", "errors", "expansion", "lemmas", "multipliers",
    "quadrature", "reports", "selftest", "specfun",
)


def _modules():
    return {name: importlib.import_module(f"ballharm.{name}") for name in MODULES}


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    layers = importlib.import_module("layers")
    targets = layers.targets(_modules(), scipy.special)
    assert targets
    for span, module, attr, _counts in targets:
        assert callable(getattr(module, attr, None)), f"{span}: {module.__name__}.{attr}"


def test_have_numba_flag_stays_false():
    # the benchmark worker records this flag in its run metadata
    from ballharm import _zonalseries

    assert _zonalseries._HAVE_NUMBA is False


def test_moved_direct_pnorm_keeps_its_traced_name():
    from ballharm import cli, quadrature

    assert cli._direct_pnorm is quadrature._direct_pnorm


@pytest.mark.parametrize("name", (None,) + MODULES)
def test_public_names_exist(name):
    module = ballharm if name is None else importlib.import_module(f"ballharm.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
