"""Shared fixtures.

Kernel constants (``CONST``) are process-global (mirroring
``opp_decl_const``); tests that declare constants must not leak into each
other, so every test runs against a snapshot-restored registry.

Randomness policy: the legacy ``np.random`` global state is seeded
per-test from the test's node id, so any test that (directly or through
library code) touches the global RNG is reproducible in isolation and
independent of execution order.  The seed is echoed in the failure
report, and conformance failures additionally surface their shrunk
minimal case there.
"""
from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.core.kernel import CONST


@pytest.fixture(autouse=True)
def _isolate_constants():
    saved = CONST.snapshot()
    yield
    CONST.restore(saved)


def _seed_for(nodeid: str) -> int:
    return zlib.crc32(nodeid.encode())


@pytest.fixture(autouse=True)
def _seed_global_rng(request):
    seed = _seed_for(request.node.nodeid)
    np.random.seed(seed)
    yield


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="module")
def scratch_native_cache(tmp_path_factory):
    """Build a module's randomly generated loops into a throw-away
    directory instead of the user's shared-object cache; yields whether
    the native tier is there at all."""
    from repro.translator import native
    saved = native.CACHE
    native.CACHE = str(tmp_path_factory.mktemp("oppic-cache"))
    yield native.compiler() is not None
    native.CACHE = saved


@pytest.fixture
def numpy_target(monkeypatch):
    """Pin ``vec`` to its NumPy codegen target (no native launch), for
    the tests that exist to exercise that target's mechanisms: blocks,
    plans, reduction strategies."""
    from repro.translator import native
    monkeypatch.setattr(native, "CC", None)


@pytest.fixture(params=["native", "numpy"])
def target(request, monkeypatch):
    """Run the test once on the C target and once with ``native.CC``
    pinned to None (the NumPy target)."""
    from repro.translator import native
    if request.param == "native" and native.compiler() is None:
        pytest.skip("no C compiler")
    if request.param == "numpy":
        monkeypatch.setattr(native, "CC", None)
    return request.param


def pytest_addoption(parser):
    parser.addoption("--slow", action="store_true", default=False,
                     help="run slow tests")
    parser.addoption("--physics", action="store_true", default=False,
                     help="run full-length physics gate tests")
    parser.addoption("--conformance-cases", action="store", default=25,
                     type=int,
                     help="randomized cases per backend in the "
                          "differential conformance sweep")


def pytest_collection_modifyitems(config, items):
    run_slow = config.getoption("--slow")
    run_physics = config.getoption("--physics")
    skip_slow = pytest.mark.skip(reason="slow test: pass --slow to run")
    skip_physics = pytest.mark.skip(
        reason="physics gate test: pass --physics to run")
    for item in items:
        if not run_slow and "slow" in item.keywords:
            item.add_marker(skip_slow)
        if not run_physics and "physics" in item.keywords:
            item.add_marker(skip_physics)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running test")
    config.addinivalue_line(
        "markers",
        "conformance: differential backend-conformance suite "
        "(run alone with -m conformance)")
    config.addinivalue_line(
        "markers",
        "physics: full-length physics gate run against closed-form "
        "theory (run with --physics or -m physics --physics)")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    report.sections.append(
        ("rng", f"np.random seeded with {_seed_for(item.nodeid)} "
                f"(crc32 of {item.nodeid!r})"))
    exc = getattr(call.excinfo, "value", None)
    shrunk = getattr(exc, "shrunk", None)
    if shrunk is not None:
        report.sections.append(
            ("conformance shrunk case", shrunk.signature()))
