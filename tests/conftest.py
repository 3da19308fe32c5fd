"""Shared fixtures for the test suite.

Everything stochastic is seeded so the suite is deterministic; tests that
check statistical properties use sample sizes large enough that the assertion
bands hold with very large margin for the fixed seeds.  That includes
``hypothesis``: the profile loaded below derandomizes every ``@given`` test
(each test's own ``@settings`` inherits it), so a run draws the same examples
every time and reads or writes no example database.

This file also arms a per-test watchdog (SIGALRM-based, since the
environment has no ``pytest-timeout``): an asyncio test that deadlocks —
a pending future nobody fails, a drain that never completes — raises
:class:`WatchdogExpired` with a traceback of where it hung instead of
stalling CI forever.  Override per test with ``@pytest.mark.timeout(seconds)``.

Once collection is done, everything it built is frozen out of the cyclic
garbage collector (see ``pytest_collection_finish``).
"""

import gc
import signal

import pytest
from hypothesis import settings

from repro.optics.channel import ChannelParameters, QuantumChannel
from repro.pipeline import DistillationPipeline, PipelineStage
from repro.util.rng import DeterministicRNG

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

#: Generous default — the slowest legitimate tests (link farms,
#: Monte-Carlo frames) finish well inside it on a loaded CI worker.
DEFAULT_TEST_TIMEOUT_SECONDS = 120.0


class WatchdogExpired(BaseException):
    """A test outlived its watchdog.  Neither an ``Exception`` nor pytest's
    ``Failed``, so ``hypothesis`` does not take it for a failing example to
    shrink, and rerun into the same hang: it ends the test."""


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout(seconds): override the per-test watchdog timeout",
    )


def pytest_collection_finish(session):
    """Freeze what collection built: every imported test module, collected
    item and ``hypothesis`` strategy lives for the whole session.  Left in
    the collector's oldest generation, each full collection walks all of it
    — 25–55 ms with the whole suite collected — and one that fires inside a
    timed smoke repetition (``benchmarks/e21/test_e21_harness.py`` compares
    E21 layer times of a few tens of milliseconds) lands in whichever layer
    was running.  Frozen, a full collection walks only what the tests
    themselves allocate."""
    gc.freeze()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Fail (don't hang) any test that outlives its timeout.

    SIGALRM interrupts whatever the test is blocked in — including an
    event loop awaiting a future that will never resolve — so a hung
    asyncio test reports *where* it hung.  The alarm repeats every
    ``limit`` seconds until the test ends, in case something (an asyncio
    task's step, say) kept the first one from ending it.  Only available
    on the main thread of Unix; anywhere else the watchdog quietly stands
    down.
    """
    marker = item.get_closest_marker("timeout")
    limit = float(marker.args[0]) if marker and marker.args else (
        DEFAULT_TEST_TIMEOUT_SECONDS
    )
    use_alarm = hasattr(signal, "SIGALRM") and limit > 0

    def on_alarm(signum, frame):
        raise WatchdogExpired(f"test exceeded the {limit:.0f}s watchdog (likely a hang)")

    if use_alarm:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, limit, limit)
    try:
        return (yield)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    """A fresh deterministic RNG per test."""
    return DeterministicRNG(12345)


@pytest.fixture
def paper_channel():
    """The paper's operating-point channel with a fixed seed."""
    return QuantumChannel(ChannelParameters(), DeterministicRNG(2003))


@pytest.fixture
def small_frame(paper_channel):
    """A modest Monte-Carlo frame used by protocol-level tests."""
    return paper_channel.transmit(400_000)


class _RecordingStage(PipelineStage):
    """Runs ``stage`` and appends its name to ``ran`` first."""

    def __init__(self, stage, ran):
        self.stage, self.ran, self.name = stage, ran, stage.name

    def run(self, ctx):
        self.ran.append(self.name)
        return self.stage.run(ctx)


@pytest.fixture
def record_stages():
    """``record_stages(engine)`` rebuilds the engine's pipeline from recording
    copies of its stages and returns the list of stage names they append to,
    in run order, for every block the engine distils from then on."""

    def wrap(engine):
        ran = []
        engine.pipeline = DistillationPipeline(
            [_RecordingStage(stage, ran) for stage in engine.pipeline.stages]
        )
        return ran

    return wrap
