"""netkms and the fault plane keep time on the event loop they run on.

Leases, the replay window, store timestamps, retry backoff, recovery times,
injected delays and stalls all read the running loop's clock
(``loop.time()``, ``asyncio.sleep``), so a virtual-time loop
(:mod:`tests.virtual_loop`) controls every one of them and no clock or
sleep parameter is needed.  This scan keeps it that way: a module of
``repro.netkms`` or of the fault plane the tests drive it with
(``tests/faults``) fails it by calling ``time.monotonic``,
``time.time`` or ``time.sleep`` (by any import name), or by starting a
periodic task — a ``while`` loop that awaits ``asyncio.sleep``, or a
``call_later``/``call_at`` timer — where lazy work on each request does the
job.  ``time.perf_counter`` stays allowed: it times latency metrics and
decides nothing.
"""

import ast
import asyncio
from pathlib import Path

import pytest

from tests.virtual_loop import run_virtual

ROOT = Path(__file__).resolve().parents[1]
PACKAGES = ("src/repro/netkms", "tests/faults")
FORBIDDEN_TIME_CALLS = {"monotonic", "time", "sleep"}
TIMER_METHODS = {"call_later", "call_at"}


def _is_asyncio_sleep(node, asyncio_names):
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "sleep"
        and isinstance(func.value, ast.Name)
        and func.value.id in asyncio_names
    )


def clock_violations(source, filename="<source>"):
    """``line: what`` for each clock read or periodic task in ``source``."""
    tree = ast.parse(source, filename=filename)
    time_modules, time_functions, asyncio_names = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    time_modules.add(alias.asname or "time")
                elif alias.name == "asyncio":
                    asyncio_names.add(alias.asname or "asyncio")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            time_functions.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name in FORBIDDEN_TIME_CALLS
            )
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in FORBIDDEN_TIME_CALLS
                and isinstance(func.value, ast.Name)
                and func.value.id in time_modules
            ) or (isinstance(func, ast.Name) and func.id in time_functions):
                found.append(f"{node.lineno}: reads the clock with {ast.unparse(func)}()")
            elif isinstance(func, ast.Attribute) and func.attr in TIMER_METHODS:
                found.append(f"{node.lineno}: arms a timer with {ast.unparse(func)}()")
        elif isinstance(node, ast.While):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call) and _is_asyncio_sleep(inner, asyncio_names):
                    found.append(f"{inner.lineno}: a periodic task sleeps in a while loop")
    return found


def test_netkms_and_faults_keep_time_on_their_event_loop():
    found = []
    for package in PACKAGES:
        paths = sorted((ROOT / package).rglob("*.py"))
        assert paths, f"{package} holds no module: the scan lost what it covers"
        for path in paths:
            found += [
                f"{path.relative_to(ROOT)}:{line}"
                for line in clock_violations(path.read_text(), str(path))
            ]
    assert not found, (
        "netkms and the fault plane read time only from their event loop "
        "(loop.time(), asyncio.sleep) and run no periodic task:\n  " + "\n  ".join(found)
    )


@pytest.mark.parametrize(
    "source",
    [
        "import time\ndeadline = time.monotonic() + 1",
        "import time as clock\nclock.sleep(0.1)",
        "from time import time as wall\nstamp = wall()",
        "import asyncio\nasync def sweep():\n    while True:\n        await asyncio.sleep(1)",
        "import asyncio\nasyncio.get_running_loop().call_later(1, print)",
    ],
)
def test_the_scan_flags_each_way_to_leave_the_loop_clock(source):
    assert len(clock_violations(source)) == 1


def test_the_scan_allows_latency_timing_and_one_off_sleeps():
    source = (
        "import asyncio, time\n"
        "started = time.perf_counter()\n"
        "clock = time.monotonic\n"
        "async def backoff(delays):\n"
        "    for delay in delays:\n"
        "        await asyncio.sleep(delay)\n"
    )
    assert clock_violations(source) == []


def test_the_virtual_loop_jumps_to_each_timer_and_reports_a_deadlock():
    async def sleeps():
        loop = asyncio.get_running_loop()
        await asyncio.sleep(30.0)
        loop.advance(0.5)
        return loop.time()

    async def waits_forever():
        await asyncio.get_running_loop().create_future()

    assert run_virtual(sleeps()) == 30.5
    with pytest.raises(RuntimeError, match="deadlocked"):
        run_virtual(waits_forever())
