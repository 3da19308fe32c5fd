"""Shared helpers for the soak benchmarks.

Each ``bench_eNN_*.py`` file (E15, E18-E20) runs one long-lived service soak,
prints its table and asserts what the soak must keep (conservation,
exactly-once service, bounded growth).  The paper's quantitative claims
(E1-E12, A1-A2) are one tier-1 table, ``tests/test_paper_claims.py``.  Timed
end-to-end numbers live in E21 (``benchmarks/e21/README.md``) with its in-tree
baseline.

Run with:  pytest benchmarks/ --benchmark-only

Machine-readable output
-----------------------

Set ``BENCH_JSON_DIR=<directory>`` to additionally write every table a
benchmark prints to ``BENCH_<module>.json`` in that directory (one file per
benchmark module, a list of ``{test, title, headers, rows}`` objects,
appended across tests in the same run).  CI and the perf-trajectory tooling
diff these files across PRs; the before/after numbers quoted in a PR should
come from here rather than from eyeballing the stderr tables.
"""

import json
import os
import sys

import pytest


def _knob_error(name, raw, expected):
    """A malformed BENCH_* knob fails loudly at collection, naming the knob.

    Without this, a typo like ``BENCH_E15_HOURS=2h`` surfaces as a bare
    ``ValueError`` traceback from deep inside a benchmark run, with nothing
    pointing at the environment variable that caused it.
    """
    return pytest.UsageError(
        f"Malformed benchmark knob {name}={raw!r}: expected {expected}. "
        f"Unset it or give it a valid value."
    )


def int_env(name, default, minimum=None):
    """Read an integer BENCH_* knob with a clear error on malformed input."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise _knob_error(name, raw, "an integer") from None
    if minimum is not None and value < minimum:
        raise _knob_error(name, raw, f"an integer >= {minimum}")
    return value


def float_env(name, default, minimum=None):
    """Read a float BENCH_* knob with a clear error on malformed input."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = float(raw)
    except ValueError:
        raise _knob_error(name, raw, "a number") from None
    if minimum is not None and value < minimum:
        raise _knob_error(name, raw, f"a number >= {minimum}")
    return value


def emit(title, headers, rows):
    """Print a small aligned table so the benchmark output reads like the paper."""
    print(f"\n=== {title} ===", file=sys.stderr)
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    header_line = "  ".join(str(h).rjust(w) for h, w in zip(headers, widths))
    print(header_line, file=sys.stderr)
    print("-" * len(header_line), file=sys.stderr)
    for row in rows:
        print("  ".join(str(c).rjust(w) for c, w in zip(row, widths)), file=sys.stderr)


#: Files already written by this pytest run; the first table for a module in
#: a run truncates any file left over from a previous run, so entries only
#: accumulate within one session and the trajectory tooling never sees stale
#: rows.
_JSON_FILES_THIS_RUN = set()


def _record_json(module_name, test_name, title, headers, rows):
    """Append one table to ``BENCH_<module>.json`` if BENCH_JSON_DIR is set."""
    out_dir = os.environ.get("BENCH_JSON_DIR")
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{module_name}.json")
    entries = []
    if path in _JSON_FILES_THIS_RUN:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entries = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            entries = []
    _JSON_FILES_THIS_RUN.add(path)
    entries.append(
        {
            "test": test_name,
            "title": title,
            "headers": list(headers),
            "rows": [[_plain(cell) for cell in row] for row in rows],
        }
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=1)
        handle.write("\n")


def _plain(cell):
    """Coerce a table cell to a JSON-native type (numbers stay numbers)."""
    if isinstance(cell, (int, float, str, bool)) or cell is None:
        return cell
    return str(cell)


@pytest.fixture
def table(request):
    """Fixture exposing the table printer to benchmark functions.

    Prints to stderr always; mirrors the table into ``BENCH_<module>.json``
    when ``BENCH_JSON_DIR`` is set (see module docstring).
    """
    module_name = request.node.module.__name__.rpartition(".")[2]

    def _table(title, headers, rows):
        emit(title, headers, rows)
        _record_json(module_name, request.node.name, title, headers, rows)

    return _table


def run_once(benchmark, fn):
    """Run an expensive experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)
