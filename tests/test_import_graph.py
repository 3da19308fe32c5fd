"""What an import loads: the key-serving side loads no photon code.

Every package resolves its exports on first use (:mod:`repro.util.exports`),
and the modules a key server needs import the link, IPsec, relay and DTN
layers only where a builder first asks for them.  The first tests pin, as
literals, the exact ``repro`` modules three import sets load in a fresh
interpreter, and that numpy is not among what they load: E21's own import
set (the harness and its workloads), a netkms client alone, and a small
metro key service in analytic mode built and served end to end — its links
priced by the closed-form model of :mod:`repro.optics.model`, so no link,
engine or Monte-Carlo optics module loads.  A new top-level import that
drags a layer in fails here, by name, rather than showing up as a slower
start or a larger resident set.

The rest check that laziness is invisible to callers: every package export
resolves, every export table names what its module defines, unknown names
stay unknown, and every module imports alone in a fresh interpreter, so no
import cycle hides behind the order an eager package ``__init__`` used to
fix.
"""

import ast
import importlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: What ``from benchmarks.e21 import harness, workloads`` loads of the package.
E21_MODULES = {
    "repro",
    "repro.api",
    "repro.core",
    "repro.core.keypool",
    "repro.core.wire",
    "repro.ipsec",
    "repro.ipsec.packets",
    "repro.ipsec.spd",
    "repro.kms",
    "repro.kms.indexing",
    "repro.kms.scheduler",
    "repro.kms.service",
    "repro.kms.store",
    "repro.kms.workload",
    "repro.netkms",
    "repro.netkms.client",
    "repro.netkms.metrics",
    "repro.netkms.protocol",
    "repro.netkms.server",
    "repro.util",
    "repro.util.bits",
    "repro.util.exports",
    "repro.util.latency",
    "repro.util.rng",
}

#: What ``import repro.netkms.client`` loads of the package.
CLIENT_MODULES = {
    "repro",
    "repro.core",
    "repro.core.wire",
    "repro.netkms",
    "repro.netkms.client",
    "repro.netkms.protocol",
    "repro.util",
    "repro.util.exports",
}

#: What ``QKDSystem(...).metro(...).kms(...).serve(...)`` loads in the default
#: analytic mode: the service, relay mesh, routing, IKE and custody layers,
#: and of the optics only the model and the fiber loss budget it reads.
ANALYTIC_KMS_MODULES = {
    "repro",
    "repro.api",
    "repro.core",
    "repro.core.keypool",
    "repro.crypto",
    "repro.crypto.aes",
    "repro.crypto.modes",
    "repro.crypto.otp",
    "repro.crypto.sha1",
    "repro.dtn",
    "repro.dtn.contact",
    "repro.dtn.policies",
    "repro.dtn.store",
    "repro.dtn.transport",
    "repro.ipsec",
    "repro.ipsec.esp",
    "repro.ipsec.gateway",
    "repro.ipsec.ike",
    "repro.ipsec.packets",
    "repro.ipsec.sad",
    "repro.ipsec.spd",
    "repro.kms",
    "repro.kms.indexing",
    "repro.kms.scheduler",
    "repro.kms.service",
    "repro.kms.store",
    "repro.kms.workload",
    "repro.kms.zones",
    "repro.mathkit",
    "repro.mathkit.entropy",
    "repro.network",
    "repro.network.graph",
    "repro.network.relay",
    "repro.network.routing",
    "repro.network.topology",
    "repro.optics",
    "repro.optics.fiber",
    "repro.optics.model",
    "repro.runtime",
    "repro.runtime.farm",
    "repro.sim",
    "repro.sim.clock",
    "repro.util",
    "repro.util.bits",
    "repro.util.exports",
    "repro.util.latency",
    "repro.util.rng",
    "repro.util.units",
}

REPORT = (
    "import sys\n"
    "print(sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.')))\n"
    "print('numpy' in sys.modules)\n"
)


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with ``src/`` and the repository
    root on the path."""
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(ROOT)))},
        capture_output=True,
        text=True,
        timeout=120,
    )


def _loaded(code: str):
    finished = _fresh(code + "\n" + REPORT)
    assert finished.returncode == 0, finished.stderr
    modules, numpy_loaded = finished.stdout.splitlines()[-2:]
    return set(ast.literal_eval(modules)), numpy_loaded == "True"


def test_the_e21_import_set_loads_no_photon_code_and_no_numpy():
    modules, numpy_loaded = _loaded("from benchmarks.e21 import harness, workloads")
    assert modules == E21_MODULES
    assert not numpy_loaded


def test_a_netkms_client_alone_loads_no_numpy():
    modules, numpy_loaded = _loaded("import repro.netkms.client")
    assert modules == CLIENT_MODULES
    assert not numpy_loaded


def test_an_analytic_metro_kms_loads_no_photon_code_and_no_numpy():
    modules, numpy_loaded = _loaded(
        "from repro import QKDSystem\n"
        "from repro.kms import KmsConfig\n"
        "service = QKDSystem(seed=7).metro(n_zones=2, endpoints_per_zone=2).kms(KmsConfig())\n"
        "report = service.serve(hours=0.1)\n"
        "assert report.demands > 0 and service.metrics.epochs_run > 0\n"
    )
    assert modules == ANALYTIC_KMS_MODULES
    assert not numpy_loaded


def test_laziness_is_transparent_after_the_light_import():
    """The same process that loaded only the light set builds a link and
    reads a kms name through the top-level package."""
    finished = _fresh(
        "from benchmarks.e21 import harness, workloads\n"
        "from repro import QKDSystem\n"
        "report = QKDSystem(seed=2003).link().run_slots(200_000)\n"
        "assert report.slots_transmitted == 200_000\n"
        "import repro\n"
        "from repro.kms.service import KmsConfig\n"
        "assert repro.kms.KmsConfig is KmsConfig\n"
        "print('ok')\n"
    )
    assert finished.returncode == 0, finished.stderr
    assert finished.stdout.split() == ["ok"]


# --------------------------------------------------------------------------- #
# Export tables
# --------------------------------------------------------------------------- #


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


SHIPPED = sorted(_module_name(path) for path in (SRC / "repro").rglob("*.py"))
PACKAGES = sorted(_module_name(path) for path in (SRC / "repro").rglob("__init__.py"))


def _tables():
    """``(module, {defining module: names})`` for every ``lazy_exports`` call."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
                yield _module_name(path), ast.literal_eval(node.args[1])


TABLES = list(_tables())


def test_every_package_exports_through_a_table():
    assert sorted(module for module, _table in TABLES) == PACKAGES


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listing = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None
        assert name in listing


@pytest.mark.parametrize("owner, table", TABLES, ids=[owner for owner, _ in TABLES])
def test_every_table_entry_names_what_its_module_defines(owner, table):
    for defining, names in table.items():
        module = importlib.import_module(defining)
        for name in names:
            assert name in vars(module), f"{owner}: {defining} defines no {name}"
            assert getattr(importlib.import_module(owner), name) is vars(module)[name]


@pytest.mark.parametrize("package", PACKAGES)
def test_an_unknown_name_stays_unknown(package):
    module = importlib.import_module(package)
    assert not hasattr(module, "no_such_export")
    with pytest.raises(AttributeError, match="no_such_export"):
        module.no_such_export


def test_a_subpackage_resolves_as_an_attribute():
    finished = _fresh("import repro\nprint(repro.kms.KmsConfig.__name__, repro.lanes.__name__)")
    assert finished.returncode == 0, finished.stderr
    assert finished.stdout.split() == ["KmsConfig", "repro.lanes"]


# --------------------------------------------------------------------------- #
# No import cycle
# --------------------------------------------------------------------------- #


def test_every_module_imports_alone_in_a_fresh_interpreter():
    """Each module is the first and only thing a fresh interpreter imports,
    two interpreters at a time; the first to fail in ``SHIPPED`` order is
    named."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = pool.map(lambda module: _fresh(f"import {module}"), SHIPPED)
        for module, finished in zip(SHIPPED, runs):
            assert finished.returncode == 0, f"import {module} alone fails:\n{finished.stderr}"
