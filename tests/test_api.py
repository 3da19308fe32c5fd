"""Tests for the top-level repro.api facade (QKDSystem and friends)."""

import ast
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import MeshSystem, QKDSystem, SystemConfig, VPNSystem
from repro.core.engine import EngineParameters
from repro.ipsec.spd import CipherSuite
from repro.kms import AggregateProfile, KmsConfig, ZonePlan
from repro.link import LinkParameters, QKDLink
from repro.optics.model import ChannelParameters
from repro.util.rng import DeterministicRNG


def far_slutsky_link():
    return LinkParameters(
        channel=ChannelParameters.for_distance(20.0),
        engine=EngineParameters(defense="slutsky", block_size_bits=1024),
        slots_per_batch=250_000,
    )


class TestSystemConfig:
    def test_the_default_link_is_the_papers(self):
        assert SystemConfig().link is None
        assert QKDSystem(seed=1).link().parameters == LinkParameters.paper_link()

    def test_the_config_link_is_the_one_built(self):
        parameters = far_slutsky_link()
        link = QKDSystem(seed=1, link=parameters).link()
        assert link.parameters is parameters
        assert link.channel.parameters.path.length_km == 20.0
        assert link.engine.parameters.block_size_bits == 1024


class TestFluentBuilders:
    def test_configured_derives_new_systems(self):
        """A variant is ``QKDSystem(replace(base.config, ...))``; the base
        system's config is left as it was."""
        base = QKDSystem(seed=1)
        far = far_slutsky_link()
        derived = QKDSystem(replace(base.config, link=far, seed=9))
        assert base.config.link is None
        assert base.config.seed == 1
        assert derived.config.link is far
        assert derived.config.seed == 9

    def test_kwargs_constructor(self):
        system = QKDSystem(seed=5, distill_seconds=1.0)
        assert system.config.seed == 5
        assert system.config.distill_seconds == 1.0


class TestLinkFacade:
    def test_round_trip_matches_legacy_link(self):
        """QKDSystem.link must be bit-for-bit the legacy construction."""
        facade = QKDSystem(seed=2003).link().run_seconds(1.0)
        legacy = QKDLink(
            LinkParameters.paper_link(), rng=DeterministicRNG(2003)
        ).run_seconds(1.0)
        assert facade.sifted_bits == legacy.sifted_bits
        assert facade.distilled_bits == legacy.distilled_bits
        assert facade.mean_qber == legacy.mean_qber
        assert facade.blocks_distilled == legacy.blocks_distilled
        assert facade.blocks_aborted == legacy.blocks_aborted

    def test_link_overrides(self):
        far = LinkParameters(channel=ChannelParameters.for_distance(25.0))
        link = QKDSystem(seed=3).link(link=far, name="far-link")
        assert link.name == "far-link"
        assert link.parameters.channel.path.length_km == 25.0

    def test_defense_reaches_engine(self):
        slutsky = LinkParameters(engine=EngineParameters(defense="slutsky"))
        link = QKDSystem(seed=4, link=slutsky).link()
        assert link.engine.estimator.defense.name == "slutsky"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("confidence_sigmas", 4.0),
            ("block_size_bits", 1024),
            ("abort_qber", 0.2),
            ("randomness_testing", True),
        ],
    )
    def test_distillation_field_reaches_engine(self, field, value):
        engine = replace(LinkParameters.paper_link().engine, **{field: value})
        link = QKDSystem(seed=4, link=LinkParameters(engine=engine)).link()
        assert getattr(link.engine.parameters, field) == value
        assert getattr(QKDSystem(seed=4).link().engine.parameters, field) != value


class TestInputsAreRefusedWhereTheyEnter:
    """Non-finite or negative inputs fail at the call that takes them."""

    @pytest.mark.parametrize("distance", [float("nan"), float("inf"), -1.0])
    def test_a_link_over_a_bad_distance(self, distance):
        with pytest.raises(ValueError, match="fiber length must be finite and non-negative"):
            ChannelParameters.for_distance(distance)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -1.0])
    def test_run_seconds(self, seconds):
        """NaN and infinity used to surface ``int()``'s ValueError and
        OverflowError."""
        link = QKDSystem(seed=1).link()
        with pytest.raises(ValueError, match="duration must be finite and non-negative"):
            link.run_seconds(seconds)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -1.0])
    def test_vpn_distill_seconds(self, seconds):
        """NaN and negative values used to skip distillation silently."""
        with pytest.raises(ValueError, match="distill_seconds must be finite and non-negative"):
            QKDSystem(seed=1, distill_seconds=seconds).vpn()

    def test_zero_distill_seconds_still_means_no_distillation(self):
        vpn = QKDSystem(seed=1, distill_seconds=0.0).vpn()
        assert vpn.initial_report is None

    def test_a_mesh_of_one_relay_banks_no_self_loop_pad(self):
        mesh = QKDSystem(seed=1, n_endpoints=2, n_relays=1).mesh()
        assert ("relay-0", "relay-0") not in mesh.relays.pairwise_pads
        assert not mesh.relays.network.graph.has_edge("relay-0", "relay-0")
        assert mesh.relays.transport_key("endpoint-0", "endpoint-1").success


class TestVpnFacade:
    @pytest.fixture(scope="class")
    def vpn(self):
        system = QKDSystem(seed=42)
        return system.vpn(distill_seconds=1.0)

    def test_vpn_assembles_link_and_gateways(self, vpn):
        assert isinstance(vpn, VPNSystem)
        assert vpn.initial_report is not None
        assert vpn.link.engine.alice_pool.available_bits > 0
        # Both gateways draw from the same link's (independent) pools.
        assert vpn.gateways.alice.key_pool is vpn.link.engine.alice_pool
        assert vpn.gateways.bob.key_pool is vpn.link.engine.bob_pool

    def test_tunnel_round_trip(self, vpn):
        vpn.secure_tunnel("enclave", "10.1.0.0/16", "10.2.0.0/16")
        before = vpn.link.engine.alice_pool.available_bits
        delivered = vpn.send("10.1.0.9", "10.2.0.7", b"attack at dawn")
        assert delivered is not None
        assert delivered.payload == b"attack at dawn"
        # Bringing the tunnel up consumed QKD key.
        assert vpn.link.engine.alice_pool.available_bits < before

    def test_one_time_pad_tunnel(self, vpn):
        # A one-time-pad SA spends pad byte-for-byte on traffic, so give it a
        # Qblock big enough for the test payload plus ESP overhead.
        vpn.secure_tunnel(
            "sensitive",
            "10.5.0.0/16",
            "10.6.0.0/16",
            cipher_suite=CipherSuite.ONE_TIME_PAD,
            qkd_bits_per_rekey=4096,
        )
        delivered = vpn.send("10.5.0.1", "10.6.0.1", b"topmost secret")
        assert delivered is not None and delivered.payload == b"topmost secret"

    def test_top_up_credits_both_pools(self, vpn):
        before_alice = vpn.link.engine.alice_pool.available_bits
        before_bob = vpn.link.engine.bob_pool.available_bits
        vpn.top_up(512)
        assert vpn.link.engine.alice_pool.available_bits == before_alice + 512
        assert vpn.link.engine.bob_pool.available_bits == before_bob + 512

    def test_top_up_never_repeats_key_material(self, vpn):
        """Repeated reservoir credits must be fresh bits, never a repeated
        pad (one-time-pad SAs draw from these pools)."""
        vpn.top_up(256)
        vpn.top_up(256)
        pool = vpn.link.engine.alice_pool
        assert pool.blocks[-1].bits != pool.blocks[-2].bits


class TestMeshFacade:
    @pytest.fixture(scope="class")
    def mesh(self):
        return QKDSystem(seed=7).mesh(n_endpoints=3, n_relays=4)

    def test_mesh_assembles_network(self, mesh):
        assert isinstance(mesh, MeshSystem)
        assert set(mesh.endpoints()) == {"endpoint-0", "endpoint-1", "endpoint-2"}

    def test_transport_key(self, mesh):
        result = mesh.relays.transport_key("endpoint-0", "endpoint-1")
        assert result.success
        assert result.key is not None and len(result.key) == 256

    def test_reroute_after_fiber_cut(self, mesh):
        healthy = mesh.relays.transport_key("endpoint-0", "endpoint-1")
        assert healthy.success
        mesh.relays.network.cut_link(healthy.path[1], healthy.path[2])
        rerouted = mesh.relays.transport_with_reroute("endpoint-0", "endpoint-1")
        assert rerouted.success
        assert rerouted.path != healthy.path

    def test_run_links_for_adds_pairwise_key(self, mesh):
        # Skip any link an earlier test in this class cut.
        edge = next(e for e in mesh.relays.network.links() if e.usable)
        before = mesh.relays.pairwise_key_available_bits(edge.node_a, edge.node_b)
        mesh.relays.run_links_for(10.0)
        after = mesh.relays.pairwise_key_available_bits(edge.node_a, edge.node_b)
        assert after > before


class TestConfigFirstKms:
    """The config-first kms() surface."""

    def make_mesh(self):
        return QKDSystem(seed=7).mesh(n_endpoints=2, n_relays=2)

    def test_builders_return_new_configs(self):
        base = KmsConfig()
        plan = ZonePlan(zones={"z00": ("a",)}, gateways={"z00": "a"})
        zoned = base.with_zones(plan)
        # A trunk store may refill to the level it refills below.
        level = replace(base, trunk_low_water_bits=base.trunk_high_water_bits).with_zones(plan)
        loaded = base.with_workload(AggregateProfile.poisson(tunnels=10))
        assert base.zones is None and base.custody is False and base.workload is None
        assert zoned.zones is plan and zoned is not base
        assert level.zones is plan and level.trunk_low_water_bits == level.trunk_high_water_bits
        assert loaded.workload.tunnels == 10

    def test_custody_and_zones_compose_on_the_metro_facade(self):
        custodial = replace(KmsConfig(), custody=True)
        metro = QKDSystem(seed=12).metro(
            n_zones=2, endpoints_per_zone=2, relays_per_zone=2, prefill_seconds=200.0
        )
        plan = metro.zone_plan
        assert replace(KmsConfig().with_zones(plan), custody=True) == custodial.with_zones(plan)
        service = metro.kms(custodial)
        assert service.zone_plan is not None and service.custody is not None
        report = service.serve(hours=0.05)
        assert report.zones == 2 and report.delivered_keys > 0
        assert report.completion_accounted and report.custody_accounted

    def test_config_first_path_is_warning_free(self):
        import warnings as warnings_module

        mesh = self.make_mesh()
        config = KmsConfig().with_workload(
            AggregateProfile.poisson(tunnels=5, mean_interval_seconds=600.0)
        )
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", DeprecationWarning)
            service = mesh.kms(config)
        assert service.config.workload is config.workload


class TestPackageExports:
    def test_facade_reexported_at_top_level(self):
        import repro

        assert repro.QKDSystem is QKDSystem
        for name in ("QKDSystem", "SystemConfig", "VPNSystem", "MeshSystem"):
            assert name in repro.__all__

    def test_a_mesh_builds_and_routes_in_a_process_that_started_with_a_link(self):
        """The mesh is routed on plain dicts: no graph library is imported
        to build a mesh, a zoned service or a custody layer, or to route."""
        script = (
            "import sys\n"
            "from repro import QKDSystem\n"
            "QKDSystem(seed=1).link()\n"
            "import repro.dtn, repro.kms, repro.netkms, repro.network\n"
            "mesh = QKDSystem(seed=7).mesh(n_endpoints=3, n_relays=4)\n"
            "result = mesh.relays.transport_key('endpoint-0', 'endpoint-1')\n"
            "assert result.success and len(result.key) == 256\n"
            "metro = QKDSystem(seed=12).metro(\n"
            "    n_zones=2, endpoints_per_zone=2, relays_per_zone=2, prefill_seconds=0.0\n"
            ")\n"
            "assert metro.kms().zone_plan is not None\n"
            "assert mesh.relays.enable_custody().static_distance('endpoint-0', 'endpoint-1') > 1\n"
            "assert 'networkx' not in sys.modules\n"
            "print(len(result.path))\n"
        )
        source = str(Path(__file__).resolve().parent.parent / "src")
        finished = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": source},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert finished.returncode == 0, finished.stderr
        assert int(finished.stdout) >= 3

    def test_the_readme_quick_start_runs(self):
        """README.md's first python block, run as written: a name it calls
        cannot leave the package unnoticed."""
        root = Path(__file__).resolve().parent.parent
        block = re.search(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S).group(1)
        finished = subprocess.run(
            [sys.executable, "-c", block],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert finished.returncode == 0, finished.stderr

    def test_every_shipped_module_is_imported_outside_the_tests(self):
        """A module only ``tests/`` imports is an oracle parked in the package:
        it belongs in ``tests/oracles/``.  A module named in a lazy export
        table (``lazy_exports(__name__, {module: names})``) counts as
        imported by the package that lists it: it loads on first use."""
        root = Path(__file__).resolve().parent.parent
        package = root / "src" / "repro"

        def module_name(path):
            parts = path.relative_to(package.parent).with_suffix("").parts
            return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        shipped = {module_name(path): path for path in package.rglob("*.py")}
        importers = [(path, name) for name, path in shipped.items()]
        for folder in ("benchmarks", "examples"):
            importers += [(path, None) for path in (root / folder).rglob("*.py")]

        def imported_names(path, own_name):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    yield from (alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    base = node.module or ""
                    if node.level:  # relative: resolve against the importer
                        anchor = own_name.split(".")
                        if path.name != "__init__.py":
                            anchor = anchor[:-1]
                        anchor = anchor[: len(anchor) - (node.level - 1)]
                        base = ".".join(anchor + ([base] if base else []))
                    yield base
                    # ``from pkg import name`` may name a submodule
                    yield from (f"{base}.{alias.name}" for alias in node.names)
                elif (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "lazy_exports"
                    and isinstance(node.args[1], ast.Dict)
                ):
                    yield from (key.value for key in node.args[1].keys)

        reached = set()
        for path, own_name in importers:
            for target in imported_names(path, own_name):
                # importing a.b.c imports a and a.b on the way
                pieces = target.split(".")
                prefixes = {".".join(pieces[:depth]) for depth in range(1, len(pieces) + 1)}
                reached |= (prefixes & shipped.keys()) - {own_name}
        assert sorted(set(shipped) - reached) == []
