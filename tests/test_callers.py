"""Every definition in ``src/`` has a caller, and every option a setter,
outside the tests.

A function, class or method that only the test suite reaches is API the
running system does not use: it costs reading, keeps documentation alive
and lets a test pass against code no deployment runs.  This scan walks
every ``def`` and ``class`` in ``src/`` and looks for its name where
production code could use it — ``src/``, ``benchmarks/`` (E21 wraps its
targets by name) and ``examples/``; ``tests/`` does not count.

A use is an identifier in code: a name, an attribute, or a string that is
exactly the identifier (``getattr`` and the E21 trace table look names up
that way).  Docstrings, comments, ``import`` lines, ``__all__`` lists and
the export tables passed to ``lazy_exports`` are not uses, so an
``__init__`` re-export keeps nothing alive.  A method needs
an attribute use (``obj.name``) or a bare use inside its own class body;
a local variable that shares its name does not count.  Dunder methods are
called by the interpreter and are skipped.

A use counts only where the code around it runs: at import (module level),
in ``benchmarks/`` or ``examples/``, or in the body of a definition that is
itself used — found as a fixpoint over the scan.  So a use inside a def's
own body keeps nothing alive (``DeterministicRNG.choice`` calling the
standard library's ``choice`` is not a caller of itself), and neither does a
use inside a def that nothing calls.  A decorator, a default or an
annotation runs where the def stands, so it counts there.  A dunder, and a
name in :data:`ALLOWED`, runs when its class does.

The check is by name, so two definitions sharing a name keep each other
alive; it errs towards passing, never towards a false failure.

The second scan applies the same rule to options.  An option is a
defaulted field of a ``*Parameters``/``*Config``/``*Policy``/``*Profile``
dataclass (a ``ClassVar`` is a constant, not an option), or a defaulted
parameter of a public function, method or class constructor in ``src/``.
It stays only if a call in ``src/``, ``benchmarks/`` or ``examples/`` sets
it to something other than its default.  Each value a call passes is
recorded under its ``(callee, keyword)`` pair — the callee is the called
function's or class's name (``cls`` and ``super().__init__`` resolve to
their class), and a positional argument takes the name of the parameter at
its place, a string key of a ``**{...}`` literal the key — and it counts
for an option only when the callee is the option's owner, or when the code
forwards the value to the owner, followed transitively:

* a defaulted parameter of the enclosing function passed on under its own
  name, by keyword or by position (``transport_key(..., within=within)``);
* the enclosing function's ``**kwargs`` passed into a callee, or into
  ``replace()``, which reaches the options-dataclass fields of that name
  (``replace(self.config, **overrides)``);
* an options-dataclass field copied across under its own name
  (``owner(workers=config.workers)``, a case of :data:`FORWARDS`).

A forward is not a setting: the forwarded option is set only if the value
at the far end is.  A ``*``/``**`` splat of anything else may set every
parameter of its callee.  Two callees that share a name still share their
settings, so the scan errs towards passing.  Every other option is a
constant, or is listed in :data:`ALLOWED_OPTIONS` with the reason a caller
may still want it: a deployment setting, a test seam that substitutes a
fake, a paper-model parameter a test sweeps, or a setting a pinned digest,
a row of ``tests/test_paper_claims.py``, a soak row of
``tests/test_soak_claims.py`` or the swarm needs (the reason names it).

An allowlist entry is stale, and fails the scan, once its reason no longer
holds.  An allowed def must still be uncalled, and one whose reason names a
test under ``tests/`` must still be used there.  An allowed option must
still be unset, and one kept for a test seam, a pin, a claim row or a soak
row must still be set by some file under ``tests/``.  So a test that goes
takes the option or def it alone needed with it.
"""

import ast
import functools
import textwrap
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "examples")

#: Definitions kept without a production caller, each with its reason.
ALLOWED = {
    "independent_parities": "the tight Cascade leakage figure, pinned by "
    "tests/test_pinned_key_material.py, whose literals stay as they are",
    "total_bytes": "transcript size pinned by tests/test_pinned_key_material.py",
    "frame_numbers": "per-slot frame index hashed by tests/test_pinned_key_material.py",
    "entangled_link": "the planned second link's channel: the "
    "E10 and A2 rows of tests/test_paper_claims.py run it, and its branch in "
    "tests/test_pinned_key_material.py pins one",
    # asyncio calls these on a connection's protocol: the event loop is the
    # caller, as the interpreter is a dunder's.
    "connection_made": "asyncio.Protocol callback of the netkms client and server",
    "data_received": "asyncio.Protocol callback of the netkms client and server",
    "eof_received": "asyncio.Protocol callback of the netkms server",
    "pause_writing": "asyncio.Protocol callback of the netkms server",
    "resume_writing": "asyncio.Protocol callback of the netkms server",
    "connection_lost": "asyncio.Protocol callback of the netkms client and server",
}


def _not_uses(tree):
    """ids of the nodes inside ``__all__`` lists and ``lazy_exports`` tables."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            skipped.update(id(item) for item in ast.walk(node.value))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
            skipped.update(id(item) for argument in node.args for item in ast.walk(argument))
    return skipped


class _Scope:
    """A stretch of code that runs as one: a module's top level, or the body
    of one def or class (its nested defs are scopes of their own), with the
    names it uses."""

    def __init__(self, location=None, name=None, owner=None):
        self.location, self.name, self.owner = location, name, owner
        self.bare, self.attributes = set(), set()

    @property
    def always_runs(self):
        """Module level, a dunder or an allowlisted def: the interpreter or
        the event loop calls it (a method, once its class runs)."""
        return self.name is None or self.name in ALLOWED or (
            self.name.startswith("__") and self.name.endswith("__")
        )


@functools.lru_cache(maxsize=None)
def _scopes(tree, location_of=None):
    """Every scope of one module, the module's top level first."""
    skipped = _not_uses(tree)
    scopes = [_Scope()]

    def record(node, scope):
        if isinstance(node, ast.Name):
            scope.bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            scope.attributes.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in skipped
        ):
            scope.attributes.add(node.value)

    def visit(node, scope, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Decorators, defaults, annotations and bases run where the def stands.
            for child in ast.iter_child_nodes(node):
                if child not in node.body:
                    visit(child, scope, owner)
            location = location_of(node) if location_of else str(node.lineno)
            own = _Scope(location, node.name, owner)
            scopes.append(own)
            for statement in node.body:
                visit(statement, own, own if isinstance(node, ast.ClassDef) else None)
            return
        record(node, scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, owner)

    for statement in tree.body:
        visit(statement, scopes[0], None)
    return scopes


def _uncalled(modules, callers):
    """Defs of ``modules`` (a list of ``(tree, location_of)``) that no running
    code in ``modules`` or ``callers`` uses, found as a fixpoint: a scope
    runs if it always does, or if it is a def another running scope uses."""
    checked = [scope for tree, where in modules for scope in _scopes(tree, where)]
    running = [scope for tree in callers for scope in _scopes(tree)]
    live = {id(scope) for scope in checked if scope.always_runs and scope.owner is None}
    live |= {id(scope) for scope in running}
    by_attribute, by_bare = defaultdict(list), defaultdict(list)
    for user in running + checked:
        for name in user.attributes:
            by_attribute[name].append(user)
        for name in user.bare:
            by_bare[name].append(user)

    def used(definition):
        owner = definition.owner
        if owner is not None and id(owner) not in live:
            return False
        if definition.always_runs:
            return True
        bare = [user for user in by_bare[definition.name] if owner is None or user is owner]
        return any(
            user is not definition and id(user) in live
            for user in by_attribute[definition.name] + bare
        )

    changed = True
    while changed:
        changed = False
        for definition in checked:
            if id(definition) not in live and definition.name is not None and used(definition):
                live.add(id(definition))
                changed = True
    return [scope for scope in checked if scope.name is not None and id(scope) not in live
            and not (scope.name.startswith("__") and scope.name.endswith("__"))]


@functools.lru_cache(maxsize=None)
def _parsed():
    return {directory: [(path, ast.parse(path.read_text(), filename=str(path)))
                        for path in sorted((ROOT / directory).rglob("*.py"))]
            for directory in CALLER_DIRS}


@functools.lru_cache(maxsize=None)
def _test_trees():
    """Every module under ``tests/`` but this one, which names every allowlisted
    def: the callers an allowlist reason names."""
    return [ast.parse(path.read_text(), filename=str(path))
            for path in sorted((ROOT / "tests").rglob("*.py"))
            if path != Path(__file__).resolve()]


@functools.lru_cache(maxsize=None)
def _located(path):
    return lambda node: f"{path.relative_to(ROOT)}:{node.lineno}"


def uncalled_definitions():
    trees = _parsed()
    modules = [(tree, _located(path)) for path, tree in trees["src"]]
    callers = [tree for directory in CALLER_DIRS[1:] for _path, tree in trees[directory]]
    return [f"{scope.location} {scope.name}" for scope in _uncalled(modules, callers)]


def test_every_definition_in_src_has_a_caller_outside_the_tests():
    uncalled = uncalled_definitions()
    assert not uncalled, (
        "defined in src/ but used only by tests (delete it with its tests, move it "
        "beside them as an oracle, or give it a caller):\n  " + "\n  ".join(uncalled)
    )


def test_every_allowed_name_is_still_defined_and_uncalled():
    """An allowlist entry whose definition went, or gained a caller, is stale:
    without its entry, each name must be reported."""
    saved = dict(ALLOWED)
    stale = []
    try:
        for name in saved:
            del ALLOWED[name]
            if name not in {entry.split()[-1] for entry in uncalled_definitions()}:
                stale.append(name)
            ALLOWED[name] = saved[name]
    finally:
        ALLOWED.update(saved)
    assert stale == []


def test_every_allowed_name_a_test_pins_is_still_used_by_a_test():
    """An allowlist entry whose reason names a test under ``tests/`` is stale
    once no test uses the name: the def then goes, not its entry."""
    trees = _parsed()
    modules = [(tree, _located(path)) for path, tree in trees["src"]]
    callers = [tree for directory in CALLER_DIRS[1:] for _path, tree in trees[directory]]
    pinned = {name for name, reason in ALLOWED.items() if "tests/" in reason}
    saved = dict(ALLOWED)
    try:
        for name in pinned:
            del ALLOWED[name]
        unused = {scope.name for scope in _uncalled(modules, callers + _test_trees())}
    finally:
        ALLOWED.update(saved)
    stale = sorted(pinned & unused)
    assert not stale, (
        "allowlisted for a test that no longer uses it (delete the def and its "
        "entry):\n  " + "\n  ".join(stale)
    )


def _uncalled_in(source):
    """The defs of one in-memory module that its own running code leaves unused."""
    tree = ast.parse(textwrap.dedent(source))
    return {scope.name for scope in _uncalled([(tree, None)], [])}


def test_a_use_in_its_own_body_or_in_an_uncalled_def_keeps_nothing_alive():
    """``choice`` is used only by its own body (the standard library's
    ``choice``), ``orphan`` only by ``helper``, which nothing calls, and
    ``ping``/``pong`` only by each other; ``used`` is called at import and
    keeps ``Rng`` and ``Rng.random`` alive."""
    assert _uncalled_in(
        """
        class Rng:
            def choice(self, options):
                return self._random.choice(options)
            def random(self):
                return self._random.random()
        def helper():
            return orphan()
        def orphan():
            return 1
        def ping():
            return pong()
        def pong():
            return ping()
        def used():
            return Rng().random()
        used()
        """
    ) == {"choice", "helper", "orphan", "ping", "pong"}


#: name -> (an in-memory module, the defs its running code leaves unused)
RUNNING_USES = {
    "a def a used def calls": (
        """
        def used():
            return callee()
        def callee():
            return 1
        used()
        """,
        set(),
    ),
    "a decorator, a default and an annotation of an uncalled def": (
        """
        def decorate(function):
            return function
        def make():
            return 1
        class Kind: ...
        @decorate
        def uncalled(value: Kind = make()):
            return value
        """,
        {"uncalled"},
    ),
    "a base of an uncalled class": (
        """
        class Base: ...
        class Uncalled(Base): ...
        """,
        {"Uncalled"},
    ),
    "a dunder of a used class": (
        """
        class Used:
            def __init__(self):
                self.value = helper()
        def helper():
            return 1
        Used()
        """,
        set(),
    ),
    "a string that is exactly the method's name": (
        """
        class Rng:
            def draw(self):
                return 1
        getattr(Rng(), "draw")()
        """,
        set(),
    ),
    "a method of an uncalled class, whose name a used class shares": (
        """
        class Dead:
            def run(self):
                return 1
        class Live:
            def run(self):
                return 2
        Live().run()
        """,
        {"Dead", "run"},
    ),
}


@pytest.mark.parametrize("case", RUNNING_USES)
def test_only_a_use_in_running_code_keeps_a_def_alive(case):
    source, unused = RUNNING_USES[case]
    assert _uncalled_in(source) == unused


# --------------------------------------------------------------------------- #
# Options
# --------------------------------------------------------------------------- #

OPTION_CLASS_SUFFIXES = ("Parameters", "Config", "Policy", "Profile")

_DEPLOYMENT = "deployment setting: "
_SEAM = "test seam: "
_MODEL = "paper-model parameter: "
_PINNED = "pinned: "
_CLAIM = "paper-claim row in tests/test_paper_claims.py: "
_SOAK = ("soak row in tests/test_soak_claims.py or the stack machine in "
         "tests/test_stack_machine.py: ")
#: Reasons that name a test setting the option, so some file under tests/ must.
_TEST_REASONS = (_SEAM, _PINNED, _CLAIM, _SOAK)

#: Options no production call sets, each with the reason it stays settable.
ALLOWED_OPTIONS = {
    "SystemConfig.link": _DEPLOYMENT + "the link every builder makes: fiber length, "
    "defense, block size and batch size (None is the paper's link)",
    "SystemConfig.distill_seconds": _DEPLOYMENT + "channel time distilled before the VPN "
    "comes up",
    "QKDSystem.metro(relays_per_zone=)": _DEPLOYMENT + "trusted relays placed per zone",
    "build_metro_mesh(relays_per_zone=)": _DEPLOYMENT + "trusted relays placed per zone",
    "QKDSystem.metro(n_zones=)": _SOAK + "its 2-zone metro (and the 2- and 3-zone "
    "metros of tests/test_zones.py)",
    "build_metro_mesh(n_zones=)": _DEPLOYMENT + "zones the metro is split into; "
    "tests/test_zones.py builds 2- and 3-zone metros",
    "build_metro_mesh(workers=)": _PINNED + "PINNED_METRO_DIGEST and PINNED_GATEWAY_OUTAGE "
    "in tests/test_zones.py run the labeled prefill stream any worker count selects",
    "TrustedRelayNetwork.for_mesh(workers=)": _PINNED + "forwards build_metro_mesh(workers=) "
    "to the labeled prefill stream",
    "TrustedRelayNetwork.run_links_for(workers=)": _PINNED + "selects the labeled prefill "
    "stream that build_metro_mesh(workers=) pins",
    "VPNSystem.send(from_alice=)": _DEPLOYMENT + "the gateway a packet enters the tunnel at",
    "GatewayPair.transmit(from_alice=)": _DEPLOYMENT + "the gateway a packet enters the "
    "tunnel at (VPNSystem.send(from_alice=) forwards it)",
    "SecurityPolicy.action": _DEPLOYMENT + "what an SPD entry does with matching traffic: "
    "protect, bypass or discard",
    "CascadeParameters.block_first_pass": _CLAIM + "A1 turns the block first pass off",
    "CascadeParameters.subsets_per_round": _CLAIM + "A1 announces 16 and 128 subsets per round",
    "CascadeParameters.rounds": _CLAIM + "A1's no-first-pass ablation announces 8 rounds "
    "(and the unconfirmed-block transcript in tests/test_pinned_key_material.py pins 1)",
    "CascadeParameters.subset_density": _PINNED + "the sparse-subset Cascade transcript in "
    "tests/test_pinned_key_material.py",
    "EngineParameters.block_size_bits": _DEPLOYMENT + "sifted bits per distilled block",
    "EngineParameters.abort_qber": _DEPLOYMENT + "the eavesdropping alarm threshold",
    "EngineParameters.defense": _DEPLOYMENT + "the paper's defense function (the Slutsky "
    "pool is pinned in tests/test_pinned_key_material.py)",
    "EngineParameters.confidence_sigmas": _DEPLOYMENT + "the paper's confidence, in "
    "standard deviations",
    "EngineParameters.preshared_secret_bits": _CLAIM + "E11 sweeps the preshared pool "
    "under the key-exhaustion DoS",
    "EntropyEstimator(worst_case_multiphoton=)": _CLAIM + "E10 and A2 charge multi-photon "
    "leakage by the transmitted count",
    "EngineParameters.non_randomness_bits": _MODEL + "the entropy estimate's r; a test "
    "checks a larger r shortens the key",
    "EngineParameters.randomness_testing": _PINNED + "the randomness-testing variant in "
    "tests/test_pinned_key_material.py",
    "EngineParameters.cascade": _PINNED + "the unconfirmed-block Cascade variant in "
    "tests/test_pinned_key_material.py",
    "BeamSplittingAttack(lossless_forwarding=)": _MODEL + "Eve's lossless forwarding of "
    "the split beam, checked against the dense optics oracle",
    "InterceptResendAttack(resend_mean_photons=)": _MODEL + "Eve's resend brightness, "
    "checked against the dense optics oracle",
    "IKEConfig.preshared_key": _DEPLOYMENT + "the Phase-1 credential",
    "ReplenishmentConfig.pad_low_water_bits": _DEPLOYMENT + "pad level always dispatched",
    "ReplenishmentConfig.pad_target_bits": _DEPLOYMENT + "pad level dispatch tops up to",
    "ReplenishmentConfig.max_links_per_epoch": _DEPLOYMENT + "the shared distillation "
    "budget per epoch",
    "KmsConfig.rekey_timeout_seconds": _DEPLOYMENT + "how long a starving rekey waits",
    "KmsConfig.store_capacity_bits": _DEPLOYMENT + "key store capacity",
    "KmsConfig.max_key_age_seconds": _DEPLOYMENT + "the age limit of stored key",
    "KmsConfig.trunk_capacity_bits": _DEPLOYMENT + "trunk store capacity",
    "KmsConfig.custody_policy": _SOAK + "E19 runs both forwarding policies, the machine "
    "draws either",
    "KmsConfig.custody": _SOAK + "the E19 rows and the machine turn custody on",
    "KmsConfig.custody_ttl_seconds": _SOAK + "E19 parks bundles for 4000 s (and the "
    "custody soak pins in tests/test_kms.py expire them at 300 s)",
    "KmsConfig.custody_capacity_bits": _PINNED + "the capacity-2048 custody soak in "
    "tests/test_kms.py",
    "KmsConfig.trunk_low_water_bits": _DEPLOYMENT + "trunk store refill level",
    "KmsConfig.trunk_high_water_bits": _DEPLOYMENT + "trunk store fill target",
    "KeyStore(max_key_age_seconds=)": _DEPLOYMENT + "the age limit of stored key "
    "(KmsConfig.max_key_age_seconds)",
    "KeyStore(depletion_halflife_seconds=)": _PINNED + "the store script in "
    "tests/test_store_draw.py",
    "AggregateProfile.max_batch": _DEPLOYMENT + "the largest rekey batch one aggregate "
    "arrival carries",
    "AggregateProfile.storm(max_batch=)": _DEPLOYMENT + "the largest rekey batch one "
    "aggregate arrival carries",
    "WorkloadProfile.bursty(mean_interval_seconds=)": _SOAK + "the machine's bursty demand "
    "arrives every 600 s",
    "LinkParameters.engine": _DEPLOYMENT + "the link's distillation engine: defense, "
    "confidence, block size and abort threshold",
    "LinkParameters.slots_per_batch": _DEPLOYMENT + "slots held in memory per batch",
    "LFSR(taps=)": _MODEL + "the subset generator's feedback polynomial; the table "
    "kernel is checked against stepping over random taps",
    "LFSR(width=)": _MODEL + "the subset generator's register width; the table kernel "
    "is checked against stepping over random widths",
    "NetworkKmsServer.stop(drain_timeout=)": _DEPLOYMENT + "how long a stop waits for "
    "requests in flight",
    "NetworkKmsServer(replay_retention_seconds=)": _DEPLOYMENT + "how long a served key "
    "stays replayable; it must outlast the longest client retry window",
    "NetworkKmsServer(host=)": _DEPLOYMENT + "the address the KMS front end listens on",
    "NetworkKmsServer(port=)": _DEPLOYMENT + "the port the KMS front end listens on",
    "KeyManagementService.serve_network(host=)": _DEPLOYMENT + "the address the KMS front "
    "end listens on",
    "KeyManagementService.serve_network(port=)": _DEPLOYMENT + "the port the KMS front end "
    "listens on",
    "NetworkKmsServer(max_reserve_bits=)": _DEPLOYMENT + "the most key one reservation may "
    "hold (the pinned script of tests/test_netkms.py serves under 2048)",
    "ResilientKmsClient(connector=)": _SEAM + "the fault plane's FaultyConnector "
    "(tests/faults, E18 rows, the swarm)",
    "FrameSplitter(max_frame_bytes=)": _SEAM + "the frame fuzzers of "
    "tests/test_netkms_codec.py and tests/test_frame_fuzz.py cap frames at 8 and 64 bytes, "
    "tests/test_netkms.py at 1024, and the fault plane (tests/faults) lifts the cap",
    "SecurityPolicy.lifetime_kilobytes": _DEPLOYMENT + "the SA lifetime in kilobytes of "
    "protected traffic (0: no byte limit)",
    "secret_fraction(cascade_efficiency=)": _MODEL + "the reconciliation inefficiency "
    "f_EC; a test checks a smaller f_EC gives a larger fraction",
    "ChannelParameters.detectors": _CLAIM + "E2 sets the 1 % detection of the worked example",
    "DetectorParameters.quantum_efficiency": _CLAIM + "E2 sets the 1 % detection of the "
    "worked example",
    "DetectorParameters.dark_count_probability": _CLAIM + "E2 turns dark counts off",
    "DetectorParameters.receiver_loss_db": _CLAIM + "E2 turns receiver loss off",
    "ChannelParameters.interferometer": _MODEL + "carries visibility and phase noise",
    "ChannelParameters.framing": _MODEL + "carries frame loss and gate misalignment",
    "ChannelParameters.source": _MODEL + "carries the weak-coherent source's mean photon "
    "number",
    "ChannelParameters.entangled_link(source=)": _MODEL + "the planned second link's "
    "entangled-pair source (its branch in tests/test_pinned_key_material.py pins one)",
    "SourceParameters.mean_photon_number": _MODEL + "the source's mean photon number, "
    "checked against the dense optics oracle",
    "FramingParameters.slots_per_frame": _MODEL + "Qframe size, checked against the dense "
    "optics oracle",
    "DetectorParameters.afterpulse_probability": _MODEL + "afterpulsing",
    "EntangledSourceParameters.mean_pairs_per_pulse": _MODEL + "the entangled source's "
    "pair number",
    "EntangledSourceParameters.heralding_efficiency": _MODEL + "the entangled source's "
    "heralding",
    "InterferometerParameters.visibility": _MODEL + "interferometer visibility",
    "InterferometerParameters.phase_noise_rad": _MODEL + "interferometer phase noise",
    "FramingParameters.frame_loss_probability": _MODEL + "Qframe loss",
    "FramingParameters.gate_misalignment_penalty": _MODEL + "bright-pulse gate misalignment",
}


def _is_dataclass(cls):
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _defaults(args):
    """(parameter, default) for each defaulted parameter, positional ones first."""
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(arg, default) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return pairs


def _fields(cls):
    """A dataclass's fields in order (a ``ClassVar`` is not one)."""
    return [statement for statement in cls.body if isinstance(statement, ast.AnnAssign)
            and "ClassVar" not in ast.unparse(statement.annotation)]


def _options(tree):
    """(label, keyword, callee, default) for each option in a module."""
    found = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if _is_dataclass(node) and node.name.endswith(OPTION_CLASS_SUFFIXES):
                    for statement in _fields(node):
                        if statement.value is not None:
                            name = statement.target.id
                            found.append((f"{node.name}.{name}", name, node.name, statement.value))
                visit(node.body, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                constructor = node.name == "__init__" and owner is not None
                if node.name.startswith("_") and not constructor:
                    continue
                callee = owner.name if constructor else node.name
                label = callee if constructor or owner is None else f"{owner.name}.{node.name}"
                for arg, default in _defaults(node.args):
                    found.append((f"{label}({arg.arg}=)", arg.arg, callee, default))

    visit(tree.body, None)
    return found


def _literal(node):
    try:
        return ("literal", ast.literal_eval(node))
    except (ValueError, TypeError):
        return None


#: The value a ``*``/``**`` splat passes: unknown, so it sets whatever it reaches.
_SPLAT = ast.Name(id="*")


class _Signatures:
    """Every def's and class's parameters in the scanned code, by callee name
    (a class's constructor is called by the class name); same-named callees
    are merged, which errs towards passing."""

    def __init__(self):
        self.positional = defaultdict(lambda: defaultdict(set))
        self.named = defaultdict(set)

    def add(self, tree):
        def visit(body, owner):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    if _is_dataclass(node):
                        self._record(node.name, [field.target.id for field in _fields(node)])
                    visit(node.body, node)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                    bound = owner is not None and not static
                    callee = owner.name if owner is not None and node.name == "__init__" else node.name
                    arguments = node.args
                    positional = [arg.arg for arg in arguments.posonlyargs + arguments.args][bound:]
                    self._record(callee, positional, [arg.arg for arg in arguments.kwonlyargs])
                    visit(node.body, None)
                else:
                    for field in ("body", "orelse", "finalbody", "handlers"):
                        visit(getattr(node, field, None) or [], owner)

        visit(tree.body, None)

    def _record(self, callee, positional, keyword_only=()):
        for position, name in enumerate(positional):
            self.positional[callee][position].add(name)
        self.named[callee].update(positional, keyword_only)


class _Setters(ast.NodeVisitor):
    """What the calls in production code set, each value under the
    ``(callee, keyword)`` pair it is passed to, and where a value only
    forwards another callee's option (see the module docstring)."""

    def __init__(self, signatures, option_fields):
        self.signatures = signatures
        self.option_fields = option_fields
        self.values = defaultdict(list)
        self.forwards = defaultdict(set)
        self.passes_kwargs = defaultdict(set)
        self._classes = [None]
        self._owners = {}
        self._scopes = [(None, set(), None)]

    def visit_ClassDef(self, node):
        self._owners.update((id(statement), node) for statement in node.body)
        self._classes.append(node)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node):
        owner = self._owners.get(id(node))
        callee = owner.name if owner is not None and node.name == "__init__" else node.name
        defaulted = {arg.arg for arg, _default in _defaults(node.args)}
        self._scopes.append((callee, defaulted, node.args.kwarg.arg if node.args.kwarg else None))
        self.generic_visit(node)
        self._scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _callee(self, func):
        cls = self._classes[-1]
        if isinstance(func, ast.Name):
            return cls.name if func.id == "cls" and cls is not None else func.id
        if not isinstance(func, ast.Attribute):
            return None
        is_super = isinstance(func.value, ast.Call) and getattr(func.value.func, "id", None) == "super"
        if is_super and func.attr == "__init__" and cls is not None and cls.bases:
            return getattr(cls.bases[0], "id", None)
        return func.attr

    def _pass(self, callee, keyword, value):
        """Record ``value`` passed to ``callee`` as ``keyword``: a setting, or a forward."""
        scope, defaulted, _kwargs = self._scopes[-1]
        if isinstance(value, ast.Name) and value.id == keyword and keyword in defaulted:
            self.forwards[(scope, keyword)].add((callee, keyword))
        elif isinstance(value, ast.Attribute) and value.attr == keyword and keyword in self.option_fields:
            for owner in self.option_fields[keyword]:
                self.forwards[(owner, keyword)].add((callee, keyword))
        else:
            self.values[(callee, keyword)].append(value)

    def _splat(self, callee, value):
        """A ``**`` argument: the enclosing ``**kwargs`` passed on, a dict
        literal's keys, or an unknown mapping that may set anything."""
        scope, _defaulted, kwargs = self._scopes[-1]
        if isinstance(value, ast.Name) and value.id == kwargs:
            self.passes_kwargs[scope].add(callee)
        elif isinstance(value, ast.Dict):
            for key, item in zip(value.keys, value.values):
                if key is None:
                    self._splat(callee, item)
                elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                    self._pass(callee, key.value, item)
        else:
            for keyword in self.signatures.named[callee]:
                self.values[(callee, keyword)].append(_SPLAT)

    def visit_Call(self, node):
        callee = self._callee(node.func)
        for position, argument in enumerate(node.args):
            if isinstance(argument, ast.Starred):
                self._splat(callee, argument.value)
                break
            names = self.signatures.positional[callee][position]
            if isinstance(argument, ast.Name) and argument.id in names:
                self._pass(callee, argument.id, argument)
            else:
                for name in names:
                    self.values[(callee, name)].append(argument)
        for keyword in node.keywords:
            if keyword.arg is None:
                self._splat(callee, keyword.value)
            else:
                self._pass(callee, keyword.arg, keyword.value)
        self.generic_visit(node)

    def _onward(self, node):
        callee, keyword = node
        yield from self.forwards[node]
        if keyword not in self.signatures.named[callee]:
            yield from ((target, keyword) for target in self.passes_kwargs[callee])
        if callee == "replace":
            yield from ((owner, keyword) for owner in self.option_fields.get(keyword, ()))

    def reaching(self):
        """(callee, keyword) -> every value set on it directly or forwarded to it."""
        reached = defaultdict(list)
        for start, values in self.values.items():
            seen, stack = {start}, [start]
            while stack:
                node = stack.pop()
                reached[node].extend(values)
                for onward in self._onward(node):
                    if onward not in seen:
                        seen.add(onward)
                        stack.append(onward)
        return reached


def _unset(modules, callers):
    """Labels of the options defined in ``modules`` that no call in
    ``callers`` sets, directly or by forwarding."""
    options = [option for tree in modules for option in _options(tree)]
    option_fields = defaultdict(set)
    for label, keyword, callee, _default in options:
        if "(" not in label:
            option_fields[keyword].add(callee)
    signatures = _Signatures()
    for tree in callers:
        signatures.add(tree)
    setters = _Setters(signatures, option_fields)
    for tree in callers:
        setters.visit(tree)
    reached = setters.reaching()
    unset = []
    for label, keyword, callee, default in options:
        unchanged = _literal(default)
        values = reached.get((callee, keyword), [])
        if not any(unchanged is None or _literal(value) != unchanged for value in values):
            unset.append(label)
    return unset


def unset_options():
    trees = {directory: [tree for _path, tree in modules]
             for directory, modules in _parsed().items()}
    callers = [tree for directory in CALLER_DIRS for tree in trees[directory]]
    return [label for label in _unset(trees["src"], callers) if label not in ALLOWED_OPTIONS]


def test_every_option_in_src_is_set_by_a_production_call():
    unset = unset_options()
    assert not unset, (
        "options no call in src/, benchmarks/ or examples/ sets (make each a module "
        "constant or a ClassVar, or give it a caller):\n  " + "\n  ".join(unset)
    )


def test_every_allowed_option_is_still_an_option_nothing_sets():
    """An allowlist entry whose option went, or gained a production setter, is stale."""
    saved = dict(ALLOWED_OPTIONS)
    try:
        ALLOWED_OPTIONS.clear()
        unset = set(unset_options())
    finally:
        ALLOWED_OPTIONS.update(saved)
    assert unset == set(saved)


def test_every_allowed_option_a_test_needs_is_still_set_by_a_test():
    """A test seam, a pin, a paper-claim row or a soak row is a test that sets
    the option; once no file under ``tests/`` sets it, the entry is stale and
    the option becomes a constant."""
    trees = {directory: [tree for _path, tree in modules]
             for directory, modules in _parsed().items()}
    callers = [tree for directory in CALLER_DIRS for tree in trees[directory]]
    unset = set(_unset(trees["src"], callers + _test_trees()))
    stale = [label for label, reason in ALLOWED_OPTIONS.items()
             if reason.startswith(_TEST_REASONS) and label in unset]
    assert not stale, (
        "allowlisted for a test that no longer sets it (make each a module constant "
        "or a ClassVar, and drop its entry):\n  " + "\n  ".join(stale)
    )


def _unset_in(source):
    """The options of one in-memory module that its own calls leave unset."""
    tree = ast.parse(textwrap.dedent(source))
    return set(_unset([tree], [tree]))


def test_a_keyword_counts_only_for_the_callee_it_is_passed_to():
    """Two callees share the keyword ``workers``; a call that sets one does
    not set the other."""
    assert _unset_in(
        """
        def pool(workers=None): ...
        def mesh(workers=None): ...
        pool(workers=2)
        """
    ) == {"mesh(workers=)"}


#: name -> (definitions in which ``owner`` or ``OwnerConfig`` only receives a
#: forwarded value, the call that sets the value at the far end)
FORWARDS = {
    "a defaulted parameter passed on by keyword": (
        """
        def owner(workers=None): ...
        def front(workers=None):
            owner(workers=workers)
        """,
        "front(workers=2)",
    ),
    "a defaulted parameter passed on by position": (
        """
        def owner(workers=None): ...
        def front(workers=None):
            owner(workers)
        """,
        "front(2)",
    ),
    "**kwargs passed into a callee": (
        """
        def owner(workers=None): ...
        def front(**overrides):
            owner(**overrides)
        """,
        "front(workers=2)",
    ),
    "**kwargs passed into replace()": (
        """
        @dataclass
        class OwnerConfig:
            workers: int = 1
        def front(config, **overrides):
            return replace(config, **overrides)
        """,
        "front(OwnerConfig(), workers=2)",
    ),
    "a config field copied across": (
        """
        @dataclass
        class OwnerConfig:
            workers: int = 1
        def owner(workers=None): ...
        def run(config):
            owner(workers=config.workers)
        """,
        "OwnerConfig(workers=2)",
    ),
}


@pytest.mark.parametrize("name", FORWARDS)
def test_a_forwarded_value_counts_for_the_option_it_reaches(name):
    """Forwarding is not a setting: the forwarded option is unset until a
    call sets the value at the far end, and then it is set."""
    definitions, setting = FORWARDS[name]
    assert _unset_in(definitions) & {"owner(workers=)", "OwnerConfig.workers"}
    assert _unset_in(textwrap.dedent(definitions) + setting) == set()
