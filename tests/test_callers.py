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

The check is by name, so two definitions sharing a name keep each other
alive; it errs towards passing, never towards a false failure.

The second scan applies the same rule to options.  An option is a
defaulted field of a ``*Parameters``/``*Config``/``*Policy``/``*Profile``
dataclass (a ``ClassVar`` is a constant, not an option), or a defaulted
parameter of a public function, method or class constructor in ``src/``.
It stays only if a call in ``src/``, ``benchmarks/`` or ``examples/`` sets
it to something other than its default: by keyword anywhere (a string key
of a ``**{...}`` literal counts), or positionally, or through ``*``/``**``,
in a call whose callee has the option's function or class name.  A keyword
that only forwards another option does not set it: the value is the same
name read from a defaulted parameter of the enclosing function, or an
attribute of that name that is itself an options-dataclass field
(``KeyStore(max_key_age_seconds=config.max_key_age_seconds)``).  Passing
the enclosing function's own ``**kwargs`` on (``f(**kwargs)``) forwards
too: it sets only what that function's callers put in it, which the scan
sees at those calls by keyword.  Every
other option is a constant, or is listed in :data:`ALLOWED_OPTIONS` with
the reason a caller may still want it: a deployment setting, a test seam
that substitutes a fake, a paper-model parameter a test sweeps, or a
setting a row of ``tests/test_paper_claims.py``, a soak row of
``tests/test_soak_claims.py`` or the swarm needs (the reason names it).
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "examples")

#: Definitions kept without a production caller, each with its reason.
ALLOWED = {
    "independent_parities": "the tight Cascade leakage figure, pinned by "
    "tests/test_pinned_key_material.py, whose literals stay as they are",
    "total_bytes": "transcript size pinned by tests/test_pinned_key_material.py",
    "frame_numbers": "per-slot frame index hashed by tests/test_pinned_key_material.py",
    # asyncio calls these on a connection's protocol: the event loop is the
    # caller, as the interpreter is a dunder's.
    "connection_made": "asyncio.Protocol callback of the netkms client and server",
    "data_received": "asyncio.Protocol callback of the netkms client and server",
    "eof_received": "asyncio.Protocol callback of the netkms server",
    "pause_writing": "asyncio.Protocol callback of the netkms server",
    "resume_writing": "asyncio.Protocol callback of the netkms server",
    "connection_lost": "asyncio.Protocol callback of the netkms client and server",
}


def _uses(tree):
    """(bare names, attribute-or-string names) used in one module's code."""
    in_all = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            in_all.update(id(item) for item in ast.walk(node.value))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
            in_all.update(id(item) for argument in node.args for item in ast.walk(argument))
    bare, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            bare[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in in_all
        ):
            attributes[node.value] += 1
    return bare, attributes


def _class_body_names(cls):
    """Bare names used in a class body outside its methods."""
    names = set()
    for statement in cls.body:
        if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.update(n.id for n in ast.walk(statement) if isinstance(n, ast.Name))
    return names


def _definitions(path, tree):
    """(location, name, is_method, class-body names) for every def and class."""
    found = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                location = f"{path.relative_to(ROOT)}:{node.lineno}"
                in_class = owner is not None
                found.append(
                    (location, node.name, in_class, _class_body_names(owner) if in_class else set())
                )
                visit(node.body, node if isinstance(node, ast.ClassDef) else None)
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(node, field, None) or [], owner)

    visit(tree.body, None)
    return found


def uncalled_definitions():
    bare, attributes, definitions = Counter(), Counter(), []
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            module_bare, module_attributes = _uses(tree)
            bare.update(module_bare)
            attributes.update(module_attributes)
            if directory == "src":
                definitions.extend(_definitions(path, tree))
    uncalled = []
    for location, name, is_method, class_names in definitions:
        if name.startswith("__") and name.endswith("__"):
            continue
        used = attributes[name] or (name in class_names if is_method else bare[name])
        if not used and name not in ALLOWED:
            uncalled.append(f"{location} {name}")
    return uncalled


def test_every_definition_in_src_has_a_caller_outside_the_tests():
    uncalled = uncalled_definitions()
    assert not uncalled, (
        "defined in src/ but used only by tests (delete it with its tests, move it "
        "beside them as an oracle, or give it a caller):\n  " + "\n  ".join(uncalled)
    )


def test_every_allowed_name_is_still_defined_and_uncalled():
    """An allowlist entry whose definition went, or gained a caller, is stale."""
    saved = dict(ALLOWED)
    try:
        ALLOWED.clear()
        uncalled = {entry.split()[-1] for entry in uncalled_definitions()}
    finally:
        ALLOWED.update(saved)
    assert uncalled == set(saved)


# --------------------------------------------------------------------------- #
# Options
# --------------------------------------------------------------------------- #

OPTION_CLASS_SUFFIXES = ("Parameters", "Config", "Policy", "Profile")

_DEPLOYMENT = "deployment setting: "
_SEAM = "test seam: "
_MODEL = "paper-model parameter: "
_PINNED = "pinned: "
_CLAIM = "paper-claim row in tests/test_paper_claims.py: "
_SOAK = "soak row in tests/test_soak_claims.py or the swarm in tests/test_swarm.py: "

#: Options no production call sets, each with the reason it stays settable.
ALLOWED_OPTIONS = {
    "SystemConfig.distance_km": _DEPLOYMENT + "the fiber length of the modelled link",
    "SystemConfig.slots_per_batch": _DEPLOYMENT + "slots held in memory per batch "
    "(mirrors LinkParameters.slots_per_batch)",
    "SystemConfig.block_size_bits": _DEPLOYMENT + "sifted bits per distilled block "
    "(mirrors EngineParameters.block_size_bits)",
    "SystemConfig.abort_qber": _DEPLOYMENT + "the eavesdropping alarm threshold "
    "(mirrors EngineParameters.abort_qber)",
    "SystemConfig.randomness_testing": _PINNED + "mirrors EngineParameters.randomness_testing",
    "SystemConfig.distill_seconds": _DEPLOYMENT + "channel time distilled before the VPN "
    "comes up",
    "QKDSystem.metro(relays_per_zone=)": _DEPLOYMENT + "trusted relays placed per zone",
    "build_metro_mesh(relays_per_zone=)": _DEPLOYMENT + "trusted relays placed per zone",
    "QKDSystem.metro(n_zones=)": _SOAK + "the swarm's 2-zone metro (and the 2- and 3-zone "
    "metros of tests/test_zones.py)",
    "build_metro_mesh(n_zones=)": _DEPLOYMENT + "zones the metro is split into; "
    "tests/test_zones.py builds 2- and 3-zone metros",
    "VPNSystem.send(from_alice=)": _DEPLOYMENT + "the gateway a packet enters the tunnel at",
    "CascadeParameters.block_first_pass": _CLAIM + "A1 turns the block first pass off",
    "CascadeParameters.subsets_per_round": _CLAIM + "A1 announces 16 and 128 subsets per round",
    "CascadeParameters.rounds": _CLAIM + "A1's no-first-pass ablation announces 8 rounds "
    "(and the unconfirmed-block transcript in tests/test_pinned_key_material.py pins 1)",
    "CascadeParameters.subset_density": _PINNED + "the sparse-subset Cascade transcript in "
    "tests/test_pinned_key_material.py",
    "EngineParameters.block_size_bits": _DEPLOYMENT + "sifted bits per distilled block",
    "EngineParameters.abort_qber": _DEPLOYMENT + "the eavesdropping alarm threshold",
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
    "KmsConfig.custody_policy": _SOAK + "E19 runs both forwarding policies, the swarm "
    "draws either",
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
    "LinkParameters.slots_per_batch": _DEPLOYMENT + "slots held in memory per batch",
    "LFSR(taps=)": _MODEL + "the subset generator's feedback polynomial; the table "
    "kernel is checked against stepping over random taps",
    "LFSR(width=)": _MODEL + "the subset generator's register width; the table kernel "
    "is checked against stepping over random widths",
    "NetworkKmsServer.stop(drain_timeout=)": _DEPLOYMENT + "how long a stop waits for "
    "requests in flight",
    "NetworkKmsServer(request_hook=)": _SEAM + "the fault plane's stall injector "
    "(tests/faults, E18 rows, the swarm) and the gates of tests/test_netkms.py",
    "NetworkKmsServer(replay_retention_seconds=)": _DEPLOYMENT + "how long a served key "
    "stays replayable; it must outlast the longest client retry window",
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


def _options(tree):
    """(label, keyword, callee, position, default) for each option in a module."""
    found = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if _is_dataclass(node) and node.name.endswith(OPTION_CLASS_SUFFIXES):
                    fields = [
                        statement
                        for statement in node.body
                        if isinstance(statement, ast.AnnAssign)
                        and "ClassVar" not in ast.unparse(statement.annotation)
                    ]
                    for position, statement in enumerate(fields):
                        if statement.value is not None:
                            name = statement.target.id
                            found.append((f"{node.name}.{name}", name, node.name, position,
                                          statement.value))
                visit(node.body, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                constructor = node.name == "__init__" and owner is not None
                if node.name.startswith("_") and not constructor:
                    continue
                callee = owner.name if constructor else node.name
                label = callee if constructor or owner is None else f"{owner.name}.{node.name}"
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                bound = owner is not None and not static
                positional = node.args.posonlyargs + node.args.args
                for arg, default in _defaults(node.args):
                    position = positional.index(arg) - bound if arg in positional else None
                    found.append((f"{label}({arg.arg}=)", arg.arg, callee, position, default))

    visit(tree.body, None)
    return found


def _literal(node):
    try:
        return ("literal", ast.literal_eval(node))
    except (ValueError, TypeError):
        return None


class _Setters(ast.NodeVisitor):
    """What the calls in production code set: keyword values by name, the most
    positional arguments any call of a callee passes, and callees splatted."""

    def __init__(self, option_fields):
        self.option_fields = option_fields
        self.keywords = {}
        self.positional = Counter()
        self.splatted = set()
        self._defaulted = [set()]
        self._kwargs = [None]

    def visit_FunctionDef(self, node):
        self._defaulted.append({arg.arg for arg, _default in _defaults(node.args)})
        self._kwargs.append(node.args.kwarg.arg if node.args.kwarg else None)
        self.generic_visit(node)
        self._defaulted.pop()
        self._kwargs.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _forwards(self, keyword, value):
        if isinstance(value, ast.Name):
            return value.id == keyword and keyword in self._defaulted[-1]
        if isinstance(value, ast.Attribute):
            return value.attr == keyword and keyword in self.option_fields
        return False

    def visit_Call(self, node):
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            self.splatted.add(callee)
        self.positional[callee] = max(self.positional[callee], len(node.args))
        for keyword in node.keywords:
            if keyword.arg is not None:
                if not self._forwards(keyword.arg, keyword.value):
                    self.keywords.setdefault(keyword.arg, []).append(keyword.value)
                continue
            if isinstance(keyword.value, ast.Name) and keyword.value.id == self._kwargs[-1]:
                continue  # the enclosing function's own **kwargs, forwarded
            self.splatted.add(callee)
            if isinstance(keyword.value, ast.Dict):
                for key, value in zip(keyword.value.keys, keyword.value.values):
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        self.keywords.setdefault(key.value, []).append(value)
        self.generic_visit(node)


def unset_options():
    options = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        options.extend(_options(ast.parse(path.read_text(), filename=str(path))))
    setters = _Setters({keyword for label, keyword, *_ in options if "(" not in label})
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            setters.visit(ast.parse(path.read_text(), filename=str(path)))
    unset = []
    for label, keyword, callee, position, default in options:
        if callee in setters.splatted:
            continue
        if position is not None and setters.positional[callee] > position:
            continue
        unchanged = _literal(default)
        values = setters.keywords.get(keyword, [])
        if any(unchanged is None or _literal(value) != unchanged for value in values):
            continue
        if label not in ALLOWED_OPTIONS:
            unset.append(label)
    return unset


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
