"""Every definition in ``src/`` has a caller outside the tests.

A function, class, method or module that only tests reach is dead
weight: it must be kept working, yet no run of the simulator, script,
benchmark or example depends on it.  This guard scans ``src/`` and
fails on any definition whose name appears nowhere in ``src/``,
``scripts/``, ``perfbench/``, ``examples/`` or ``benchmarks/`` except
at its own definition:

- a top-level function or class counts as reached when its name appears
  as a whole word;
- a method (or nested class) counts as reached when code accesses
  ``.name`` or passes ``"name"`` to ``getattr`` or ``hasattr``: a
  ``.name`` inside a string, a docstring or a comment does not count
  (the syntax tree is read; a shell script's text is matched);
- an alias (``name = other``), at module level or in a class body,
  counts like a function or a method.

Its own body and its own module's ``__all__`` do not count.  A module
counts as reached when a file in those directories (other than itself)
imports it, or names it whole (``python -m repro.harness.cli``, the
``pyproject.toml`` entry point); its own package re-exporting it (``from
. import name``) does not count.  A package counts as reached when a file
outside it imports it or one of its modules.  Names kept on purpose are
listed in :data:`ALLOWED` with the reason.

Two more rules guard state: a config or spec field must be read and set
to a non-default value in those directories, and an attribute stored in
``src/`` must be loaded there (:func:`write_only_attributes`).
"""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "scripts", "perfbench", "examples", "benchmarks")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

MPI = "MPI surface: the semantics the baseline and BCS-MPI must share"

ALLOWED = {
    "Communicator.send_init": MPI,
    "Communicator.recv_init": MPI,
    "Communicator.startall": MPI,
    "Communicator.test": MPI,
    "Communicator.testall": MPI,
    "Communicator.allgather": MPI,
    "Communicator.alltoall": MPI,
    "Communicator.sendrecv": MPI,
    "Communicator.scan": MPI,
    "Communicator.exscan": MPI,
    "Communicator.reduce_scatter_block": MPI,
    "BaselineCommunicator.iprobe": MPI,
    "BcsCommunicator.iprobe": MPI,
    "Status.get_count": MPI,
    "Datatype.extent": MPI,
    "from_array": MPI,
    "repro.mpi.datatypes": (
        "MPI surface: derived datatypes, which the communicators do not "
        "need (they move numpy arrays and byte counts)"
    ),
    "repro.softfloat": (
        "the paper's NIC SoftFloat (§4.4) as a reference: its tests show it "
        "matches the simulator's numpy combine bit for bit, which is why NIC "
        "reduces are modelled by their cost alone"
    ),
    "BcsCore.test_event_poll": "paper primitive: the non-blocking Test-Event",
    "BcsRuntime.stop": "the one way to halt a strobe loop before the machine idles",
    "MachineManager.submit": "STORM job submission, the paper's Fig. 1 resource manager",
    "BcsConfig.with_": "test seam: tests build config variants with it",
    "BaselineConfig.with_": "test seam: tests build config variants with it",
    "NodeDirectory.materialized_count": "test seam: proves untouched nodes stay lazy",
    "BcsRuntime.dem_nodes": "test seam: the fast active set checked against its scan",
    "Torus3D.coords": "test seam: pins the row-major torus layout",
    "NoiseInjector.total_stolen": "test seam: total CPU time the daemons took",
    "Resource.available": "test seam: free units of a resource",
    "Link.available": "test seam: free units of a link half",
    "Resource.queue_length": "test seam: no claimant leaks on a cancelled transfer",
    "ProtocolValidator.assert_clean": (
        "documented API (docs/API.md, docs/OBSERVABILITY.md): a caller's "
        "one-line check that a run broke no invariant"
    ),
}


def _member_mentions(tree):
    """``(name, line number)`` per member mention in the code of
    ``tree``: each ``.name`` attribute access, and each string constant
    passed to ``getattr`` or ``hasattr``.  Strings elsewhere, docstrings
    included, and comments name nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno
        elif (key := _attribute_string(node)) is not None:
            yield key.value, key.lineno


def _attribute_string(node):
    """The string constant ``node`` passes to ``getattr`` or ``hasattr``
    as the attribute name, if it is such a call."""
    if (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("getattr", "hasattr")
        and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    ):
        return node.args[1]
    return None


def _mentions():
    """Where each word, and each member mention, appears in the caller
    dirs: ``{word: [(path, line number), ...]}`` twice.  Members are
    read from the syntax tree of a ``.py`` file and matched as ``.word``
    in the text of a ``.sh`` file."""
    words, attrs = {}, {}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix not in (".py", ".sh") or not path.is_file():
                continue
            text = path.read_text()
            for no, line in enumerate(text.splitlines(), 1):
                for word in set(re.findall(r"\w+", line)):
                    words.setdefault(word, []).append((path, no))
                if path.suffix == ".sh":
                    for word in set(re.findall(r"\.(\w+)", line)):
                        attrs.setdefault(word, []).append((path, no))
            if path.suffix == ".py":
                for word, no in set(_member_mentions(ast.parse(text))):
                    attrs.setdefault(word, []).append((path, no))
    return words, attrs


def _named(body):
    """``(node, name)`` per definition or alias (``name = other``) in
    ``body``."""
    for node in body:
        if isinstance(node, _DEFS):
            yield node, node.name
        elif (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Name)
        ):
            yield node, node.targets[0].id


def _definitions():
    """(path, node, name, qualified name, the module's ``__all__`` lines,
    whether the definition is a class member) per definition."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        own_all = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                own_all.update(range(node.lineno, node.end_lineno + 1))
        for node, name in _named(tree.body):
            yield path, node, name, name, own_all, False
            if isinstance(node, ast.ClassDef):
                for sub, sub_name in _named(node.body):
                    yield path, sub, sub_name, f"{name}.{sub_name}", own_all, True


def _module(path: Path) -> str:
    """Dotted name of the module at ``path`` under ``src/``."""
    parts = list(path.relative_to(ROOT / "src").with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports():
    """``{module: [path, ...]}``: where each module is imported, and each
    dotted name written out, in the caller dirs and ``pyproject.toml``."""
    found = {}
    paths = [ROOT / "pyproject.toml"]
    for top in CALLER_DIRS:
        paths += sorted(p for p in (ROOT / top).rglob("*") if p.suffix in (".py", ".sh"))
    for path in paths:
        text = path.read_text()
        for name in set(re.findall(r"\brepro(?:\.\w+)+", text)):
            found.setdefault(name, []).append(path)
        if path.suffix != ".py":
            continue
        package = _module(path).split(".") if path.is_relative_to(ROOT / "src") else []
        if package and path.name != "__init__.py":
            package.pop()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = package[: len(package) - node.level + 1] if node.level else []
                module = ".".join(base + ([node.module] if node.module else []))
                names = [module]
                # A package re-exporting its own submodules (``from .
                # import x``) uses them no more than its ``__all__`` does.
                if not (path.name == "__init__.py" and node.level == 1 and not node.module):
                    names += [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                found.setdefault(name, []).append(path)
    return found


def unreached():
    words, attrs = _mentions()
    found = {}
    for path, node, name, qual, own_all, member in _definitions():
        if name.startswith("__") and name.endswith("__"):
            continue
        own = range(node.lineno, node.end_lineno + 1)
        if not any(
            not (p == path and (no in own or no in own_all))
            for p, no in (attrs if member else words).get(name, ())
        ):
            found[qual] = f"{path.relative_to(ROOT)}:{node.lineno}"
    imports = _imports()
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = _module(path)
        if path.name == "__main__.py":
            continue
        if path.name == "__init__.py":
            # A package is reached when a file outside it imports it or
            # one of its modules; its own modules importing each other
            # do not count.
            users = [
                p
                for name, paths in imports.items()
                if name == module or name.startswith(module + ".")
                for p in paths
            ]
            if "." in module and all(p.is_relative_to(path.parent) for p in users):
                found[module] = f"{path.relative_to(ROOT)}: package"
            continue
        if not any(p != path for p in imports.get(module, ())):
            found[module] = f"{path.relative_to(ROOT)}: module"
    return found


def test_every_src_definition_has_a_non_test_caller():
    found = unreached()
    dead = sorted(f"{where}: {qual}" for qual, where in found.items() if qual not in ALLOWED)
    assert not dead, "only tests reach these definitions:\n" + "\n".join(dead)
    stale = sorted(set(ALLOWED) - set(found))
    assert not stale, f"allowlisted but now reached or gone: {stale}"


def test_member_named_only_in_strings_or_comments_is_reported(tmp_path, monkeypatch):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (tmp_path / "pyproject.toml").write_text("")
    (package / "store.py").write_text(
        "class Store:\n"
        "    def called(self): ...\n"
        "    def probed(self): ...\n"
        "    def formatted(self): ...\n"
        "    def quoted(self): ...\n"
        "    def documented(self): ...\n"
        "    def commented(self): ...\n"
        "\n"
        "\n"
        "def use(store):\n"
        '    """Calls store.documented() for you."""\n'
        "    store.called()\n"
        "    getattr(store, 'probed')()\n"
        "    print(f'{store.formatted()}', 'store.quoted()')  # store.commented()\n"
    )
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    members = {qual for qual in unreached() if qual.startswith("Store.")}
    assert members == {"Store.quoted", "Store.documented", "Store.commented"}


#: Configuration and spec dataclasses whose fields are guarded, by module.
CONFIGS = {
    "BcsConfig": "repro.bcs.config",
    "BaselineConfig": "repro.mpi.baseline",
    "ClusterSpec": "repro.network.cluster",
    "NetworkModel": "repro.network.model",
    "NoiseConfig": "repro.noise.model",
    "CheckpointConfig": "repro.ft.checkpoint",
}

#: Calibration constants no run sets: field -> its row in EXPERIMENTS.md's
#: "Calibration inputs" table, the reason the field is kept.
ALLOWED_FIELDS = {
    "BcsConfig.descriptor_bytes": "descriptor / microstrobe bytes",
    "BcsConfig.strobe_bytes": "descriptor / microstrobe bytes",
    "BcsConfig.nic_descriptor_cost": "NIC descriptor cost",
    "BcsConfig.nic_reduce_cost_per_element": "NIC reduce cost",
    "BcsConfig.p2p_budget_fraction": "P2P budget fraction",
    "BaselineConfig.call_overhead": "baseline call overheads",
    "BaselineConfig.wait_overhead": "baseline call overheads",
    "BaselineConfig.eager_threshold": "eager threshold",
    "BaselineConfig.barrier_overhead": "baseline barrier overhead",
    "BaselineConfig.control_bytes": "baseline control message",
    "BaselineConfig.copy_bandwidth": "baseline copy bandwidth",
    "BaselineConfig.host_reduce_cost_per_element": "baseline host reduce cost",
    "ClusterSpec.cpus_per_node": "CPUs per node",
    "ClusterSpec.nic_thread_op_cost": "NIC thread operation cost",
    "NoiseConfig.preempt_quantum": "noise preemption quantum",
}

_NO_DEFAULT = object()


def _config_fields():
    """``{class name: [(field, default), ...]}`` in declaration order."""
    out = {}
    for name, module in CONFIGS.items():
        cls = getattr(importlib.import_module(module), name)
        out[name] = [
            (f.name, _NO_DEFAULT if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(cls)
        ]
    return out


def _caller_trees():
    return [
        ast.parse(path.read_text())
        for top in CALLER_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
    ]


def _is_default(value: ast.expr, default) -> bool:
    try:
        return ast.literal_eval(value) == default
    except ValueError:
        return False


def field_findings(fields, trees):
    """``{"Class.field": problem}`` for each field of ``fields`` (as
    :func:`_config_fields` gives them) that no tree in ``trees`` reads
    or sets to a non-default value."""
    read, set_to = set(), {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Call):
                func = node.func
                callee = getattr(func, "id", getattr(func, "attr", None))
                if callee == "getattr" and len(node.args) > 1:
                    key = node.args[1]
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        read.add(key.value)
                for kw in node.keywords:
                    if kw.arg:
                        set_to.setdefault(kw.arg, []).append(kw.value)
                for (name, _), arg in zip(fields.get(callee, ()), node.args):
                    set_to.setdefault(name, []).append(arg)
            elif isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        set_to.setdefault(key.value, []).append(value)
    found = {}
    for cls, members in fields.items():
        for name, default in members:
            problems = []
            if name not in read:
                problems.append("read nowhere")
            if all(_is_default(v, default) for v in set_to.get(name, ())):
                problems.append("set only by tests")
            if problems:
                found[f"{cls}.{name}"] = ", ".join(problems)
    return found


def test_every_config_field_is_read_and_set_outside_tests():
    found = field_findings(_config_fields(), _caller_trees())
    bad = sorted(f"{qual}: {why}" for qual, why in found.items() if qual not in ALLOWED_FIELDS)
    assert not bad, "config fields with a path no run takes:\n" + "\n".join(bad)
    stale = sorted(set(ALLOWED_FIELDS) - set(found))
    assert not stale, f"allowlisted but now read and set, or gone: {stale}"
    text = (ROOT / "EXPERIMENTS.md").read_text()
    table = text.split("## Calibration inputs", 1)[1].split("\n## ", 1)[0]
    rows = {line.split("|")[1].strip() for line in table.splitlines() if line.startswith("| ")}
    missing = sorted(f"{q}: {row}" for q, row in ALLOWED_FIELDS.items() if row not in rows)
    assert not missing, f"no EXPERIMENTS.md calibration row: {missing}"


def test_field_guard_flags_unread_and_test_only_fields():
    fields = {"Knobs": [("used", 1), ("test_only", 2), ("unread", 3), ("required", _NO_DEFAULT)]}
    callers = [
        ast.parse("k = Knobs(5, unread=7, test_only=2)\nprint(k.used, k.test_only, k.required)"),
        ast.parse("overrides = {'test_only': 2}\nk.with_(test_only=(2))"),
    ]
    assert field_findings(fields, callers) == {
        "Knobs.test_only": "set only by tests",
        "Knobs.unread": "read nowhere",
        "Knobs.required": "set only by tests",
    }
    callers.append(ast.parse("Knobs(required=0, unread=getattr(k, 'unread'), test_only=x)"))
    assert field_findings(fields, callers) == {}


#: Attribute names ``src/`` stores and nothing loads, kept anyway: name
#: -> reason.
ALLOWED_ATTRIBUTES: dict = {}


def write_only_attributes(stores, loads):
    """Attribute names stored in a tree of ``stores`` and loaded in no
    tree of ``loads``.

    A store is a ``.name`` in Store context (``AugAssign`` targets
    included).  A load is a ``.name`` in Load context or a string
    constant passed to ``getattr`` or ``hasattr``; strings elsewhere,
    ``__slots__`` included, are not loads.
    """
    stored, loaded = set(), set()
    for tree in stores:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                stored.add(node.attr)
    for tree in loads:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif (key := _attribute_string(node)) is not None:
                loaded.add(key.value)
    return stored - loaded


def test_every_stored_attribute_is_loaded_outside_tests():
    src = [ast.parse(path.read_text()) for path in sorted((ROOT / "src").rglob("*.py"))]
    found = write_only_attributes(src, _caller_trees())
    bad = sorted(found - set(ALLOWED_ATTRIBUTES))
    assert not bad, "attributes src/ stores and nothing outside the tests loads: " + ", ".join(bad)
    stale = sorted(set(ALLOWED_ATTRIBUTES) - found)
    assert not stale, f"allowlisted but now loaded or gone: {stale}"


def test_attribute_guard_flags_only_stored_names():
    stores = [
        ast.parse(
            "class A:\n"
            "    __slots__ = ('kept', 'counted', 'probed', 'lost')\n"
            "    def __init__(self):\n"
            "        self.kept = self.counted = self.probed = self.lost = 0\n"
            "        self.counted += 1\n"
        )
    ]
    loads = [ast.parse("print(a.kept)\nif hasattr(a, 'probed'): pass\n")]
    assert write_only_attributes(stores, loads) == {"counted", "lost"}
    loads.append(ast.parse("getattr(a, 'counted')\nprint(a.lost)"))
    assert write_only_attributes(stores, loads) == set()
