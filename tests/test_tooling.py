"""Import hygiene, checked with the standard library alone: the package
pulls in no third-party runtime dependency, every name a module exports
exists, the package namespace is the star import of each module with an
``__all__``, no module exports a name it imports, no module imports
a name it never uses, no module-level private name goes unreferenced,
every exported function and constant is used outside its module, every
exported function but the named test oracles is called outside the
tests, the simulator's naive twin and the split replay borrow nothing
private from the engine and import from the package only the names
their docstrings allow, the engine imports no random module, the
benchmark's tracer still finds, and reads the results of, every function
it traces, every defaulted parameter is set by some call outside the
tests, every CLI option is passed by some test or README example, and
every memo in the package has a written, finite bound."""

from __future__ import annotations

import argparse
import ast
import importlib
import importlib.util
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import congestlab
from congestlab import congest
from congestlab.cli import build_parser

PACKAGE_DIR = Path(congestlab.__file__).resolve().parent


def test_importing_the_package_loads_no_numpy():
    # networkx is a test-only oracle (tests/test_chordless_oracle.py).
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    code = "import sys, congestlab; print({'numpy', 'networkx'} & set(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "set()"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    return imported


def _library_modules():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name != "__init__.py":
            yield path, importlib.import_module(f"congestlab.{path.stem}")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = _imported_names(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Names listed in __all__ are re-exported, which counts as a use.
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)
            }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_every_exported_name_resolves():
    missing = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        module = importlib.import_module(f"congestlab.{path.stem}")
        names = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if names:
            missing[path.name] = names
    assert missing == {}


def test_modules_import_no_unused_names():
    unused = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        names = _unused_imports(path.read_text(encoding="utf-8"))
        if names:
            unused[path.name] = names
    assert unused == {}


def _private_definitions(tree: ast.Module) -> set[str]:
    """Module-level defs, classes and assignments whose name starts with
    one underscore (dunders such as ``__all__`` are not helpers)."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _referenced_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_no_private_helper_is_dead():
    """Every module-level private name is referenced by some module of
    the package; a helper nothing reads is dead code."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    used = set().union(*map(_referenced_names, trees.values()))
    dead = {}
    for name, tree in trees.items():
        names = sorted(_private_definitions(tree) - used)
        if names:
            dead[name] = names
    assert dead == {}


def test_package_star_imports_every_module_with_an_all():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    starred, other = set(), []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 1
            and [a.name for a in node.names] == ["*"]
        ):
            starred.add(node.module)
        else:
            other.append(ast.unparse(node))
    assert other == []
    exporting = {
        path.stem for path, module in _library_modules() if hasattr(module, "__all__")
    }
    assert starred == exporting


def test_no_module_exports_a_name_it_imports():
    leaked = {}
    for path, module in _library_modules():
        imported = _imported_names(ast.parse(path.read_text(encoding="utf-8")))
        names = [n for n in getattr(module, "__all__", ()) if n in imported]
        if names:
            leaked[path.name] = names
    assert leaked == {}


def _engine_names_used(filename: str) -> set[str]:
    """The names a test helper beside this file reads, of those that
    could reach into ``congest``: the private ones and ``run``."""
    private = {name for name in vars(congest) if name.startswith("_") and not name.endswith("__")}
    # A watched public name that left the engine would pass unnoticed.
    public = {"run"}
    assert public <= set(congest.__all__), sorted(public - set(congest.__all__))
    tree = ast.parse((Path(__file__).parent / filename).read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
            used.add(node.asname)
    return used & (private | public)


def _package_imports(filename: str) -> set[str]:
    tree = ast.parse((Path(__file__).parent / filename).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("congestlab"):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.startswith("congestlab")}
    return imported


def test_the_simulator_twin_uses_no_engine_internals():
    """``tests/reference_sim.py`` must stay an independent route, as the
    naive and pruned oracles are: it may not call ``run`` or any
    private name of ``congest``."""
    assert _engine_names_used("reference_sim.py") == set()


def test_the_simulator_twin_imports_only_what_its_docstring_allows():
    """The allow-list counterpart of the check above: from the package,
    the twin may import only the types it returns, raises and reads,
    and ``default_bandwidth``.  A codec, ``word_bits`` or a stock program
    would let it lean on the engine's own helpers."""
    allowed = {"ProtocolViolation", "RunStats", "SimConfig", "default_bandwidth"}
    imported = _package_imports("reference_sim.py")
    assert imported and imported <= allowed, sorted(imported - allowed)


def test_the_split_replay_uses_no_engine_internals():
    """``tests/split_replay.py`` reruns each party through ``run`` itself,
    so it may call it, but nothing private to ``congest``: a party must
    see the engine only as a caller does."""
    assert _engine_names_used("split_replay.py") <= {"run"}


def test_the_split_replay_imports_only_what_its_docstring_allows():
    """From the package, the replay and its closure guard may import
    ``run``, the types they build and ``Graph``; a stock program,
    ``twoparty`` or a family builder would let them share code with
    what they check."""
    allowed = {"Graph", "NodeProgram", "SimConfig", "run"}
    imported = _package_imports("split_replay.py")
    assert imported and imported <= allowed, sorted(imported - allowed)


def test_the_engine_imports_no_random_module():
    """The simulator adds no randomness to a run; a program that draws
    builds its own stream, so ``congest`` needs no ``random``."""
    tree = ast.parse(Path(congest.__file__).read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    assert [m for m in modules if "random" in m.split(".")] == []


def _load_tracing():
    """``perfbench/tracing.py``, loaded by path as the benchmark loads it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_and_reports():
    """The tracer rebinds library functions by name and reads their
    return shapes; a rename or a reshaped result must fail here, not
    only in the benchmark's self-test."""
    tracing = _load_tracing()
    for _, home, func_name, _ in tracing.TARGETS:
        module = importlib.import_module(f"congestlab.{home}")
        assert callable(getattr(module, func_name, None)), f"{home}.{func_name}"

    cl = congestlab
    g = cl.random_graph(24, 0.3, random.Random(3))
    side = range(12)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cl.cycle_listing_protocol(g, side, 4)
        cl.diamond_listing_protocol(g, side)
        cl.list_induced_diamonds_congest(g, with_coverage=True)
        inst = cl.build_four_cycle_family(2, cl.InputPair("1000", "1000"))
        cl.congest_reduction(inst, cl.naive_four_cycle_program())
        cl.build_long_cycle_family(1, 2, 0, cl.InputPair("1", "1"))
        cl.verify_family_conditions(cl.cycle_harness(1, 4))
        fixture = cl.build_diamond_fixture(16, 1)
        cl.verify_family_conditions(cl.diamond_harness(fixture), samples=4)
    finally:
        tracer.uninstall()

    spans = {span[0] for span in tracer.spans}
    metrics = tracing.layer_metrics(tracer.spans)
    for name in {target[0] for target in tracing.TARGETS} | {"congest.run"}:
        assert name in spans, name
        assert any(key.startswith(f"{name}.") for key in metrics), name
    for key in (
        "twoparty.cycle_listing_protocol.payload_bits",
        "twoparty.diamond_listing_protocol.payload_bits",
        "twoparty.congest_reduction.transcript_bits",
        "congest.run.rounds",
        "diamond_congest.run_sparse_phase.rounds",
        "families.build.calls",
        "family_checks.verify_family_conditions.pairs",
    ):
        assert metrics[key] > 0, key


def test_every_exported_function_and_constant_is_used_elsewhere():
    """The public counterpart of ``test_no_private_helper_is_dead``:
    every function and constant a module lists in ``__all__`` is
    referenced outside its home module, by the package, the tests or
    the benchmark.  An export nothing else reads is dead surface."""
    root = PACKAGE_DIR.parents[1]
    paths = [
        *PACKAGE_DIR.glob("*.py"),
        *(root / "tests").glob("*.py"),
        *(root / "perfbench").glob("*.py"),
    ]
    names = {
        path.resolve(): _referenced_names(ast.parse(path.read_text(encoding="utf-8")))
        for path in paths
    }
    unused = {}
    for path, module in _library_modules():
        elsewhere = set().union(*(v for p, v in names.items() if p != path.resolve()))
        exported = [
            n
            for n in getattr(module, "__all__", ())
            if not isinstance(getattr(module, n), type) and n not in elsewhere
        ]
        if exported:
            unused[path.name] = exported
    assert unused == {}


# Exported functions that nothing in the package or the benchmark calls,
# each kept on purpose as a test oracle, with the reason.
TEST_ORACLES = {
    "read_bundle": "reads a written bundle back, so tests can round-trip one",
    "good_pair_ratio": "the fixture's good-pair density, acceptance criterion 07",
    "list_two_two_diamonds": "the full listing has_two_two_diamond must agree with",
    "check_block_counts": "the long-cycle block lemma, acceptance criterion 03",
    "diameter": "the centered long-cycle diameter, acceptance criterion 04",
    "is_induced_cycle": "the definition the cycle oracles are checked against",
    "is_induced_diamond": "the definition the diamond oracles are checked against",
    "list_induced_cycles_naive": "the naive cycle oracle, independent of the pruned search",
    "list_induced_diamonds_naive": "the naive diamond oracle, independent of the pruned search",
}


def _uncalled_functions(sources: dict[str, str]) -> list[str]:
    """The functions a source's ``__all__`` lists that no source, its
    own included, references: defined and exported, never called."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set().union(*map(_referenced_names, trees.values()))
    uncalled = []
    for tree in trees.values():
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported = set(ast.literal_eval(node.value))
        uncalled += [
            node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name in exported
            and node.name not in used
        ]
    return sorted(uncalled)


def test_every_exported_function_is_called_outside_the_tests():
    """An exported function only the tests call is surface the program
    does not use: every one is referenced in the package or the
    benchmark, except the oracles in ``TEST_ORACLES``.  An oracle the
    program has come to call is listed no longer."""
    root = PACKAGE_DIR.parents[1]
    paths = [*PACKAGE_DIR.glob("*.py"), *(root / "perfbench").glob("*.py")]
    uncalled = _uncalled_functions({str(p): p.read_text(encoding="utf-8") for p in paths})
    assert sorted(set(uncalled) - TEST_ORACLES.keys()) == []
    assert sorted(TEST_ORACLES.keys() - set(uncalled)) == []


def test_the_call_guard_flags_an_exported_function_nothing_calls():
    sources = {
        "lib.py": (
            "__all__ = ['called', 'self_called', 'uncalled', 'CONSTANT']\n"
            "CONSTANT = 1\n"
            "def called(): ...\n"
            "def self_called(): ...\n"
            "def uncalled(): ...\n"
            "def _private(): ...\n"
            "def unexported(): ...\n"
            "x = self_called()\n"
        ),
        "app.py": "from lib import called\ncalled()\n",
    }
    assert _uncalled_functions(sources) == ["uncalled"]


# Defaulted parameters that no call in the package or the benchmark
# sets, each kept on purpose, with the reason.
TEST_SEAMS = {
    ("cli.py", "main", "argv"): "the test entry point; the console script passes none",
    ("graphs.py", "list_induced_cycles_naive", "budget"): "a reference oracle only tests call",
    ("graphs.py", "list_induced_diamonds_naive", "budget"): "a reference oracle only tests call",
}


def _defaulted_parameters(tree: ast.Module):
    """(function, parameter, positional index or None) for every parameter
    with a default of every function in *tree*; a method's index leaves
    out ``self``, as its calls do."""
    methods = {
        id(f)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if isinstance(f, ast.FunctionDef)
    }
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        args = func.args
        positional = args.posonlyargs + args.args
        offset = 1 if id(func) in methods else 0
        for i in range(len(positional) - len(args.defaults), len(positional)):
            yield func.name, positional[i].arg, i - offset
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield func.name, arg.arg, None


def _passed_parameters(trees) -> dict[str, tuple[set[str], int, bool]]:
    """Per called name: the keywords passed, the most positional
    arguments passed, and whether some call unpacks ``*`` or ``**``."""
    calls: dict[str, tuple[set[str], int, bool]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords, most, unpacks = calls.get(name, (set(), 0, False))
            keywords |= {kw.arg for kw in node.keywords if kw.arg is not None}
            unpacks = unpacks or any(kw.arg is None for kw in node.keywords) or any(
                isinstance(a, ast.Starred) for a in node.args
            )
            calls[name] = (keywords, max(most, len(node.args)), unpacks)
    return calls


def test_every_defaulted_parameter_is_set_outside_the_tests():
    """A default that only tests override is a knob the program never
    turns: every defaulted parameter of a package function is passed, by
    keyword or by position, at some call in the package or the benchmark,
    except the seams in ``TEST_SEAMS``.  Calls match by name alone, and
    one that unpacks ``*args`` or ``**kwargs`` counts as passing all.
    A seam the program has come to set is listed no longer."""
    root = PACKAGE_DIR.parents[1]
    sources = [*PACKAGE_DIR.glob("*.py"), *(root / "perfbench").glob("*.py")]
    calls = _passed_parameters(ast.parse(p.read_text(encoding="utf-8")) for p in sources)
    unset = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func, param, index in _defaulted_parameters(tree):
            keywords, most, unpacks = calls.get(func, (set(), 0, False))
            if not (param in keywords or unpacks or (index is not None and most > index)):
                unset.add((path.name, func, param))
    assert sorted(unset - TEST_SEAMS.keys()) == []
    assert sorted(TEST_SEAMS.keys() - unset) == []


def test_every_cli_option_is_passed_by_a_test_or_the_readme():
    """An option that no test and no README example passes is a knob
    nobody turns: every long option of every subcommand but ``--help``
    appears as a whole token in some ``tests/*.py`` file or the README."""
    root = PACKAGE_DIR.parents[1]
    texts = [p.read_text(encoding="utf-8") for p in (root / "tests").glob("*.py")]
    texts.append((root / "README.md").read_text(encoding="utf-8"))
    subcommands = next(
        a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    unused = [
        f"{name} {option}"
        for name, sub in subcommands.items()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--")
        and option != "--help"
        and not any(re.search(rf"(?<![\w-]){option}(?![\w-])", t) for t in texts)
    ]
    assert unused == []



MEMOS = ("cache", "lru_cache")


def _unbounded_memos(source: str) -> list[str]:
    """Each ``functools.cache`` or ``lru_cache`` in *source* that does not
    take an integer literal ``maxsize`` of at least 1.  A bare
    ``@lru_cache`` counts, as its bound is not written down."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in MEMOS
    }
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in imported:
            name = imported[node.id]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in MEMOS
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            name = node.attr
        else:
            continue
        call = calls.get(id(node))
        sizes = []
        if call is not None:
            sizes = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"]
        if not (
            name == "lru_cache"
            and any(
                isinstance(a, ast.Constant) and type(a.value) is int and a.value >= 1
                for a in sizes
            )
        ):
            found.append(f"{name} (line {node.lineno})")
    return found


def test_every_memo_in_the_package_is_bounded():
    """A memo keyed by parameters keeps what it built for every key it
    has seen, unless it is bounded; a four-cycle fixture at n = 673
    holds about 450k edges."""
    unbounded = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        names = _unbounded_memos(path.read_text(encoding="utf-8"))
        if names:
            unbounded[path.name] = names
    assert unbounded == {}


def test_the_memo_guard_flags_every_memo_without_a_written_bound():
    flagged = {
        "from functools import cache\n@cache\ndef f(x): ...": ["cache (line 2)"],
        "from functools import lru_cache\n@lru_cache\ndef f(x): ...": [
            "lru_cache (line 2)"
        ],
        "from functools import lru_cache as memo\n@memo(maxsize=None)\ndef f(x): ...": [
            "lru_cache (line 2)"
        ],
        "import functools\nf = functools.lru_cache(None)(len)": ["lru_cache (line 2)"],
        "import functools\nf = functools.cache(len)": ["cache (line 2)"],
        "from functools import lru_cache\n@lru_cache(maxsize=0)\ndef f(x): ...": [
            "lru_cache (line 2)"
        ],
        "from functools import lru_cache\n@lru_cache(maxsize=8)\ndef f(x): ...": [],
        "from functools import lru_cache\n@lru_cache(16)\ndef f(x): ...": [],
        "import functools\nf = functools.lru_cache(maxsize=4)(len)": [],
        "cache = {}\nx = cache.get(1)": [],
    }
    for source, expected in flagged.items():
        assert _unbounded_memos(source) == expected, source
