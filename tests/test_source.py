"""Source hygiene of the package, checked with ``ast`` (no linter needed).

Invariant checks must survive ``python -O``, so the package holds no
``assert`` statement; and every name a module imports at module level is
used in it or re-exported through ``__all__`` (``__init__.py`` is exempt:
its imports are the re-exports). The runtime needs numpy only: importing
every module of the package loads no scipy module, and defines one dataclass
(``BoostConfig``, in ``densreg.records``), since every other record is a
plain class or a NamedTuple; no code treats a NamedTuple record as a tuple.
Each command loads only the modules it runs, as a table pins: config
validation and model loading build their records from ``densreg.records``,
so ``predict`` and ``check`` load no kernel, estimator, simulation or
renderer module. The command-line module's exit hook freezes what is alive
when a command process exits, after the command's whole report, and leaves
collection unchanged for a caller that runs ``main`` in process. The
handlers of ``cli.main`` name only the error table (ConfigError, DataError,
LinAlgError, ZeroDivisionError, FloatingPointError), so no error type
reaches an exit code without a boundary that owns it. Boosting and simulation work on N x P clr arrays, so
they do not use the density and clr element classes; and no code turns rows
into elements and back: ``predict_clr`` is called nowhere in the package,
``clr_inv`` only in ``bayes``, ``synth`` and the element edge
``model.extract_effect``, and ``clr`` only in ``bayes``. Density files reach
the commands as N x P rows, and ``estimate`` writes them as rows:
``read_density_file`` is called nowhere in the package, and a
``DensityElement`` is built only in ``bayes`` and the reader's element edge.
The model file has one reader and one writer (``model.load_fields`` and
``model.dump_fields``), so the basis and boosting layers hold no
``to_dict``/``from_dict``; ``model`` alone splits responses into the
components of their measure, so boosting imports no decompose or embed
function and reads no ``is_mixed``; a measure's components come from one
table, ``bayes.components``, so its part measures and embeddings are called
only in ``bayes``; and no module starts a thread. Fit and
load build each basis object the same way: ``DensityBasis`` is constructed
only in ``basis`` and ``bspline_knots`` called only there and in
``model._TermEncoder``.

The package holds only what the program runs: every top-level ``def`` and
``class`` is reached from ``cli.py`` or from a name that the benchmark
(``perfbench/*.py``) imports, following names and relative-import aliases
through the bodies of what is reached, and every name that the benchmark
imports from ``densreg`` resolves. Test oracles live in ``tests/``.
Every defaulted parameter of a ``def`` in the package is passed by some call
in ``src/`` or ``perfbench/`` (by keyword, by position, or through
``*args``/``**kwargs``, resolving ``import … as`` aliases, and a record's
``__init__`` through its class), so no option exists only for tests; and,
outside record constructors, left out by some such call, so no default
exists only for tests.
"""
import ast
import gc
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "densreg"
MODULES = sorted(PACKAGE.glob("*.py"))
DATA = PACKAGE.parents[1] / "tests" / "data"
CHECK_ARGV = ["check", str(DATA / "model_v1_predictions.tsv"),
              "--config", str(DATA / "config_full.json")]


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _module_imports(tree) -> dict:
    """Name bound by each module-level import, with its line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"model.py", "io.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [n.lineno for n in ast.walk(_parse(path)) if isinstance(n, ast.Assert)]
    assert not lines, f"{path.name}: assert statement(s) at line(s) {lines}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_module_imports(path):
    tree = _parse(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {
        name: line
        for name, line in _module_imports(tree).items()
        if name not in used and name not in _exported(tree)
    }
    assert not unused, f"{path.name}: unused import(s) {unused}"


# imports every module of the package: importing densreg.cli alone loads
# only the layers that all commands share
IMPORT_ALL = "import importlib, sys; " + "; ".join(
    f"importlib.import_module('densreg.{p.stem}')" for p in MODULES if p.name != "__init__.py"
) + "; "


def test_cli_import_loads_no_scipy():
    script = IMPORT_ALL + (
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_cli_import_defines_one_dataclass():
    # @dataclass generates and compiles methods for each class at import;
    # BoostConfig stays one because the benchmark tracer calls
    # dataclasses.replace on it
    script = IMPORT_ALL + (
        "import dataclasses; "
        "print(sorted(f'{name}.{k}' for name, mod in list(sys.modules.items()) "
        "if name.split('.')[0] == 'densreg' for k, v in vars(mod).items() "
        "if isinstance(v, type) and v.__module__ == name and dataclasses.is_dataclass(v)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "['densreg.records.BoostConfig']"


# the densreg modules a command loads: importing densreg.cli loads the
# config, file and model layers, all that predict and check run; each other
# command adds what it runs, and interpret adds render only to write SVG
SHARED_MODULES = ["densreg", "densreg.basis", "densreg.bayes", "densreg.cli", "densreg.io",
                  "densreg.measure", "densreg.model", "densreg.records"]
COMMAND_MODULES = {
    "estimate": ["densreg.ingest"],
    "fit": ["densreg.boosting"],
    "fit_cv": ["densreg.boosting"],
    "predict": [],
    "interpret": ["densreg.interpret"],
    "interpret_svg": ["densreg.interpret", "densreg.render"],
    "simulate": ["densreg.boosting", "densreg.simulate"],
    "check": [],
}


def _command_config(tmp_path, command) -> dict:
    """A config for ``command`` on the inputs in ``tests/data``; ``fit`` and
    ``simulate`` fit two terms to the five predicted densities with a fixed
    stop, ``fit_cv`` with one by 5-fold cross-validation, and ``estimate``
    reads three groups of shares written here."""
    with open(DATA / "config_full.json") as fh:
        cfg = json.load(fh)
    cfg["out"] = str(tmp_path / "out")
    cfg["data"] = {"observations": str(tmp_path / "obs.tsv"),
                   "densities": str(DATA / "model_v1_predictions.tsv"),
                   "model": str(DATA / "model_v1.json"),
                   "newdata": str(DATA / "model_v1_newdata.tsv")}
    (tmp_path / "obs.tsv").write_text("region\tvalue\tweight\n" + "".join(
        f"{r}\t{v}\t1.0\n" for r in ("east", "west", "north")
        for v in (0.0, 0.1, 0.3, 0.45, 0.6, 0.8, 1.0)
    ))
    cfg["model"] = {"references": {"region": "west"}, "terms": [
        {"name": "intercept", "kind": "intercept"},
        {"name": "region", "kind": "group_intercept", "covariates": ["region"]},
    ]}
    cfg["boosting"] = {"max_iterations": 5}
    if command == "fit_cv":
        cfg["boosting"]["stopping"] = {"method": "cv", "folds": 5}
    cfg["simulation"] = {"replicates": 1, "truncation": 1}
    cfg["interpret"]["svg"] = command == "interpret_svg"
    return cfg


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    # without a bytecode cache every loaded module is compiled on each run,
    # so one stray module-level import would load a module for every command
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_command_config(tmp_path, command)))
    argv = [command.split("_")[0], "--config", str(cfg_path)]
    if command == "check":
        argv.insert(1, str(DATA / "model_v1_predictions.tsv"))
    script = (
        "import sys, densreg.cli\n"
        "code = densreg.cli.main(sys.argv[1:])\n"
        "print('numpy.random' in sys.modules)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'densreg'))\n"
        "raise SystemExit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    res = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    drew, loaded = res.stdout.splitlines()[-2:]
    assert loaded == str(sorted(SHARED_MODULES + COMMAND_MODULES[command]))
    # cross-validation draws its folds in Python; only simulate's replicates
    # (and bootstrap stopping) import numpy's generators
    assert drew == str(command == "simulate")
    svgs = sorted(p.name for p in (tmp_path / "out").glob("*.svg"))
    assert bool(svgs) == (command == "interpret_svg"), svgs


def test_cli_exit_hook_freezes_what_is_alive_at_exit():
    # the hook runs before the shutdown's collections; a probe registered
    # before the import runs after it, since exit hooks run last-in, first-out
    script = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "import densreg.cli\n"
        f"raise SystemExit(densreg.cli.main({CHECK_ARGV!r}))\n"
    )
    # stdout to a pipe is block-buffered, so the report's tail is flushed at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stderr == "frozen True\n"
    first, deviation, last = res.stdout.splitlines()
    assert first.endswith("model_v1_predictions.tsv: 5 densities on measure\t"
                          "interval=0.0:1.0\tatoms=0.0:1.0;1.0:1.0\tgrid=16")
    assert deviation.startswith("worst decompose/embed deviation ")
    assert last == "OK all invariants hold for 5 rows"


def test_cli_main_leaves_collection_unchanged_in_process(capsys):
    from densreg.cli import main

    assert main(CHECK_ARGV) == 0
    assert capsys.readouterr().out.endswith("OK all invariants hold for 5 rows\n")
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


def test_cli_main_maps_only_the_error_table():
    # a library error reaches an exit code through an io.reported_as
    # boundary; a handler for ValueError, KeyError or OSError in main would
    # give any such error an exit code, whatever raised it
    tree = _parse(PACKAGE / "cli.py")
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    named = []
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler):
            assert handler.type is not None, "bare except in cli.main"
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            named += [t.attr if isinstance(t, ast.Attribute) else t.id for t in types]
    assert sorted(named) == sorted(["ConfigError", "DataError", "LinAlgError",
                                    "ZeroDivisionError", "FloatingPointError"])


def _named_tuples(value) -> list:
    """The NamedTuple instances inside nested dicts, lists and tuples."""
    if isinstance(value, dict):
        value = list(value.values())
    elif not isinstance(value, (list, tuple)):
        return []
    found = [value] if hasattr(value, "_fields") else []
    return found + [t for v in value for t in _named_tuples(v)]


def test_named_tuple_records_are_not_used_as_tuples():
    """A NamedTuple record is a tuple: ``isinstance(x, tuple)`` accepts it,
    and ``json.dumps`` writes it as a list. The package tests for no tuple,
    and its one ``json.dumps``, of the model file, gets no NamedTuple."""
    tuple_tests = [
        f"{path.name}:{node.lineno}" for path in MODULES for node in ast.walk(_parse(path))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        and any(isinstance(n, ast.Name) and n.id == "tuple" for n in ast.walk(node.args[1]))
    ]
    assert not tuple_tests
    dumped = [
        ast.unparse(node.args[0]) for path in MODULES for node in ast.walk(_parse(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps") and getattr(node.func.value, "id", None) == "json"
    ]
    assert dumped == ["model_to_dict(model)"]
    from densreg.io import model_from_dict, model_to_dict

    with open(PACKAGE.parents[1] / "tests" / "data" / "model_v1.json") as fh:
        assert not _named_tuples(model_to_dict(model_from_dict(json.load(fh))))


@pytest.mark.parametrize("name", ["boosting.py", "simulate.py"])
def test_array_layers_use_no_element_class(name):
    tree = _parse(PACKAGE / name)
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {
        alias.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
        for alias in n.names
    }
    found = names & {"DensityElement", "ClrElement"}
    assert not found, f"{name}: uses {sorted(found)}"


@pytest.mark.parametrize("name", ["basis.py", "boosting.py"])
def test_model_file_format_stays_out_of(name):
    tree = _parse(PACKAGE / name)
    found = {
        n.name for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name in ("to_dict", "from_dict")
    }
    assert not found, f"{name}: defines {sorted(found)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_thread_imports(path):
    imported = set()
    for n in ast.walk(_parse(path)):
        if isinstance(n, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in n.names}
        elif isinstance(n, ast.ImportFrom) and n.module:
            imported.add(n.module.split(".")[0])
    found = imported & {"concurrent", "threading"}
    assert not found, f"{path.name}: imports {sorted(found)}"


def test_boosting_leaves_the_components_to_model():
    """Splitting responses into measure components and embedding the fits
    back is ``model.fit``'s: boosting fits one component measure."""
    tree = _parse(PACKAGE / "boosting.py")
    imported = {
        alias.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
        for alias in n.names
    }
    found = {name for name in imported if "decompose" in name or "embed" in name}
    found |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "is_mixed"}
    assert not found, f"boosting.py: uses {sorted(found)}"


PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _top_level(tree) -> dict:
    """Module-level defs, classes and assigned names, each with its node."""
    nodes = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            nodes[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        nodes[name.id] = node
    return nodes


def _relative_imports(tree) -> dict:
    """Local name -> (module, name) for each ``from .module import name``."""
    return {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }


def _unreached() -> list:
    """Top-level defs and classes of ``src/densreg`` that neither ``cli.py``
    nor ``perfbench/`` reaches, following names, relative-import aliases and
    re-exports through the bodies of what is reached."""
    trees = {p.stem: _parse(p) for p in MODULES if p.name != "__init__.py"}
    defs = {mod: _top_level(tree) for mod, tree in trees.items()}
    aliases = {mod: _relative_imports(tree) for mod, tree in trees.items()}
    todo = [("cli", name) for name in defs["cli"]]
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("densreg."):
                todo += [(node.module.split(".", 1)[1], alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                todo += [(alias.name.split(".", 1)[1], name) for alias in node.names
                         if alias.name.startswith("densreg.")
                         for name in defs[alias.name.split(".", 1)[1]]]
    reached = set()
    while todo:
        mod, name = todo.pop()
        if name not in defs.get(mod, {}) and name in aliases.get(mod, {}):
            # a re-export, such as densreg.boosting.BoostConfig from records
            todo.append(aliases[mod][name])
            continue
        if (mod, name) in reached or name not in defs.get(mod, {}):
            continue
        reached.add((mod, name))
        for node in ast.walk(defs[mod][name]):
            if isinstance(node, ast.Name):
                if node.id in aliases[mod]:
                    todo.append(aliases[mod][node.id])
                else:
                    todo.append((mod, node.id))
    return sorted(
        f"{mod}.{name}"
        for mod, names in defs.items()
        for name, node in names.items()
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) and (mod, name) not in reached
    )


def test_every_definition_is_reached_from_cli_or_perfbench():
    unreached = _unreached()
    assert not unreached, f"{len(unreached)} definition(s) reached only from tests: {unreached}"


def test_every_name_perfbench_imports_resolves():
    # _unreached passes over a name that no module defines, so this imports
    # the densreg modules that perfbench/*.py names, but not perfbench itself
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "densreg":
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{alias.name}" for alias in node.names
                            if not hasattr(module, alias.name)]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "densreg":
                        importlib.import_module(alias.name)
    assert not missing, f"perfbench imports names densreg lacks: {missing}"


def _calls_outside(allowed: dict) -> list:
    """``module.top-level name`` of each call to a key of ``allowed`` in the
    package that is not in one of the modules or top-level names it lists."""
    found = set()
    for path in MODULES:
        mod = path.stem
        for top in _parse(path).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                where = f"{mod}.{getattr(top, 'name', '<module>')}"
                if name in allowed and not {mod, where} & allowed[name]:
                    found.add(where)
    return sorted(found)


# where an element conversion may still be called: the inverse clr of an
# element in bayes itself, in the element edge of the effect view, and in
# the generator of synthetic densities; the clr of an element only in bayes,
# since the commands transform whole density matrices; the clr predictions
# as elements nowhere
ROUND_TRIP_CALLS = {"clr_inv": {"bayes", "model.extract_effect", "synth"}, "clr": {"bayes"},
                    "predict_clr": set()}


def test_no_element_round_trips_inside_the_package():
    found = _calls_outside(ROUND_TRIP_CALLS)
    assert not found, f"element round trip(s) in {found}"


# where a density element may be built: in bayes, and by the element edge of
# the density-file reader, which the package itself does not call: density
# files reach it as N x P rows, and ``estimate`` writes rows
ELEMENT_CALLS = {"DensityElement": {"bayes", "io.read_density_file"},
                 "read_density_file": set()}


def test_density_elements_only_at_the_edge():
    found = _calls_outside(ELEMENT_CALLS)
    assert not found, f"density element(s) built in {found}"


# the one builder of each basis object, which fit and load share: density
# bases come from basis.density_basis, and spline knots from the term encoder,
# which derives them from its covariates' ranges
BUILDER_CALLS = {"DensityBasis": {"basis"}, "bspline_knots": {"basis", "model._TermEncoder"}}


def test_one_builder_per_basis_object():
    found = _calls_outside(BUILDER_CALLS)
    assert not found, f"basis object(s) built in {found}"


# the one table of a measure's components: only bayes.components and the
# element forms beside it name a component's measure or embedding
COMPONENT_CALLS = dict.fromkeys(["continuous_submeasure", "discrete_star_measure",
                                 "embed_clr_continuous_rows", "embed_clr_discrete_rows"],
                                {"bayes"})


def test_component_measures_and_embeddings_only_in_bayes():
    found = _calls_outside(COMPONENT_CALLS)
    assert not found, f"component measure(s) or embedding(s) named in {found}"


def _callee_aliases(tree) -> dict:
    """Local name -> imported name for each ``import … as`` alias."""
    return {
        alias.asname: alias.name.rsplit(".", 1)[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname
    }


def _calls() -> dict:
    """Callee name -> (positional count, keyword names) of each call in
    ``src/`` and ``perfbench/``; a ``*args`` or ``**kwargs`` call adds the
    keyword "*", which passes every parameter."""
    calls = {}
    for path in MODULES + sorted(PERFBENCH.glob("*.py")):
        tree = _parse(path)
        aliases = _callee_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            names = {k.arg or "*" for k in node.keywords}
            if any(isinstance(a, ast.Starred) for a in node.args):
                names.add("*")
            calls.setdefault(aliases.get(name, name), []).append((len(node.args), names))
    return calls


def _defaults_by_callers() -> tuple[list, list]:
    """``module.function(parameter)`` for every defaulted parameter of a
    ``def`` in ``src/densreg``: those that no call in ``src/`` or
    ``perfbench/`` passes, and those that every such call passes (of a
    function that is called), by keyword, by position or through
    ``*args``/``**kwargs``. A record's ``__init__`` is matched against calls
    to its class and is listed only in the first group: its defaults are
    the record's construction API (``KdeConfig()``, ``EffectTerm(name,
    kind)``), which the package itself fills from config keys."""
    calls = _calls()
    unset, always = [], []
    for path in MODULES:
        tree = _parse(path)
        # a class's ``__init__`` is called through the class's name
        callee = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                  for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = callee.get(id(node), node.name)
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
            for arg in defaulted:
                passed = [
                    (arg in positional and positional.index(arg) < n_args + bound)
                    or bool({arg.arg, "*"} & names)
                    for n_args, names in calls.get(name, [])
                ]
                where = f"{path.stem}.{name}({arg.arg})"
                if not any(passed):
                    unset.append(where)
                elif all(passed) and name == node.name:
                    always.append(where)
    return sorted(unset), sorted(always)


def test_every_default_is_set_by_some_caller():
    unset, _ = _defaults_by_callers()
    assert not unset, f"{len(unset)} parameter(s) set only by tests: {unset}"


def test_no_default_is_set_by_every_caller():
    _, always = _defaults_by_callers()
    assert not always, f"{len(always)} default(s) that only tests rely on: {always}"
