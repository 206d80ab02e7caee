"""The package's top level holds exactly the documented API, the README's
library quick tour runs and does what its comments say, its module table
names only what exists, and its trace example is a trace the writer
reproduces, and its exit-code table lists the codes the command line
exits with. Every module uses each name it imports, and every library
function or class has a caller in the library, a mention in the README or
a place on the list of kept references. Lines are split by one rule,
only `cli.run` touches the garbage collector, the unit closures kept on
a formula stay between `cnf` and `asymmetric`, only `engine.classify`
opens a row store on a formula, and only the compiled environment picks
the bit lattice or the search."""

import ast
import importlib
import re
from pathlib import Path

import blockcheck
from blockcheck import Assignment, EliminationTrace, cli
from blockcheck.oracle import satisfies

from conftest import clause

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(blockcheck.__file__).resolve().parent

DOCUMENTED = {
    "Clause", "Formula", "Assignment", "parse_dimacs", "write_dimacs",
    "PROPERTIES", "check_property", "classify",
    "is_literal_blocked", "is_set_blocked", "check_super_blocked",
    "EliminationConfig", "EliminationTrace", "eliminate_clauses", "reconstruct_model",
    "first_model",
    "CapExceeded", "ParseError", "ReconstructionError", "ResourceLimit",
}


def quick_tour_code():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_top_level_exports_exactly_the_documented_names():
    assert len(blockcheck.__all__) == len(DOCUMENTED) == 20
    assert set(blockcheck.__all__) == DOCUMENTED
    for name in blockcheck.__all__:
        assert getattr(blockcheck, name) is not None, name


def test_star_import_brings_only_the_documented_names():
    scope = {}
    exec("from blockcheck import *", scope)
    assert set(scope) - {"__builtins__"} == DOCUMENTED


def test_readme_quick_tour_runs_as_documented():
    scope = {}
    exec(compile(quick_tour_code(), "README quick tour", "exec"), scope)
    f, c, res = scope["f"], scope["c"], scope["res"]
    assert scope["is_literal_blocked"](f, c) is None
    assert scope["is_set_blocked"](f, c) is None
    assert res.blocked
    assert dict(res.witness.per_tau) == {
        Assignment({3: 0}): clause(1, 2),
        Assignment({3: 1}): clause(1),
    }
    assert satisfies(scope["model"], scope["g"])
    assert satisfies(scope["full"], f)


def test_readme_module_table_names_exist():
    # a bare name lives in the row's module; a dotted one is a full path
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(blockcheck\.\w+)` *\|(.*)\|$", text, re.M)
    assert len(rows) == 8
    checked = 0
    for module, cell in rows:
        for name in re.findall(r"`([\w.]+)`", cell):
            where, _, attr = name.rpartition(".")
            assert hasattr(importlib.import_module(where or module), attr), (module, name)
            checked += 1
    assert checked >= 15


def test_readme_trace_example_round_trips():
    # the example without its comments is a trace the writer reproduces
    section = README.read_text(encoding="utf-8").split("**Traces**", 1)[1]
    example = re.search(r"```\n(.*?)```", section, re.S).group(1)
    text = "".join(line.split("#", 1)[0].rstrip() + "\n" for line in example.splitlines())
    assert text.startswith("t blockcheck 1\nd bc -1 3 0 w 3 0\n")
    assert EliminationTrace.from_text(text).to_text() == text


def test_readme_exit_codes_are_the_cli_codes():
    # 0, 1 and 2 are verdicts; every other code comes from the one table
    section = README.read_text(encoding="utf-8").split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    documented = {int(code) for code in re.findall(r"^\| (\d+) +\|", section, re.M)}
    assert documented == {0, 1, 2} | {code for _, code in cli._EXITS}


def unused_imports(text):
    """Names a module imports at its top level that its text, outside the
    import statements, never mentions again (string annotations count)."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
            lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    rest = "\n".join(lines)
    return [name for name in imported if not re.search(r"\b%s\b" % re.escape(name), rest)]


def test_src_modules_use_every_import():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    for path in modules:
        assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name
    # the check itself: a leftover import is found, a use in a string annotation counts
    text = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import (\n    Sequence,\n    Mapping,\n)\n"
        "def f(x: 'Sequence[int]'): pass\n"
    )
    assert unused_imports(text) == ["os", "Mapping"]


def splitlines_calls(text):
    """Line numbers of the `.splitlines(` calls in a module's code."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "splitlines"
    ]


def test_src_modules_split_lines_by_the_one_rule():
    # str.splitlines also breaks at a form feed, NEL or U+2028; the readers
    # number lines by cnf.split_lines, which breaks at \n, \r\n and \r only
    for path in sorted(SRC.glob("*.py")):
        assert splitlines_calls(path.read_text(encoding="utf-8")) == [], path.name
    # the check itself: a call is found, a mention in a string or comment is not
    assert splitlines_calls("x = 1\ny = 'a'.splitlines()\n# .splitlines(\n") == [2]
    assert splitlines_calls("s = '.splitlines('\n") == []


def gc_uses(text):
    """(owner, kind) for each import of the `gc` module in a module's code
    ("import") and each read of a name such an import binds ("name"); owner
    is the enclosing top-level function or class, None at module level."""
    tree = ast.parse(text)

    def imports_gc(node):
        return (isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "gc")

    bound = {"gc"} | {
        a.asname or a.name
        for node in ast.walk(tree) if imports_gc(node)
        for a in node.names if isinstance(node, ast.ImportFrom) or a.name == "gc"
    }
    uses = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if imports_gc(node):
                uses.append((owner, "import"))
            elif isinstance(node, ast.Name) and node.id in bound:
                uses.append((owner, "name"))
    return uses


def test_only_cli_run_touches_the_garbage_collector():
    # cli.run switches the cyclic collector off for one command and puts the
    # caller's state back; no other code may switch, tune or run it
    for path in sorted(SRC.glob("*.py")):
        if path.name != "cli.py":
            assert gc_uses(path.read_text(encoding="utf-8")) == [], path.name
    uses = gc_uses((SRC / "cli.py").read_text(encoding="utf-8"))
    assert uses.count((None, "import")) == 1
    assert set(uses) == {(None, "import"), ("run", "name")}
    # the check itself: aliases and imports inside functions are found, a
    # mention in a string or comment is not
    text = (
        "import gc\nfrom gc import disable as off\n"
        "def f():\n    import gc as g\n    g.collect()\n    off()\n"
        "x = gc.isenabled()  # gc.disable()\ns = 'gc'\n"
    )
    assert gc_uses(text) == [
        (None, "import"), (None, "import"), ("f", "import"), ("f", "name"), ("f", "name"),
        (None, "name"),
    ]


def package_imports(text):
    """The package modules a module imports, relative or as `blockcheck.x`."""
    out = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "blockcheck"):
            out += [node.module] if node.level and node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("blockcheck."):
            out.append(node.module.split(".", 1)[1])
        elif isinstance(node, ast.Import):
            out += [a.name.split(".", 1)[1] for a in node.names if a.name.startswith("blockcheck.")]
    return out


def kept_uses(text, attr="kept"):
    """Line numbers of the uses of a `.kept` attribute (or of `attr`) in a
    module's code."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute) and node.attr == attr
    ]


def test_the_kept_unit_closures_stay_between_cnf_and_asymmetric():
    # cnf maintains the slot without knowing what it holds, and asymmetric
    # alone decides what survives a removal; no other module reaches in
    assert package_imports((SRC / "cnf.py").read_text(encoding="utf-8")) == ["errors"]
    for path in sorted(SRC.glob("*.py")):
        uses = kept_uses(path.read_text(encoding="utf-8"))
        assert bool(uses) == (path.name in ("cnf.py", "asymmetric.py")), path.name
    # the check itself: every import form is found, and an attribute is
    # found where a name, string or comment is not
    text = (
        "from . import engine, gen\nfrom .errors import ParseError\n"
        "import blockcheck.oracle\nfrom blockcheck import cli\nfrom blockcheck.cnf import Clause\n"
        "import os\nfrom random import Random\n"
        "def f(g):\n    kept = g.kept  # h.kept\n    g.kept = kept\n    return 'g.kept'\n"
    )
    assert package_imports(text) == ["engine", "gen", "errors", "oracle", "cli", "cnf"]
    assert kept_uses(text) == [9, 10]


def answers_stores(text):
    """(enclosing function, value) per assignment to an `.answers`
    attribute in a module's code; the value is "{}", "None" or "other"."""
    out = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            value = node.value
            plain = isinstance(node, ast.Assign)
            for target in node.targets if plain else [node.target]:
                for t in ast.walk(target):
                    if isinstance(t, ast.Attribute) and t.attr == "answers":
                        kind = "other"
                        if plain and t is target:
                            if isinstance(value, ast.Dict) and not value.keys:
                                kind = "{}"
                            elif isinstance(value, ast.Constant) and value.value is None:
                                kind = "None"
                        out.append((where, kind))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(text), None)
    return out


def test_only_classify_opens_a_row_store():
    # a formula's `answers` hold one classify row's shared answers: classify
    # alone puts a fresh dict there, cnf only clears the slot, and the
    # checks only read and fill it
    for path in sorted(SRC.glob("*.py")):
        stores = answers_stores(path.read_text(encoding="utf-8"))
        if path.name == "engine.py":
            assert sorted(stores) == [("classify", "None"), ("classify", "{}")]
        elif path.name == "cnf.py":
            assert stores and {kind for _, kind in stores} == {"None"}
        else:
            assert stores == [], path.name
    # the check itself: chained, augmented and unpacking stores are found,
    # in or out of a function, and a read, a comment or a string is not
    text = (
        "class F:\n    def __init__(self):\n        self.answers = None\n"
        "def classify(f):\n    f.answers = {}\n    f.kept = f.answers = None\n"
        "def g(f):\n    f.answers |= {1: 2}\n    f.answers, x = {}, 1\n"
        "    y = f.answers  # f.answers = {}\n    f.answers = dict()\n"
        "answers = 'f.answers = {}'\n"
    )
    assert answers_stores(text) == [
        ("__init__", "None"), ("classify", "{}"), ("classify", "None"),
        ("g", "other"), ("g", "other"), ("g", "other"),
    ]


def route_uses(text):
    """(line, whether inside class `_Environment`) per call of a `.lattice`
    or `.search` method and per read of `_BIT_LATTICE` in a module's
    code."""
    tree = ast.parse(text)
    inside = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "_Environment"
        for node in ast.walk(cls)
    }
    return sorted(
        (node.lineno, id(node) in inside)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("lattice", "search")
        or isinstance(node, ast.Name) and node.id == "_BIT_LATTICE"
        and isinstance(node.ctx, ast.Load)
    )


def test_only_the_compiled_environment_picks_the_route():
    # `_Environment` alone asks for a bit lattice or the search and reads the
    # size rule between them, so a new route for set- or super-blocking
    # changes that class and no decider
    for path in sorted(SRC.glob("*.py")):
        uses = route_uses(path.read_text(encoding="utf-8"))
        assert all(inside for _, inside in uses), (path.name, uses)
        assert bool(uses) == (path.name == "blocking.py"), path.name
    # the check itself: a call or a read is found inside and outside the
    # class, and a definition, a bare attribute, a comment or a string is not
    text = (
        "_BIT_LATTICE = 8\n"
        "class _Environment:\n    def f(self, k):\n        return self.lattice(k) or _BIT_LATTICE\n"
        "def g(env):\n    for x in env.search(0, None):  # env.lattice(1)\n        pass\n"
        "    return _BIT_LATTICE, env.lattice, 'env.lattice(2)'\n"
    )
    assert route_uses(text) == [(4, True), (4, True), (6, False), (8, False)]


# Kept with no library caller on purpose: references the tests check the
# deciders and the paper's results against, and the tests' seeded generators.
KEPT_REFERENCES = {
    "blocking.set_blocks", "blocking.candidate_sets",
    "varelim.literal_blocked_via_elimination", "oracle.nonlocality_witness",
    "gen.random_instance", "gen.random_qbf",
}


def uncalled_definitions():
    """Module-level functions and classes of `src/blockcheck`, as
    "module.name", that no code there loads and the README does not name in
    backticks."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    named = loaded | {word for span in spans for word in re.findall(r"\w+", span)}
    return {
        "%s.%s" % (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named
    }


def test_library_functions_have_a_library_caller():
    # a kept reference that gains a caller leaves the list too
    assert uncalled_definitions() == KEPT_REFERENCES
