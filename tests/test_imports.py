"""Every name a library module imports is used in that module, and every
name a module defines (a method or property too) is used somewhere in the
package or exported.

Deleting a code path tends to leave its imports and helpers behind; this
walks each module's syntax tree rather than running a linter, so it needs
nothing beyond the standard library.  `__init__.py` is skipped by the import
scan: its imports are the exported names.  The code-line count of
`code_lines.py`, which changes quote, is checked here on a snippet.
"""
import ast
import re
from pathlib import Path

import pytest
from code_lines import code_lines

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frameavg"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
INIT = PACKAGE / "__init__.py"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - used)


def test_the_scan_sees_an_unused_import():
    assert _unused_imports("import math\nfrom os import path, sep\nprint(path)\n") == [
        "math",
        "sep",
    ]
    assert _unused_imports("from __future__ import annotations\nimport numpy as np\nnp.eye\n") == []


def test_the_line_count_skips_blank_comment_and_docstring_lines():
    snippet = (
        '"""Module docstring,\nover two lines."""\n'
        "import math  # a trailing comment\n"
        "\n"
        "# a comment line\n"
        "\n"
        "def f(x):\n"
        '    """Docstring."""\n'
        '    s = """a string\n'
        'that is assigned"""\n'
        "    return math.floor(x), s\n"
    )
    # the import, the def, the two lines of the assignment and the return
    assert code_lines(snippet) == 5


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_imports(module):
    assert _unused_imports(module.read_text(encoding="utf-8")) == []


def _bare(name: str) -> str:
    """The name itself, without the class of a method."""
    return name.rsplit(".", 1)[-1]


def _defined_names(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and constants, and the methods and
    properties of each class as Class.name, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{m.name}" for m in node.body if isinstance(m, ast.FunctionDef)]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not (_bare(n).startswith("__") and _bare(n).endswith("__"))]


def _dead_names(sources: list[str], exported: set[str]) -> list[str]:
    """Names some module defines that no module reads and `exported` lacks.
    A method or property counts as read wherever an attribute of its name
    is, and as exported where it is public and its class is exported."""
    trees = [ast.parse(s) for s in sources]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = {name for tree in trees for name in _defined_names(tree)}
    public = {
        n
        for n in defined
        if "." in n and n.split(".")[0] in exported and not _bare(n).startswith("_")
    }
    return sorted(n for n in defined - exported - public if _bare(n) not in read)


def _exported() -> set[str]:
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError("__init__.py defines no __all__")


def test_the_scan_sees_a_dead_name():
    sources = [
        "LIMIT = 1\nclass Kept:\n    pass\ndef helper():\n    return LIMIT\n",
        "def dead():\n    return helper()\n",
    ]
    assert _dead_names(sources, {"Kept"}) == ["dead"]
    assert _dead_names(sources, {"Kept", "dead"}) == []


def test_the_scan_sees_a_dead_method():
    # a method or property no module reads is dead, unless it is public
    # and its class exported: a leftover gate of an internal class is flagged
    sources = [
        "class Kept:\n"
        "    def __init__(self):\n        self.x = 1\n"
        "    def shown(self):\n        return self._used()\n"
        "    def _used(self):\n        return 1\n"
        "    def _hidden(self):\n        return 2\n",
        "class Parity:\n"
        "    def gate(self):\n        return 1\n"
        "    @property\n    def rows(self):\n        return 2\n"
        "    def gate_real(self):\n        return 3\n"
        "Parity().gate()\n",
    ]
    assert _dead_names(sources, {"Kept"}) == ["Kept._hidden", "Parity.gate_real", "Parity.rows"]


def test_every_defined_name_is_used_or_exported():
    sources = [p.read_text(encoding="utf-8") for p in [*MODULES, INIT]]
    assert _dead_names(sources, _exported()) == []


# the eigenbasis's frame order (W and the sort P of V = W P), which only
# operators.py maps to and from the order of the spectrum
FRAME_ATTRIBUTES = {"frame", "basis_permutation"}


def _attribute_reads(source: str, names: set[str]) -> list[str]:
    """The attributes among `names` that the source reads."""
    tree = ast.parse(source)
    return sorted(
        {
            n.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and n.attr in names
        }
    )


def test_the_scan_sees_a_frame_read():
    source = "perm = d.basis_permutation\nd.frame.sectors\nd.sectors\nself.frame = 1\n"
    assert _attribute_reads(source, FRAME_ATTRIBUTES) == ["basis_permutation", "frame"]
    assert _attribute_reads("self.frame = 1\n", FRAME_ATTRIBUTES) == []


def test_only_operators_reads_frame_coordinates():
    reads = {
        p.name: _attribute_reads(p.read_text(encoding="utf-8"), FRAME_ATTRIBUTES)
        for p in [*MODULES, INIT]
        if p.name != "operators.py"
    }
    assert {name: attrs for name, attrs in reads.items() if attrs} == {}


# the function that builds the eigenvectors of a symmetry label
# (`operators.symmetry_split` is its one caller)
LABEL_VECTORS = "parity_vectors"


def _uses(source: str, name: str) -> int:
    """How often the source reads `name`, bare or as an attribute: each call,
    and each reference that could stand in for one."""
    tree = ast.parse(source)
    return sum(
        (isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load))
        or (isinstance(n, ast.Attribute) and n.attr == name and isinstance(n.ctx, ast.Load))
        for n in ast.walk(tree)
    )


def test_the_scan_sees_every_use_of_a_name():
    source = (
        "def parity_vectors(p, c):\n    return p\n"
        "parity_vectors(p, c)\nops.parity_vectors(p, c)\nf(parity_vectors)\n"
        "self.parity_vectors = 1\n"
    )
    assert _uses(source, LABEL_VECTORS) == 3
    assert _uses("def parity_vectors(p, c):\n    return p\n", LABEL_VECTORS) == 0


def test_label_vectors_are_built_at_one_call_site():
    # one labelled basis: a second path to involution eigenvectors, such as
    # a sector solve or a parity split of its own, would add a use
    uses = {p.name: _uses(p.read_text(encoding="utf-8"), LABEL_VECTORS) for p in [*MODULES, INIT]}
    assert sum(uses.values()) == 1, uses


# the template of the commutation gates' message
COMMUTATION_MESSAGE = "does not commute with"


def _holders(source: str, phrase: str | re.Pattern) -> list[str]:
    """The function (or <module>) holding each string literal of the source
    that contains `phrase`, or that a compiled pattern matches whole,
    f-strings included, innermost function first."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                text = child.value
                if phrase.fullmatch(text) if isinstance(phrase, re.Pattern) else phrase in text:
                    found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_the_scan_sees_every_holder_of_a_phrase():
    source = (
        "MESSAGE = 'x does not commute with y'\n"
        "def gate(s):\n"
        "    def build():\n        return f'{s} does not commute with {s}: ...'\n"
        "    return build\n"
        "def other():\n    raise ValueError('a does not commute with b')\n"
    )
    assert _holders(source, COMMUTATION_MESSAGE) == ["<module>", "build", "other"]
    assert _holders("def f():\n    return 'commutes'\n", COMMUTATION_MESSAGE) == []


def test_one_function_owns_the_commutation_message():
    # every commutation gate goes through the one symmetry gate, which
    # builds the message; a gate that spells it out again adds a holder
    holders = [
        f"{p.name}:{owner}"
        for p in [*MODULES, INIT]
        for owner in _holders(p.read_text(encoding="utf-8"), COMMUTATION_MESSAGE)
    ]
    assert len(holders) == 1, holders


# the name of each symmetry a chain is solved with, as messages quote it
SYMMETRY_NAMES = ("the spin flip prod", "the antiunitary prod")


def test_the_scan_sees_every_builder_of_a_symmetry_name():
    source = (
        "class Symmetry:\n"
        "    @property\n    def flip_name(self):\n        return f'the spin flip prod {self.flip}'\n"
        "def gate(flip):\n    raise ValueError(f'does not commute with the spin flip prod {flip}')\n"
    )
    assert _holders(source, SYMMETRY_NAMES[0]) == ["flip_name", "gate"]
    assert _holders(source, SYMMETRY_NAMES[1]) == []


@pytest.mark.parametrize("phrase", SYMMETRY_NAMES)
def test_one_function_builds_each_symmetry_name(phrase):
    # every message that quotes the flip or the antiunitary reads the name
    # off the one symmetry value; a message that spells it out adds a holder
    holders = [
        f"{p.name}:{owner}"
        for p in [*MODULES, INIT]
        for owner in _holders(p.read_text(encoding="utf-8"), phrase)
    ]
    assert len(holders) == 1, holders


# a run of candidate Pauli letters, which a symmetry label is picked from
LABEL_LETTERS = re.compile(r"I?XYZ")


def test_the_scan_sees_every_run_of_label_letters():
    source = (
        "def pick(h, flips='XYZ'):\n    for s in 'IXYZ':\n        pass\n"
        "def other():\n    return 'X' + 'XYZ!' + 'IXYZ'\n"
    )
    assert _holders(source, LABEL_LETTERS) == ["pick", "pick", "other"]


def test_the_label_letters_are_picked_in_one_function():
    # one picker reads H's entries for both labels; a second pass over the
    # candidate letters, for the flip or for the antiunitary, adds a holder
    holders = {
        f"{p.name}:{owner}"
        for p in [*MODULES, INIT]
        for owner in _holders(p.read_text(encoding="utf-8"), LABEL_LETTERS)
    }
    assert holders == {"lattice.py:chain_symmetry"}


def _taking(source: str, names: set[str]) -> list[str]:
    """The functions (lambdas too) of the source whose parameters include
    every one of `names`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs]}
            if names <= params:
                found.append(getattr(node, "name", "<lambda>"))
    return found


def test_the_scan_sees_a_function_taking_both_labels():
    source = (
        "def solve(h, flip=None, real=None):\n    return h\n"
        "def pick(h, *, flip, real):\n    return lambda flip, real: flip\n"
        "def one(h, flip):\n    return flip\n"
    )
    assert sorted(_taking(source, {"flip", "real"})) == ["<lambda>", "pick", "solve"]


def test_no_function_takes_the_two_labels_apart():
    # the flip and the real structure travel as one symmetry value
    taking = {
        p.name: _taking(p.read_text(encoding="utf-8"), {"flip", "real"})
        for p in [*MODULES, INIT]
    }
    assert {name: found for name, found in taking.items() if found} == {}


def _readers(source: str, name: str) -> list[str]:
    """The function (or <module>) holding each read of `name`, bare or as an
    attribute, innermost function first."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            read = isinstance(getattr(child, "ctx", None), ast.Load)
            if read and name in (getattr(child, "id", None), getattr(child, "attr", None)):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_the_scan_sees_every_reader_of_a_name():
    source = (
        "import numpy as np\n"
        "def solve(m):\n    return np.linalg.eigh(m)\n"
        "def gate(m):\n    def fail():\n        raise Error(1)\n    return fail\n"
        "eigh = 1\n"
    )
    assert _readers(source, "eigh") == ["solve"]
    assert _readers(source, "Error") == ["fail"]


def test_one_routine_solves_and_certifies_h():
    # the dense solve and each sector block's solve go through one certified
    # eigensolve; a second call of eigh or a second EigensolverError in
    # operators.py would add a reader
    source = (PACKAGE / "operators.py").read_text(encoding="utf-8")
    assert set(_readers(source, "eigh")) == {"_certified_eigh"}
    assert set(_readers(source, "EigensolverError")) == {"_certified_eigh"}


# modules that would run work a second way, on threads or processes, and
# the os names that would read a setting from the environment
CONCURRENCY = {"concurrent", "threading", "multiprocessing"}
ENVIRONMENT = {"environ", "getenv"}


def _second_paths(source: str) -> list[str]:
    """Each import of a concurrency module and each read of the environment
    in the source, by the name it is reached as."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] in CONCURRENCY]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] in CONCURRENCY:
                found.append(node.module)
            elif node.module == "os":
                found += [f"os.{a.name}" for a in node.names if a.name in ENVIRONMENT]
        elif isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return sorted(found)


def test_the_scan_sees_threads_processes_and_the_environment():
    source = (
        "import os\nimport concurrent.futures\nfrom threading import Lock\n"
        "import multiprocessing as mp\nfrom os import getenv\n"
        "def guard():\n    return os.environ.get('LIMIT'), os.getenv('JOBS')\n"
    )
    assert _second_paths(source) == [
        "concurrent.futures",
        "multiprocessing",
        "os.environ",
        "os.getenv",
        "os.getenv",
        "threading",
    ]
    assert _second_paths("import os\nos.path.join('a')\nfrom concurrency import x\n") == []


def test_no_module_runs_on_threads_or_reads_the_environment():
    # sizes run one after another, and every setting comes from the config
    # or the command line
    found = {p.name: _second_paths(p.read_text(encoding="utf-8")) for p in [*MODULES, INIT]}
    assert {name: paths for name, paths in found.items() if paths} == {}


# the chain's translation, stated once: by the momentum sectors H carries
TRANSLATION = "translation_operator"


def test_the_scan_sees_every_reader_of_the_translation():
    source = (
        "from .lattice import translation_operator\n"
        "def build_hamiltonian(lat):\n    return translation_operator(lat)\n"
        "class Context:\n"
        "    def __init__(self, lat):\n        self.t = lattice.translation_operator(lat)\n"
        "make = partial(translation_operator)\n"
        "__all__ = ['translation_operator']\n"
    )
    assert _readers(source, TRANSLATION) == ["build_hamiltonian", "__init__", "<module>"]


def test_only_build_hamiltonian_builds_the_translation():
    # every channel, the kicked-site reflection and verify's state route read
    # T and N from H's sectors; a second caller would state the frame twice
    readers = [
        f"{p.name}:{owner}"
        for p in [*MODULES, INIT]
        for owner in _readers(p.read_text(encoding="utf-8"), TRANSLATION)
    ]
    assert readers == ["lattice.py:build_hamiltonian"]


# the overflow rule, stated once: the spread guard of the exponentials
OVERFLOW = "OverflowGuardError"


def _raisers(source: str, name: str) -> list[str]:
    """The function (or <module>) holding each raise of `name`, called or
    bare, innermost function first."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if name in (getattr(exc, "id", None), getattr(exc, "attr", None)):
                    found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_the_scan_sees_every_raise_of_an_error():
    source = (
        "from .operators import OverflowGuardError\n"
        "def guard(x):\n    if x:\n        raise OverflowGuardError(f'{x}')\n"
        "def second(x):\n    raise operators.OverflowGuardError\n"
        "def caught():\n    try:\n        pass\n    except OverflowGuardError:\n        raise\n"
        "class OverflowGuardError(ValueError):\n    pass\n"
        "raise ValueError('OverflowGuardError')\n"
    )
    assert _raisers(source, OVERFLOW) == ["guard", "second"]


def test_one_function_raises_the_overflow_guard():
    # the one overflow rule is the spread guard; a second guard, on the
    # largest energy say, adds a raiser
    raisers = [
        f"{p.name}:{owner}"
        for p in [*MODULES, INIT]
        for owner in _raisers(p.read_text(encoding="utf-8"), OVERFLOW)
    ]
    assert raisers == ["entropy.py:_exp_guard"]


def test_the_scan_sees_every_builder_of_a_check():
    source = (
        "class IdentityReport:\n    checks: tuple[IdentityCheck, ...]\n"
        "def verify(r):\n    return tuple(IdentityCheck(k, v) for k, v in r.items())\n"
        "def extra():\n    return experiments.IdentityCheck('a', 1.0, 1.0)\n"
    )
    assert _readers(source, "IdentityCheck") == ["<module>", "verify", "extra"]


def test_identity_checks_are_built_at_one_call_site():
    # verify builds every check from its one table of residuals, so a check
    # spelled out on its own adds a reader; the module-level read is
    # IdentityReport's field annotation
    readers = [
        f"{p.name}:{owner}"
        for p in [*MODULES, INIT]
        for owner in _readers(p.read_text(encoding="utf-8"), "IdentityCheck")
    ]
    assert readers == ["experiments.py:<module>", "experiments.py:verify_identities"]


def test_the_scan_sees_every_caller_of_the_me_statistics():
    source = (
        "from .averaging import averaged_E_stats\n"
        "def route(blocks, rows):\n    return averaged_E_stats(blocks, rows)\n"
        "def verify(blocks, rows):\n    report, bs = averaging.averaged_E_stats(blocks, rows)\n"
    )
    assert _readers(source, "averaged_E_stats") == ["route", "verify"]


def test_one_function_runs_the_operator_route():
    # the sweep rows and verify's bs-equality share one operator route; a
    # second pairing of ME's blocks with the populations adds a reader
    source = (PACKAGE / "experiments.py").read_text(encoding="utf-8")
    assert _readers(source, "averaged_E_stats") == ["_operator_route"]


# the certification gates of operators.py, whose first argument names a
# family of its tolerance table
GATES = {"gate", "symmetry_gate"}


def _gate_calls(source: str) -> list[ast.Call]:
    """Each call of a gate, bare or as `operators.<gate>`, outside the
    gates' own bodies (symmetry_gate passes its family on to gate)."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef) and child.name in GATES:
                continue
            if isinstance(child, ast.Call):
                f = child.func
                bare = isinstance(f, ast.Name) and f.id in GATES
                qualified = (
                    isinstance(f, ast.Attribute)
                    and f.attr in GATES
                    and isinstance(f.value, ast.Name)
                    and f.value.id == "operators"
                )
                if bare or qualified:
                    found.append(child)
            visit(child)

    visit(ast.parse(source))
    return found


def _is_number(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float, complex)


def _gate_faults(source: str, families) -> list[str]:
    """Each gate call that names no key of `families` by a string literal,
    or that holds a numeric literal among its arguments: as a whole
    argument, or inside one any but 0 and 1, which shift or floor a
    residual or a scale (|x - 1|, max(1, scale)) and are never a tolerance."""
    faults = []
    for call in _gate_calls(source):
        family = call.args[0] if call.args else None
        named = isinstance(family, ast.Constant) and family.value in families
        arguments = [*call.args, *(k.value for k in call.keywords)]
        stated = any(_is_number(a) for a in arguments) or any(
            _is_number(n) and n.value not in (0, 1) for a in arguments for n in ast.walk(a)
        )
        if not named or stated:
            faults.append(ast.unparse(call))
    return faults


def _tolerance_table() -> dict[str, float]:
    tree = ast.parse((PACKAGE / "operators.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TOLERANCES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("operators.py defines no TOLERANCES")


def test_the_scan_sees_a_gate_that_states_its_tolerance():
    source = (
        "def symmetry_gate(family, r, scale):\n    gate(family, r, lambda t: 'x', scale)\n"
        "gate('trace', abs(tr - 1.0), lambda t: f'{t:g}')\n"
        "symmetry_gate('parity', r, max(1.0, s), 'm', 'T', 'off')\n"
        "parity.gate(offs, 1e-10)\n"
        "gate('trace', r, err, 1e-9 * scale)\n"
        "gate('trace', r, err, 1.0)\n"
        "operators.gate('trace', r, err, roundoff=2e-16)\n"
        "gate('tr', r, err)\n"
        "gate(r, 1e-10, err)\n"
        "symmetry_gate(name, r, s, 'm', 'T', 'off')\n"
    )
    assert _gate_faults(source, {"trace", "parity"}) == [
        "gate('trace', r, err, 1e-09 * scale)",
        "gate('trace', r, err, 1.0)",
        "operators.gate('trace', r, err, roundoff=2e-16)",
        "gate('tr', r, err)",
        "gate(r, 1e-10, err)",
        "symmetry_gate(name, r, s, 'm', 'T', 'off')",
    ]


def test_every_gate_names_its_family_and_states_no_tolerance():
    # each tolerance is stated once, in the table: a gate that spelled out
    # its own, or named a family the table lacks, is listed here
    table = _tolerance_table()
    sources = [p.read_text(encoding="utf-8") for p in [*MODULES, INIT]]
    assert [f for s in sources for f in _gate_faults(s, table)] == []
    # and every family but three of verify's lines has a gate
    named = {call.args[0].value for s in sources for call in _gate_calls(s)}
    assert set(table) - named == {"bs-chain", "bs-equality", "gracefulness"}
