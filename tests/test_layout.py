"""Source layout rules: helpers that other modules use are public, every
private name is read in its own module, only matcore reads the
materialization cap or ``numbers.Integral`` and only ``matcore.fork_map``
forks, only ``schurnorm._face_points`` scatters or solves a face or reaches
numpy's LU gufunc and ``slogdet``, and one ``schurnorm`` function holds its
tolerance, only matcore reads ``TRACE_TOL`` or gives ``is_psd`` a floor and
no module calls ``.is_integer()``, only matcore compares ``0 < x <= 1``
(the ball radius rule, ``check_radius``), every third-party module the package
imports is a declared dependency, and the constants and ``verify`` checks
the README quotes are the code's."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import sepball
from sepball import verify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sepball"
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def foreign_private_reads(source: str) -> list[str]:
    """Every read of another package module's ``_name`` in ``source``."""
    tree = ast.parse(source)
    module_names = set()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package_level = (node.level == 1 and node.module is None) or (
            node.level == 0 and node.module == "sepball"
        )
        for alias in node.names:
            if package_level and alias.name in MODULES:
                module_names.add(alias.asname or alias.name)
            elif (node.level == 1 or (node.module or "").startswith("sepball.")) and _private(
                alias.name
            ):
                found.append(f"from {node.module} import {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_names
            and _private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_scanner_finds_private_reads():
    source = (
        "from . import nmr\n"
        "from .matcore import _secret, public\n"
        "def f():\n"
        "    return nmr._helper(nmr.public, nmr.__name__)\n"
    )
    assert sorted(foreign_private_reads(source)) == [
        "from matcore import _secret",
        "nmr._helper",
    ]


def test_no_module_reads_another_modules_private_names():
    found = {
        path.name: reads
        for path in sorted(SRC.glob("*.py"))
        if (reads := foreign_private_reads(path.read_text()))
    }
    assert found == {}


def _bound_names(stmt: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def unused_private_names(source: str) -> list[str]:
    """Module-level ``_name`` definitions in ``source`` that no other statement reads."""
    body = ast.parse(source).body
    reads = [{node.id for node in ast.walk(stmt)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} for stmt in body]
    return [name for i, stmt in enumerate(body) for name in _bound_names(stmt)
            if _private(name) and not any(name in r for j, r in enumerate(reads) if j != i)]


def test_scanner_finds_unused_private_names():
    source = (
        "import re as _re\n"
        "_WS = r'[ ]*'\n"
        "_HEAD: object = _re.compile(_WS)\n"
        "_ORPHAN, _USED = 1, 2\n"
        "def _is_digit(c):\n"
        "    return _is_digit(c - 1) if c else _USED\n"
        "def _helper():\n"
        "    return 0\n"
        "def public():\n"
        "    return _helper() + _HEAD.pattern, __name__\n"
    )
    assert unused_private_names(source) == ["_ORPHAN", "_is_digit"]


def test_every_private_name_is_used_in_its_module():
    # other modules may not read a private name, so one its own module does
    # not read beyond its definition is dead code
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unused_private_names(path.read_text()))
    }
    assert found == {}


CAP = "MATERIALIZATION_CAP"


def cap_reads(source: str) -> list[str]:
    """Every read of ``MATERIALIZATION_CAP`` in ``source``.

    An import of it, an attribute or a bare name of it, or the string of its
    name (as ``getattr`` takes it) counts as a read.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [f"from {'.' * node.level}{node.module} import {CAP}"
                      for alias in node.names if alias.name == CAP]
        elif isinstance(node, ast.Attribute) and node.attr == CAP:
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Name) and node.id == CAP:
            found.append(CAP)
        elif isinstance(node, ast.Constant) and node.value == CAP:
            found.append(repr(CAP))
    return found


def test_scanner_finds_cap_reads():
    source = (
        '"""Refuses matrices above ``MATERIALIZATION_CAP``."""\n'
        "from .matcore import MATERIALIZATION_CAP as cap, check_materializable\n"
        "from . import matcore\n"
        "def f(d):\n"
        "    check_materializable(d, d)\n"
        "    return matcore.MATERIALIZATION_CAP, getattr(matcore, 'MATERIALIZATION_CAP')\n"
        "def g():\n"
        "    return MATERIALIZATION_CAP\n"
    )
    assert sorted(cap_reads(source)) == [
        "'MATERIALIZATION_CAP'",
        "MATERIALIZATION_CAP",
        "from .matcore import MATERIALIZATION_CAP",
        "matcore.MATERIALIZATION_CAP",
    ]


def test_only_matcore_reads_the_materialization_cap():
    # the memory rule is matcore.check_materializable's alone: other modules
    # ask it with the shape they are about to build
    found = {
        path.name: reads
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "matcore" and (reads := cap_reads(path.read_text()))
    }
    assert found == {}


#: The ``os`` calls that fork, wait for, signal or leave a process.
PROCESS_CALLS = {"fork", "waitpid", "kill", "_exit"}


def process_calls(source: str, outside: str | None = None) -> list[str]:
    """Every use of ``os.fork``, ``os.waitpid``, ``os.kill`` or ``os._exit`` in ``source``.

    An attribute of ``os``, or of any name ``os`` is imported as, an import
    of one of them from ``os``, or a ``getattr`` of one counts.  The body of
    the top-level function named ``outside`` is not searched.
    """
    body = [stmt for stmt in ast.parse(source).body
            if not (isinstance(stmt, ast.FunctionDef) and stmt.name == outside)]
    nodes = [node for stmt in body for node in ast.walk(stmt)]
    aliases = {"os"} | {alias.asname for node in nodes if isinstance(node, ast.Import)
                        for alias in node.names if alias.name == "os" and alias.asname}
    found = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"from os import {alias.name}"
                      for alias in node.names if alias.name in PROCESS_CALLS]
        elif (isinstance(node, ast.Attribute) and node.attr in PROCESS_CALLS
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append(ast.unparse(node))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[0], ast.Name) and node.args[0].id in aliases
              and isinstance(node.args[1], ast.Constant) and node.args[1].value in PROCESS_CALLS):
            found.append(ast.unparse(node))
    return found


def test_scanner_finds_process_calls():
    source = (
        '"""Forks children with ``os.fork``."""\n'
        "import os as system\n"
        "from os import kill, getpid\n"
        "def f():\n"
        "    if hasattr(system, 'fork'):\n"
        "        return system.fork(), getattr(system, '_exit'), getpid(), os.waitpid\n"
        "def fork_map():\n"
        "    system.kill(0, 9)\n"
    )
    assert sorted(process_calls(source, outside="fork_map")) == [
        "from os import kill",
        "getattr(system, '_exit')",
        "os.waitpid",
        "system.fork",
    ]
    assert "system.kill" in process_calls(source)


def test_only_matcore_forks():
    # processes have one home, matcore.fork_map: no other code forks, reaps,
    # kills or leaves a process
    found = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if (calls := process_calls(path.read_text(),
                                   outside="fork_map" if path.stem == "matcore" else None))
    }
    assert found == {}


def integral_reads(source: str) -> list[str]:
    """Every use of ``numbers.Integral`` in ``source``.

    An attribute of ``numbers``, or of any name ``numbers`` is imported as,
    an import of it from ``numbers``, or a ``getattr`` of it counts.
    """
    nodes = list(ast.walk(ast.parse(source)))
    aliases = {"numbers"} | {alias.asname for node in nodes if isinstance(node, ast.Import)
                             for alias in node.names if alias.name == "numbers" and alias.asname}
    found = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "numbers":
            found += [f"from numbers import {alias.name}"
                      for alias in node.names if alias.name == "Integral"]
        elif (isinstance(node, ast.Attribute) and node.attr == "Integral"
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append(ast.unparse(node))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[0], ast.Name) and node.args[0].id in aliases
              and isinstance(node.args[1], ast.Constant) and node.args[1].value == "Integral"):
            found.append(ast.unparse(node))
    return found


def test_scanner_finds_integral_reads():
    source = (
        '"""Counts are ``numbers.Integral``."""\n'
        "import numbers as num\n"
        "from numbers import Integral, Real\n"
        "def f(n):\n"
        "    return isinstance(n, (num.Integral, num.Real)), getattr(num, 'Integral'), Real\n"
        "def g(n):\n"
        "    return numbers.Integral\n"
    )
    assert sorted(integral_reads(source)) == [
        "from numbers import Integral",
        "getattr(num, 'Integral')",
        "num.Integral",
        "numbers.Integral",
    ]


def test_only_matcore_reads_integral():
    # counts have one rule, matcore.check_count: no other module decides what
    # an integer is
    found = {
        path.name: reads
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "matcore" and (reads := integral_reads(path.read_text()))
    }
    assert found == {}


#: The numpy functions that scatter a face's point or solve its system.
FACE_CALLS = {"put_along_axis", "solve", "pinv"}


def homes(source: str, wanted) -> dict[str, list[str]]:
    """The nodes of ``source`` that ``wanted`` accepts, unparsed, by the
    top-level function or class they are in (``<module>`` outside any)."""
    found = {}
    for stmt in ast.parse(source).body:
        home = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if wanted(node):
                found.setdefault(home, []).append(ast.unparse(node))
    return found


def is_face_call(node: ast.AST) -> bool:
    """A call of ``put_along_axis``, ``solve`` or ``pinv``, as an attribute
    of any name (``np.linalg.solve``, ``la.pinv``) or imported bare."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in FACE_CALLS


def is_schur_tol(node: ast.AST) -> bool:
    """The expression ``max(1.0, float(np.max(c)))`` of the Schur tolerance."""
    return isinstance(node, ast.Call) and ast.unparse(node) == "max(1.0, float(np.max(c)))"


def test_scanner_finds_face_calls_and_tolerances():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import pinv\n"
        "SCALE = max(1.0, float(np.max(c)))\n"
        "def kernel(c, idx, y):\n"
        "    np.put_along_axis(y, idx, 1.0, axis=1)\n"
        "    return np.linalg.solve(c, y), pinv(c)\n"
        "def caller(c):\n"
        "    return 1e-12 * max(1.0, float(np.max(c))), np.linalg.norm(c), max(1.0, np.max(c))\n"
        "class Face:\n"
        "    def points(self, la, c):\n"
        "        return la.solve(c, c)\n"
    )
    assert homes(source, is_face_call) == {
        "kernel": ["np.put_along_axis(y, idx, 1.0, axis=1)", "np.linalg.solve(c, y)", "pinv(c)"],
        "Face": ["la.solve(c, c)"],
    }
    assert sorted(homes(source, is_schur_tol)) == ["<module>", "caller"]


def test_schurnorm_faces_and_tolerance_have_one_home():
    # the exact solver and the oracle share one face kernel, and the tie and
    # KKT slack 1e-12 * max(1, max C) is written once
    source = (SRC / "schurnorm.py").read_text()
    found = {path.name: sorted(found) for path in sorted(SRC.glob("*.py"))
             if (found := homes(path.read_text(), is_face_call))}
    assert found == {"schurnorm.py": ["_face_points"]}
    assert len(homes(source, is_schur_tol)) == 1


def is_lu_name(node: ast.AST) -> bool:
    """A use of numpy's ``_umath_linalg`` or ``slogdet``, as a name, an
    attribute or an import."""
    names = {"_umath_linalg", "slogdet"}
    if isinstance(node, ast.alias):
        return node.name.split(".")[-1] in names
    return (node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)) in names


def test_schurnorm_lu_calls_have_one_home():
    # the one-LU rule, a solve of every face and slogdet only on the rows it
    # left NaN, is written once
    found = {path.name: sorted(found) for path in sorted(SRC.glob("*.py"))
             if (found := homes(path.read_text(), is_lu_name))}
    assert found == {"schurnorm.py": ["_face_points"]}


def test_scanner_finds_lu_names():
    source = (
        "import numpy.linalg._umath_linalg\n"
        "from numpy.linalg import slogdet as sd\n"
        "def kernel(np, cs):\n"
        "    return np.linalg._umath_linalg.solve(cs, cs), np.linalg.slogdet(cs)\n"
        "def other(la, cs):\n"
        "    return la.solve(cs, cs), la.det(cs)\n"
    )
    assert homes(source, is_lu_name) == {
        "<module>": ["numpy.linalg._umath_linalg", "slogdet as sd"],
        "kernel": ["np.linalg.slogdet", "np.linalg._umath_linalg"],
    }


def input_decisions(source: str) -> list[str]:
    """Every read of ``TRACE_TOL``, every ``is_psd`` call given a floor and
    every ``is_integer`` call in ``source``.

    An import of ``TRACE_TOL``, an attribute or a bare name of it counts; an
    ``is_psd`` call counts with a ``floor=`` keyword or a third positional
    argument; ``is_integer`` counts as an attribute of anything or bare.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [f"from {'.' * node.level}{node.module} import TRACE_TOL"
                      for alias in node.names if alias.name == "TRACE_TOL"]
        elif isinstance(node, ast.Attribute) and node.attr == "TRACE_TOL":
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Name) and node.id == "TRACE_TOL" and isinstance(node.ctx, ast.Load):
            found.append("TRACE_TOL")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            floored = len(node.args) > 2 or any(k.arg == "floor" for k in node.keywords)
            if name == "is_integer" or (name == "is_psd" and floored):
                found.append(ast.unparse(node))
    return found


def test_scanner_finds_input_decisions():
    source = (
        "from .matcore import TRACE_TOL as tol, is_psd\n"
        "from . import matcore\n"
        "TRACE_TOL = 1e-10\n"
        "def f(state, n):\n"
        "    if abs(state.trace - 1) > matcore.TRACE_TOL or TRACE_TOL < 0:\n"
        "        return is_psd(state.h), matcore.is_psd(state.h, floor=state.floor)\n"
        "    return is_psd(state.h, 1e-10, state.floor), n.is_integer(), is_integer(n)\n"
    )
    assert sorted(input_decisions(source)) == [
        "TRACE_TOL",
        "from .matcore import TRACE_TOL",
        "is_integer(n)",
        "is_psd(state.h, 1e-10, state.floor)",
        "matcore.TRACE_TOL",
        "matcore.is_psd(state.h, floor=state.floor)",
        "n.is_integer()",
    ]


def test_input_decisions_have_one_home():
    # a certify input's normalization and PSD are decided once, on
    # matcore.State, and integers by matcore.check_count alone
    found = {path.name: calls for path in sorted(SRC.glob("*.py"))
             if (calls := input_decisions(path.read_text()))}
    assert set(found) <= {"matcore.py"}
    assert not [call for call in found.get("matcore.py", []) if "is_integer" in call]


def radius_rules(source: str) -> list[str]:
    """Every comparison in ``source`` that reads ``0 < x <= 1``: left
    operand the constant 0, operators ``<`` then ``<=``, last comparator the
    constant 1."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and [type(op) for op in node.ops] == [ast.Lt, ast.LtE]
            and isinstance(node.left, ast.Constant) and node.left.value == 0
            and isinstance(node.comparators[-1], ast.Constant)
            and node.comparators[-1].value == 1]


def test_scanner_finds_radius_rules():
    source = (
        '"""Needs ``0 < a <= 1``."""\n'
        "def f(a, eps):\n"
        "    if not 0 < a <= 1:\n"
        "        raise ValueError('need 0 < a <= 1')\n"
        "    return 0.0 < eps <= 1.0, 0 <= eps <= 1, 0 < a < 1, 0 < a <= 2, 1 < a <= 1\n"
    )
    assert sorted(radius_rules(source)) == ["0 < a <= 1", "0.0 < eps <= 1.0"]


def test_the_radius_rule_has_one_home():
    # the ball radius a is checked by matcore.check_radius alone
    found = {path.name: rules for path in sorted(SRC.glob("*.py"))
             if path.stem != "matcore" and (rules := radius_rules(path.read_text()))}
    assert found == {}


def test_all_matches_the_public_imports():
    # the validate-once contract covers the names in __all__, which is kept
    # by hand next to the imports it must list
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not _private(alias.name)
    }
    assert len(sepball.__all__) == len(set(sepball.__all__))
    assert set(sepball.__all__) == imported


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports in ``source`` outside the stdlib."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"sepball"}


def test_scanner_finds_third_party_imports():
    source = (
        "import json, numpy.linalg\n"
        "from __future__ import annotations\n"
        "from . import matcore\n"
        "from orjson import loads\n"
        "def f():\n"
        "    import scipy\n"
    )
    assert third_party_imports(source) == {"numpy", "orjson", "scipy"}


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9._-]+", req)[0].lower() for req in project["dependencies"]}
    imported = set().union(*(third_party_imports(path.read_text()) for path in SRC.glob("*.py")))
    assert imported <= declared
    assert {"numpy", "orjson"} <= imported


#: A constant quoted in the README with its value: `NAME` (value).
README_CONSTANT = re.compile(r"`([A-Z][A-Z0-9_]+)` \((\d+)( KiB)?\)")
UNITS = {"": 1, " KiB": 1 << 10}


def test_readme_constants_match_the_code():
    modules = [importlib.import_module(f"sepball.{name}") for name in sorted(MODULES)]
    quoted = [(name, int(number) * UNITS[unit])
              for name, number, unit in README_CONSTANT.findall((ROOT / "README.md").read_text())]
    assert {"FACE_CHUNK", "RESTART_BLOCK", "SAMPLE_BLOCK", "WRITE_CHUNK", "READ_BLOCK",
            "CHOLESKY_ROUNDING"} <= {name for name, _ in quoted}
    for name, value in quoted:
        assert {vars(mod)[name] for mod in modules if name in vars(mod)} == {value}, name


def test_readme_claims_name_verify_checks():
    # each claim of the abstract has a row naming the verify check that computes it
    readme = (ROOT / "README.md").read_text()
    table = readme[readme.index("## The abstract, claim by claim"):]
    table = table[:table.index("\n## ")]
    named = re.findall(r"\| `([a-z]+\.[a-z_]+)` \|", table)
    assert len(named) == len(set(named))
    assert {"ballbounds.qubit_exponent_limit", "ballbounds.kappa_limit",
            "ballbounds.qubit_normalized_identity", "ballbounds.previous_normalized_bound",
            "ballbounds.exponent_by_local_dimension", "nmr.thresholds"} <= set(named)
    assert set(named) <= {name for name, _ in verify.CHECKS}
