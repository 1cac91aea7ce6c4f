import ast
import pathlib
import re
import sys

import fhtsurv
from fhtsurv.fht import DistKind, param_names

SRC = pathlib.Path(fhtsurv.__file__).parent


def _member_references(tree):
    """Line numbers of ``DistKind.<member>`` references, however DistKind is reached."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in DistKind.__members__:
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name == "DistKind":
                yield node.lineno


# each kind's value and second-parameter name, also as a command-line option
_KIND_WORDS = {word for kind in DistKind for word in (kind.value, param_names(kind)[1])}
_KIND_WORDS |= {f"--{word}" for word in _KIND_WORDS}


def _kind_constants(tree):
    """Line numbers of constants in ``_KIND_WORDS``, f-string parts included,
    but for the default of ``ModelConfig.distribution``."""
    default = {id(stmt.value) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == "ModelConfig"
               for stmt in node.body
               if isinstance(stmt, ast.AnnAssign) and stmt.target.id == "distribution"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and node.value in _KIND_WORDS
                and id(node) not in default):
            yield node.lineno


def _kind_spellings(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted([*_member_references(tree), *_kind_constants(tree)])


def test_only_fht_names_a_distribution_kind():
    # every per-kind fact lives on the parameter structs in fht.py
    found = {path.name: _kind_spellings(path) for path in sorted(SRC.glob("*.py"))
             if path.name != "fht.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _kind_spellings(SRC / "fht.py")


# a weight array's name: h<i> or out, then the array, as in "h0.gamma" or f"h{i}.w"
_WEIGHT_NAME = re.compile(r"\b(?:h\d+|out)\.(?:w|b|gamma|beta|run_mean|run_var)\b")


def _weight_names(tree):
    """Line numbers of string literals that spell a weight-array name; an
    f-string's replacement fields read as ``0``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            text = "".join(part.value if isinstance(part, ast.Constant) else "0"
                           for part in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            continue
        if _WEIGHT_NAME.search(text):
            yield node.lineno


def test_only_network_names_a_weight_array():
    # the architecture is read from the arrays, so only network.py knows their names
    found = {
        path.name: list(_weight_names(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "network.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert list(_weight_names(ast.parse((SRC / "network.py").read_text(encoding="utf-8"))))


def _string_literals(tree):
    """The string constants of a module, f-string parts included."""
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_only_one_module_spells_the_model_file_envelope():
    # network and cox model files share one writer and one reader
    found = [path.name for path in sorted(SRC.glob("*.py"))
             if "fhtsurv-model" in _string_literals(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == ["training.py"]


def _runs_or_records(node):
    """Whether ``node`` reads ``_write_manifest`` or indexes ``_COMMANDS``."""
    if isinstance(node, ast.Name):
        return node.id == "_write_manifest" and isinstance(node.ctx, ast.Load)
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "_COMMANDS")


def test_only_main_runs_and_records_a_command():
    # a rerun is checked, then takes the direct command's path through main
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = {id(node) for node in ast.walk(main)}
    found = [node for node in ast.walk(tree) if _runs_or_records(node)]
    assert [node.lineno for node in found if id(node) not in in_main] == []
    assert sorted(type(node).__name__ for node in found) == ["Name", "Subscript"]


def test_every_exported_name_resolves():
    missing = [name for name in fhtsurv.__all__ if not hasattr(fhtsurv, name)]
    assert missing == []


def test_runtime_imports_are_numpy_or_stdlib():
    # numpy stays the only runtime dependency
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside = [name for name in names if name.split(".")[0] not in allowed]
            if outside:
                found.setdefault(path.name, []).extend(outside)
    assert found == {}
