"""Static checks of the package source."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import spincavity
from spincavity import cli

SOURCE = Path(__file__).resolve().parents[1] / "src" / "spincavity"
README = SOURCE.parents[1] / "README.md"


def private_definitions(tree: ast.Module):
    """Module-level ``_private`` function, class and constant names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets
                     if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def named_uses(tree: ast.Module):
    """Every name the code reads, imports or looks up as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_helper_has_a_user():
    # a helper whose last caller was deleted is named only where it is
    # defined; docstrings and comments do not count as uses
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SOURCE.glob("*.py"))}
    used = {name for tree in trees.values() for name in named_uses(tree)}
    dead = [f"{module}: {name}" for module, tree in trees.items()
            for name in private_definitions(tree) if name not in used]
    assert dead == []


def test_package_exports_the_public_names_of_its_modules():
    # the package re-exports each library module's __all__ and nothing
    # else, so a name deleted from a module cannot stay exported
    tree = ast.parse((SOURCE / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    modules = {node.module for node in imports if node.level == 1}
    library = {path.stem for path in SOURCE.glob("*.py")}
    assert modules == library - {"__init__", "__main__", "cli"}
    # it imports only the library modules (and __future__ features) and
    # assigns only its version and its export list, so no name can be
    # exported that a module does not list
    assert all(node.module == "__future__" for node in imports if node.level == 0)
    body = tree.body[1:] if ast.get_docstring(tree) else tree.body
    assert all(isinstance(node, (ast.ImportFrom, ast.Assign)) for node in body)
    assigned = [target.id for node in body if isinstance(node, ast.Assign)
                for target in node.targets]
    assert sorted(assigned) == ["__all__", "__version__"]
    names = {"__version__"}.union(*(
        importlib.import_module(f"spincavity.{module}").__all__
        for module in modules
    ))
    assert len(spincavity.__all__) == len(set(spincavity.__all__))
    assert set(spincavity.__all__) == names


def test_readme_option_table_lists_each_experiments_flags():
    # the "further options" table names each experiment's flags past
    # the four every experiment reads, in the order --help lists them
    lines = README.read_text().splitlines()
    start = next(k for k, line in enumerate(lines) if "further options" in line)
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        name, flags = (cell.strip().strip("`") for cell in line.split("|")[1:3])
        table[name] = flags.split()
    common = ("family", "width", "normalize_gamma", "gamma_perp")
    assert table == {
        name: ["--" + key.replace("_", "-")
               for key in experiment.options if key not in common]
        for name, experiment in cli._EXPERIMENTS.items()
    }
