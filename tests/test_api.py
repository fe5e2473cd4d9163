"""Every module-level definition has a caller in the program or the benchmark.

Callers are found by parsing every package module and the benchmark scripts
(not their tests): a name counts as used when it is read there as a Name or
an Attribute.  A public function or class used only by tests either earns a
place in KEPT, with its reason, or goes.  A private function, class or
constant has no such place: once its last caller in the program goes, it
goes too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cntbands"
MODULES = ("geom", "honeycomb", "tube", "lines", "bands", "oracle", "cli")

KEPT = {
    "geom.embed": "the triad reconstruction sum u_i e_i, the paper's plane model",
    "honeycomb.distance": "the graph metric of the paper, checked by the acceptance suite",
    "honeycomb.apply_symmetry": "applies the paper's isometry words, checked by the "
                                "acceptance suite",
    "bands.graphene_E": "the closed-form sheet dispersion, the acceptance tests' "
                        "independent referee",
}


def used_names():
    sources = list(PACKAGE.glob("*.py"))
    sources += [p for p in (ROOT / "benchmarks").glob("*.py") if p.name != "test_bench.py"]
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def definitions():
    """(module.name, name, is_def) of each module-level function or class (is_def) and constant."""
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name, True
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            yield f"{module}.{name.id}", name.id, False


def test_every_public_definition_has_a_caller():
    used = used_names()
    uncalled = {key for key, name, is_def in definitions()
                if is_def and not name.startswith("_") and name not in used}
    assert uncalled - set(KEPT) == set(), "public, called only by tests"
    assert set(KEPT) - uncalled == set(), "KEPT but now called, or no longer defined"


def test_every_private_definition_has_a_caller():
    used = used_names()
    uncalled = {key for key, name, _ in definitions() if name.startswith("_") and name not in used}
    assert uncalled == set(), "private, called only by tests or by nothing"
