"""The package's own import graph: one-way, and all of it at module level.

The centralized learner is the one-sensor front end of the distributed one,
so qlearning imports distributed and never the other way round. An import
inside a function body would hide a cycle from this graph, so none is
allowed.
"""

import ast
import importlib.util
from pathlib import Path

# Found without importing it, so that a cycle fails here, not at import.
PACKAGE = Path(importlib.util.find_spec("lqlearn").submodule_search_locations[0])
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def intra_package_imports(tree: ast.AST):
    """(imported module, node) for each import of a module of the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                yield node.module.split(".")[0], node
            elif node.level == 1 or node.module == "lqlearn":
                for alias in node.names:
                    yield alias.name if alias.name in MODULES else "__init__", node
            elif node.module and node.module.startswith("lqlearn."):
                yield node.module.split(".")[1], node
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("lqlearn."):
                    yield alias.name.split(".")[1], node


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(), f"{module}.py")


def function_bodies(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node


def module_level_graph() -> dict[str, set[str]]:
    """module -> the package modules it imports outside function bodies."""
    graph = {}
    for module in MODULES:
        tree = parse(module)
        nested = {id(node) for body in function_bodies(tree)
                  for _, node in intra_package_imports(body)}
        graph[module] = {target for target, node in intra_package_imports(tree)
                         if id(node) not in nested}
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of graph as a closed path of modules, or None."""
    state = dict.fromkeys(graph, "new")
    path: list[str] = []

    def visit(module):
        state[module] = "open"
        path.append(module)
        for target in sorted(graph.get(module, ())):
            if state.get(target) == "open":
                return path[path.index(target):] + [target]
            if state.get(target) == "new":
                found = visit(target)
                if found:
                    return found
        state[module] = "done"
        path.pop()
        return None

    for module in graph:
        if state[module] == "new":
            found = visit(module)
            if found:
                return found
    return None


def test_no_intra_package_import_inside_a_function():
    nested = [
        f"{module}.py:{node.lineno} imports {target}"
        for module in MODULES
        for body in function_bodies(parse(module))
        for target, node in intra_package_imports(body)
    ]
    assert not nested, nested


def test_module_level_import_graph_is_acyclic():
    graph = module_level_graph()
    assert "lqcore" in graph["distributed"]  # the graph is read
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))


def test_find_cycle_reports_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None


def test_distributed_imports_nothing_from_qlearning():
    imports = [(target, node.lineno)
               for target, node in intra_package_imports(parse("distributed"))]
    assert imports, "no package import read from distributed.py"
    assert not [line for target, line in imports if target == "qlearning"]


def test_all_lists_every_name_init_imports():
    tree = parse("__init__")
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    (listed,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["__all__"]]
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(imported)
