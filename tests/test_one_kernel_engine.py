"""One engine computes every kernel block of an embedding inner product.

`kernels._block_row_sums` is the only code that computes, weights, masks
and sums a kernel block for `inner` and `embedding_gram`; a second copy of
that summation order could drift from the first while only tests keep the
two equal. This test parses every library module and fails if
`_kernel_matrix` is used anywhere but in a call from `_block_row_sums`,
`gram` or `eval_kernel` (the last two return single kernel values or whole
Grams, never an embedding inner product).
"""

import ast
from pathlib import Path

import distreg

SOURCES = sorted(Path(distreg.__file__).parent.glob("*.py"))
CALLERS = [
    ("kernels.py", "_block_row_sums"),
    ("kernels.py", "eval_kernel"),
    ("kernels.py", "gram"),
]


def kernel_matrix_uses(tree: ast.AST) -> list[tuple[str, bool]]:
    """(enclosing `Class.function`, whether it is called) for every use of `_kernel_matrix`."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}

    def uses(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from uses(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if _names_kernel_matrix(child):
                yield scope, id(child) in called
            yield from uses(child, scope)

    return list(uses(tree, ""))


def _names_kernel_matrix(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "_kernel_matrix") or (
        isinstance(node, ast.Attribute) and node.attr == "_kernel_matrix"
    )


def test_kernel_matrix_has_three_callers():
    uses = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        uses += [(path.name, scope, call) for scope, call in kernel_matrix_uses(tree)]
    # the definition itself is a FunctionDef, not a use
    assert sorted(uses) == [(name, scope, True) for name, scope in CALLERS]


def test_detector_names_scope_and_other_uses():
    code = (
        "def _kernel_matrix(k, X, Y):\n"
        "    return X\n"
        "class Engine:\n"
        "    def run(self):\n"
        "        return _kernel_matrix(k, _kernel_matrix(k, X, X), Y)\n"
        "def alias():\n"
        "    f = kernels._kernel_matrix\n"
        "    return f\n"
        "block = kernels._kernel_matrix(k, X, Y)\n"
    )
    assert sorted(kernel_matrix_uses(ast.parse(code))) == [
        ("", True),
        ("Engine.run", True),
        ("Engine.run", True),
        ("alias", False),
    ]
    assert kernel_matrix_uses(ast.parse('"""_kernel_matrix(k, X, Y)"""\ngram(k, X, Y)')) == []
