"""The determinism contract: no BLAS reduction anywhere in the library.

BLAS picks its summation order by machine, thread count and memory
alignment, so a matrix product can change the last bits of a result from
one machine to the next. Every reduction in `distreg` therefore sums with
`np.sum` in a fixed order. This test parses every module except
`oracles.py` (brute-force reference code, never on a program path) and
fails on the `@` operator and on calls to numpy's product functions.

LAPACK solves and decompositions (`np.linalg.*`) act on the small Gram
systems, whose results are not pinned bit for bit, with one exception: the
simplex QP's solutions are pinned, so `simplex_qp.py` may use `np.linalg`
only in `SimplexQPProblem.__post_init__`, whose PSD check does not reach
the solution's bits.
"""

import ast
from pathlib import Path

import pytest

import distreg

BLAS_CALLS = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot"}
SOURCES = sorted(p for p in Path(distreg.__file__).parent.glob("*.py") if p.name != "oracles.py")


def blas_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for every `@` and every np.<product>(...) call in the tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in BLAS_CALLS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            found.append((node.lineno, f"{node.func.value.id}.{node.func.attr}"))
    return sorted(found)


def linalg_uses(tree: ast.AST, scope: str = "") -> list[tuple[int, str]]:
    """(line, enclosing `Class.function`) for every np.linalg / numpy.linalg in the tree."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found += linalg_uses(node, f"{scope}.{node.name}" if scope else node.name)
            continue
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "linalg"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            found.append((node.lineno, scope))
        found += linalg_uses(node, scope)
    return sorted(found)


def test_sources_found():
    assert {"kernels.py", "regression.py", "sampler.py", "simplex_qp.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_blas_products(path):
    assert blas_uses(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize(
    "code, line, what",
    [
        ("x = c @ G @ c", 1, "@"),
        ("x = 0\nx @= G", 2, "@"),
        ("v = np.dot(a, b)", 1, "np.dot"),
        ("v = numpy.einsum('i,i', a, b)", 1, "numpy.einsum"),
        ("v = float(np.vdot(a, b)) + np.tensordot(a, b)", 1, "np.tensordot"),
    ],
)
def test_detector_catches(code, line, what):
    assert (line, what) in blas_uses(ast.parse(code))


def test_detector_ignores_text_and_sums():
    tree = ast.parse('"""c = coeff @ v"""\nx = np.sum(G * v[None, :], axis=1)\ny = np.linalg.solve(G, b)')
    assert blas_uses(tree) == []


def test_solver_path_has_no_lapack():
    path = Path(distreg.__file__).parent / "simplex_qp.py"
    scopes = {scope for _, scope in linalg_uses(ast.parse(path.read_text(), filename=str(path)))}
    assert scopes == {"SimplexQPProblem.__post_init__"}


def test_linalg_detector_names_the_scope():
    code = (
        "import numpy as np\n"
        "class P:\n"
        "    def check(self):\n"
        "        return np.linalg.eigvalsh(self.G)\n"
        "def solve(G, b):\n"
        "    f = numpy.linalg.solve\n"
        "    return f(G, b)\n"
        "x = np.linalg.norm([1.0])\n"
    )
    assert linalg_uses(ast.parse(code)) == [(4, "P.check"), (6, "solve"), (8, "")]
    assert linalg_uses(ast.parse('"""np.linalg.solve"""\ny = np.add.reduce(x)')) == []
