"""The determinism contract: no BLAS reduction anywhere in the library.

BLAS picks its summation order by machine, thread count and memory
alignment, so a matrix product can change the last bits of a result from
one machine to the next. Every reduction in `distreg` therefore sums with
`np.sum` in a fixed order. This test parses every module except
`oracles.py` (brute-force reference code, never on a program path) and
fails on the `@` operator and on calls to numpy's product functions.

LAPACK solves and decompositions (`np.linalg.*`) are out of its scope:
they act on the small Gram systems, whose results are not pinned bit for
bit.
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
