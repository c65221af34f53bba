"""One node layout for the circle and the disc: circle_nodes and polar_grid
give every sampled angle set and grid the bits the hand-built expressions
they replaced gave, and no other module builds uniform angles itself."""

import ast
from pathlib import Path

import numpy as np
import pytest

import corona_lab
from corona_lab import blaschke
from corona_lab.blaschke import MIN_GRID_ANGULAR, MIN_GRID_RADIAL, min_modulus_on_disc
from corona_lab.corona import DEFAULT_GRID, GridSpec, verification_nodes
from corona_lab.hoffman import disc_grid, l2_distance_to_identity
from corona_lab.quadrature import circle_nodes


def arange_angles(n):
    """The FFT and disc-grid angles as hoffman built them."""
    return 2 * np.pi * np.arange(n) / n - np.pi


def linspace_angles(n):
    return np.linspace(-np.pi, np.pi, n, endpoint=False)


def rings(radii, angles):
    return (radii[:, None] * np.exp(1j * angles[None, :])).ravel()


@pytest.mark.parametrize("n", [8] + [2 ** k for k in range(8, 21)])
def test_circle_nodes_equal_the_arange_angles(n):
    assert np.array_equal(circle_nodes(n), arange_angles(n))


def test_circle_nodes_take_any_count():
    assert np.array_equal(circle_nodes(1), [-np.pi])
    assert circle_nodes(0).size == 0


@pytest.mark.parametrize("grid", [DEFAULT_GRID, GridSpec(radial=9, angular=50,
                                                         boundary=100, ratio=0.3)])
def test_grid_points_equal_the_hand_built_grid(grid):
    want = np.concatenate(([0j], rings(grid.radii(), linspace_angles(grid.angular)),
                           np.exp(1j * linspace_angles(grid.boundary))))
    assert np.array_equal(grid.points(), want)
    assert np.array_equal(verification_nodes(grid), linspace_angles(2 * grid.boundary + 17))


def test_min_modulus_grid_equals_the_hand_built_grid(monkeypatch):
    seen = []
    kernel = blaschke._factor_product

    def record(start, zeros, gaps, z):
        seen.append(z)
        return kernel(start, zeros, gaps, z)

    monkeypatch.setattr(blaschke, "_factor_product", record)
    # a zero at the origin forms no far part, so the first evaluation is the whole grid's
    assert min_modulus_on_disc((0j,), 0.7) == 0.0
    want = rings(np.linspace(0.0, 0.7, MIN_GRID_RADIAL), linspace_angles(MIN_GRID_ANGULAR))
    assert np.array_equal(seen[0], want)


def test_disc_grid_equals_the_hand_built_grid():
    radii = 0.9 * np.arange(1, 7) / 6
    assert np.array_equal(disc_grid(41, 0.9), rings(radii, arange_angles(8)))


@pytest.mark.parametrize("n_fft", [256, 4096])
def test_fft_samples_equal_the_arange_angles(n_fft):
    seen = []

    def record(z):
        seen.append(z)
        return z

    assert l2_distance_to_identity(record, 0j, n_fft).distance < 1e-12
    assert np.array_equal(seen[0], np.exp(1j * arange_angles(n_fft)))


def _angle_builders(path: Path) -> list:
    """(enclosing function, line) of every np.linspace from -pi and every
    product of an arange with pi in one module."""
    found = []

    def mentions(node, test):
        return any(test(n) for n in ast.walk(node))

    def is_pi(n):
        return isinstance(n, ast.Attribute) and n.attr == "pi"

    def is_arange(n):
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "arange")

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name if where is None else where
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "linspace"):
            start = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "start"), None)
            if (isinstance(start, ast.UnaryOp) and isinstance(start.op, ast.USub)
                    and is_pi(start.operand)):
                found.append((where, node.lineno))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            sides = (node.left, node.right)
            if any(mentions(a, is_pi) and mentions(b, is_arange)
                   for a, b in (sides, sides[::-1])):
                found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), None)
    return found


def test_uniform_angles_are_built_only_in_quadrature():
    """circle_nodes is the one builder of uniform angles, so the node
    spacing 2pi/n is known in one place."""
    src = Path(corona_lab.__file__).parent
    found = {f"{path.name}:{where}": line for path in sorted(src.glob("*.py"))
             for where, line in _angle_builders(path)}
    assert "quadrature.py:circle_nodes" in found
    assert [site for site in found if not site.startswith("quadrature.py:")] == []

