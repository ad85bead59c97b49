"""The stgp text formats as a whole: single-fault corruptions and the writers' bytes."""
import numpy as np
import pytest
import scipy.sparse as sp

from stgp import (Mesh, MeshFormatError, read_field, read_matrix, read_mesh, write_field,
                  write_matrix, write_mesh)
from stgp.assembly import TriDiagMatrix
from stgp.mesh import _format_row

from test_fields import CANONICAL_FIELD
from test_mesh import CANONICAL_TWO_TRIANGLES

CANONICAL_TRIDIAG = """stgp-matrix 1
tridiag 3
diag 1.0 2.0 3.0
off 0.5 0.25
"""

CANONICAL_SPARSE = """stgp-matrix 1
sparse-sym 3 4
0 0 2.0
0 1 -0.5
1 1 2.0
2 2 1.5
"""

CANONICAL_DENSE = """stgp-matrix 1
dense 2 3
1.0 2.0 3.0
4.0 5.0 6.0
"""

TEXTS = {
    "mesh": (read_mesh, CANONICAL_TWO_TRIANGLES),
    "field": (read_field, CANONICAL_FIELD),
    "tridiag": (read_matrix, CANONICAL_TRIDIAG),
    "sparse": (read_matrix, CANONICAL_SPARSE),
    "dense": (read_matrix, CANONICAL_DENSE),
}


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _corruptions():
    """(reader, text, line the fault must be reported at) for every single-fault variant."""
    for name, (reader, text) in TEXTS.items():
        lines = text.splitlines()
        for keep in range(len(lines)):
            yield pytest.param(reader, "\n".join(lines[:keep]) + "\n", keep + 1,
                               id=f"{name}-truncated-after-{keep}")
        for k, line in enumerate(lines):
            tokens = line.split()
            numbers = [j for j, token in enumerate(tokens) if _is_number(token)]
            if not numbers:
                continue
            variants = {"drop": tokens[:-1], "add": tokens + ["1"]}
            for j in numbers:
                variants[f"x{j}"] = tokens[:j] + ["x"] + tokens[j + 1:]
            for label, variant in variants.items():
                corrupt = lines[:k] + [" ".join(variant)] + lines[k + 1:]
                yield pytest.param(reader, "\n".join(corrupt) + "\n", k + 1,
                                   id=f"{name}-L{k + 1}-{label}")


class TestCorruption:
    @pytest.mark.parametrize("name", TEXTS)
    def test_canonical_text_round_trips(self, name):
        reader, text = TEXTS[name]
        if reader is read_mesh:
            assert write_mesh(read_mesh(text)) == text
        elif reader is read_field:
            ff = read_field(text)
            assert write_field(ff.mesh_name, ff.times, ff.dofs) == text
        else:
            assert write_matrix(read_matrix(text)) == text

    @pytest.mark.parametrize("reader, text, line", _corruptions())
    def test_single_fault_names_its_line(self, reader, text, line):
        with pytest.raises(MeshFormatError) as err:
            reader(text)
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: ")


# Values whose text form is easy to get wrong: signed zero, the smallest
# subnormal, a huge magnitude and a repeating binary fraction.
AWKWARD = np.array([-0.0, 5e-324, 1e300, 1 / 3, -2.5e-8, 0.1, 123456789.0])


def _reference_row(values, sep=" "):
    return sep.join(repr(float(v)) for v in values)


def _reference_mesh(mesh):
    out = ["stgp-mesh 1", f"dim {mesh.dim}", f"nodes {mesh.n_nodes}"]
    out += [f"{i} " + _reference_row(node) for i, node in enumerate(mesh.nodes)]
    out.append(f"elements {mesh.n_elements}")
    out += [f"{i} " + " ".join(str(int(v)) for v in elem) for i, elem in enumerate(mesh.elements)]
    out.append(f"mu {mesh.n_elements}")
    out += [f"{i} {repr(float(value))}" for i, value in enumerate(mesh.mu)]
    return "\n".join(out) + "\n"


class TestWriterBytes:
    """The writers against the per-value `repr(float(v))` joins they replaced."""

    def test_field(self):
        dofs = np.stack([AWKWARD, -AWKWARD[::-1], np.roll(AWKWARD, 3)])
        expected = ["stgp-field 1", "mesh m.stgp", f"edges 3 steps {len(AWKWARD)}",
                    "times " + _reference_row(AWKWARD)] + [_reference_row(row) for row in dofs]
        assert write_field("m.stgp", AWKWARD, dofs) == "\n".join(expected) + "\n"

    def test_mesh_with_large_node_indices(self):
        n = 2**17 + 5
        nodes = np.zeros((n, 2))
        nodes[-3:] = [[1 / 3, -0.0], [1e3, 5e-324], [1 / 3, 1e2]]
        mesh = Mesh(dim=2, nodes=nodes, elements=np.array([[n - 3, n - 2, n - 1], [0, n - 2, n - 1]]),
                    mu=np.array([1 / 3, 1e300]))
        assert write_mesh(mesh) == _reference_mesh(mesh)

    def test_matrices(self):
        tri = TriDiagMatrix(diag=AWKWARD, off=AWKWARD[1:] * -1.0)
        assert write_matrix(tri) == "\n".join([
            "stgp-matrix 1", f"tridiag {len(AWKWARD)}", "diag " + _reference_row(tri.diag),
            "off " + _reference_row(tri.off)]) + "\n"

        n = 2**40
        rows, cols = np.array([n - 1, 3, 0]), np.array([n - 1, n - 2, 0])
        for data in (AWKWARD[:3], np.array([2, -7, 0])):
            matrix = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
            triplets = sorted(zip(rows.tolist(), cols.tolist(), data.tolist()))
            assert write_matrix(matrix) == "\n".join(
                ["stgp-matrix 1", f"sparse-sym {n} 3"]
                + [f"{r} {c} {repr(float(v))}" for r, c, v in triplets]) + "\n"

        dense = AWKWARD[:6].reshape(2, 3)
        assert write_matrix(dense) == "\n".join(
            ["stgp-matrix 1", "dense 2 3"] + [_reference_row(row) for row in dense]) + "\n"

    def test_probe_rows(self):
        assert _format_row(AWKWARD, ",") == _reference_row(AWKWARD, ",")
