"""The stgp text formats as a whole: single-fault corruptions, the readers' number grammar
and exactness, and the writers' bytes."""
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import stgp.mesh
from stgp import (FieldFile, Mesh, MeshFormatError, generate_structured_mesh, read_field, read_matrix,
                  read_mesh, write_field, write_matrix, write_mesh)
from stgp.assembly import TriDiagMatrix
from stgp.mesh import _format_row, _LineReader

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

    @pytest.mark.parametrize("case", ["field", "mesh", "dense-matrix"])
    def test_peak_memory_is_about_twice_the_text(self, case):
        """The text and the chunks it was joined from, not a third copy for the final newline."""
        rng = np.random.default_rng(7)
        write, args = {
            "field": (write_field, ("m.stgp", np.linspace(0.0, 1.0, 256), rng.standard_normal((800, 256)))),
            "mesh": (write_mesh, (generate_structured_mesh("unit-square-tri", 64, 1.0),)),
            "dense-matrix": (write_matrix, (rng.standard_normal((300, 300)),)),
        }[case]
        tracemalloc.start()
        try:
            text = write(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 2**18
        assert peak < 2.5 * len(text), f"peak {peak / len(text):.2f}x the text"


class TestReaderMemory:
    @pytest.mark.parametrize("case, bound", [("field", 1.25), ("dense-matrix", 1.25), ("mesh", 7.0),
                                             ("sparse-matrix", 6.5)])
    def test_reading_holds_the_text_once(self, case, bound):
        """A reader splits its text into lines a chunk at a time. Holding every line at once
        read 1.70 (field), 1.51 (dense), 12.3 (mesh) and 9.8 (sparse) times the text beyond
        it; the rest is the parsed arrays and, for a mesh or a sparse matrix, their checks."""
        rng = np.random.default_rng(3)
        read, text = {
            "field": (read_field, write_field("m.stgp", np.linspace(0.0, 1.0, 32), rng.standard_normal((3400, 32)))),
            "dense-matrix": (read_matrix, write_matrix(rng.standard_normal((800, 136)))),
            "mesh": (read_mesh, write_mesh(generate_structured_mesh("unit-square-tri", 104, 1.0))),
            "sparse-matrix": (read_matrix, write_matrix(
                sp.diags([rng.standard_normal(20000), rng.standard_normal(19999)], [0, 1]).tocsr())),
        }[case]
        tracemalloc.start()
        try:
            read(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) >= 2**20
        assert peak < bound * len(text), f"peak {peak / len(text):.2f}x the text"


def _doubles(seed: int, n: int) -> np.ndarray:
    """n finite doubles: uniformly random bit patterns (every exponent, subnormals too),
    normal draws and AWKWARD."""
    rng = np.random.default_rng(seed)
    values = np.frombuffer(rng.bytes(16 * n), dtype=np.float64)
    values = np.concatenate([AWKWARD, values[np.isfinite(values)][:n // 2], rng.standard_normal(n)])
    return values[:n]


def _tokens(values: np.ndarray) -> list[str]:
    """repr for most values, and other spellings of the same numbers for every tenth."""
    spellings = (repr, "{:.17e}".format, "{:+.25G}".format, "{:.3e}".format, lambda v: f"{v:.12f}".rstrip("0"))
    return [spellings[(k // 10) % len(spellings)](v) if k % 10 == 9 else repr(v)
            for k, v in enumerate(values.tolist())]


def _assert_bitwise(read: np.ndarray, tokens: list[str]):
    expected = np.array([float(token) for token in tokens])
    assert read.shape == expected.shape
    assert np.array_equal(read.view(np.int64), expected.view(np.int64))


class TestReadExactness:
    """Every number read equals Python's float() of its token, bit for bit."""

    def test_field(self):
        tokens = _tokens(_doubles(1, 4000))
        times = _tokens(np.unique(_doubles(2, 40)))
        text = "\n".join(["stgp-field 1", "mesh m.stgp", f"edges 100 steps {len(times)}", "times " + " ".join(times)]
                         + [" ".join(tokens[i:i + 40]) for i in range(0, 4000, 40)]) + "\n"
        ff = read_field(text)
        _assert_bitwise(ff.times, times)
        _assert_bitwise(ff.dofs.ravel(), tokens)

    def test_mesh(self):
        # Coordinates up to 1, so that one large element stays non-degenerate; mu takes every magnitude.
        values = _doubles(3, 3000)
        coords = _tokens(np.ldexp(np.frexp(values)[0], np.minimum(np.frexp(values)[1], 0)))
        mus = [repr(mu) for mu in np.abs(values[values != 0.0]).tolist()]  # other spellings may round to 0
        n = len(coords) // 2
        frame = ["-4.0 -4.0", "4.0 -4.0", "-4.0 4.0"]
        lines = ["stgp-mesh 1", "dim 2", f"nodes {n + 3}"]
        lines += [f"{i} {coords[2 * i]} {coords[2 * i + 1]}" for i in range(n)]
        lines += [f"{n + k} {xy}" for k, xy in enumerate(frame)]
        lines += [f"elements {len(mus)}"] + [f"{i} {n} {n + 1} {n + 2}" for i in range(len(mus))]
        lines += [f"mu {len(mus)}"] + [f"{i} {mu}" for i, mu in enumerate(mus)]
        mesh = read_mesh("\n".join(lines) + "\n")
        _assert_bitwise(mesh.nodes[:n].ravel(), coords[:2 * n])
        _assert_bitwise(mesh.mu, mus)

    def test_matrices(self):
        tokens = _tokens(_doubles(4, 3000))
        dense = read_matrix("\n".join(["stgp-matrix 1", "dense 100 30"]
                                      + [" ".join(tokens[i:i + 30]) for i in range(0, 3000, 30)]) + "\n")
        _assert_bitwise(dense.ravel(), tokens)

        diag, off = tokens[:1000], tokens[1000:1999]
        tri = read_matrix(f"stgp-matrix 1\ntridiag 1000\ndiag {' '.join(diag)}\noff {' '.join(off)}\n")
        _assert_bitwise(tri.diag, diag)
        _assert_bitwise(tri.off, off)

        values = [token for token in tokens if float(token) != 0.0][:2000]
        sparse = read_matrix("\n".join(["stgp-matrix 1", f"sparse-sym {len(values)} {len(values)}"]
                                       + [f"{i} {i} {v}" for i, v in enumerate(values)]) + "\n")
        _assert_bitwise(sparse.diagonal(), values)


class TestValidInputIsParsedOnce:
    """Valid text is read by the block parse alone; the per-line diagnosis runs only on faults."""

    @pytest.fixture(autouse=True)
    def _no_diagnosis(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("valid input reached the per-line diagnosis")
        monkeypatch.setattr(_LineReader, "_diagnose", fail)

    @pytest.mark.parametrize("name", TEXTS)
    def test_canonical_texts(self, name):
        reader, text = TEXTS[name]
        reader(text)

    def test_generated_mesh_and_field(self):
        mesh = generate_structured_mesh("unit-square-tri", 32, 1.0)
        dofs = np.random.default_rng(5).standard_normal((3136, 32))
        assert np.array_equal(read_mesh(write_mesh(mesh)).nodes, mesh.nodes)
        assert np.array_equal(read_field(write_field("m.stgp", np.linspace(0.0, 1.0, 32), dofs)).dofs, dofs)


class TestEmptyBlocks:
    """Blocks of no lines or no values read without a warning: np.loadtxt is never given no data."""

    @pytest.mark.parametrize("reader, text, check", [
        (read_field, "stgp-field 1\nmesh m.stgp\nedges 0 steps 2\ntimes 0.0 1.0\n",
         lambda ff: ff.dofs.shape == (0, 2) and ff.times.tolist() == [0.0, 1.0]),
        (read_matrix, "stgp-matrix 1\ndense 0 3\n", lambda m: m.shape == (0, 3)),
        (read_matrix, "stgp-matrix 1\nsparse-sym 2 0\n", lambda m: m.shape == (2, 2) and m.nnz == 0),
        (read_matrix, "stgp-matrix 1\ntridiag 1\ndiag 2.0\noff\n",
         lambda m: m.diag.tolist() == [2.0] and m.off.shape == (0,)),
        (read_mesh, "stgp-mesh 1\ndim 3\nnodes 0\nelements 0\nmu 0\n",
         lambda mesh: mesh.nodes.shape == (0, 3) and mesh.elements.shape == (0, 4)),
    ], ids=["field-edges-0", "dense-0-3", "sparse-sym-2-0", "tridiag-1", "mesh-empty"])
    def test_reads_cleanly(self, reader, text, check):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check(reader(text))


# The documented grammar: an integer is an optional sign and ASCII digits within
# the 64-bit range; a number is Python's float syntax in ASCII without underscores.
INTEGER = re.compile(r"[+-]?[0-9]+")
NUMBER = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)", re.IGNORECASE)


def _in_grammar(token: str, integer: bool) -> bool:
    if integer:
        return INTEGER.fullmatch(token) is not None and -2**63 <= int(token) < 2**63
    return NUMBER.fullmatch(token) is not None


class TestNumberGrammar:
    @pytest.mark.parametrize("token", ["1.0", "1e3", "1_000", "\u0661", "\uff11", "0x1", "+-1", "1.", "nan", "--1"])
    def test_integer_column_rejects(self, token):
        text = CANONICAL_TWO_TRIANGLES.replace("1 0 2 3", f"1 0 2 {token}")
        with pytest.raises(MeshFormatError, match=re.escape(f"line 10: expected integer node index, got {token!r}")):
            read_mesh(text)

    @pytest.mark.parametrize("token", ["9223372036854775808", "-9223372036854775809", "123456789012345678901234"])
    def test_integer_beyond_64_bits_rejected(self, token):
        text = CANONICAL_TWO_TRIANGLES.replace("1 0 2 3", f"{token} 0 2 3")
        with pytest.raises(MeshFormatError, match="line 10: integer out of the 64-bit range"):
            read_mesh(text)

    @pytest.mark.parametrize("old, new, line, message", [
        ("edges 3 steps 2", "edges 1_0 steps 2", 3, "expected integer edge count, got '1_0'"),
        ("edges 3 steps 2", "edges 3 steps \u0662", 3, "expected integer step count, got '\u0662'"),
        ("edges 3 steps 2", "edges 99999999999999999999 steps 2", 3, "integer out of the 64-bit range"),
        ("times 0.0 1.0", "times 0.0 1_0", 4, "expected number time, got '1_0'"),
        ("3.0 4.0", "3.0 \u0664", 6, "expected number dof value, got '\u0664'"),
        ("5.0 6.0", "5.0 6e", 7, "expected number dof value, got '6e'"),
        ("5.0 6.0", "5.0 0x6", 7, "expected number dof value, got '0x6'"),
    ])
    def test_field_faults_name_their_line(self, old, new, line, message):
        with pytest.raises(MeshFormatError, match=re.escape(f"line {line}: {message}")):
            read_field(CANONICAL_FIELD.replace(old, new))

    def test_header_integers_follow_the_grammar(self):
        with pytest.raises(MeshFormatError, match="line 3: expected integer node count, got '4.0'"):
            read_mesh(CANONICAL_TWO_TRIANGLES.replace("nodes 4", "nodes 4.0"))
        with pytest.raises(MeshFormatError, match="line 2: expected integer rows, got '2_0'"):
            read_matrix(CANONICAL_DENSE.replace("dense 2 3", "dense 2_0 3"))

    @pytest.mark.parametrize("token, value", [
        ("+2", 2.0), (".5", 0.5), ("1.", 1.0), ("-0", -0.0), ("1E+2", 100.0), ("1e999", np.inf),
        ("-Infinity", -np.inf), ("INF", np.inf), ("+nan", np.nan), ("00012", 12.0), ("4e-324", 5e-324),
    ])
    def test_number_column_accepts(self, token, value):
        matrix = read_matrix(CANONICAL_DENSE.replace("6.0", token))
        assert np.array_equal(matrix[1, 2:], [value], equal_nan=True)
        assert np.signbit(matrix[1, 2]) == np.signbit(value)

    def test_declared_width_beyond_the_text_allocates_nothing(self):
        """A header may declare a million values; a short line fails before a row that wide is allocated."""
        text = CANONICAL_FIELD.replace("steps 2", "steps 1000000")
        tracemalloc.start()
        try:
            with pytest.raises(MeshFormatError, match="line 4: expected 'times' followed by 1000000 values"):
                read_field(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("reader, text, line", [
        (read_field, CANONICAL_FIELD.replace("steps 2", f"steps {10**18}"), 4),
        (read_matrix, f"stgp-matrix 1\ndense 2 {10**18}\n1.0 2.0\n", 3),
        (read_matrix, f"stgp-matrix 1\ndense 0 {10**18}\n", 3),
        (read_matrix, f"stgp-matrix 1\ntridiag {10**18}\n", 3),
    ], ids=["field-times", "dense-row", "dense-no-rows", "tridiag"])
    def test_declared_width_beyond_any_row_type_is_a_format_error(self, reader, text, line):
        """A width too large for a numpy row type fails as a format error, not a ValueError."""
        with pytest.raises(MeshFormatError) as err:
            reader(text)
        assert err.value.line == line

    def test_int_read_through_float_is_a_fault(self, monkeypatch):
        """numpy releases that read an int64 token '3.0' through float only warn; the reader rejects it."""
        real = np.loadtxt

        def warning_loadtxt(texts, dtype, **kwargs):
            dtype = np.dtype(dtype)
            kinds = {dtype[name].base.kind for name in dtype.names} if dtype.names else {dtype.kind}
            if "i" in kinds and any("3.0" in text for text in texts):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
                texts = [text.replace("3.0", "3") for text in texts]
            return real(texts, dtype=dtype, **kwargs)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        with pytest.raises(MeshFormatError, match="line 10: expected integer node index, got '3.0'"):
            read_mesh(CANONICAL_TWO_TRIANGLES.replace("1 0 2 3", "1 0 2 3.0"))

    def test_diagnosis_rejects_exactly_what_the_block_parse_rejects(self):
        """On random lines of two integer and one number column, separated by any whitespace,
        the block parse, the per-line diagnosis and the documented grammar agree."""
        rng = np.random.default_rng(11)
        pieces = ["0", "7", "-2", "+3", "1.5", "1e3", "-.5e-3", "nan", "inf", "1_0", "x", "\u0661", "1.0",
                  "9223372036854775807", "9223372036854775808", "-", ".", "e1", "1e", "0x1"]
        alphabet = list("0123456789+-.eE_naifty")
        separators = [" ", "\t", "  ", "\xa0", "\u2003", "\x1f", "\u3000"]
        labels, width = ("row", "col", "value"), 3

        def token():
            if rng.random() < 0.5:
                return str(rng.choice(pieces))
            return "".join(rng.choice(alphabet, rng.integers(1, 7)))

        for _ in range(3000):
            tokens = [token() for _ in range(rng.integers(2, 5))]
            line = "".join(rng.choice(separators) + token for token in tokens) + rng.choice(["", " ", "\t"])
            text = f"stgp-test 1\n{line}\n"
            good = len(tokens) == width and all(_in_grammar(t, j < 2) for j, t in enumerate(tokens))

            try:
                (rows, cols, values), _ = _LineReader(text, "stgp-test").block(1, width, "row", "bad row", labels)
            except MeshFormatError as exc:
                assert not good and exc.line == 2, (line, exc)
            else:
                assert good, line
                assert [rows[0], cols[0]] == [int(t) for t in tokens[:2]]
                assert np.array_equal(values[:, 0], [float(tokens[2])], equal_nan=True)

            rd = _LineReader(text, "stgp-test")
            texts, lines = rd._take(1)
            with pytest.raises(MeshFormatError) as err:
                rd._diagnose(texts, lines, 0, width, "row", "bad row", labels, float, None)
            found_fault = "unexpected end of file" not in str(err.value)
            assert found_fault == (not good), (line, err.value)


# Line separators that str.splitlines() honours besides "\n": a chunk is cut only
# after a "\n", and the others still split lines inside it.
SEPARATORS = ["\r\n", "\r", "\x0b", "\u2028"]
SMALL_CHUNK = 300


def _decorated(text: str, rng: np.random.Generator) -> str:
    """`text` with blank, whitespace-only and comment lines put in, trailing comments and
    other separators on some lines; the content lines and their order are kept."""
    out = []
    for k, line in enumerate(text.splitlines()):
        if k and rng.random() < 0.15:
            out.append(str(rng.choice(["", "  \t", "# a comment line", "\x0c"])) + "\n")
        if k and rng.random() < 0.1:
            line += " # trailing 1 2 3"
        out.append(line + (str(rng.choice(SEPARATORS)) if rng.random() < 0.25 else "\n"))
    return "".join(out)


def _chunk_ends(text: str, size: int) -> list[int]:
    """Where the reader cuts the text: just after the first newline `size` or more characters on."""
    ends, start = [], 0
    while start < len(text):
        cut = text.find("\n", start + size)
        start = len(text) if cut < 0 else cut + 1
        ends.append(start)
    return ends


def _outcome(reader, text: str, chunk: int, monkeypatch):
    """The arrays a reader gives for the text with the given chunk size, or its fault."""
    monkeypatch.setattr(stgp.mesh, "_READ_CHUNK_CHARS", chunk)
    try:
        read = reader(text)
    except MeshFormatError as exc:
        return exc.line, str(exc)
    if isinstance(read, Mesh):
        arrays = [read.nodes, read.elements, read.mu]
    elif isinstance(read, FieldFile):
        arrays = [np.array(read.mesh_name), read.times, read.dofs]
    elif isinstance(read, TriDiagMatrix):
        arrays = [read.diag, read.off]
    elif sp.issparse(read):
        arrays = [read.data, read.indices, read.indptr]
    else:
        arrays = [read]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _long_texts():
    rng = np.random.default_rng(17)
    mesh = generate_structured_mesh("unit-square-tri", 5, 1.0)
    return {
        "mesh": (read_mesh, write_mesh(Mesh(dim=2, nodes=mesh.nodes, elements=mesh.elements,
                                            mu=rng.uniform(0.5, 2.0, mesh.n_elements)))),
        "field": (read_field, write_field("m.stgp", np.linspace(0.0, 1.0, 6), rng.standard_normal((40, 6)))),
        "dense": (read_matrix, write_matrix(rng.standard_normal((30, 5)))),
        "sparse": (read_matrix, write_matrix(sp.diags([rng.standard_normal(40), rng.standard_normal(39)],
                                                      [0, 1]).tocsr())),
        "tridiag": (read_matrix, write_matrix(TriDiagMatrix(diag=rng.uniform(1, 2, 30), off=rng.uniform(0, 1, 29)))),
    }


def _faults_at_chunk_ends(text: str, size: int):
    """(label, text) with one fault on the content line just before, and just after, each
    chunk end: a digit made 'x' or two tokens joined, which keep the length and so the
    chunk ends, or the text cut off at the chunk end."""
    lines = text.splitlines(keepends=True)
    for n_end, end in enumerate(_chunk_ends(text, size)[:-1]):
        at = len(text[:end].splitlines())       # lines[at] starts a chunk
        yield f"cut-{n_end}", text[:end]
        for side, order in (("before", range(at - 1, -1, -1)), ("after", range(at, len(lines)))):
            for k in order:
                content = lines[k].split("#", 1)[0]
                digit = re.search(r"[0-9](?=[^0-9]*$)", content)
                gap = re.search(r"(?<=\S) (?=\S)", content)
                if digit and gap:
                    break
            else:
                continue
            for kind, m, new in (("x", digit, "x"), ("join", gap, "_")):
                changed = lines[k][:m.start()] + new + lines[k][m.end():]
                yield f"{side}-{n_end}-{kind}", "".join(lines[:k] + [changed] + lines[k + 1:])


class TestChunkBoundaries:
    """A text several chunks long reads as it does in one chunk, which splits it with one
    text.splitlines(): the same arrays, or the same fault at the same line."""

    @pytest.mark.parametrize("name", ["mesh", "field", "dense", "sparse", "tridiag"])
    @pytest.mark.parametrize("decorate", [False, True], ids=["plain", "decorated"])
    def test_same_arrays_and_faults_as_one_chunk(self, name, decorate, monkeypatch):
        reader, text = _long_texts()[name]
        if decorate:
            text = _decorated(text, np.random.default_rng(len(name)))
        ends = _chunk_ends(text, SMALL_CHUNK)
        # A tridiag text is two long lines, each longer than a chunk.
        assert len(ends) >= (2 if name == "tridiag" else 4)
        whole = len(text) + 1
        reference = _outcome(reader, text, whole, monkeypatch)
        assert isinstance(reference, list)
        assert _outcome(reader, text, SMALL_CHUNK, monkeypatch) == reference
        faults = 0
        for label, variant in _faults_at_chunk_ends(text, SMALL_CHUNK):
            if label.startswith(("before", "after")):
                assert len(variant) == len(text)
            expected = _outcome(reader, variant, whole, monkeypatch)
            assert _outcome(reader, variant, SMALL_CHUNK, monkeypatch) == expected, label
            faults += isinstance(expected, tuple)
        assert faults >= 3 * (len(ends) - 1)

    def test_separators_split_inside_a_chunk(self, monkeypatch):
        """Each separator but '\\n' leaves a chunk running on; the line numbers still count it."""
        field = "stgp-field 1\nmesh m.stgp\nedges 4 steps 2\ntimes 0.0 1.0\n1.0 2.0\n3.0 4.0\n5.0 6.0\n7.0 8.0\n"
        for separator in SEPARATORS:
            text = field.replace("\n", separator, 6).replace("7.0 8.0", "7.0 x")
            expected = _outcome(read_field, text, len(text) + 1, monkeypatch)
            assert expected == (8, "line 8: expected number dof value, got 'x'")
            for chunk in range(0, len(text)):
                assert _outcome(read_field, text, chunk, monkeypatch) == expected

    def test_default_chunk_size(self, monkeypatch):
        rng = np.random.default_rng(23)
        text = _decorated(write_field("m.stgp", np.linspace(0.0, 1.0, 16), rng.standard_normal((4000, 16))), rng)
        size = stgp.mesh._READ_CHUNK_CHARS
        assert len(_chunk_ends(text, size)) >= 4
        for label, variant in [("valid", text), *_faults_at_chunk_ends(text, size)]:
            expected = _outcome(read_field, variant, len(variant) + 1, monkeypatch)
            assert _outcome(read_field, variant, size, monkeypatch) == expected, label
