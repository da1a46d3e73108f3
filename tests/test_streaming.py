"""Streamed save and load: block boundaries, pipes, bit equality and memory bounds.

``save`` and ``gen`` write a document a block of about ``_CHUNK_BYTES`` at a
time, and ``load`` reads a measurement file in the layout ``encode`` writes
in blocks cut at the row separators, falling back to ``json.loads`` when the
file turns out otherwise.  The block size is patched down to one row and to
a few bytes here, so that every boundary falls somewhere on small families.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import bzinfo
from bzinfo import (
    Family,
    SchemaError,
    build_gsm,
    build_mub,
    build_mum,
    encode,
    load,
    random_density,
    save,
    sic2_fixture,
    verify,
)
from bzinfo import linalg, serialize
from bzinfo.cli import main
from bzinfo.invariants import DirectEvaluator
from bzinfo.linalg import pack
from conftest import effects_of, stack_bytes, traced_peak

SEPARATOR = b"]], [["


def distinct_valued(kind: str, d: int) -> Family:
    """A built family plus seeded Hermitian noise of 1e-3: numbers repeated only across diagonals.

    Built families repeat a few hundred distinct numbers across all their
    entries; this family, like a state, repeats almost none, so every cache
    of the text layer fills.
    """
    family = BUILDERS[kind](d)
    effects = effects_of(family)
    rng = np.random.Generator(np.random.Philox(d))
    g = rng.standard_normal(effects.shape) + 1j * rng.standard_normal(effects.shape)
    effects += 1e-3 * (g + g.conj().transpose(0, 2, 1)) / 2
    return Family(kind, d, family.t, family.parameter, pack(effects))


BUILDERS = {
    "mum": lambda d: build_mum(d, "auto"),
    "gsm": lambda d: build_gsm(d, "auto"),
    "mub": build_mub,
    "sic": lambda d: sic2_fixture(),
    "distinct gsm": lambda d: distinct_valued("gsm", d),
}
ENCODED = [("mum", 2), ("mum", 3), ("mum", 12), ("gsm", 2), ("gsm", 3), ("gsm", 12),
           ("mub", 2), ("mub", 5), ("mub", 11), ("sic", 2)]
CHUNKS = ["row", "few bytes"]


def chunk_bytes(data: bytes, chunk: str) -> int:
    """A few bytes, or one row's text (from one row separator to the next) less three bytes.

    Rows of equal length would put every boundary at the same place in a row;
    three bytes less move it along the row from one block to the next.
    """
    first = data.index(SEPARATOR)
    return data.index(SEPARATOR, first + 1) - first - 3 if chunk == "row" else 5


@pytest.fixture(params=CHUNKS)
def small_blocks(request, monkeypatch):
    """Patch the block size of save and load down; returns a function giving it for a document."""

    def patch(data: bytes) -> int:
        size = chunk_bytes(data, request.param)
        monkeypatch.setattr(serialize, "_CHUNK_BYTES", size)
        return size

    return patch


def json_route(data: bytes):
    """The outcome of the json.loads route: the entity, or SchemaError."""
    try:
        return serialize._decode_document(serialize._parse_json(data))
    except SchemaError:
        return SchemaError


def load_outcome(path):
    try:
        return load(path)
    except SchemaError:
        return SchemaError


def assert_same(a, b) -> None:
    if a is SchemaError or b is SchemaError:
        assert a is b
        return
    assert (a.kind, a.dim, a.t, a.parameter) == (b.kind, b.dim, b.t, b.parameter)
    assert a.rows.tobytes() == b.rows.tobytes()


def parses(monkeypatch) -> list:
    """The results of the direct parse from now on, None where it left the file to json.loads."""
    results = []
    parse = serialize._parse_canonical_measurement

    def recorded(read, size):
        results.append(parse(read, size))
        return results[-1]

    monkeypatch.setattr(serialize, "_parse_canonical_measurement", recorded)
    return results


def block_boundaries(data: bytes, size: int) -> range:
    """File offsets where load's reads of a measurement file end: the head, then each block."""
    return range(serialize._HEAD_BYTES, len(data), size)


@pytest.mark.parametrize("kind", ["mum", "gsm"])
def test_row_separator_straddling_a_block_boundary(tmp_path, monkeypatch, small_blocks, kind):
    path = tmp_path / "family.json"
    save(BUILDERS[kind](5), path)
    data = path.read_bytes()
    size = small_blocks(data)
    boundaries = set(block_boundaries(data, size))
    separators = [m.start() for m in re.finditer(re.escape(SEPARATOR), data)]
    straddled = [p for p in separators if any(p + i in boundaries for i in range(1, len(SEPARATOR)))]
    assert straddled, "no separator straddles a block boundary"
    results = parses(monkeypatch)
    assert_same(load(path), json_route(data))
    assert results and results[0] is not None


def tail_variants(data: bytes) -> dict[str, bytes]:
    """Files written as encode writes them up to their last few bytes."""
    body = data[:-2]  # all but the closing brace and the newline save appends
    last = data.rindex(b"]]")  # where the array's closing brackets begin
    i, j = re.search(rb"(-?[0-9][0-9.eE+-]*)\]+\}", data).span(1)  # the last number
    return {
        "as saved": data,
        "no newline": data[:-1],
        "two newlines": data + b"\n",
        "meta": body + b', "meta": {"note": "tail"}}\n',
        "repeated t": body + b', "t": 0.001}\n',
        "repeated effects": body + b', "effects": 0}\n',
        "space before brace": body + b" }\n",
        "trailing comma": body + b", }\n",
        "truncated": data[:-3],
        "garbage after": data + b"x",
        "closing bracket dropped": data[:last] + data[last + 1:],
        "closing bracket added": data[:last] + b"]" + data[last:],
        "last number an integer": data[:i] + b"0" + data[j:],
        "last number too large": data[:i] + b"1e999" + data[j:],
        "last number signed zero": data[:i] + b"-0.0" + data[j:],
        "row after the last row": data[:last] + b"]], [[0.5, 0.5" + data[last:],
    }


@pytest.mark.parametrize("kind", ["mum", "gsm"])
def test_file_canonical_until_its_last_block(tmp_path, monkeypatch, small_blocks, kind):
    family = BUILDERS[kind](5)
    path = tmp_path / "family.json"
    save(family, path)
    small_blocks(path.read_bytes())
    results = parses(monkeypatch)
    for name, variant in tail_variants(path.read_bytes()).items():
        path.write_bytes(variant)
        expected = json_route(variant)
        assert_same(load_outcome(path), expected)
        # the direct parse reads these to their end; any other goes to json.loads
        canonical = name in ("as saved", "no newline", "meta", "last number signed zero")
        assert (results[-1] is not None) == canonical, name
        if canonical and name != "last number signed zero":
            assert_same(expected, family)


def move_bracket_pair(data: bytes, source: int, target: int) -> bytes:
    """Move one "]" and one "[" from the row separator at ``source`` to the one at ``target``."""
    edits = [(source - 1, b"]", b""), (source + 6, b"[", b""), (target, b"", b"]"),
             (target + 6, b"", b"[")]
    for at, old, new in sorted(edits, reverse=True):
        assert data[at:at + len(old)] == old
        data = data[:at] + new + data[at + len(old):]
    return data


def bracket_variants(data: bytes) -> dict[str, bytes]:
    """A row inside a matrix given brackets the encoder writes only where a matrix begins."""
    separators = [m.start() for m in re.finditer(re.escape(SEPARATOR), data)]
    # inside a matrix the separator is exactly "]], [[", between matrices it has more brackets
    between = [p for p in separators if data[p - 1:p] == b"]"]
    inside = [p for p in separators if p not in between]
    p, q = inside[len(inside) // 2], between[len(between) // 2]
    return {
        "extra pair": data[:p] + b"]" + SEPARATOR + b"[" + data[p + 6:],
        "extra opening": data[:p + 6] + b"[" + data[p + 6:],
        "extra closing": data[:p] + b"]" + data[p:],
        # as many brackets in all: a matrix's end moved into the middle of another
        "pair moved": move_bracket_pair(data, q, p),
    }


@pytest.mark.parametrize("kind", ["mum", "gsm"])
def test_row_with_wrong_brackets_in_a_matrix_takes_the_json_loads_route(
        tmp_path, small_blocks, kind):
    data = encode(BUILDERS[kind](5)) + b"\n"
    small_blocks(data)
    path = tmp_path / "family.json"
    for name, variant in bracket_variants(data).items():
        parsed = serialize._parse_canonical_measurement(io.BytesIO(variant).read, len(variant))
        assert parsed is None, name
        assert json_route(variant) is SchemaError, name
        path.write_bytes(variant)
        assert load_outcome(path) is SchemaError, name


@pytest.mark.parametrize("chunk", CHUNKS)
def test_verify_reads_a_measurement_through_a_pipe(tmp_path, chunk):
    path = tmp_path / "family.json"
    save(build_gsm(4, "auto"), path)
    data = path.read_bytes()
    program = ("import sys; from bzinfo import serialize; from bzinfo.cli import main; "
               f"serialize._CHUNK_BYTES = {chunk_bytes(data, chunk)}; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bzinfo.__file__)))
    argv = [sys.executable, "-c", program, "verify", "--json", "--measurement"]
    piped = subprocess.run(argv + ["/dev/stdin"], input=data, capture_output=True, env=env)
    direct = subprocess.run(argv + [str(path)], capture_output=True, env=env)
    assert (piped.returncode, direct.returncode) == (0, 0), piped.stderr
    assert piped.stdout == direct.stdout
    assert json.loads(piped.stdout)["passed"]


@contextlib.contextmanager
def pipe_holding(data: bytes):
    """The /dev/fd path of a pipe that holds ``data`` and then ends."""
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as fh:
        fh.write(data)
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)


@contextlib.contextmanager
def pipe_fed(data: bytes):
    """The /dev/fd path of a pipe that a thread fills with ``data``, however long, and then ends."""
    read_end, write_end = os.pipe()

    def feed():
        with contextlib.suppress(BrokenPipeError), os.fdopen(write_end, "wb") as fh:
            fh.write(data)

    thread = threading.Thread(target=feed)
    thread.start()
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)
        thread.join()


def test_pipe_is_read_in_blocks_up_to_the_limit(monkeypatch):
    data = encode(build_mum(2, "auto"))
    monkeypatch.setattr(serialize, "_CHUNK_BYTES", 64)
    monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", len(data))
    with pipe_holding(data) as path:
        assert load(path).rows.tobytes() == json_route(data).rows.tobytes()
    monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", len(data) - 1)
    with pipe_holding(data) as path, pytest.raises(SchemaError, match="above the limit"):
        load(path)


@pytest.mark.parametrize("kind, d", ENCODED)
def test_loaded_effects_are_the_json_loads_route_bits(tmp_path, monkeypatch, kind, d):
    path = tmp_path / "family.json"
    save(BUILDERS[kind](d), path)
    data = path.read_bytes()
    # every zero part written as -0.0, which re + 1j*im turns into 0.0 on both routes
    signed = re.sub(rb"(?<=[\[ ])0\.0(?=[,\]])", b"-0.0", data)
    assert signed.count(b"-0.0") > 0
    for variant in (data, signed):
        path.write_bytes(variant)
        with monkeypatch.context() as patched:
            results = parses(patched)
            assert load(path).rows.tobytes() == json_route(variant).rows.tobytes()
        assert results[0] is not None


CACHED = [(kind, d) for kind in ("mum", "gsm") for d in range(3, 7)]
# the distinct-valued family has about 25 distinct numbers a matrix, so with
# three rows cached the words and tokens (24 at most) are cleared partway
# through rows
CACHED += [("mub", 5), ("mub", 7), ("sic", 2), ("distinct gsm", 5)]


@pytest.mark.parametrize("chunk", [None, "row"])
@pytest.mark.parametrize("kind, d", CACHED)
def test_row_caches_cleared_every_few_rows_give_the_same_bytes_and_bits(
        tmp_path, monkeypatch, kind, d, chunk):
    family = BUILDERS[kind](d)
    path = tmp_path / "family.json"
    save(family, path)
    data, bits = path.read_bytes(), load(path).rows.tobytes()
    rows = effects_of(family).reshape(-1, d)
    assert len({row.tobytes() for row in rows}) > 3  # more distinct rows than the cache holds
    monkeypatch.setattr(serialize, "_ROW_CACHE_ROWS", 3)
    if chunk is not None:  # runs and blocks of about a row, so the caches clear between them
        monkeypatch.setattr(serialize, "_CHUNK_BYTES", chunk_bytes(data, chunk))
    assert encode(family) + b"\n" == data
    results = parses(monkeypatch)
    assert load(path).rows.tobytes() == bits
    assert results[0] is not None


# traced peaks over the bytes of the complex stack of the effects, at d=16:
# the build holds the packed rows, half a stack, and one POVM or block of
# generators (measured 0.69 mum, 1.01 gsm, where the stack took 1.13); save
# holds the recent rows' texts and a run of rows; load holds the rows and
# the parse's buffers; a load from a pipe holds one copy of the text
# besides, until the entity is validated
PEAK_FACTORS = {"build": 1.25, "save": 2.5, "load": 2.5, "load from a pipe": 3.5}


@pytest.mark.parametrize("kind", ["mum", "gsm"])
def test_build_save_and_load_peaks_stay_within_a_few_stacks(tmp_path, kind):
    path = tmp_path / "family.json"
    peak, family = traced_peak(lambda: BUILDERS[kind](16))
    stack = stack_bytes(family)
    peaks = {"build": peak}
    peaks["save"], _ = traced_peak(lambda: save(family, path))
    peaks["load"], loaded = traced_peak(lambda: load(path))
    assert loaded.rows.tobytes() == family.rows.tobytes()
    text = path.stat().st_size
    with pipe_fed(path.read_bytes()) as piped:
        peak, loaded = traced_peak(lambda: load(piped))
    peaks["load from a pipe"] = peak - text
    assert loaded.rows.tobytes() == family.rows.tobytes()
    for step, factor in PEAK_FACTORS.items():
        assert peaks[step] < factor * stack, (step, peaks[step] / stack)


@pytest.mark.parametrize("kind", ["mum", "gsm"])
def test_evaluator_holds_one_stack_beside_the_family(kind):
    """The evaluator reads the rows in place and keeps no stack of its own;
    verifying the fresh family inside it holds one tile of the Gram matrix,
    one product beside it and the tile's mask, or one unpacked block, freed
    before.  The construction peak measured 0.37 (mum) and 0.40 (gsm) of the
    complex stack."""
    family = BUILDERS[kind](16)
    peak, evaluator = traced_peak(lambda: DirectEvaluator(family))
    assert evaluator.rows is family.rows
    assert peak < 0.9 * stack_bytes(family), peak / stack_bytes(family)


# traced peaks over the bytes of the complex stack at d=24, where the whole
# Gram matrix is more than half a stack: verification holds one tile of the
# Gram matrix and its mask, a report one block of matrices and of their
# squares, and the encoder one unpacked run of rows and the texts of the
# recent rows; measured 0.08, 0.09-0.10 and 0.12-0.25 (blocks of 218 rows
# and every distinct row's text took 0.33-0.34 and 0.65-0.72)
LARGE_PEAK_FACTORS = {"verify": 0.2, "report": 0.25, "encode": 0.4}


@pytest.mark.parametrize("kind", ["mum", "gsm"])
def test_large_family_verify_report_and_encode_peaks_stay_under_a_stack(kind):
    family = BUILDERS[kind](24)
    stack = stack_bytes(family)
    peaks = {}
    peaks["verify"], report = traced_peak(lambda: verify(family))
    assert report.passed
    evaluator = DirectEvaluator(family)
    rho = random_density(24, 24, 5)
    peaks["report"], _ = traced_peak(lambda: evaluator.report(rho))
    peaks["encode"], sizes = traced_peak(
        lambda: [len(piece) for piece in serialize._matrix_pieces(family)])
    # runs of rows, made one at a time, each at most about a block
    assert len(sizes) > 1 and max(sizes) <= serialize._CHUNK_BYTES
    for step, factor in LARGE_PEAK_FACTORS.items():
        assert peaks[step] < factor * stack, (step, peaks[step] / stack)


# traced peaks over the bytes of the complex stack at d=24, the size of the
# benchmark's large-dim files: a build holds the family's packed rows, half a
# stack, and one POVM (mum) or block (gsm) of generators; load holds the rows,
# one block of whole matrices and the parse's buffers; measured 0.60-0.61
# and 0.72-0.73 (1.03-1.07 and 1.26-1.31 when the family was held as its
# complex stack)
PACKED_PEAK_FACTOR = 0.75


@pytest.mark.parametrize("kind", ["mum", "gsm"])
def test_large_family_build_and_load_peaks_stay_under_three_quarters_of_a_stack(tmp_path, kind):
    peaks = {}
    peaks["build"], family = traced_peak(lambda: BUILDERS[kind](24))
    path = tmp_path / "family.json"
    save(family, path)
    peaks["load"], loaded = traced_peak(lambda: load(path))
    assert loaded.rows.tobytes() == family.rows.tobytes()
    stack = stack_bytes(family)
    for step, peak in peaks.items():
        assert peak < PACKED_PEAK_FACTOR * stack, (step, peak / stack)


@pytest.mark.parametrize("d", [8, 16])
def test_no_verb_unpacks_more_than_a_block_of_matrices(tmp_path, monkeypatch, capsys, d):
    """Every layer reads a family's packed rows in place and forms its complex
    matrices a block of ``BLOCK_BYTES`` at a time: ``unpack`` raises here if
    asked for more.  A mum family of d=16 is 1.1 MiB of matrices."""
    asked, unpack = [], linalg.unpack

    def bounded(rows, dim, out=None):
        nbytes = linalg.COMPLEX_BYTES * len(rows) * dim * dim
        if nbytes > linalg.BLOCK_BYTES:
            raise AssertionError(f"unpack asked for {len(rows)} matrices, {nbytes} bytes")
        asked.append(len(rows))
        return unpack(rows, dim, out)

    for name, module in list(sys.modules.items()):
        if name == "bzinfo" or name.startswith("bzinfo."):
            for key, value in list(vars(module).items()):
                if value is unpack:
                    monkeypatch.setattr(module, key, bounded)
    state = tmp_path / "state.json"
    assert main(["state", "gen", "--dim", str(d), "--seed", "3", "--out", str(state)]) == 0
    for kind in ("mum", "gsm"):
        path = tmp_path / f"{kind}.json"
        for argv in (["gen", kind, "--dim", str(d), "--out", str(path)],
                     ["verify", "--measurement", str(path)],
                     ["bz", "--measurement", str(path), "--state", str(state)],
                     ["sample", "--measurement", str(path), "--state", str(state), "--shots", "1000",
                      "--estimate"],
                     ["sweep", "--measurement", str(path), "--dim", str(d), "--states", "5"],
                     ["sweep", "--kind", kind, "--dim", str(d), "--states", "5"]):
            assert main(argv) == 0, argv
    capsys.readouterr()
    assert asked  # the encoder, verification and the squares unpack


def test_no_source_names_the_removed_complex_stack():
    for path in Path(bzinfo.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "real_rows" not in text and ".effects" not in text, path.name


# traced peaks over the bytes of the complex stack at d=16, for families
# whose numbers hardly repeat: the words, texts, tokens and rows each clear
# when full, so the encoder holds a run of rows beside them and load the rows
# and one block; measured 1.22-1.30 and 1.79-1.90 (1.36-1.44 and 2.51-2.72
# when the family was held as its complex stack, 14.6-15.5 and 15.0-15.8
# with words and tokens kept for every distinct number)
DISTINCT_PEAK_FACTORS = {"encode": 1.5, "load": 3.0}


@pytest.mark.parametrize("kind", ["mum", "gsm"])
def test_distinct_valued_family_peaks_do_not_grow_with_its_numbers(tmp_path, monkeypatch, kind):
    family = distinct_valued(kind, 16)
    stack = stack_bytes(family)
    path = tmp_path / "family.json"
    save(family, path)
    peaks = {}
    peaks["encode"], _ = traced_peak(
        lambda: [len(piece) for piece in serialize._matrix_pieces(family)])
    peaks["load"], loaded = traced_peak(lambda: load(path))
    for step, factor in DISTINCT_PEAK_FACTORS.items():
        assert peaks[step] < factor * stack, (step, peaks[step] / stack)
    results = parses(monkeypatch)
    assert load(path).rows.tobytes() == loaded.rows.tobytes()
    assert results[0] is not None  # the direct parse read the file
    assert loaded.rows.tobytes() == json_route(path.read_bytes()).rows.tobytes()


def test_encoding_a_state_holds_a_few_matrices_beside_its_text():
    """A state's numbers hardly repeat.  Its text, about three matrices'
    bytes, is held as the runs and as their join, beside the recent words and
    rows; measured 9.1 matrices (19.4 with a word kept for every number)."""
    rho = random_density(100, 100, 1)
    peak, text = traced_peak(lambda: encode(rho))
    assert json.loads(text)["rho"][99][99][0] == rho[99, 99].real
    assert peak < 10 * rho.nbytes, peak / rho.nbytes


def test_dumping_a_wide_state_holds_a_few_runs_of_its_text():
    """A state's rows never repeat, and at large d each row's text is long:
    the encoder keeps the texts of at most four runs of rows, beside one run
    and the recent words; measured 0.39 of a matrix at d=600 (3.6 with 512
    rows' texts kept whatever their width)."""
    rho = random_density(600, 600, 7)
    peak, _ = traced_peak(lambda: serialize.dump(rho, lambda piece: None))
    assert peak < 0.5 * rho.nbytes, peak / rho.nbytes


def test_loading_a_small_state_reserves_no_large_buffer(tmp_path):
    path = tmp_path / "state.json"
    save(random_density(2, 2, 0), path)
    peak, rho = traced_peak(lambda: load(path))
    assert peak < 2**20
    np.testing.assert_array_equal(rho, random_density(2, 2, 0))


def test_dump_writes_whole_pieces_about_a_block_at_a_time(monkeypatch):
    family = build_gsm(5, "auto")
    monkeypatch.setattr(serialize, "_CHUNK_BYTES", 4096)
    writes = []
    serialize.dump(family, writes.append)
    assert b"".join(writes) == encode(family) + b"\n"
    assert len(writes) > 1
    assert max(map(len, writes)) < 2 * 4096


def test_gen_writes_stdout_as_save_writes_its_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(serialize, "_CHUNK_BYTES", 1000)
    path = tmp_path / "family.json"
    assert main(["gen", "gsm", "--dim", "4", "--out", str(path)]) == 0
    assert main(["gen", "gsm", "--dim", "4"]) == 0
    assert capsys.readouterr().out.encode("ascii") == path.read_bytes()
    # a text stream with no bytes below it, as a redirect to StringIO gives
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(["gen", "gsm", "--dim", "4"]) == 0
    assert text.getvalue().encode("ascii") == path.read_bytes()
