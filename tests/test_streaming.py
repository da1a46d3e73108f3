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
import tracemalloc

import numpy as np
import pytest

import bzinfo
from bzinfo import (
    SchemaError,
    build_gsm,
    build_mub,
    build_mum,
    encode,
    load,
    random_density,
    save,
    sic2_fixture,
)
from bzinfo import serialize
from bzinfo.cli import main
from bzinfo.invariants import DirectEvaluator

SEPARATOR = b"]], [["
BUILDERS = {
    "mum": lambda d: build_mum(d, "auto"),
    "gsm": lambda d: build_gsm(d, "auto"),
    "mub": build_mub,
    "sic": lambda d: sic2_fixture(),
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
    assert a.effects.tobytes() == b.effects.tobytes()


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
        assert load(path).effects.tobytes() == json_route(data).effects.tobytes()
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
            assert load(path).effects.tobytes() == json_route(variant).effects.tobytes()
        assert results[0] is not None


def traced_peak(thunk):
    """The peak of traced memory while ``thunk`` runs, and its result."""
    tracemalloc.start()
    try:
        result = thunk()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


# traced peaks over the bytes of the effects, at d=16: the build holds its
# basis (or grid) and its generators, which become the effects; save holds the
# distinct rows' texts and a block; load holds the stack and the parse's
# buffers, and verification reads the stack in place beside a real Gram matrix
# of half its size; a load from a pipe holds one copy of the text besides,
# until the entity is validated
PEAK_FACTORS = {"build": 2.5, "save": 2.5, "load": 2.5, "load from a pipe": 3.5}


@pytest.mark.parametrize("kind", ["mum", "gsm"])
def test_build_save_and_load_peaks_stay_within_a_few_stacks(tmp_path, kind):
    path = tmp_path / "family.json"
    peak, family = traced_peak(lambda: BUILDERS[kind](16))
    stack = family.effects.nbytes
    peaks = {"build": peak}
    peaks["save"], _ = traced_peak(lambda: save(family, path))
    peaks["load"], loaded = traced_peak(lambda: load(path))
    assert loaded.effects.tobytes() == family.effects.tobytes()
    text = path.stat().st_size
    with pipe_fed(path.read_bytes()) as piped:
        peak, loaded = traced_peak(lambda: load(piped))
    peaks["load from a pipe"] = peak - text
    assert loaded.effects.tobytes() == family.effects.tobytes()
    for step, factor in PEAK_FACTORS.items():
        assert peaks[step] < factor * stack, (step, peaks[step] / stack)


@pytest.mark.parametrize("kind", ["mum", "gsm"])
def test_evaluator_holds_one_stack_beside_the_family(kind):
    """The evaluator reads the effects in place and forms their squares only on
    first use; verifying the fresh family inside it holds a Gram matrix, freed
    before.  The construction peak measured 0.80 (mum) and 0.69 (gsm) of a
    stack, under the one stack the squares would add."""
    family = BUILDERS[kind](16)
    peak, evaluator = traced_peak(lambda: DirectEvaluator(family))
    assert np.shares_memory(evaluator.observables, family.effects)
    assert peak < 0.9 * family.effects.nbytes, peak / family.effects.nbytes


def test_loading_a_small_state_reserves_no_large_buffer(tmp_path):
    path = tmp_path / "state.json"
    save(random_density(2, 2, 0), path)
    peak, rho = traced_peak(lambda: load(path))
    assert peak < 2**20
    np.testing.assert_array_equal(rho.matrix, random_density(2, 2, 0).matrix)


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
