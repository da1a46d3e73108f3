"""Byte-for-byte pins of the CLI output for fixed inputs and seeds.

Each digest is the sha256 of a command's stdout or output file.  A change
to any of them means the library no longer reproduces earlier output bit
for bit: construction, float formatting, key order or random streams moved.
"""

import hashlib

import pytest

from bzinfo import encode, load
from bzinfo.cli import main

GEN = {
    ("mum", "--dim", "3"): "fd8eb3fe52489afbea6027baa371ac911c17a532129f178f9e8cad4b5b6543d8",
    ("gsm", "--dim", "3"): "7450914987bc75193f9619ffbfb96a84426305ff37e6b65ddbcfba8134a45d15",
    ("mub", "--dim", "5"): "369f650ecd8035afb3b8115592da87bc3bb7ea608cd2d07d9ba4246af8b46e88",
    ("sic2",): "1638b59cbbad68b3ca203c78525eec9114da527b8ba07615d8e7c1dc3fa57a39",
    ("mum", "--dim", "6"): "ed5d3e019f6443e47f7fe0d34adae4edcdbb5754dfe9d917251888266f8af1b8",
    ("gsm", "--dim", "6"): "e7adc831c4dc89ac221ed29235e880201b3e03451a9cda4879e4bb6e398509d0",
    # a few hundred distinct values repeated over tens of thousands of entries
    ("mum", "--dim", "12"): "9b53ec1274b1dfe3182d8fec02bb2f3f2555b74e0cb352fbbb538b12a3b2d2d7",
    ("gsm", "--dim", "12"): "03318d7a803bb93a04e7a3df61d6375d833b6765f771bde14bf8ceb334eea182",
    ("mub", "--dim", "11"): "34107770537684d3ffd2448739af040313393eb34496d40876cf29d4175adffa",
    # an explicit t below the positivity bound
    ("mum", "--dim", "4", "--t", "0.05"): "30c84ff6e0af1165027dac579c636f80ae81e2cccf8fdec4ca4e670c446e8ef6",
    ("gsm", "--dim", "4", "--t", "0.003"): "aeb22f5397857d9764637bebc802d49e95d4687d762a169885349974758990c6",
}
# verify --json prints the ~1e-16 rounding residues of the overlap checks, so
# these pins follow the arithmetic of the Gram matrix (one real product of the
# effects' float64 view with itself)
VERIFY = {
    "mum": "742f03d926ca6366429a1c73d2e3f479c7c293ef2d46bb8fdb7ef0c612c2ea9c",
    "gsm": "0b1fdfa91c0a9a4540f4ddaed8025c0df40ffe67872cd5d1f4a2d550b21f203d",
    "mub": "85690e4d6717a804b71b851d650afdfd15110c7aa068c679ac19516a350f26ba",
}
# bz and sweep take their traces from one real contraction of float64 views
# per batch of states (DirectEvaluator.report_many)
BZ = {
    "mum": "ab0948f7b74e4011d35b7f9a5928b87463fe93c17151de913b14d9cc946db400",
    "gsm": "bdc92c73b17a088074dd6bd79afa78f1cf10f72b4b75e08f381d45ffb8b9ec8d",
}
# sweep state i is the i-th state of one Philox(seed) stream
SWEEP = {
    ("--dim", "3", "--states", "50", "--seed", "123"):
        "d3a03b1806d0677eec5135298d2312b37734999a7d5aabc850d583bee57afc9f",
    ("--kind", "mub", "--dim", "3", "--states", "20", "--seed", "9"):
        "beec748d881e2452ebbcf542c376734f9d9b93b9e95ba47d2ef0a33de9f17ec5",
    ("--kind", "gsm", "--dim", "2", "--states", "20", "--seed", "9"):
        "b7e30985da1f6308c7c5865c599f4db5d6bb252747cd6d257d3d049f5306d028",
    ("--kind", "sic2", "--dim", "2", "--states", "20", "--seed", "9"):
        "e6b79911e011a1b4146f055a4a3d04acda02031d1ff8ccb581977f75c760e311",
}
# counts are one Generator.multinomial draw per POVM, POVM after POVM from
# one Philox(seed) stream, so this pin follows the sampling method as well
# as the seed
SAMPLE_COUNTS = "697b79d7c696a7109b10bba6c539b0b6b996670f3cd00e2537d91986f23c421c"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stdout_digest(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return sha256(capsys.readouterr().out.encode("utf-8"))


@pytest.fixture
def files(tmp_path, capsys):
    paths = {name: str(tmp_path / f"{name}.json") for name in ("mum", "gsm", "mub", "s3", "s5")}
    for argv in (
        ["gen", "mum", "--dim", "3", "--out", paths["mum"]],
        ["gen", "gsm", "--dim", "3", "--out", paths["gsm"]],
        ["gen", "mub", "--dim", "5", "--out", paths["mub"]],
        ["state", "gen", "--dim", "3", "--seed", "7", "--out", paths["s3"]],
        ["state", "gen", "--dim", "5", "--rank", "1", "--seed", "7", "--out", paths["s5"]],
    ):
        assert main(argv) == 0
    capsys.readouterr()
    return paths


@pytest.mark.parametrize("argv", sorted(GEN))
def test_gen_bytes(capsys, argv):
    assert stdout_digest(capsys, "gen", *argv) == GEN[argv]


def test_gen_file_matches_stdout(files):
    with open(files["mum"], "rb") as fh:
        assert sha256(fh.read()) == GEN[("mum", "--dim", "3")]


@pytest.mark.parametrize("argv", sorted(GEN))
def test_gen_file_decodes_and_reencodes_to_its_bytes(tmp_path, argv):
    path = tmp_path / "family.json"
    assert main(["gen", *argv, "--out", str(path)]) == 0
    data = path.read_bytes()
    assert sha256(data) == GEN[argv]
    assert encode(load(path)) == data[:-1]  # all but the newline save appends


@pytest.mark.parametrize("kind", sorted(VERIFY))
def test_verify_json_bytes(capsys, files, kind):
    digest = stdout_digest(capsys, "verify", "--measurement", files[kind], "--json")
    assert digest == VERIFY[kind]


@pytest.mark.parametrize("kind", sorted(BZ))
def test_bz_json_bytes(capsys, files, kind):
    digest = stdout_digest(
        capsys, "bz", "--measurement", files[kind], "--state", files["s3"], "--json"
    )
    assert digest == BZ[kind]


@pytest.mark.parametrize("kind", sorted(BZ))
def test_bz_report_file_bytes(capsys, files, tmp_path, kind):
    out = tmp_path / "report.json"
    argv = ["bz", "--measurement", files[kind], "--state", files["s3"], "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    assert sha256(out.read_bytes()) == BZ[kind]


@pytest.mark.parametrize("argv", sorted(SWEEP))
def test_sweep_bytes(capsys, argv):
    assert stdout_digest(capsys, "sweep", *argv) == SWEEP[argv]


def test_sample_count_file_bytes(capsys, files, tmp_path):
    out = tmp_path / "counts.json"
    argv = ["sample", "--measurement", files["mub"], "--state", files["s5"],
            "--shots", "1000", "--seed", "1", "--estimate", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert sha256(out.read_bytes()) == SAMPLE_COUNTS
