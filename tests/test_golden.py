"""Byte-for-byte pins of the CLI output for fixed inputs and seeds.

Each digest is the sha256 of a command's stdout or output file.  A change
to any of them means the library no longer reproduces earlier output bit
for bit: construction, float formatting, key order or random streams moved.
"""

import hashlib

import pytest

from bzinfo.cli import main

GEN = {
    ("mum", "--dim", "3"): "fd8eb3fe52489afbea6027baa371ac911c17a532129f178f9e8cad4b5b6543d8",
    ("gsm", "--dim", "3"): "7450914987bc75193f9619ffbfb96a84426305ff37e6b65ddbcfba8134a45d15",
    ("mub", "--dim", "5"): "369f650ecd8035afb3b8115592da87bc3bb7ea608cd2d07d9ba4246af8b46e88",
    ("sic2",): "1638b59cbbad68b3ca203c78525eec9114da527b8ba07615d8e7c1dc3fa57a39",
    ("mum", "--dim", "6"): "ed5d3e019f6443e47f7fe0d34adae4edcdbb5754dfe9d917251888266f8af1b8",
    ("gsm", "--dim", "6"): "e7adc831c4dc89ac221ed29235e880201b3e03451a9cda4879e4bb6e398509d0",
}
# verify --json prints the ~1e-16 rounding residues of the overlap checks, so
# these pins follow the arithmetic of the Gram matrix (one BLAS product)
VERIFY = {
    "mum": "742f03d926ca6366429a1c73d2e3f479c7c293ef2d46bb8fdb7ef0c612c2ea9c",
    "gsm": "0b1fdfa91c0a9a4540f4ddaed8025c0df40ffe67872cd5d1f4a2d550b21f203d",
    "mub": "5c8142a10449a3d1d47be6143f252073f91dc4a58da3828ecf0753d85f9e805b",
}
BZ = {
    "mum": "599fa194d28665705024f29b4016ae0f77eddd2d9610ea7cb06d244e0fbbcd16",
    "gsm": "fc521abed8bd498ef7d2ef135df75a1e2e9966a2f019a39b52588b3b9f809d31",
}
SWEEP = {
    ("--dim", "3", "--states", "50", "--seed", "123"):
        "d1297fb9f14192138e0ec6a36eaabc24bf4d1c1429890268d5245a65d0d10027",
    ("--kind", "mub", "--dim", "3", "--states", "20", "--seed", "9"):
        "63d95c9136337f055974e94d463fa1a284d3cd3e9a6b1b4b5d548129b8fe91f2",
    ("--kind", "gsm", "--dim", "2", "--states", "20", "--seed", "9"):
        "1e71b03358ef2ca3cff84e2e7c02e3e976d1b8b4cfcc369890e95d1a3b9661b0",
    ("--kind", "sic2", "--dim", "2", "--states", "20", "--seed", "9"):
        "db285307fd27d2cbf2e4d9730b569c31319d780a6396fdc5acb0fce8cb8315a8",
}
# counts are one Generator.multinomial draw per POVM, so this pin follows
# the sampling method as well as the seed
SAMPLE_COUNTS = "cd3679383d80c50d0e0cc8d9a879849227541c5ed3af34a19f0d81568470aa40"


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
