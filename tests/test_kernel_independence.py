"""The direct evaluation gives the same bits under every BLAS kernel.

OpenBLAS picks its kernel for the CPU when it loads, and the variable
``OPENBLAS_CORETYPE`` forces one in a child process.  ``probs`` and the
C_direct and purity columns of ``report_many`` come from real ``einsum``
contractions, which call no BLAS, so every kernel this CPU can run must give
the same bytes, whether the evaluator reads the effects in one block or in
blocks of five.  A change that turned them into a matmul would fail here.
The inputs are fixed arrays read from files: the seeded states' G G^dag and
the effects' squares (and so V_direct) are matmuls, whose bits may move.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import bzinfo
from bzinfo import build_gsm, build_mum, invariants, save
from bzinfo.states import density_batches

CHILD = r"""
import ctypes, glob, hashlib, os, sys
import numpy as np
from bzinfo import DirectEvaluator, invariants, load

default = invariants.BLOCK_BYTES
digests = []
for per_block in (None, 5):  # the default block, then blocks of five effects
    digest = hashlib.sha256()
    for family_path, states_path in zip(sys.argv[1::2], sys.argv[2::2]):
        family = load(family_path)
        states = np.load(states_path)
        invariants.BLOCK_BYTES = default if per_block is None else per_block * family.effects[0].nbytes
        evaluator = DirectEvaluator(family)
        for matrix in states:
            digest.update(evaluator.probs(matrix).tobytes())
        reports = evaluator.report_many(states)
        digest.update(reports.C_direct.tobytes())
        digest.update(reports.purity.tobytes())
    digests.append(digest.hexdigest())
core = "unknown"
for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")):
    corename = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
    if corename is not None:
        corename.restype = ctypes.c_char_p
        core = corename().decode()
print(core, *digests)
"""


def runnable_kernels() -> list[str]:
    """The OpenBLAS kernels this x86 CPU can run, from its /proc/cpuinfo flags."""
    flags = set()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("flags"):
                flags.update(line.split(":", 1)[1].split())
    kernels = ["Prescott"]
    if "avx2" in flags:
        kernels.append("Haswell")
    if "avx512f" in flags:
        kernels.append("SkylakeX")
    return kernels


def test_probs_c_and_purity_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    args = []
    for name, family in (("gsm3", build_gsm(3, "auto")), ("mum8", build_mum(8, "auto"))):
        d = family.dim
        # each family is one block of effects at the default size; the child also reads it in several
        assert family.effects.nbytes <= invariants.BLOCK_BYTES
        save(family, tmp_path / f"{name}.json")
        states = [m for rank in (1, d) for batch in density_batches(d, rank, 17, 40) for m in batch]
        np.save(tmp_path / f"{name}.npy", np.stack(states))
        args += [str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}.npy")]
    src = str(Path(bzinfo.__file__).resolve().parents[1])
    results = {}
    for kernel in runnable_kernels():
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        child = subprocess.run([sys.executable, "-c", CHILD, *args], env=env,
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        results[kernel] = child.stdout.split()
    cores = [core for core, *_ in results.values()]
    # each forced kernel is a different one, where the library can name it
    assert "unknown" in cores or len(set(cores)) == len(cores), results
    # one digest, for one block and for blocks of five effects, under every kernel
    assert len({digest for _, *digests in results.values() for digest in digests}) == 1, results
