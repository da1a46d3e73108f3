"""Complementary quantum measurements and invariant-information numerics.

Builds complete families of mutually unbiased measurements, general SIC
measurements, prime-dimension mutually unbiased bases and the qubit
tetrahedron SIC-POVM; computes total variance, index of coincidence and
the invariant information/uncertainty of arbitrary density matrices both
by direct summation and by closed form; and simulates finite-shot
measurement statistics.
"""

__version__ = "0.1.0"

# the library calls nothing in _kernels; the benchmark's tracer
# (perfbench/tracing.py) wraps its functions and looks the module up among
# the loaded bzinfo modules
from . import _kernels  # noqa: F401
from .basis import MumGrid, OperatorBasis, gell_mann_basis, grid_partition
from .errors import (
    BzinfoError,
    DomainError,
    NumericalError,
    PositivityError,
    SchemaError,
    VerificationError,
)
from .invariants import (
    BzReport,
    BzReports,
    ClosedForms,
    DirectEvaluator,
    bz_report,
    closed_forms,
)
from .linalg import expectation, herm_eig, hermitian, purity, variance
from .measurements import (
    Family,
    VerificationReport,
    build_gsm,
    build_mub,
    build_mum,
    gsm_a,
    max_t_gsm,
    max_t_mum,
    mum_kappa,
    sic2_fixture,
    verify,
)
from .sampler import CountTable, estimate_bz_info, estimate_coincidence, sample_outcomes
from .serialize import decode, encode, load, save
from .states import (
    DensityMatrix,
    density_stream,
    maximally_mixed,
    random_density,
    validate_state,
)

__all__ = [
    "BzReport",
    "BzReports",
    "BzinfoError",
    "ClosedForms",
    "CountTable",
    "DensityMatrix",
    "DirectEvaluator",
    "DomainError",
    "Family",
    "MumGrid",
    "NumericalError",
    "OperatorBasis",
    "PositivityError",
    "SchemaError",
    "VerificationError",
    "VerificationReport",
    "build_gsm",
    "build_mub",
    "build_mum",
    "bz_report",
    "closed_forms",
    "decode",
    "density_stream",
    "encode",
    "estimate_bz_info",
    "estimate_coincidence",
    "expectation",
    "gell_mann_basis",
    "grid_partition",
    "gsm_a",
    "herm_eig",
    "hermitian",
    "load",
    "max_t_gsm",
    "max_t_mum",
    "maximally_mixed",
    "mum_kappa",
    "purity",
    "random_density",
    "sample_outcomes",
    "save",
    "sic2_fixture",
    "validate_state",
    "variance",
    "verify",
]
