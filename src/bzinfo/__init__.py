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
from .basis import gell_mann_basis
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
    ClosedForms,
    DirectEvaluator,
    closed_forms,
)
from .linalg import hermitian, purity
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
from .states import maximally_mixed, random_density, validate_state

__all__ = [
    "BzReport",
    "BzinfoError",
    "ClosedForms",
    "CountTable",
    "DirectEvaluator",
    "DomainError",
    "Family",
    "NumericalError",
    "PositivityError",
    "SchemaError",
    "VerificationError",
    "VerificationReport",
    "build_gsm",
    "build_mub",
    "build_mum",
    "closed_forms",
    "decode",
    "encode",
    "estimate_bz_info",
    "estimate_coincidence",
    "gell_mann_basis",
    "gsm_a",
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
    "verify",
]
