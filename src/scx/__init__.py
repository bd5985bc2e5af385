"""Exact algebra of S-complexes from equivariant singular instanton
theory: rings, matrices, complexes, equivariant invariants, knot
generators and a command line."""

from . import equivariant, knots, linalg, rings, scomplex
from .equivariant import (INFINITY, ModulePresentation, bn_presentation,
                          gamma, h_invariant, hat_presentation, j_ideals,
                          verify_model_equivalence)
from .knots import (ModuliCertificate, count_N1N2, fixture, lens_sasahira,
                    solve_k1k2, torus_alexander, torus_signature,
                    two_bridge_complex, two_bridge_signature_oracle,
                    vanishing_check)
from .linalg import Matrix, homology, kernel_basis, smith_normal_form
from .rings import LaurentPoly, Ring, base_change, divide, parse
from .scomplex import (Generator, SComplex, SMorphism, base_change_complex,
                       check_morphism, dual, euler_characteristic,
                       sharp_complex, tensor, validate)

__all__ = [
    "INFINITY", "ModulePresentation", "bn_presentation", "gamma",
    "h_invariant", "hat_presentation", "j_ideals", "verify_model_equivalence",
    "ModuliCertificate", "count_N1N2", "fixture", "lens_sasahira",
    "solve_k1k2", "torus_alexander", "torus_signature", "two_bridge_complex",
    "two_bridge_signature_oracle", "vanishing_check", "Matrix", "homology",
    "kernel_basis", "smith_normal_form", "LaurentPoly", "Ring",
    "base_change", "divide", "parse", "Generator", "SComplex", "SMorphism",
    "base_change_complex", "check_morphism", "dual", "euler_characteristic",
    "sharp_complex", "tensor", "validate", "cli", "equivariant", "knots",
    "linalg", "rings", "scomplex",
]

__version__ = "0.1.0"
