"""Tight-binding bands of graphene and single-wall carbon nanotubes.

Three-axes (Miller-index) lattice coordinates, exact integer tube symmetry
data, zone-folded band structure with magnetic flux, and a finite-matrix
spectral cross-check.
"""

from .geom import embed, inner
from .honeycomb import (
    SymmetryWord,
    apply_symmetry,
    bond_length_scale,
    distance,
    nearest_neighbors,
    next_nearest_neighbors,
    nu,
)
from .tube import (
    ChiralityError,
    TubeSymmetry,
    canonical_rep,
    canonicalize_chirality,
    class_neighbors,
    compose,
    decompose,
    diameter,
    tube_class,
    tube_symmetry,
    validate_chirality,
)
from .bands import (
    A_DEFAULT,
    BandParams,
    GapResult,
    band_gap,
    band_table,
    dispersion,
    flux_period,
    gap_vs_beta,
    graphene_E,
    is_metallic,
    magnetic_params,
    special_points,
    uniform_params,
)
from .oracle import (
    analytic_spectrum,
    build_finite_tube,
    build_hamiltonian,
    compare_spectra,
    eigenvalues,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
