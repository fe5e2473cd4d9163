"""Tight-binding bands of graphene and single-wall carbon nanotubes.

Three-axes (Miller-index) lattice coordinates, exact integer tube symmetry
data, zone-folded band structure with magnetic flux, and a finite-matrix
spectral cross-check.  Import the modules (`cntbands.tube`, `cntbands.bands`,
...); the package itself loads none of them.
"""

__version__ = "0.1.0"
