"""Boundary heat-kernel coefficients for Dirac operators with chiral bag
boundary conditions: closed-form universal constants, direct spectral
verification on the disc/ball, and per-mode cylinder kernel checks."""

from .coefficients import universal_constants

__all__ = ["universal_constants"]

__version__ = "0.1.0"
