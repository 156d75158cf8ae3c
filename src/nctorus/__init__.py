"""Numerical spectral geometry of the noncommutative two torus."""

__version__ = "0.1.0"
