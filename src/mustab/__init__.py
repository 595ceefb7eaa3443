"""Stability certification for positive nonlinear systems with unbounded
time-varying delays: structure checks, the anisotropic change of variables,
the margin criterion with its asymptotic limit pair, long-horizon delayed
integration, and decay-rate fitting."""

__version__ = "0.1.0"

from . import criterion, dde, fields, pipeline, rates, transform  # noqa: F401
