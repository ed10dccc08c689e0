"""Deterministic Local SGD simulator and convergence-bound verification
toolkit for convex finite-sum problems."""

__version__ = "0.1.0"
