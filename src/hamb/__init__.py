"""Exact counting, unbiased randomized estimation, and upper bounds for
Hamiltonian cycles in directed, symmetric-directed, and undirected graphs.

Import each name from its module; ``import hamb`` loads no submodule, so a
command that needs no numpy code never imports numpy.
"""
__version__ = "0.1.0"
