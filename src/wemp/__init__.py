"""Multiscale exponential-sum solvers for time-fractional diffusion.

The pieces, bottom up: two-level meshes (mesh), P1 operators (fem), the
exponential-sum kernel compression (soe), Caputo time stepping (stepping),
the wavelet-edge multiscale space (msfem), sequential solvers (solvers), the
parareal engine (parareal), and the experiment harness (experiments, cli).
Import from the submodules, e.g. `from wemp.msfem import assemble_space`.
"""

__version__ = "0.1.0"
