"""Exact cylinder-space toolkit for finite fuzzy topologies.

Everything is computed over rational scalars with zero-tolerance equality:
membership-graph regions on the cylinder X x [0,1), the induced base
topology, a certified deformation retraction onto the zero slice, a closed
path DSL whose continuity is decided exactly at the breakpoints of each
path, and the complement-as-path-inversion decision procedure.  Import each
name from the module that defines it, ``from fuzzcyl.cylinder import
tstar``: this module imports nothing.
"""
