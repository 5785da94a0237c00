"""Exact multipacking solvers, hardness-reduction generators, and certifiers."""
