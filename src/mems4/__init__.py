"""Solver and certifier for the clamped biharmonic MEMS deflection problem
on the unit ball: minimal branch continuation, pull-in voltage estimation,
stability diagnostics, and exact-rational certificates for the closed-form
inequalities and dimension thresholds."""
