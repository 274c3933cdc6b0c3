"""Solver and certifier for the clamped biharmonic MEMS deflection problem
on the unit ball: minimal branch continuation, pull-in voltage estimation,
stability diagnostics, and exact-rational certificates for the closed-form
inequalities and dimension thresholds."""


class NoConvergentVoltage(RuntimeError):
    """branch.pull_in_voltage found no voltage above its 1e-12 floor at
    which the solver converges, so it has no bracket to report.  Defined
    here, without numpy, so that the command line catches it without
    loading the float engine."""
