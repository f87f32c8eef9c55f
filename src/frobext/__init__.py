"""Frobenius-twisted module calculus over F_q[x1..xd]: Artin-Schreier
solvers, Cartier-linear structures and their two-step presentations, mapping
cones, Ext computations with truncation certificates, and a scenario CLI.
Each name is imported from its own module; the package root exports none."""
