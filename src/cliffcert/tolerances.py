"""Shared numerical tolerances.

Each value sits roughly an order of magnitude above the rounding error
accumulated by double-precision arithmetic at the largest dense dimension
the package supports (2**14).  Functions take these as overridable keyword
defaults; the CLI surfaces the two that users commonly relax.
"""

HERMITICITY = 1e-10    # max |M - M^H| entry accepted for a valid state
TRACE = 1e-10          # |Tr(rho) - 1| accepted (then renormalized)
PSD = 1e-9             # eigenvalues >= -PSD count as positive semidefinite
RECONSTRUCTION = 1e-8  # entrywise error for expansion / projection round trips
ORTHOGONALITY = 1e-10  # max |T T^t - 1| entry for orthogonal-matrix inputs
LIFT_ROUNDING = 1000   # rotor-lift allows LIFT_ROUNDING * (2n+1) * eps of probe residual
OPTIMIZATION = 1e-6    # gap tolerance for numeric minimization
CONCAVITY = 1e-12      # allowed positive excursion of the analytic curvature
DENSE_GUARD = 14       # largest qubit count for dense 2**n x 2**n work
MEMORY_BUDGET = 2**32  # bytes one minimizer phase or one lift may hold at once
