"""Names of the verification suites, in the order ``verify all`` runs them.

Each is a function of that name in :mod:`geojsd.verification`.  The names
live here so that the command-line parser can offer them without importing
the suites.
"""

SUITE_NAMES = ("counterexamples", "identities", "bounds", "gaussian_oracle",
               "mc_convergence")
