"""Feature selection and multi-dimensional subset scanning for tabular data.

Each stage lives in its own module, and each name is imported from the
module that defines it; importing the package loads none of them.

- ``featscan.tabular``: schema, CSV load and write, discretization, one-hot.
- ``featscan.filters``: pairwise statistics and the filter cascade.
- ``featscan.wrapper``: OLS fits and backward elimination.
- ``featscan.embedded``: the two GBM presets, importances, committee vote.
- ``featscan.mdss``: the Bernoulli score and the subset scan.
- ``featscan.inference``: bootstrap p-value, odds ratio, characterization.
- ``featscan.synth``: synthetic data with a planted subgroup.
- ``featscan.cli``: the ``select``, ``scan``, ``sweep`` and ``synth`` commands.
- ``featscan.errors``, ``.reportio``, ``.special``: error classes and their
  exit codes, report writing, special functions.
"""
