"""The package's one default random seed.

Every seeded default — Monte-Carlo draws, sampled Pareto searches, the
CLI's ``--seed`` options, the wire schema's ``seed`` fields and the
benches — reads :data:`DEFAULT_SEED`, so one seed reproduces every
default study.
"""

#: The default seed of every seeded draw and sample.
DEFAULT_SEED = 20240623
