"""Frozen seed oracles.

* :mod:`repro.bench.seed_kernel` — the pre-compilation evaluation kernel,
  the well-founded oracle of the property suite and of the repository
  benchmark (``perfbench/``);
* :mod:`repro.bench.seed_grounder` — the pre-compilation grounder, the
  differential oracle of the grounder property suite.
"""

from repro.bench.seed_kernel import SeedGroundGraphState

__all__ = ["SeedGroundGraphState"]
