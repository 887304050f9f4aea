"""Lane rows that _walk_lanes fills through numpy Generator methods.

GenRows(gens) stands in for the walk's per-thread slot bank: lane i's
rows of exponentials and uniforms come from gens[i] through
standard_exponential(out=row) and random(out=row), so a test can walk
real streams, fixed draws or a generator that logs its calls.
"""

import numpy as np

from bdlab.process import _BLOCK


class GenRows:
    def __init__(self, gens):
        self.gens, self.n = gens, len(gens)
        self.exps, self.unis = np.empty((self.n, _BLOCK)), np.empty((self.n, _BLOCK))

    def fill_exps(self, lanes):
        for i in lanes:
            self.gens[i].standard_exponential(out=self.exps[i])

    def fill_unis(self, lanes):
        for i in lanes:
            self.gens[i].random(out=self.unis[i])
