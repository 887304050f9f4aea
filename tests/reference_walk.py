"""Block-draw reference loops for the chain xi and the reference walk zeta.

One path per call, written draw by draw in plain Python and sharing no
code with bdlab.process's lane walk: rows of 128 exponentials and of 128
uniforms, each fetched when the last one runs out, a holding time that
is zero or does not move t drawn again, and the chain's rates read from
birth_rate and death_rate at every state it enters.  The tests hold the
lane walk, and simulate_xi/simulate_zeta with it, against these loops.
"""

from bdlab.process import birth_rate, death_rate


class ReferenceDraws:
    """Exponentials and uniforms from gen, a sized row of 128 at a time."""

    def __init__(self, gen):
        self._gen = gen
        self._exp = []
        self._uni = []
        self._ei = 0
        self._ui = 0

    def exponential(self):
        if self._ei >= len(self._exp):
            self._exp = self._gen.standard_exponential(128).tolist()
            self._ei = 0
        v = self._exp[self._ei]
        self._ei += 1
        return v

    def uniform(self):
        if self._ui >= len(self._uni):
            self._uni = self._gen.random(128).tolist()
            self._ui = 0
        v = self._uni[self._ui]
        self._ui += 1
        return v


def _advance(draws, t, rate):
    while True:
        dt = draws.exponential()
        if dt == 0.0:
            continue
        t_next = t + dt / rate
        if t_next > t:
            return t_next


def reference_xi(model, T, gen):
    """(jump times, jump signs) of the chain from 0 on [0, T], drawn from gen."""
    draws = ReferenceDraws(gen)
    t, x = 0.0, 0
    times, signs = [], []
    while True:
        lam = birth_rate(model, x)
        eta = lam + death_rate(model, x)
        t = _advance(draws, t, eta)
        if t >= T:
            break
        if draws.uniform() < lam / eta:
            x += 1
            signs.append(1)
        else:
            x -= 1
            signs.append(-1)
        times.append(t)
    return tuple(times), tuple(signs)


def reference_zeta(T, gen):
    """(jump times, jump signs) of the reference walk on [0, T], drawn from gen."""
    draws = ReferenceDraws(gen)
    t = 0.0
    times, signs = [], []
    while True:
        t = _advance(draws, t, 1.0)
        if t >= T:
            break
        signs.append(1 if draws.uniform() < 0.5 else -1)
        times.append(t)
    return tuple(times), tuple(signs)
