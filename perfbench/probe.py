"""Machine-speed probes for rescaling wall times to a reference speed.

On a machine whose cores are shared with other tenants, the speed a process
gets drifts by up to 2x.  It switches between a fast and a slow state in
phases from a fraction of a second to minutes, and a slow phase can cover a
whole run.  A fixed kernel is timed before the first op of a pass and after
every op.  An op's time is multiplied by the kernel's reference time over
the probes near it, so that it reads as seconds at the reference speed:
either the median probe of the whole pass, or the median of the ``window``
probes on each side of the op, which follows the switches between states
within a pass.  The program under test never runs inside a
probe, so its own speed-ups and slow-downs show in full.  Raw wall times are
reported beside the rescaled ones.

There are two kernels, and a workload names the one closest to its inner
loops (``PROBE`` in its module, with ``PROBE_WINDOW``):

- ``int``: method calls doing small-int modular arithmetic over exponent
  tuples, as in level-1 evaluation;
- ``ext``: a dense cubic in five variables evaluated at points of GF(7^4),
  with coefficient tuples, as in extension-level arithmetic.

Both reference times are for the same machine speed: ``ext`` was calibrated
against ``int`` by timing them alternately.
"""

from __future__ import annotations

import random
import statistics
import time

import checks
import gen


class _Field:
    def __init__(self, p):
        self.p = p

    def mul(self, a, b):
        return (a * b) % self.p

    def add(self, a, b):
        return (a + b) % self.p


_INT_TERMS = [((i % 4, (i // 4) % 4, (i // 16) % 4), i % 7 + 1)
              for i in range(20)]


def _int_kernel():
    F = _Field(10007)
    acc = 0
    for r in range(450):
        vals = (r % 97 + 1, r % 89 + 2, r % 83 + 3)
        for exps, c in _INT_TERMS:
            t = c
            for v, e in zip(vals, exps):
                for _ in range(e):
                    t = F.mul(t, v)
            acc = F.add(acc, t)
    return acc


_rng = random.Random(5)
_EXT_TERMS = {e: _rng.randrange(1, 7) for e in gen.monomials(4)}
_EXT_FIELD = checks.Field(7, [3, 1, 0, 0, 1])
_EXT_POINTS = [tuple(tuple(_rng.randrange(7) for _ in range(4))
                     for _ in range(5)) for _ in range(3)]


def _ext_kernel():
    return [checks.eval_form(_EXT_TERMS, pt, _EXT_FIELD) for pt in _EXT_POINTS]


# kernel, its seconds at reference speed
KERNELS = {"int": (_int_kernel, 0.010), "ext": (_ext_kernel, 0.00137)}


def measure(kind="int"):
    """Seconds the kernel takes now."""
    kernel = KERNELS[kind][0]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Sampler:
    """Probes taken while a batch of timed intervals runs."""

    def __init__(self, kind="int", count=1):
        self.kind = kind
        self.probes = []
        KERNELS[kind][0]()            # untimed: warms the kernel's code paths
        self.tick(count)

    def tick(self, count=1):
        """Call after each timed interval; takes ``count`` probes."""
        for _ in range(count):
            self.probes.append(measure(self.kind))

    def scale(self):
        """The factor to reference-speed times, from all the probes."""
        return KERNELS[self.kind][1] / statistics.median(self.probes)

    def scales(self, n, window):
        """One factor per interval, for n intervals with one probe before
        the first and one after each; window 0 gives ``scale()`` to all."""
        if not window:
            return [self.scale()] * n
        ref, pr = KERNELS[self.kind][1], self.probes
        return [ref / statistics.median(pr[max(0, i + 1 - window):
                                           i + 1 + window])
                for i in range(n)]
