"""A fixed NumPy reference kernel, sampled while a workload runs.

The benchmark runs on shared machines whose speed drifts by a third or
more over minutes, for every process alike (other tenants take the
caches, the memory bandwidth and the cores' time). Wall time per
operation then moves with the machine, not with the program. A
`ReferenceClock` runs the same small kernel once a second from a
SIGALRM handler, so its samples are spread evenly over the timed
region, and keeps a clock that excludes the handler's own time. The
ratio of the workload's mean time per operation to the kernel's mean
time over the same stretch cancels the machine's drift; both are
reported.

The kernel uses only NumPy on arrays of its own, never the program under
test, so a change to the program moves the ratio by exactly its effect
on the workload. It mixes the kinds of work the workloads do: the
forward, weight-gradient and input-gradient GEMMs of a hypernetwork
output layer's shape (128 -> 8192) with an Adam-style update of its 1M
weights; the reverse pass of one sine layer of width 64 over 250 points
with three Jacobian columns, einsum contractions included; and a loop of
small-array calls bound by the interpreter. The einsum part matters: a
kernel of GEMMs and elementwise updates alone moved by about half as
much as the train epochs did when the machine's speed changed.
"""

import signal
import statistics
import time

import numpy as np


class ReferenceClock:
    """Samples the reference kernel every `interval` seconds while entered.

    The kernel writes into arrays made here and allocates nothing large,
    so its resident memory is a constant `nbytes`, which the runner takes
    out of the process's peak.
    """

    def __init__(self, interval=1.0):
        rng = np.random.default_rng(0)
        self.interval = interval
        # an output layer 128 -> 8192 over 64 rows, with Adam moments
        self.h = rng.standard_normal((64, 128))
        self.w = rng.standard_normal((128, 8192)) * 0.05
        self.y = np.empty((64, 8192))
        self.gw = np.empty((128, 8192))
        self.gh = np.empty((64, 128))
        self.m = np.zeros(self.w.size)
        self.v = np.zeros(self.w.size)
        self.t = np.empty(self.w.size)
        # a sine layer 64 -> 64 over 250 points with 3 Jacobian columns
        n, o, k = 250, 64, 3
        self.pre = rng.standard_normal((n, o))
        self.gz = rng.standard_normal((n, o))
        self.z_prev = rng.standard_normal((n, o))
        self.gjac = rng.standard_normal((n, o, k))
        self.jac_pre = rng.standard_normal((n, o, k))
        self.jac_prev = rng.standard_normal((n, o, k))
        self.lw = rng.standard_normal((o, o)) * 0.1
        self.c = np.empty((n, o))
        self.s = np.empty((n, o))
        self.gpre = np.empty((n, o))
        self.gz_out = np.empty((n, o))
        self.gjac_pre = np.empty((n, o, k))
        self.gjac_out = np.empty((n, o, k))
        self.lgw = np.empty((o, o))
        self.lgw_jac = np.empty((o, o))
        self.small = rng.standard_normal((64, 3))
        self.samples = []  # seconds per kernel run
        self.spent = 0.0  # seconds spent in the handler, kernel included
        self._busy = False
        self._previous = None
        self.kernel()  # touches every page before anything is measured

    @property
    def nbytes(self):
        return sum(a.nbytes for a in vars(self).values() if isinstance(a, np.ndarray))

    def kernel(self):
        # forward, weight gradient and input gradient of the output layer
        np.matmul(self.h, self.w, out=self.y)
        np.matmul(self.h.T, self.y, out=self.gw)
        np.matmul(self.y, self.w.T, out=self.gh)
        # Adam-style moments and step on that weight gradient
        g, m, v, t = self.gw.reshape(-1), self.m, self.v, self.t
        m *= 0.9
        np.multiply(g, 0.1, out=t)
        m += t
        v *= 0.999
        np.multiply(g, g, out=t)
        t *= 0.001
        v += t
        np.sqrt(v, out=t)
        t += 1e-8
        np.divide(m, t, out=t)
        t *= 1e-6
        self.w.reshape(-1)[:] -= t
        # reverse pass through the sine layer, values and Jacobians
        c, s = self.c, self.s
        np.multiply(self.pre, 30.0, out=c)
        np.sin(c, out=s)
        np.cos(c, out=c)
        c *= 30.0
        np.multiply(self.gz, c, out=self.gpre)
        np.einsum("nok,nok->no", self.gjac, self.jac_pre, out=s)
        s *= 900.0
        self.gpre -= s
        np.multiply(self.gjac, c[:, :, None], out=self.gjac_pre)
        np.matmul(self.gpre.T, self.z_prev, out=self.lgw)
        np.matmul(self.gpre, self.lw, out=self.gz_out)
        np.einsum("nok,nik->oi", self.gjac_pre, self.jac_prev, out=self.lgw_jac)
        np.matmul(self.lw.T, self.gjac_pre, out=self.gjac_out)
        # small-array calls, bound by the interpreter
        total = 0.0
        for _ in range(300):
            total += float(np.linalg.norm(self.small @ self.small.T[:, :3]))
        return total

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def clock(self):
        """perf_counter minus the time spent in the sampling handler."""
        return time.perf_counter() - self.spent

    def mean_s(self):
        return statistics.fmean(self.samples) if self.samples else float("nan")

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._tick(None, None)  # a run shorter than the interval still has a sample
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
