"""Full-history trapezoid quadrature: the reference for ``HistoryBuffer``.

Stores every pushed snapshot, the i-th at t_i = i dt, and evaluates the
three memory quantities at the newest push by composite-trapezoid
quadrature with the exact kernel g, at O(N n) cost per evaluation.  Same
interface as ``HistoryBuffer``, so a test can substitute it into the
stepper.
"""

from __future__ import annotations

import numpy as np


class FullHistory:
    def __init__(self, kernel, n_dofs: int, dt: float, n_steps: int):
        self.kernel = kernel
        self.dt = dt
        self._n_dofs = n_dofs
        self._u = None
        self._ku: list[np.ndarray] = []
        self._q: list[float] = []

    @property
    def n_entries(self) -> int:
        return len(self._ku)

    def diagnostics(self) -> dict:
        return {}

    @property
    def next_ku(self) -> np.ndarray:
        """A new array for the next K u; the push copies whatever it gets."""
        return np.empty(self._n_dofs)

    def push(self, u: np.ndarray, ku: np.ndarray, q: float) -> None:
        self._u = np.array(u, dtype=float)
        self._ku.append(np.array(ku, dtype=float))
        self._q.append(float(q))

    def _weighted(self, prime: bool) -> np.ndarray:
        ts = self.dt * np.arange(len(self._ku))
        w = np.full(len(ts), self.dt)
        w[0] = w[-1] = self.dt / 2.0
        if len(ts) == 1:
            w[0] = 0.0
        ages = ts[-1] - ts
        g = self.kernel.g_prime(ages) if prime else self.kernel.g(ages)
        return w * g

    def convolution_force(self, m_kir: float, out: np.ndarray) -> np.ndarray:
        return np.subtract(self._weighted(prime=False) @ np.array(self._ku),
                           m_kir * self._ku[-1], out=out)

    def g_diamond(self) -> float:
        return self._diamond(prime=False)

    def g_prime_diamond(self) -> float:
        return self._diamond(prime=True)

    def _diamond(self, prime: bool) -> float:
        u_now = self._u
        gw = self._weighted(prime)
        ku_h = np.array(self._ku)
        q_now = float(u_now @ ku_h[-1])
        val = gw.sum() * q_now - 2.0 * float(u_now @ (gw @ ku_h)) + float(gw @ np.array(self._q))
        return min(val, 0.0) if prime else max(val, 0.0)
