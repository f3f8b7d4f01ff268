"""Full-history trapezoid quadrature: the reference for ``HistoryBuffer``.

Stores every pushed snapshot and evaluates the three memory quantities by
composite-trapezoid quadrature with the exact kernel g, at O(N n) cost per
evaluation.  Same interface as ``HistoryBuffer``, so a test can substitute
it into the stepper.
"""

from __future__ import annotations

import numpy as np


def _trap_weights(ts: np.ndarray) -> np.ndarray:
    w = np.zeros(len(ts))
    if len(ts) >= 2:
        w[0] = (ts[1] - ts[0]) / 2.0
        w[-1] = (ts[-1] - ts[-2]) / 2.0
        w[1:-1] = (ts[2:] - ts[:-2]) / 2.0
    return w


class FullHistory:
    def __init__(self, kernel, n_dofs: int, horizon: float | None = None):
        self.kernel = kernel
        self._ts: list[float] = []
        self._ku: list[np.ndarray] = []
        self._q: list[float] = []

    @property
    def n_entries(self) -> int:
        return len(self._ts)

    def diagnostics(self) -> dict:
        return {}

    def push(self, t: float, ku: np.ndarray, q: float) -> None:
        if not self._ts:
            if t != 0.0:
                raise ValueError(f"history must start at t = 0, got first push at {t}")
        elif t <= self._ts[-1]:
            raise ValueError(f"non-monotone push: t = {t} after t = {self._ts[-1]}")
        self._ts.append(t)
        self._ku.append(np.array(ku, dtype=float))
        self._q.append(float(q))

    def _weighted(self, t: float, prime: bool) -> np.ndarray:
        if abs(t - self._ts[-1]) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"evaluated at t = {t}, buffer at t = {self._ts[-1]}")
        ts = np.array(self._ts)
        ages = t - ts
        g = self.kernel.g_prime(ages) if prime else self.kernel.g(ages)
        return _trap_weights(ts) * g

    def convolution_force(self, t: float) -> np.ndarray:
        return self._weighted(t, prime=False) @ np.array(self._ku)

    def g_diamond(self, t: float, u_now: np.ndarray) -> float:
        return self._diamond(t, u_now, prime=False)

    def g_prime_diamond(self, t: float, u_now: np.ndarray) -> float:
        return self._diamond(t, u_now, prime=True)

    def _diamond(self, t: float, u_now: np.ndarray, prime: bool) -> float:
        gw = self._weighted(t, prime)
        ku_h = np.array(self._ku)
        q_now = float(u_now @ ku_h[-1])
        val = gw.sum() * q_now - 2.0 * float(u_now @ (gw @ ku_h)) + float(gw @ np.array(self._q))
        return min(val, 0.0) if prime else max(val, 0.0)
