"""Solution history and the three memory quantities of the wave system.

For a kernel g and stiffness form K the buffer evaluates, at the time t of
the last push,

  convolution force   int_0^t g(t-s) K u(s) ds          (a vector),
  g  o grad u         int_0^t g(t-s) |grad(u(t)-u(s))|^2 ds,
  g' o grad u         the same with g' = -xi g,

each as the composite-trapezoid sum over every pushed stamp.

The kernel enters through its sum of exponentials
g ~ Re sum_j c_j e^{-s_j t} (``RelaxationKernel.exp_sum``, certified on
[0, horizon]).  For one exponential the trapezoid sum obeys an exact
two-stamp recursion, so per term j the buffer holds the weighted sum A_j of
the rows r_i = [K u_i, u_i^T K u_i, 1] and updates it at O(n) cost per
push, however long the history:

  A_j <- e^{-s_j dt} (A_j + h_j r_prev) + h_j r_new,    h_j = c_j dt / 2.

The force is Re sum_j A_j[K u].  |grad(u(t)-u(s))|^2 expands into the
stored row entries, so both o functionals come from one product of A with
[-2 u(t), 1, u(t)^T K u_last], summed with the weights 1 and -s_j (the
expansion of g' = sum_j -s_j c_j e^{-s_j t}).  For an exponential kernel the
result is the trapezoid sum itself (steps that differ only by the rounding
of the stamps count as equal); otherwise it differs from the trapezoid sum
with the exact g by at most the certified relative error times the
trapezoid mass.  Memory held is O(J n) and does not grow with the pushes.
"""

from __future__ import annotations

import numpy as np

from .kernels import RelaxationKernel


class HistoryBuffer:
    """Causal history of one simulation; mutated only by its owning stepper.

    The buffer keeps the kernel's sum of exponentials (``expansion``), not
    the kernel.  ``horizon`` is the latest push time: the expansion is
    certified on [0, horizon].  Kernels whose expansion holds for every t
    need none.
    """

    def __init__(self, kernel: RelaxationKernel, n_dofs: int,
                 horizon: float | None = None):
        self._t_last = None
        self._push_count = 0
        exp_sum = kernel.exp_sum(horizon)
        self.expansion = exp_sum
        self._t_max = exp_sum.horizon * (1.0 + 1e-9)
        n_terms, dtype = exp_sum.n_terms, exp_sum.rates.dtype
        self._acc = np.zeros((n_terms, n_dofs + 2), dtype)  # A_j, columns [K u, q, 1]
        self._half_row = np.zeros_like(self._acc)  # h_j r_last
        self._row = np.zeros(n_dofs + 2)  # r_last
        self._row[-1] = 1.0
        self._aug = np.zeros(n_dofs + 2)
        self._aug[-2] = 1.0
        self._weights = np.array([np.ones(n_terms, dtype), -exp_sum.rates])  # g, g'
        self._decay = np.zeros((n_terms, 1), dtype)
        self._half = np.zeros((n_terms, 1), dtype)
        self._dt: float | None = None
        self._diamond_u = None
        self._diamond_count = 0
        self._diamonds_cached = (0.0, 0.0)

    @property
    def n_entries(self) -> int:
        """Number of pushes recorded."""
        return self._push_count

    @property
    def bytes_held(self) -> int:
        """Bytes of history state; independent of the number of pushes."""
        arrays = (self._acc, self._half_row, self._row, self._aug, self._weights,
                  self._decay, self._half)
        return sum(a.nbytes for a in arrays)

    def diagnostics(self) -> dict:
        """Size of the history state and the certified error of the expansion."""
        exp_sum = self.expansion
        return {
            "n_terms": exp_sum.n_terms,
            "bytes_held": self.bytes_held,
            "certified_rel_error": exp_sum.rel_error,
        }

    def push(self, t: float, ku: np.ndarray, q: float) -> None:
        """Record the state u at time t from K u and q = u.K u, which the
        caller has already formed; t must exceed every earlier stamp."""
        if self._t_last is None:
            if t != 0.0:
                raise ValueError(f"history must start at t = 0, got first push at {t}")
        elif t <= self._t_last:
            raise ValueError(f"non-monotone push: t = {t} after t = {self._t_last}")

        if t > self._t_max:
            raise ValueError(
                f"push at t = {t} past the horizon {self.expansion.horizon} on which "
                "the kernel expansion is certified"
            )
        acc, row, half_row = self._acc, self._row, self._half_row
        if self._t_last is not None:
            dt = t - self._t_last
            # stamps t + dt carry rounding noise; steps equal up to it
            # share the cached weights of the first one
            if self._dt is None or abs(dt - self._dt) > 1e-8 * dt:
                self._set_step(dt)
            acc += half_row
            acc *= self._decay
        row[:-2] = ku
        row[-2] = q
        # before the first step h_j = 0, so the first push adds nothing
        np.multiply(self._half, row, out=half_row)
        acc += half_row
        self._t_last = t
        self._push_count += 1

    def _set_step(self, dt: float) -> None:
        """Per-term decay e^{-s_j dt} and half weight h_j for steps of size dt."""
        self._dt = dt
        self._decay[:, 0] = np.exp(-self.expansion.rates * dt)
        self._half[:, 0] = 0.5 * dt * self.expansion.coeffs
        np.multiply(self._half, self._row, out=self._half_row)

    def _require_coverage(self, t: float) -> None:
        if self._t_last is None:
            raise ValueError("empty history buffer")
        if abs(t - self._t_last) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(
                f"memory quantities are evaluated at the last stamp; "
                f"got t = {t}, buffer at t = {self._t_last}"
            )

    def convolution_force(self, t: float) -> np.ndarray:
        """int_0^t g(t-s) K u(s) ds.

        For a single exponential this is a view of the buffer's state: it
        holds until the next push, and callers must not write to it.
        """
        self._require_coverage(t)
        if len(self._acc) == 1:  # a single exponential needs no sum over terms
            return self._acc[0, :-2].real
        return np.add.reduce(self._acc, 0)[:-2].real

    def g_diamond(self, t: float, u_now: np.ndarray) -> float:
        """(g o grad u)(t) >= 0; zero for a history constant in time."""
        return self._diamonds(t, u_now)[0]

    def g_prime_diamond(self, t: float, u_now: np.ndarray) -> float:
        """(g' o grad u)(t) <= 0."""
        return self._diamonds(t, u_now)[1]

    def _diamonds(self, t: float, u_now: np.ndarray) -> tuple[float, float]:
        # Both functionals come from one product, kept until the next push so
        # that a record pays for it once.  The cache is keyed on the identity
        # of u_now: callers must not change u_now in place between the calls.
        self._require_coverage(t)
        if self._diamond_u is u_now and self._diamond_count == self._push_count:
            return self._diamonds_cached
        aug = self._aug
        np.multiply(u_now, -2.0, out=aug[:-2])
        aug[-1] = u_now @ self._row[:-2]
        gd, gpd = (self._weights @ (self._acc @ aug)).real.tolist()
        # roundoff guards: the exact values are signed sums of squares
        self._diamonds_cached = (max(gd, 0.0), min(gpd, 0.0))
        self._diamond_u, self._diamond_count = u_now, self._push_count
        return self._diamonds_cached
