"""Solution history and the three memory quantities of the wave system.

For a kernel g and stiffness form K the buffer holds the states u_i of one
run at the times t_i = i dt of its step grid and evaluates, at the time t of
the newest push, whose state u(t) the buffer holds until the next push,

  convolution force   int_0^t g(t-s) K u(s) ds - M_kir K u(t)   (a vector),
  g  o grad u         int_0^t g(t-s) |grad(u(t)-u(s))|^2 ds,
  g' o grad u         the same with g' = -xi g,

each integral as the composite-trapezoid sum over the grid.  The force
carries the stiffness term of the Kirchhoff coefficient M_kir that the
caller passes, as the equation puts both terms on the one Laplacian.

The kernel enters through its sum of exponentials
g ~ Re sum_j c_j e^{-s_j t} (``RelaxationKernel.exp_sum``, certified on
[0, n_steps dt]).  Per term j the buffer holds C_j, the decayed sum of the
rows r_i = [K u_i, u_i^T K u_i, 1] with the first row at half weight, and
updates it in two passes at O(n) cost per push, however long the history:

  C_j = r_0 / 2 at the first push,   C_j <- e^{-s_j dt} C_j + r_new.

The trapezoid half weight of the newest row is applied at the read: term j
of the trapezoid sum, A_j = sum_i w_i c_j e^{-s_j (t - t_i)} r_i, is
c_j dt C_j - (c_j dt / 2) r_last.  With r_last kept as row J of one
(J+1, n+2) array ``ext`` below the J rows C_j, every quantity is a
weighted sum of the rows of ``ext``:

  force          Re([c_j dt ..., -sum_j c_j dt / 2 - M_kir] @ ext)[:-2],
  o functionals  Re(W @ (ext @ [-2 u(t), 1, u(t)^T K u(t)])),

where the newest row's weight takes the stiffness term (that row holds
K u(t)), |grad(u(t)-u(s))|^2 expands into the stored row entries and the
second row of the (2, J+1) matrix W scales the first by -s_j (the expansion
of g' = sum_j -s_j c_j e^{-s_j t}).  For an exponential kernel the result
is the trapezoid sum itself; otherwise it differs from the trapezoid sum
with the exact g by at most the certified relative error times the
trapezoid mass.  Memory held is O(J n) and does not grow with the pushes.
"""

from __future__ import annotations

import numpy as np

from .kernels import RelaxationKernel


class HistoryBuffer:
    """Causal history of one simulation; mutated only by its owning stepper.

    Push i records the state at t_i = i dt, and every read is at the newest
    push: the buffer holds a reference to that state's u until the next
    push, so the caller must not write to it in between (a step never
    writes the array of the state it was given, and pushes the other).
    The buffer keeps the kernel's sum of exponentials (``expansion``), not
    the kernel; the expansion is certified on [0, n_steps dt], and a push
    past the (n_steps + 1)-th is refused.
    """

    def __init__(self, kernel: RelaxationKernel, n_dofs: int, dt: float, n_steps: int):
        exp_sum = kernel.exp_sum(n_steps * dt)
        if n_steps * dt > exp_sum.horizon * (1.0 + 1e-9):
            raise ValueError(
                f"{n_steps} steps of {dt} run past the horizon {exp_sum.horizon} "
                "on which the kernel expansion is certified"
            )
        self.expansion = exp_sum
        self._n_steps = n_steps
        self._push_count = 0
        rates, n_terms, dtype = exp_sum.rates, exp_sum.n_terms, exp_sum.rates.dtype
        # rows C_j, then r_last; columns [K u, q, 1]
        self._ext = np.zeros((n_terms + 1, n_dofs + 2), dtype)
        self._acc, self._row = self._ext[:-1], self._ext[-1]
        self._row[-1] = 1.0
        self._aug = np.zeros(n_dofs + 2)
        self._aug[-2] = 1.0
        self._decay = np.exp(-rates * dt)[:, None]
        # read weights of the rows of ext for g and g'
        w = self._weights = np.zeros((2, n_terms + 1), dtype)
        w[0, :-1] = dt * exp_sum.coeffs
        w[1, :-1] = -rates * w[0, :-1]
        w[:, -1] = -0.5 * w[:, :-1].sum(axis=1)
        # the force's operands: its own copy of the g weights, whose last
        # entry each read sets to the newest row's weight less M_kir, and
        # the K u columns of ext, sliced once here instead of at every step
        self._force_weights, self._ku_cols = w[0].copy(), self._ext[:, :-2]
        self._u = None  # the newest pushed state, the caller's array
        # g o grad u and g' o grad u as read at push number _diamond_count
        self._diamond_count = 0
        self._g_dia = self._g_prime_dia = 0.0

    @property
    def n_entries(self) -> int:
        """Number of pushes recorded."""
        return self._push_count

    @property
    def bytes_held(self) -> int:
        """Bytes of history state; independent of the number of pushes."""
        return sum(a.nbytes for a in (self._ext, self._aug, self._weights, self._force_weights,
                                       self._decay))

    def diagnostics(self) -> dict:
        """Size of the history state and the certified error of the expansion."""
        exp_sum = self.expansion
        return {
            "n_terms": exp_sum.n_terms,
            "bytes_held": self.bytes_held,
            "certified_rel_error": exp_sum.rel_error,
        }

    def push(self, u: np.ndarray, ku: np.ndarray, q: float) -> None:
        """Record the state u at the next grid time with K u and q = u.K u,
        which the caller has already formed; u is held, not copied."""
        if self._push_count > self._n_steps:
            raise ValueError(
                f"push {self._push_count + 1} past the horizon of {self._n_steps} steps "
                "on which the kernel expansion is certified"
            )
        acc, row = self._acc, self._row
        row[:-2] = ku
        row[-2] = q
        if self._push_count == 0:  # r_0 at its trapezoid half weight, in every term
            np.multiply(row, 0.5, out=acc)
        else:
            acc *= self._decay
            acc += row
        self._u = u
        self._push_count += 1

    def convolution_force(self, m_kir: float) -> np.ndarray:
        """int_0^t g(t-s) K u(s) ds - m_kir K u(t), the stiffness and memory
        force of the Kirchhoff coefficient m_kir, as a new array.  The
        newest row holds K u(t), so this is one weighted read of ext."""
        if self._push_count < 2:  # the empty integral at t = 0
            return -m_kir * self._row[:-2].real
        w = self._force_weights
        w[-1] = self._weights[0, -1] - m_kir
        return (w @ self._ku_cols).real

    def g_diamond(self) -> float:
        """(g o grad u)(t) >= 0; zero for a history constant in time."""
        if self._diamond_count != self._push_count:
            self._read_diamonds()
        return self._g_dia

    def g_prime_diamond(self) -> float:
        """(g' o grad u)(t) <= 0."""
        if self._diamond_count != self._push_count:
            self._read_diamonds()
        return self._g_prime_dia

    def _read_diamonds(self) -> None:
        # Both functionals come from one product, kept until the next push so
        # that a record pays for it once.  u(t)^T K u(t) is the q of the
        # newest push, held in its row.
        self._diamond_count = self._push_count
        if self._push_count < 2:  # the empty integrals at t = 0
            return
        aug = self._aug
        np.multiply(self._u, -2.0, out=aug[:-2])
        aug[-1] = self._row[-2].real
        gd, gpd = (self._weights @ (self._ext @ aug)).real.tolist()
        # roundoff guards: the exact values are signed sums of squares
        self._g_dia, self._g_prime_dia = max(gd, 0.0), min(gpd, 0.0)
