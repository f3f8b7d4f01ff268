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
[0, n_steps dt]).  Per term j the trapezoid sum needs C_j(k), the decayed
sum of the rows r_i = [K u_i, u_i^T K u_i, 1] up to push k with the first
row at half weight:

  C_j(0) = r_0 / 2,   C_j(k) = d_j C_j(k-1) + r_k,   d_j = e^{-s_j dt}.

The trapezoid half weight of the newest row is applied at the read: term j
of the trapezoid sum, T_j = sum_i w_i c_j e^{-s_j (t - t_i)} r_i, is
c_j dt C_j(k) - (c_j dt / 2) r_k.

Blocks.  The pushes after the first come in blocks of B, as Lubich &
Schaedle block a convolution's history in time ("Fast convolution for
nonreflecting boundary conditions", SIAM J. Sci. Comput. 24, 2002).  One
real array ``ext`` holds the accumulators A = C(b - 1) as of the last block
close (the real parts of the J terms, then for complex terms their
imaginary parts, one row each) and below them a ring of the B newest rows:
ring row m holds push b + m of the current block b, b+1, ..., b+B-1.
Within the block,

  C(b + m) = D^{m+1} A + sum_{i <= m} D^{m-i} r_{b+i},   D = diag(d_j),

so a read at in-block position m < B - 1 is a fixed weighted sum of the
rows of ``ext``: term j of A weighs c_j dt d_j^{m+1} (its real part on the
real row, minus its imaginary part on the imaginary row), ring row i <= m
weighs Re sum_j c_j dt d_j^{m-i}, less the half weight on the newest row,
and the ring rows past m, the previous block's, weigh nothing.  The push
at the last position folds the block,

  A <- D^B A + G R,   G_ji = d_j^{B-1-i},  R the ring,

as one product G R over the ring, for complex terms a rotation of A's
real and imaginary rows by Im d_j^B, and one row scaling by Re d_j^B.  (A
single product with D^B's rotation block beside G, over all of ``ext``,
made a 1D step slower than the per-step recursion: the larger matrix
product slowed the numpy calls around it.)  After the fold the read
weights are c_j dt on A and the half-weight correction on the newest ring
row alone.  So the force and both o functionals can be read at every push,
wherever it falls in its block, and B need not divide the record interval.
Per position m the buffer keeps, built once from the powers of d_j, a force
weight row w_m and a (2, rows) table W_m for g and g':

  force          [w_m ..., base_m - M_kir, ...] @ ext[:, :-2],
  o functionals  W_m @ (ext @ [-2 u(t), 1, u(t)^T K u(t)]),

where the newest row's entry base_m takes the stiffness term (that row
holds K u(t)), |grad(u(t)-u(s))|^2 expands into the stored row entries and
the second row of W_m scales the coefficients by -s_j (the expansion of
g' = sum_j -s_j c_j e^{-s_j t}).

B is 1 for a one-term expansion (the exponential and constant-rate
kernels): every push folds, and the fold is the two-pass recursion
C <- d C + r_k on the one accumulator row, scaled by the float d with no
broadcast.  Otherwise B is ``BLOCK_STEPS``: a push writes its row and
every B-th push folds.  For an exponential kernel the result is the
trapezoid sum itself; otherwise it differs from the trapezoid sum with the
exact g by at most the certified relative error times the trapezoid mass.
Memory held is O((J + B) n) and does not grow with the pushes.

The ring row a push fills is known before the push: ``next_ku`` is the
view of its K u columns, bound once per row.  The stepper forms K u
straight into it, and a push handed that view stores q and copies nothing;
a push of any other array copies it into the row.  The force read writes
into an array of the caller's (the stepper's acceleration) through the
matmul ufunc, which reads the strided K u columns in place; the
functionals' read is two ``ndarray.dot`` calls, which cost less dispatch
than the ``@`` operator for the same BLAS product on contiguous operands,
but would copy a strided one first.
"""

from __future__ import annotations

import numpy as np

from .kernels import RelaxationKernel

BLOCK_STEPS = 16  # pushes per fold of a multi-term expansion


def _stored(v: np.ndarray) -> np.ndarray:
    """Per-term values (..., J) as the rows of ``ext`` store a term: the
    real parts, then for complex terms the imaginary parts."""
    return np.concatenate([v.real, v.imag], axis=-1) if np.iscomplexobj(v) else v


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
        rates, n_terms = exp_sum.rates, exp_sum.n_terms
        complex_terms = np.iscomplexobj(rates)
        B = self._block_steps = 1 if n_terms == 1 else BLOCK_STEPS
        n_acc = 2 * n_terms if complex_terms else n_terms
        # rows A (real parts, then imaginary parts), then the ring of B
        # rows; columns [K u, q, 1]
        self._ext = np.zeros((n_acc + B, n_dofs + 2))
        self._acc, self._ring = self._ext[:n_acc], self._ext[n_acc:]
        self._acc_re = self._acc[:n_terms]
        self._ring[:, -1] = 1.0
        self._rows = list(self._ring)
        self._ku_rows = [row[:-2] for row in self._rows]  # bound once: see next_ku
        # _pos is the newest row's position: the first push lands on the
        # last one, and the block after it starts at position 0
        self._last, self._pos = B - 1, (B - 2) % B
        self._next_pos = [*range(1, B), 0]
        self._aug = np.zeros(n_dofs + 2)
        self._aug[-2] = 1.0
        decay = np.exp(-rates * dt)
        powers = np.cumprod(np.vstack([np.ones_like(decay), np.tile(decay, (B, 1))]), axis=0)
        # the fold's operands; a one-row block of real terms has G R = R,
        # its row, and needs no product, and its one accumulator row is
        # scaled by a float, with no broadcast
        one_real_row = B == 1 and not complex_terms
        if one_real_row:
            self._folded, self._block_decay = self._acc[0], float(powers[B, 0].real)
        else:
            self._folded = self._acc
            self._block_decay = np.tile(powers[B].real, n_acc // n_terms)[:, None]
        self._gains = None if one_real_row else _stored(powers[B - 1::-1]).T.copy()
        self._block_sum = self._ring[0] if one_real_row else np.zeros_like(self._acc)
        self._turn = self._turned = None
        if complex_terms:
            self._turn = powers[B].imag[:, None].copy()
            self._turned = np.zeros_like(self._acc_re)
        # read weights of the rows of ext for g and g', per block position
        k = np.stack([dt * exp_sum.coeffs, -rates * (dt * exp_sum.coeffs)])  # (2, J)
        half = -0.5 * k.sum(axis=1).real
        sums = (powers @ k.T).real  # sums[p] = Re sum_j k_j d_j^p
        w = self._weights = np.zeros((B, 2, n_acc + B))
        for m in range(B - 1):
            w[m, :, :n_acc] = _stored((k * powers[m + 1]).conj())
            w[m, :, n_acc:n_acc + m + 1] = sums[m::-1].T
            w[m, :, n_acc + m] += half
        w[B - 1, :, :n_acc] = _stored(k.conj())
        w[B - 1, :, -1] = half
        # the force's operands: its own copy of the g weights, whose newest
        # entry each read sets to that row's weight less M_kir, and the K u
        # columns of ext, sliced once here instead of at every step
        self._force_weights, self._ku_cols = w[:, 0].copy(), self._ext[:, :-2]
        self._force_reads = [(self._force_weights[m], n_acc + m, float(w[m, 0, n_acc + m]))
                             for m in range(B)]
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
        held = [self._ext, self._aug, self._weights, self._force_weights]
        if self._gains is not None:  # else the block's sum is its one ring row
            held += [self._block_decay, self._gains, self._block_sum]
        if self._turn is not None:
            held += [self._turn, self._turned]
        return sum(a.nbytes for a in held)

    def diagnostics(self) -> dict:
        """Size of the history state, the pushes per fold and the certified
        error of the expansion."""
        exp_sum = self.expansion
        return {
            "n_terms": exp_sum.n_terms,
            "bytes_held": self.bytes_held,
            "block_steps": self._block_steps,
            "certified_rel_error": exp_sum.rel_error,
        }

    @property
    def next_ku(self) -> np.ndarray:
        """The K u columns of the ring row that the next push writes, a view
        bound once; a caller that forms K u into it hands it to
        :meth:`push`, which then copies nothing."""
        return self._ku_rows[self._next_pos[self._pos]]

    def push(self, u: np.ndarray, ku: np.ndarray, q: float) -> None:
        """Record the state u at the next grid time with K u and q = u.K u,
        which the caller has already formed; u is held, not copied, and so
        is ku when it is :attr:`next_ku`, as any other array is copied into
        that row."""
        count = self._push_count
        if count > self._n_steps:
            raise ValueError(
                f"push {count + 1} past the horizon of {self._n_steps} steps "
                "on which the kernel expansion is certified"
            )
        pos = self._pos = self._next_pos[self._pos]
        row = self._rows[pos]
        if ku is not self._ku_rows[pos]:
            row[:-2] = ku
        row[-2] = q
        if pos == self._last:
            if count == 0:  # r_0 at its trapezoid half weight, in every term
                np.multiply(row, 0.5, out=self._acc_re)
            else:
                self._fold()
        self._u = u
        self._push_count = count + 1

    def _fold(self) -> None:
        # A <- D^B A + G R at the block's last push; the rotation reads A
        # before the scaling overwrites it.  A one-real-term fold is
        # C <- d C + r on the one row
        acc, block_sum = self._acc, self._block_sum
        if self._gains is not None:
            np.matmul(self._gains, self._ring, out=block_sum)
        if self._turn is not None:  # Re A gains -Im(d^B) Im A, Im A gains Im(d^B) Re A
            n, turned = len(self._turn), self._turned
            np.multiply(self._turn, acc[n:], out=turned)
            block_sum[:n] -= turned
            np.multiply(self._turn, acc[:n], out=turned)
            block_sum[n:] += turned
        folded = self._folded
        folded *= self._block_decay
        folded += block_sum

    def convolution_force(self, m_kir: float, out: np.ndarray) -> np.ndarray:
        """int_0^t g(t-s) K u(s) ds - m_kir K u(t), the stiffness and memory
        force of the Kirchhoff coefficient m_kir, written into ``out`` (a
        contiguous float vector of n_dofs entries, none of the buffer's) and
        returned.  The newest row holds K u(t), so this is one weighted read
        of ext."""
        if self._push_count < 2:  # the empty integral at t = 0
            return np.multiply(self._ext[-1, :-2], -m_kir, out=out)
        w, newest, base = self._force_reads[self._pos]
        w[newest] = base - m_kir
        # the matmul ufunc, not ndarray.dot: the K u columns are a strided
        # slice of ext's rows, which ndarray.dot would copy first (a 64 x 64
        # power-law read took 500 us against 170 us)
        return np.matmul(w, self._ku_cols, out=out)

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
        aug, pos = self._aug, self._pos
        np.multiply(self._u, -2.0, out=aug[:-2])
        aug[-1] = self._rows[pos][-2]
        gd, gpd = self._weights[pos].dot(self._ext.dot(aug)).tolist()
        # roundoff guards: the exact values are signed sums of squares
        self._g_dia, self._g_prime_dia = max(gd, 0.0), min(gpd, 0.0)
