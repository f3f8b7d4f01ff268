"""The block pass of a run's records against the per-record formula, its
aborts inside a block, one initial state per closure, and the snapshot
block's memory."""

import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from viscowave import SimulationAbort, StepperConfig, assemble, build_kernel, make_rate, run
from viscowave import energy, stepper
from viscowave.assembly import dia_product
from viscowave.energy import _N_RAW, _reports, compute_energy
from viscowave.history import HistoryBuffer
from viscowave.stepper import AcousticClosure, init_state, step

from conftest import default_params, exp_kernel, interval_mesh, sine_profile, square_mesh

_FAMILIES = {"constant": (1.0, 0.0), "power_law": (2.0, 0.0), "oscillatory": (1.0, 0.5)}
_R = 4  # records a block holds in these tests


def _oracle_row(state, buffer, form):
    """The raw row of ``state``'s record, written out one record at a time
    with the form's operator: the product, the multiply, reduceat, u.S and
    the y store."""
    closure = state.closure
    x = state.x
    z = x[closure.checked].copy()
    products = np.zeros(len(z) + 1)
    np.multiply(z, dia_product(form.operator, z, np.empty(len(z))), out=products[:-1])
    row = np.empty(form.rows.shape[1])
    row[0] = state.t
    row[1] = state.grad_sq
    row[2] = x[closure.u].dot(x[closure.source]) if closure.params.source_enabled else 0.0
    row[3], row[4] = buffer.g_diamond(), buffer.g_prime_diamond()
    np.add.reduceat(products, form.starts, out=row[5:9])
    row[_N_RAW:] = x[closure.y]
    return row


@pytest.mark.parametrize("records", [1, _R - 1, _R, _R + 1, 2 * _R + 1])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("domain", ["interval", "square-free-corner"])
def test_the_block_pass_is_bitwise_the_per_record_formula(domain, family, records,
                                                          monkeypatch):
    # every raw row the block pass completes, full blocks, partial ones and
    # a lone record alike, and every column derived from them, bit for bit
    # the per-record formula written out; run itself keeps the same columns
    monkeypatch.setattr(energy, "_BLOCK_RECORDS", _R)
    mesh = interval_mesh(16) if domain == "interval" else square_mesh(6, gamma1=("right", "top"))
    params = default_params(p_c=0.7, q_c=1.3)
    ops = assemble(mesh)
    kernel = build_kernel(make_rate(family, *_FAMILIES[family]), 1.0, 3.0)
    cfg = StepperConfig(dt=2e-3, t_end=2e-3 * 3 * (records - 1), record_every=3)
    u0, u1 = sine_profile(mesh, 0.3), sine_profile(mesh, -0.2)
    y0 = np.linspace(0.1, 0.3, len(mesh.gamma1_nodes))
    closure = AcousticClosure(ops, kernel, params, cfg)
    form = closure.form
    assert len(form.snapshots) == min(_R, records)
    state = init_state(u0, u1, y0, closure)
    expected = []
    for n in range(cfg.n_steps + 1):
        if n:
            state = step(state)
        if n % cfg.record_every == 0:
            expected.append(_oracle_row(state, closure.buffer, form))
            compute_energy(state)
    columns = form.columns()  # completes the last, partial block
    assert form.count == form.passed == records
    assert form.rows.tobytes() == np.array(expected).tobytes()
    oracle = copy.deepcopy(form)
    oracle.rows[:] = expected
    assert all(c.tobytes() == oracle.columns()[name].tobytes()
               for name, c in columns.items())
    traj = run(u0, u1, y0, ops, kernel, params, cfg)
    assert traj.reports == _reports(columns)
    assert traj.final.x.tobytes() == state.x.tobytes()


def test_records_are_taken_in_order():
    # a record fills the snapshot row of its place in the block, so a record
    # skipped or taken twice is refused
    mesh = interval_mesh(16)
    cfg = StepperConfig(dt=1e-3, t_end=0.01)
    closure = AcousticClosure(assemble(mesh), exp_kernel(), default_params(), cfg)
    state = init_state(sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.array([0.1]), closure)
    compute_energy(state)
    with pytest.raises(ValueError, match="not the run's next record, which is step 1"):
        compute_energy(state)
    state = step(step(state))
    with pytest.raises(ValueError, match="step 2 is not the run's next record"):
        compute_energy(state)


def test_init_state_refuses_a_second_call():
    # a second initial state would write over the first one's array and
    # push a second t = 0 entry
    mesh = interval_mesh(16)
    cfg = StepperConfig(dt=1e-3, t_end=0.01)
    closure = AcousticClosure(assemble(mesh), exp_kernel(), default_params(), cfg)
    u0, z, y0 = sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.array([0.1])
    first = init_state(u0, z, y0, closure)
    before = first.x.tobytes()
    with pytest.raises(ValueError, match=r"already has its initial state \(1 pushes\)"):
        init_state(2.0 * u0, z, y0, closure)
    assert first.x.tobytes() == before and closure.buffer.n_entries == 1
    assert step(first).n == 1


def test_init_state_refuses_a_finished_run():
    mesh = interval_mesh(16)
    u0, z, y0 = sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.array([0.1])
    traj = run(u0, z, y0, assemble(mesh), exp_kernel(), default_params(),
               StepperConfig(dt=1e-3, t_end=0.01))
    with pytest.raises(ValueError, match="finished and released its history buffer"):
        init_state(u0, z, y0, traj.final.closure)


def _same_state(final, u0, u1, y0, mesh, cfg, n):
    """Whether ``final`` is, bit for bit, the state at step ``n`` of the
    run of ``cfg``, taken as the final state of that run stopped there."""
    alone = run(u0, u1, y0, assemble(mesh), exp_kernel(), default_params(),
                dataclasses.replace(cfg, t_end=n * cfg.dt)).final
    return (final.n, final.m_kir, final.grad_sq, final.x.tobytes()) == (
        alone.n, alone.m_kir, alone.grad_sq, alone.x.tobytes())


def test_a_non_finite_raw_row_wins_over_a_later_cfl_abort(monkeypatch):
    # the run crosses the CFL bound at step 9 (nine records, one block);
    # the memory functional of the record at step 3 is planted inf, found
    # when the abort closes the block: the energy abort at step 3 wins,
    # with the three records before it and the state of step 2, which the
    # block still holds, as the final one
    mesh = interval_mesh(16)
    cfg = StepperConfig(dt=0.038, t_end=2.0)
    g_diamond = HistoryBuffer.g_diamond

    def planted(self):
        return math.inf if self.n_entries == 4 else g_diamond(self)

    u0, u1, y0 = np.zeros(mesh.n_nodes), sine_profile(mesh, 1.0), np.zeros(1)
    with pytest.raises(SimulationAbort, match="CFL violation") as alone:
        run(u0, u1, y0, assemble(mesh), exp_kernel(), default_params(), cfg)
    assert alone.value.trajectory.n_records == 9
    monkeypatch.setattr(HistoryBuffer, "g_diamond", planted)
    with pytest.raises(SimulationAbort) as exc:
        run(u0, u1, y0, assemble(mesh), exp_kernel(), default_params(), cfg)
    assert exc.value.info.reason == "blow-up or instability: non-finite energy"
    assert exc.value.info.time == 3 * cfg.dt
    traj = exc.value.trajectory
    assert traj.times == [0.0, cfg.dt, 2 * cfg.dt]
    assert _same_state(traj.final, u0, u1, y0, mesh, cfg, 2)


@pytest.mark.parametrize("planted_step", [5, 4])
def test_a_non_finite_raw_row_aborts_after_the_run(planted_step, monkeypatch):
    # blocks of 4: the record at the planted step is inf, and no record
    # checks its row, so the run steps on to t_end (21 pushes); the pass
    # after the run aborts it at the planted step's time with the records
    # before it.  The final state is None, as both planted records lie 4
    # records or more behind the run's last, whose block wrote over them
    monkeypatch.setattr(energy, "_BLOCK_RECORDS", 4)
    g_diamond = HistoryBuffer.g_diamond
    pushes = []

    def planted(self):
        pushes.append(self.n_entries)
        return math.inf if self.n_entries == planted_step + 1 else g_diamond(self)

    monkeypatch.setattr(HistoryBuffer, "g_diamond", planted)
    mesh = interval_mesh(16)
    cfg = StepperConfig(dt=1e-3, t_end=0.02)
    u0, u1, y0 = sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.zeros(1)
    with pytest.raises(SimulationAbort, match="non-finite energy") as exc:
        run(u0, u1, y0, assemble(mesh), exp_kernel(), default_params(), cfg)
    assert exc.value.info.time == planted_step * cfg.dt and pushes[-1] == 21
    traj = exc.value.trajectory
    assert traj.n_records == planted_step and traj.final is None


def test_columns_and_ys_complete_a_partial_block():
    # a hand-run form derives every row it has taken, its partial block
    # included
    mesh = interval_mesh(16)
    cfg = StepperConfig(dt=1e-3, t_end=0.01)
    closure = AcousticClosure(assemble(mesh), exp_kernel(), default_params(), cfg)
    state = init_state(sine_profile(mesh, 0.3), np.zeros(mesh.n_nodes), np.array([0.1]), closure)
    compute_energy(state)
    form = closure.form
    assert form.passed == 0 and form.columns()["t"].tolist() == [0.0]
    assert form.ys().tolist() == [[0.1]]


def test_a_64x64_run_holds_one_snapshot(monkeypatch):
    # the snapshot block fits the byte budget: one whole state on a 64 x 64
    # square, and no other state-sized array in the record form
    forms = []
    build = stepper.AcousticClosure

    def spy(*args):
        closure = build(*args)
        forms.append(closure.form)
        return closure

    monkeypatch.setattr(stepper, "AcousticClosure", spy)
    mesh = square_mesh(64)
    cfg = StepperConfig(dt=2e-3, t_end=0.04, record_every=10)
    traj = run(sine_profile(mesh, 0.4), np.zeros(mesh.n_nodes), np.zeros(len(mesh.gamma1_nodes)),
               assemble(mesh), exp_kernel(), default_params(), cfg)
    assert traj.n_records == 3
    form = forms[0]
    size = traj.final.x.size
    assert form.snapshots.shape == (1, size) and form.snapshots.nbytes <= energy._BLOCK_BYTES
    arrays = [v for v in vars(form).values() if isinstance(v, np.ndarray)]
    assert sum(a.size >= size for a in arrays) == 1


def test_a_64x64_record_form_holds_its_arrays_alone_while_it_runs(monkeypatch):
    # traced mid-run, what energy.py has allocated and still holds is the
    # form's own arrays, the snapshot block among them within the budget:
    # a lone record's pass allocates no block scratch
    seen = []
    real_step = stepper.step

    def spy(state):
        if state.n == 15:  # after the records at steps 0 and 10
            snapshot = tracemalloc.take_snapshot()
            held = sum(t.size for t in snapshot.traces
                       if t.traceback[0].filename == energy.__file__)
            seen.append((held, state.closure.form))
        return real_step(state)

    monkeypatch.setattr(stepper, "step", spy)
    mesh = square_mesh(64)
    cfg = StepperConfig(dt=2e-3, t_end=0.04, record_every=10)
    tracemalloc.start()
    try:
        run(sine_profile(mesh, 0.4), np.zeros(mesh.n_nodes), np.zeros(len(mesh.gamma1_nodes)),
            assemble(mesh), exp_kernel(), default_params(), cfg)
    finally:
        tracemalloc.stop()
    [(held, form)] = seen
    arrays = [v for v in vars(form).values() if isinstance(v, np.ndarray)]
    own = sum(a.nbytes for a in arrays) + form.operator.data.nbytes
    assert form.snapshots.nbytes <= energy._BLOCK_BYTES
    assert held <= own + 4096
