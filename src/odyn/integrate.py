"""Fixed-step time integration with trajectory recording.

One explicit Runge-Kutta loop advances every kernel; forward Euler is the
reference scheme and classical RK4 a higher-accuracy cross-check, each a
tableau of that loop.  Snapshots are taken at step 0 and at every
``record_every``-th step, so recording densely and subsampling gives
bit-identical snapshots to recording sparsely; a zero-step run is its
initial snapshot.  The record is a :class:`Trajectory`: the recorded
times and one block of snapshots, allocated up front.  Metrics such as
the Dirichlet energy are the caller's to take from that block.

The integrator runs one :class:`~odyn.kernels.KernelSetup` whole: its
initial state, its right-hand side, its step bound and its position view.
The state is a plain float64 array of any shape the right-hand side
accepts.  Snapshots see the set-up's ``position`` of each state: the
state itself for first-order kernels, and ``state[0]`` for the
second-order kernel, whose ``(2, n, o)`` state stacks position over
velocity.  The initial state, every new state, and every intermediate
RK4 stage before the right-hand side sees it, must have a Euclidean norm
of at most ``MAGNITUDE_LIMIT`` (1e50): a NaN or infinite entry ends the
run as a non-finite state, a finite runaway as a norm above the limit,
each naming the step.  No kernel comes near the limit from
inputs of ordinary size (no state of the seeded CLI corpus, the acceptance
battery or the benchmark workloads has a norm above 200), and a state
within it keeps the squares of the Dirichlet energy finite.

The step bound is the set-up's ``damping`` d: the step size must satisfy
dt < 1/d, because at dt >= 1/d the damping term flips the sign of the
state at every update, so the scheme is rejected up front.  The Laplacian
flows (``laplacian``, ``laplacian-source``, ``linear-od``) report their
largest out-degree as d, the diagonal damping of -D X + A X.  By
Gershgorin every eigenvalue of -dt (D - A) then lies in the disc of radius
dt*d about -dt*d, inside the Euler stability disc |1 + z| <= 1, which in
turn lies inside RK4's stability region; so dt < 1/d guards both methods.
"""
from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .floatrepr import repr_cells
from .graphs import repr_rows
from .kernels import KernelSetup, check_finite


class Trajectory(NamedTuple):
    """The recorded times and the snapshot block, one snapshot per time."""

    times: np.ndarray
    states: np.ndarray


class _Tableau(NamedTuple):
    """Explicit Runge-Kutta scheme whose stages each look along the last slope.

    Stage i+1 evaluates the right-hand side at ``x + (dt / divisors[i]) * k_i``;
    the update is ``x + (dt / denom) * (k_0 + sum_i weights[i] * k_(i+1))``,
    summed in order: the first slope has unit weight.
    """

    divisors: tuple[float, ...]
    weights: tuple[float, ...]
    denom: float


_EULER = _Tableau(divisors=(), weights=(), denom=1.0)
_RK4 = _Tableau(divisors=(2.0, 2.0, 1.0), weights=(2.0, 2.0, 1.0), denom=6.0)

MAGNITUDE_LIMIT = 1e50
# rows the trajectory writer encodes at a time, about 2.5 MB of working set;
# writing 401 snapshots of 200 x 8, 2048 rows were 4% slower and 8192 no
# faster (2 cores, numpy 2.4.6)
CHUNK_ROWS = 1 << 12


def _check_state(state: np.ndarray, step: int, what: str = "state") -> None:
    # a NaN, an inf or a runaway each makes the sum of squares fail the test
    if not np.vdot(state, state) <= MAGNITUDE_LIMIT * MAGNITUDE_LIMIT:
        if not np.isfinite(state).all():
            raise NumericalError(f"non-finite {what} at step {step}")
        raise NumericalError(f"{what} norm above {MAGNITUDE_LIMIT:g} at step {step}")


def check_step(dt: float, steps: int, damping: float | None) -> None:
    """Reject a step size that is not finite and positive, a negative step
    count, or a step at or beyond the bound dt < 1/d of ``damping`` d."""
    check_finite("step size", dt, "positive")
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    if damping is not None and dt * damping >= 1.0:
        raise ValueError(
            f"step size {dt} is not below 1/d = {1.0 / damping}; every update "
            "would flip the sign of the damped state, so the scheme is unstable"
        )


def _runge_kutta(
    tableau: _Tableau,
    setup: KernelSetup,
    dt: float,
    steps: int,
    record_every: int,
) -> Trajectory:
    check_step(dt, steps, setup.damping)
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    rhs, position = setup.rhs, setup.position
    shifts = [dt / c for c in tableau.divisors]
    scale = dt / tableau.denom
    state = np.array(setup.state0, dtype=np.float64)
    _check_state(state, 0)
    first = position(state)
    recorded = np.arange(0, steps + 1, record_every)
    # every snapshot is a slot of one block, allocated once and freed whole
    states = np.empty((len(recorded), *first.shape))
    states[0] = first
    # overflow is reported by the state checks, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            slope = rhs(state)
            total = slope
            for h, w in zip(shifts, tableau.weights):
                stage = state + h * slope
                _check_state(stage, k, "stage")
                slope = rhs(stage)
                total = total + w * slope
            state = state + scale * total
            _check_state(state, k)
            if k % record_every == 0:
                states[k // record_every] = position(state)
    return Trajectory(recorded * dt, states)


def euler_integrate(
    setup: KernelSetup,
    dt: float,
    steps: int,
    record_every: int = 1,
) -> Trajectory:
    """Forward Euler: X(t+dt) = X(t) + dt * rhs(X(t))."""
    return _runge_kutta(_EULER, setup, dt, steps, record_every)


def rk4_integrate(
    setup: KernelSetup,
    dt: float,
    steps: int,
    record_every: int = 1,
) -> Trajectory:
    """Classical fourth-order Runge-Kutta with the same recording contract."""
    return _runge_kutta(_RK4, setup, dt, steps, record_every)


def save_trajectory_csv(traj: Trajectory, path) -> None:
    """Long-format CSV with header ``t,node,option,value``.

    One row per entry of each ``(n, o)`` snapshot, in row-major order; t
    and the value are Python's ``repr`` of each float64.  The rows are
    encoded ``CHUNK_ROWS`` at a time from the raveled snapshot block, as a
    NUL-padded byte matrix (time, cell, value, newline) written without
    its NULs, so the writer's working set stays about 2.5 MB whatever the
    snapshot size.
    """
    times = _byte_rows([repr(t) for t in traj.times.tolist()])
    n, o = traj.states.shape[1:]
    nodes = _byte_rows([f",{i}," for i in range(n)])
    options = _byte_rows([f"{j}," for j in range(o)])
    values = traj.states.reshape(-1)
    cells = n * o
    with open(path, "wb") as f:
        f.write(b"t,node,option,value\n")
        for start in range(0, values.size, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, values.size)
            row = np.arange(start, stop)
            snap = row // cells
            cell = row - snap * cells
            node = cell // o
            mat = np.concatenate([times.take(snap, axis=0), nodes.take(node, axis=0),
                                  options.take(cell - node * o, axis=0),
                                  repr_cells(values[start:stop]),
                                  np.full((stop - start, 1), ord("\n"), dtype=np.uint8)], axis=1)
            f.write(mat[mat != 0].tobytes())


def _byte_rows(strings: list[str]) -> np.ndarray:
    """ASCII strings as rows of a uint8 matrix, padded with NUL bytes."""
    packed = np.array(strings, dtype=bytes)
    return packed.view(np.uint8).reshape(len(strings), packed.itemsize)


def save_metrics_csv(times: np.ndarray, energy: list[float], diameter: list[float],
                     path) -> None:
    """Metric CSV with header ``t,dirichlet,diameter``: one row per recorded
    time, with the energy and the diameter of its snapshot."""
    rows = zip(times.tolist(), energy, diameter)
    Path(path).write_text(repr_rows(rows, "t,dirichlet,diameter"))
