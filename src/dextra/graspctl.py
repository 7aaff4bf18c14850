"""Force-constrained grasp execution in finger closing coordinates.

Each finger is commanded through one closing coordinate, and
`pipeline.ClosingPath` maps those onto a hand's joints, so the controller
knows no hand model.  A PD loop drives every finger from its start toward
its end; the moment a finger's sensed force reaches the predicted target
force, its current position is locked in as the new setpoint for the rest
of the episode.  Closing force is therefore bounded near the target
instead of running to the end on rigid objects.  `run_grasp` is the whole
controller: one loop over per-finger Python floats (positions, setpoints,
latch flags, last error).  Each step is one pass over the fingers that
senses, latches, commands and advances each in turn and appends its values
to one flat list; the `ExecutionTrace` table is built from that list once,
at the end.  The final reading is one more such pass.

Contact is simulated by a one-sided linear spring per finger: zero force
until the closing coordinate passes the engagement position, then force
proportional to the penetration.  Optional Gaussian sensor noise is seeded
explicitly, so the default (sigma = 0) episode is bit-for-bit repeatable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

DEFAULT_KP = 5.0          # 1/s
DEFAULT_KD = 0.1
DEFAULT_DT = 0.01         # s
DEFAULT_MAX_STEPS = 1000
STABILITY_BAND = (0.7, 1.1)   # acceptable final force, fraction of target
MIN_STABLE_FINGERS = 3
_COMMAND_EPS = 1e-9       # rad/s; commands below this mean the hand settled

VERDICT_STABLE = "stable"
VERDICT_UNSTABLE = "unstable"
VERDICT_DAMAGED = "damaged"


@dataclass(frozen=True, eq=False)
class ContactModel:
    """One-sided spring per finger, in closing-coordinate space."""

    stiffness: np.ndarray        # (K,) N per rad of penetration
    engagement: np.ndarray       # (K,) closing coordinate where contact starts
    yield_force: float | None = None   # N; peak force beyond this damages the object
    noise_sigma: float = 0.0     # N; gaussian sensor noise

    def __post_init__(self):
        s = np.asarray(self.stiffness, dtype=float).reshape(-1).copy()
        e = np.asarray(self.engagement, dtype=float).reshape(-1).copy()
        if s.shape != e.shape:
            raise DimensionMismatch("stiffness and engagement must match per finger")
        # NaN fails every comparison, so each check asks for what is valid
        if not np.all((s > 0.0) & (s < np.inf)):
            raise ValueError(f"contact stiffness must be positive and finite, got {s}")
        if not np.all(e > -np.inf):     # +inf: the finger never touches
            raise ValueError(f"contact engagement must be a number or +inf, got {e}")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"sensor noise must be non-negative and finite, "
                             f"got {self.noise_sigma}")
        if self.yield_force is not None and not self.yield_force > 0.0:
            raise ValueError(f"yield force must be positive, got {self.yield_force}")
        s.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "stiffness", s)
        object.__setattr__(self, "engagement", e)


@dataclass(frozen=True, eq=False)
class ExecutionTrace:
    """One row per step; the float fields are column views of one (T, 4K) table."""

    positions: np.ndarray        # (T, K) closing coordinates at step start
    forces: np.ndarray           # (T, K) sensed forces
    commands: np.ndarray         # (T, K) velocity commands
    locked: np.ndarray           # (T, K) latch state after the step


@dataclass(frozen=True, eq=False)
class GraspExecutionResult:
    verdict: str
    final_forces: np.ndarray
    peak_forces: np.ndarray
    peak_commands: np.ndarray
    locked: np.ndarray
    final_positions: np.ndarray
    f_target: float
    steps: int
    trace: ExecutionTrace


def run_grasp(start, end, contact: ContactModel, f_target: float,
              lock_enabled: bool = True, seed: int = 0) -> GraspExecutionResult:
    """Close (K,) closing coordinates from `start` toward `end` under force limits.

    The PD loop runs with gains DEFAULT_KP and DEFAULT_KD at time step
    DEFAULT_DT.  The episode ends when the velocity commands settle below a
    small threshold (which covers the all-locked case once the latch
    transient dies out) or DEFAULT_MAX_STEPS elapses.  Verdict: damaged if
    any finger's peak force exceeded the object's yield force; stable if at
    least MIN_STABLE_FINGERS fingers ended inside STABILITY_BAND around
    `f_target`; unstable otherwise.  With `lock_enabled` False the force
    latch is bypassed and fingers drive all the way to `end`.

    Every step appends its positions, forces, commands and latch flags to
    one flat list, and the (T, 4K) table is built once.  The final reading
    runs the step's own pass over the fingers once more and keeps only the
    forces it senses and the positions it reads; the latch flags reported
    are the last step's.
    """
    if not 0.0 < f_target < math.inf:
        raise ValueError(f"target force must be positive and finite, got {f_target}")
    start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    if start.shape != end.shape:
        raise DimensionMismatch(f"start has shape {start.shape}, end {end.shape}")
    k = contact.engagement.shape[0]
    if start.shape != (k,):
        raise DimensionMismatch(f"contact model covers {k} fingers, start {start.shape}")
    if k == 0:
        raise DimensionMismatch("a grasp needs at least one finger to close")

    # one row of draws per reading, every step's and the final one: the same
    # stream as one (K,) draw per reading
    noise = (np.random.default_rng(seed).normal(
                 0.0, contact.noise_sigma, (DEFAULT_MAX_STEPS + 1, k)).tolist()
             if contact.noise_sigma > 0.0 else None)
    stiffness = contact.stiffness.tolist()
    engagement = contact.engagement.tolist()
    latch_threshold = f_target if lock_enabled else math.inf
    positions = start.tolist()
    # the end until a finger latches, then the position it latched at
    setpoints = end.tolist()
    locked = [False] * k
    error = [0.0] * k    # each finger's error at the last step
    # every step's positions, forces, commands and latch flags, in turn
    flat = []
    # the gains as locals, read K times per step
    kp, kd, dt = DEFAULT_KP, DEFAULT_KD, DEFAULT_DT
    fingers = range(k)
    final = False
    for step in range(DEFAULT_MAX_STEPS + 1):
        # one pass over the fingers: sense (a spring force, clipped at zero
        # like a real normal force), latch, command and advance.  The pass
        # after the last step is the final reading, which keeps its forces
        # and the positions it read and drops the rest
        draws = noise[step] if noise is not None else None
        forces, command, advanced = [], [], []
        for i in fingers:
            p = positions[i]
            # max(0.0, x) as a conditional, which costs no call
            f = p - engagement[i]
            f = stiffness[i] * f if f > 0.0 else 0.0
            if draws is not None:
                f += draws[i]
                f = f if f > 0.0 else 0.0
            if f >= latch_threshold and not locked[i]:
                locked[i] = True
                setpoints[i] = p
            e = setpoints[i] - p
            # the first step's derivative is against its own error: kd * 0.0
            # is still added, which turns a -0.0 command into 0.0 as the
            # trace records
            c = kp * e + kd * ((e - (error[i] if step else e)) / dt)
            error[i] = e
            forces.append(f)
            command.append(c)
            advanced.append(p + c * dt)
        if final:
            break
        flat += positions
        flat += forces
        flat += command
        flat += locked
        positions = advanced
        # settling covers the all-locked case too: the latch flips the
        # setpoint, and the PD needs a few more steps to absorb the
        # derivative transient and hold the locked position
        final = max(map(abs, command)) < _COMMAND_EPS or step == DEFAULT_MAX_STEPS - 1

    final_forces = np.array(forces)
    # (T, 4K): positions, forces, commands, latch flags as 1.0 or 0.0
    table = np.array(flat, dtype=float).reshape(-1, 4 * k)
    trace = ExecutionTrace(positions=table[:, :k], forces=table[:, k:2 * k],
                           commands=table[:, 2 * k:3 * k], locked=table[:, 3 * k:] == 1.0)
    peak_forces = np.vstack([trace.forces, final_forces]).max(axis=0)

    if contact.yield_force is not None and bool((peak_forces > contact.yield_force).any()):
        verdict = VERDICT_DAMAGED
    else:
        lo, hi = STABILITY_BAND
        in_band = (final_forces >= lo * f_target) & (final_forces <= hi * f_target)
        verdict = VERDICT_STABLE if int(in_band.sum()) >= MIN_STABLE_FINGERS else VERDICT_UNSTABLE

    return GraspExecutionResult(
        verdict=verdict,
        final_forces=final_forces,
        peak_forces=peak_forces,
        peak_commands=np.abs(trace.commands).max(axis=0),
        locked=trace.locked[-1].copy(),
        final_positions=np.array(positions),
        f_target=float(f_target),
        steps=len(table),
        trace=trace)


def trace_csv(result: GraspExecutionResult) -> str:
    """Per-step positions, forces, commands, and latch flags as CSV text.

    Every value is written as `f"{v:.9g}"` would write it; the step and the
    latch flags as integers.
    """
    t = result.trace
    steps, k = t.positions.shape
    head = ",".join(["step"] + [f"{col}_{i}" for col in ("position", "force", "command", "locked")
                                for i in range(k)])
    row = ",".join(["%d"] + ["%.9g"] * (3 * k) + ["%d"] * k)
    table = np.column_stack([np.arange(steps), t.positions, t.forces, t.commands, t.locked])
    # the whole table in one `%`
    return "\n".join([head] + [row] * steps) % tuple(table.ravel().tolist()) + "\n"
