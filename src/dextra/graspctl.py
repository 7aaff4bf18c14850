"""Force-constrained grasp execution in finger closing coordinates.

Each finger is commanded through one closing coordinate, the driver joint
declared by the hand model (linkage-coupled segments follow via mimics).
A PD loop drives every finger from its pre-grasp angle toward its squeeze
angle; the moment a finger's sensed force reaches the predicted target
force, its current position is locked in as the new setpoint for the rest
of the episode.  Closing force is therefore bounded near the target
instead of running to the squeeze pose on rigid objects.  `run_grasp` is
the whole controller: one loop over per-finger arrays (positions, latch
flags, latched positions, last error) that records every step in an
`ExecutionTrace`.

Contact is simulated by a one-sided linear spring per finger: zero force
until the closing coordinate passes the engagement position, then force
proportional to the penetration.  Optional Gaussian sensor noise is seeded
explicitly, so the default (sigma = 0) episode is bit-for-bit repeatable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MissingField
from .kinematics import KinematicHandModel
from .retarget import GraspAction

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
        if float(s.min()) <= 0.0:
            raise ValueError("contact stiffness must be positive")
        s.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "stiffness", s)
        object.__setattr__(self, "engagement", e)


@dataclass(frozen=True, eq=False)
class ExecutionTrace:
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


def run_grasp(pre: GraspAction, squeeze: GraspAction, contact: ContactModel,
              f_target: float, model: KinematicHandModel,
              lock_enabled: bool = True, seed: int = 0) -> GraspExecutionResult:
    """Close from the pre-grasp toward the squeeze pose under force limits.

    The PD loop runs with gains DEFAULT_KP and DEFAULT_KD at time step
    DEFAULT_DT.  The episode ends when the velocity commands settle below a
    small threshold (which covers the all-locked case once the latch
    transient dies out) or DEFAULT_MAX_STEPS elapses.  Verdict: damaged if
    any finger's peak force exceeded the object's yield force; stable if at
    least MIN_STABLE_FINGERS fingers ended inside STABILITY_BAND around
    `f_target`; unstable otherwise.  With `lock_enabled` False the force
    latch is bypassed and fingers drive all the way to the squeeze pose.
    """
    if f_target <= 0.0:
        raise ValueError(f"target force must be positive, got {f_target}")
    if not model.finger_drivers:
        raise MissingField(f"model '{model.name}' declares no finger_drivers")
    drivers = [model.joint_index[name] for name in model.finger_drivers]
    positions = np.array(pre.config.joint_angles[drivers])
    squeeze_targets = np.array(squeeze.config.joint_angles[drivers])
    k = len(drivers)
    if contact.engagement.shape != (k,):
        raise DimensionMismatch(
            f"contact model covers {contact.engagement.shape[0]} fingers, hand has {k}")

    rng = np.random.default_rng(seed) if contact.noise_sigma > 0.0 else None

    def sense(pos):
        """Spring force per finger; clipped at zero like a real normal force."""
        f = contact.stiffness * np.maximum(0.0, pos - contact.engagement)
        if rng is not None:
            f = np.maximum(0.0, f + rng.normal(0.0, contact.noise_sigma, (k,)))
        return f

    latch_threshold = f_target if lock_enabled else np.inf
    locked = np.zeros(k, dtype=bool)
    locked_positions = np.zeros(k)
    last_error = None
    rows_pos, rows_force, rows_cmd, rows_locked = [], [], [], []
    for _ in range(DEFAULT_MAX_STEPS):
        forces = sense(positions)
        newly_locked = ~locked & (forces >= latch_threshold)
        locked = locked | newly_locked
        locked_positions = np.where(newly_locked, positions, locked_positions)
        error = np.where(locked, locked_positions, squeeze_targets) - positions
        # no derivative on the first step, but kd * 0 is still added: it
        # turns a -0.0 command into 0.0, and the trace records the sign
        derivative = (np.zeros_like(error) if last_error is None
                      else (error - last_error) / DEFAULT_DT)
        command = DEFAULT_KP * error + DEFAULT_KD * derivative
        last_error = error
        rows_pos.append(positions)
        rows_force.append(forces)
        rows_cmd.append(command)
        rows_locked.append(locked)
        positions = positions + command * DEFAULT_DT
        # settling covers the all-locked case too: the latch flips the
        # setpoint, and the PD needs a few more steps to absorb the
        # derivative transient and hold the locked position
        if float(np.abs(command).max()) < _COMMAND_EPS:
            break

    final_forces = sense(positions)
    all_forces = np.vstack(rows_force + [final_forces])
    peak_forces = all_forces.max(axis=0)
    trace = ExecutionTrace(positions=np.vstack(rows_pos), forces=np.vstack(rows_force),
                           commands=np.vstack(rows_cmd), locked=np.vstack(rows_locked))

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
        locked=locked,
        final_positions=positions,
        f_target=float(f_target),
        steps=len(rows_cmd),
        trace=trace)


def trace_csv(result: GraspExecutionResult) -> str:
    """Per-step positions, forces, commands, and latch flags as CSV text."""
    t = result.trace
    k = t.positions.shape[1]
    lines = [",".join(["step"] + [f"{col}_{i}" for col in ("position", "force", "command", "locked")
                                  for i in range(k)])]
    for step, row in enumerate(np.hstack([t.positions, t.forces, t.commands])):
        lines.append(",".join([str(step)] + [f"{v:.9g}" for v in row]
                              + [str(int(v)) for v in t.locked[step]]))
    return "\n".join(lines) + "\n"
