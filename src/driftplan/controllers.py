"""Feedback controllers: passive floating, reachability-gradient policies,
and reactive obstacle-distance switching variants."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from .errors import AlreadyStrandedError, ConfigError
from .flowfield import FlowSource
from .hjsolver import SolverConfig, TargetSpec, ValueFunction, solve_mtr
from .terrain import DistanceMap, ObstacleMask

#: below this gradient norm the descent direction is numerical noise
EPS_GRAD = 1e-8
#: disturbance bound d_max, in m/s, that smalldist_mtr plans against
SMALL_DISTURBANCE = 0.05
#: distance to the nearest obstacle, in m, below which switching controllers
#: steer away from it
SWITCH_THRESHOLD = 20_000.0


@dataclass(frozen=True)
class ControlInput:
    """Heading + magnitude; magnitude is either 0 or the full u_max."""

    theta: float
    magnitude: float

    @property
    def vector(self) -> tuple[float, float]:
        return (self.magnitude * math.cos(self.theta),
                self.magnitude * math.sin(self.theta))


#: zero actuation: the vehicle drifts with the flow
DRIFT = ControlInput(0.0, 0.0)


class ControllerKind(enum.Enum):
    FLOATING = "floating"
    MTR = "mtr"
    MTR_NO_OBS = "mtr_no_obs"
    SWITCH_MTR = "switch_mtr"
    SWITCH_MTR_NO_OBS = "switch_mtr_no_obs"
    SMALLDIST_MTR = "smalldist_mtr"


#: controllers whose replanning solve sees the real obstacle mask
_OBSTACLE_AWARE = {
    ControllerKind.MTR,
    ControllerKind.SWITCH_MTR,
    ControllerKind.SMALLDIST_MTR,
}
#: controllers that wrap their planner in a distance-threshold safety branch
_SWITCHING = {ControllerKind.SWITCH_MTR, ControllerKind.SWITCH_MTR_NO_OBS}


def _full_speed_along(gx: float, gy: float, u_max: float) -> ControlInput | None:
    """Full actuation along the unit vector of (gx, gy); None when its norm
    is not finite or below EPS_GRAD."""
    norm = math.hypot(gx, gy)
    if not math.isfinite(norm) or norm < EPS_GRAD:
        return None
    return ControlInput(math.atan2(gy / norm, gx / norm), u_max)


def mtr_policy(vf: ValueFunction, x: float, y: float, t: float, u_max: float) -> ControlInput:
    """Full-speed descent on the value-function gradient.

    Raises AlreadyStrandedError when the query cell is sentinel-valued.
    """
    gx, gy = vf.grad_at(x, y, t)
    return _full_speed_along(-gx, -gy, u_max) or DRIFT


@dataclass
class Controller:
    """A controller of one kind, given as a member or by name, with its held
    maps; its only state is its plan ``vf``. Construction checks that the kind
    has what it needs, sets smalldist_mtr's ``d_max`` and drops the mask of the
    obstacle-blind kinds. ``control`` is memoryless in (x, t) given the maps."""

    kind: ControllerKind
    solver_config: SolverConfig | None = None
    target: TargetSpec | None = None
    obstacles: ObstacleMask | None = None
    dmap: DistanceMap | None = None
    switch_threshold: float = SWITCH_THRESHOLD
    vf: ValueFunction | None = field(default=None, init=False)

    def __post_init__(self):
        self.kind = kind = ControllerKind(self.kind)
        if kind not in _OBSTACLE_AWARE:
            self.obstacles = None
        if kind is ControllerKind.FLOATING:
            return
        if self.solver_config is None or self.target is None:
            raise ConfigError(f"{kind.value} requires a solver config and target")
        if kind in _OBSTACLE_AWARE and self.obstacles is None:
            raise ConfigError(f"{kind.value} requires an obstacle mask")
        if kind in _SWITCHING and self.dmap is None:
            raise ConfigError(f"{kind.value} requires a distance map")
        if kind is ControllerKind.SMALLDIST_MTR:
            self.solver_config = replace(self.solver_config, d_max=SMALL_DISTURBANCE)

    def replan(self, forecast: FlowSource, t_now: float, t_end: float) -> None:
        """Solve the reachability problem on the given forecast flow."""
        if self.kind is ControllerKind.FLOATING:
            return
        self.vf = solve_mtr(forecast, self.obstacles, self.target, self.solver_config,
                            t_now, t_end)

    def control(self, x: float, y: float, t: float) -> tuple[ControlInput, str]:
        """The control at (x, y, t) and the branch that chose it: ``float``,
        ``safety``, ``plan`` or ``doomed``."""
        if self.kind is ControllerKind.FLOATING:
            return DRIFT, "float"
        if self.kind in _SWITCHING and self.dmap.value_at(x, y) < self.switch_threshold:
            u = self._ascent(x, y)
            if u is not None:
                return u, "safety"
        try:
            return mtr_policy(self.vf, x, y, min(t, self.vf.terminal_time),
                              self.solver_config.u_max), "plan"
        except AlreadyStrandedError:
            # The current plan marks this state as lost; steer away from
            # obstacles if a distance map is held, otherwise drift.
            return self._ascent(x, y) or DRIFT, "doomed"

    def _ascent(self, x: float, y: float) -> ControlInput | None:
        """Full actuation up the held distance map's gradient; None without a
        map or when the gradient is degenerate."""
        if self.dmap is None:
            return None
        return _full_speed_along(*self.dmap.gradient_at(x, y), self.solver_config.u_max)
