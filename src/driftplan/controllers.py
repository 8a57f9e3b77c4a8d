"""Feedback controllers: passive floating, reachability-gradient policies,
and reactive obstacle-distance switching variants."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

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


def floating_policy() -> ControlInput:
    """Zero actuation: the vehicle drifts with the flow."""
    return ControlInput(0.0, 0.0)


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
    return _full_speed_along(-gx, -gy, u_max) or floating_policy()


def safety_ascent_policy(dmap: DistanceMap, x: float, y: float, u_max: float) -> ControlInput | None:
    """Full actuation up the distance-to-obstacle gradient; None when the
    gradient is degenerate and the caller should fall back."""
    return _full_speed_along(*dmap.gradient_at(x, y), u_max)


@dataclass
class Controller:
    """A controller with its held maps and replanning hook.

    ``replan`` recomputes the value function from the given forecast;
    ``control`` is memoryless in (x, t) given the held maps.
    """

    kind: ControllerKind
    solver_config: SolverConfig | None = None
    target: TargetSpec | None = None
    obstacles: ObstacleMask | None = None
    dmap: DistanceMap | None = None
    switch_threshold: float = 0.0
    vf: ValueFunction | None = None
    last_branch: str = "plan"

    def replan(self, forecast: FlowSource, t_now: float, t_end: float) -> None:
        """Solve the reachability problem on the given forecast flow."""
        if self.kind is ControllerKind.FLOATING:
            return
        self.vf = solve_mtr(forecast, self.obstacles, self.target, self.solver_config,
                            t_now, t_end)

    def control(self, x: float, y: float, t: float) -> ControlInput:
        if self.kind is ControllerKind.FLOATING:
            self.last_branch = "float"
            return floating_policy()
        if self.kind in _SWITCHING and self.dmap.value_at(x, y) < self.switch_threshold:
            u = self._ascent(x, y)
            if u is not None:
                self.last_branch = "safety"
                return u
        self.last_branch = "plan"
        try:
            return mtr_policy(self.vf, x, y, min(t, self.vf.terminal_time),
                              self.solver_config.u_max)
        except AlreadyStrandedError:
            # The current plan marks this state as lost; steer away from
            # obstacles if a distance map is held, otherwise drift.
            self.last_branch = "doomed"
            return self._ascent(x, y) or floating_policy()

    def _ascent(self, x: float, y: float) -> ControlInput | None:
        """Safety ascent on the held distance map; None without one or on a
        degenerate gradient."""
        if self.dmap is None:
            return None
        return safety_ascent_policy(self.dmap, x, y, self.solver_config.u_max)


def build_controller(
    kind: ControllerKind | str,
    *,
    solver_config: SolverConfig | None = None,
    target: TargetSpec | None = None,
    obstacles: ObstacleMask | None = None,
    dmap: DistanceMap | None = None,
    switch_threshold: float = SWITCH_THRESHOLD,
) -> Controller:
    """Assemble a controller of the given kind, validating its inputs."""
    if isinstance(kind, str):
        kind = ControllerKind(kind)
    if kind is ControllerKind.FLOATING:
        return Controller(kind=kind, dmap=dmap)
    if solver_config is None or target is None:
        raise ConfigError(f"{kind.value} requires a solver config and target")
    if kind in _OBSTACLE_AWARE and obstacles is None:
        raise ConfigError(f"{kind.value} requires an obstacle mask")
    if kind in _SWITCHING and dmap is None:
        raise ConfigError(f"{kind.value} requires a distance map")
    if kind is ControllerKind.SMALLDIST_MTR:
        solver_config = replace(solver_config, d_max=SMALL_DISTURBANCE)
    return Controller(
        kind=kind,
        solver_config=solver_config,
        target=target,
        obstacles=obstacles if kind in _OBSTACLE_AWARE else None,
        dmap=dmap,
        switch_threshold=switch_threshold,
    )
