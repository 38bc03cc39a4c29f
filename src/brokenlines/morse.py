"""Numerical gradient flow on built-in compact surfaces: critical points,
broken gradient trajectories, validation, and extraction of broken-line
combinatorics.

This is the one floating-point module in the package; every check it
makes carries an explicit tolerance from `Tolerances`.  The surfaces are
built-in parametrizations (round sphere; torus of revolution standing on
its side so the height function is Morse), not user meshes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .extreal import INF, ExtReal
from .lines import BrokenLine
from .orders import LinOrder
from .rep import RepPoint


@dataclass(frozen=True)
class Tolerances:
    tol_crit: float = 1e-8      # gradient norm at accepted critical points
    tol_end: float = 1e-4       # endpoint distance of a trajectory
    tol_reparam: float = 1e-5   # max |h(p(t)) - t|
    tol_inv: float = 1e-4       # flow-invariance residual of the image
    tol_time: float = 1e-3      # flow-time vs translation-distance residual
    step: float = 1e-3          # base integration step (RK4), halved near criticals
    tol_merge: float = 1e-5     # critical-point deduplication distance
    capture: float = 1e-4       # capture radius at a critical point
    escape: float = 1e-3        # radius a seed must leave before capture counts
    horizon: float = 90.0       # max flow time per shot
    max_halvings: int = 20      # step underflow bound
    ring_seeds: int = 16        # seeds on an index-0 unstable sphere
    grid_points: int = 201      # samples of the reparametrized path


class Sphere:
    """Round unit sphere in ambient coordinates; h is the z-coordinate."""

    name = "sphere"
    state_dim = 3

    def h(self, x):
        return np.asarray(x)[..., 2]

    def field(self, x):
        # gradient of z on the unit sphere: e_z minus its normal component
        x = np.asarray(x, dtype=float)
        z = x[..., 2:3]
        out = -z * x
        out[..., 2] += 1.0
        return out

    def grad_norm(self, x):
        return np.linalg.norm(self.field(x), axis=-1)

    def project(self, x):
        x = np.asarray(x, dtype=float)
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    def embed(self, x):
        return np.asarray(x, dtype=float)

    def retract(self, x, delta):
        return self.project(np.asarray(x, dtype=float) + delta)

    def frame(self, x):
        """Two orthonormal tangent vectors at x."""
        x = np.asarray(x, dtype=float)
        probe = np.array([1.0, 0.0, 0.0])
        if abs(np.dot(probe, x)) > 0.9:
            probe = np.array([0.0, 1.0, 0.0])
        e1 = probe - np.dot(probe, x) * x
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(x, e1)
        return np.stack([e1, e2], axis=-1)

    def seeds(self):
        out = []
        for theta in np.linspace(0.4, math.pi - 0.4, 5):
            for phi in np.linspace(-math.pi, math.pi, 8, endpoint=False):
                out.append(
                    [
                        math.sin(theta) * math.cos(phi),
                        math.sin(theta) * math.sin(phi),
                        math.cos(theta),
                    ]
                )
        out += [[0.0, 0.1, 0.995], [0.0, 0.1, -0.995]]
        return self.project(np.array(out))

    def plot_coords(self, x):
        x = np.asarray(x, dtype=float)
        theta = np.arccos(np.clip(x[..., 2], -1.0, 1.0))
        phi = np.arctan2(x[..., 1], x[..., 0])
        return np.stack([phi, theta], axis=-1)


class Torus:
    """Torus of revolution with radii R > r > 0, standing on its side:
    the tube circles a center circle in the xz-plane, so h = z is a Morse
    function with one minimum, two saddles, and one maximum.

    State is (u, v): u runs along the center circle, v around the tube;
    z = (R + r cos v) sin u.  The metric is diagonal, g = diag((R + r
    cos v)^2, r^2), so the parameter domain has no singular seams.
    """

    name = "torus"
    state_dim = 2

    def __init__(self, R=2.0, r=1.0):
        if not R > r > 0:
            raise ValueError("torus radii need R > r > 0")
        self.R = float(R)
        self.r = float(r)

    def h(self, x):
        x = np.asarray(x, dtype=float)
        return (self.R + self.r * np.cos(x[..., 1])) * np.sin(x[..., 0])

    def field(self, x):
        x = np.asarray(x, dtype=float)
        u, v = x[..., 0], x[..., 1]
        ring = self.R + self.r * np.cos(v)
        du = np.cos(u) / ring
        dv = -np.sin(v) * np.sin(u) / self.r
        return np.stack([du, dv], axis=-1)

    def grad_norm(self, x):
        x = np.asarray(x, dtype=float)
        u, v = x[..., 0], x[..., 1]
        ring = self.R + self.r * np.cos(v)
        vec = self.field(x)
        return np.sqrt((ring * vec[..., 0]) ** 2 + (self.r * vec[..., 1]) ** 2)

    def project(self, x):
        x = np.asarray(x, dtype=float)
        return (x + math.pi) % (2 * math.pi) - math.pi

    def embed(self, x):
        x = np.asarray(x, dtype=float)
        u, v = x[..., 0], x[..., 1]
        ring = self.R + self.r * np.cos(v)
        return np.stack(
            [ring * np.cos(u), self.r * np.sin(v), ring * np.sin(u)], axis=-1
        )

    def retract(self, x, delta):
        return self.project(np.asarray(x, dtype=float) + delta)

    def frame(self, x):
        x = np.asarray(x, dtype=float)
        ring = self.R + self.r * math.cos(float(x[1]))
        return np.array([[1.0 / ring, 0.0], [0.0, 1.0 / self.r]]).T

    def seeds(self):
        grid = np.linspace(-math.pi, math.pi, 8, endpoint=False)
        return np.array([[u, v] for u in grid for v in grid])

    def plot_coords(self, x):
        return np.asarray(x, dtype=float)


class PerturbedSurface:
    """A surface with h replaced by h + height * bump; the gradient is
    recomputed by central differences in an orthonormal tangent frame,
    so the perturbation is felt by the flow as well.  Used to check that
    critical-point counts are stable under small perturbations."""

    def __init__(self, base, center_state, height=1e-4, width=0.7):
        self.base = base
        self.name = base.name + "+bump"
        self.state_dim = base.state_dim
        self.center = np.asarray(center_state, dtype=float)
        self.height = float(height)
        self.width = float(width)

    def h(self, x):
        d = np.linalg.norm(
            self.base.embed(x) - self.base.embed(self.center), axis=-1
        )
        return self.base.h(x) + self.height * np.exp(-((d / self.width) ** 2))

    def _tangent_slopes(self, x, eps=1e-5):
        """The frame at x and the central-difference slopes of h along
        its two columns."""
        frame = self.base.frame(x)
        slopes = []
        for j in range(2):
            hp = float(self.h(self.base.retract(x, eps * frame[:, j])))
            hm = float(self.h(self.base.retract(x, -eps * frame[:, j])))
            slopes.append((hp - hm) / (2 * eps))
        return frame, slopes

    def field(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim > 1:
            return np.array([self.field(row) for row in x])
        frame, slopes = self._tangent_slopes(x)
        out = np.zeros(self.state_dim)
        for j in range(2):
            out += slopes[j] * frame[:, j]
        return out

    def grad_norm(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim > 1:
            return np.array([self.grad_norm(row) for row in x])
        _, slopes = self._tangent_slopes(x)
        total = 0.0
        for s in slopes:
            total += s**2
        return math.sqrt(total)

    def project(self, x):
        return self.base.project(x)

    def embed(self, x):
        return self.base.embed(x)

    def retract(self, x, delta):
        return self.base.retract(x, delta)

    def frame(self, x):
        return self.base.frame(x)

    def seeds(self):
        return self.base.seeds()

    def plot_coords(self, x):
        return self.base.plot_coords(x)


SURFACES = {"sphere": Sphere, "torus": Torus}


@dataclass(frozen=True)
class CriticalPoint:
    state: tuple
    h: float
    grad_norm: float
    index: int

    def embedded(self, surface):
        return surface.embed(np.array(self.state))


def _rk4_step(surface, x, dt):
    k1 = surface.field(x)
    k2 = surface.field(surface.project(x + 0.5 * dt * k1))
    k3 = surface.field(surface.project(x + 0.5 * dt * k2))
    k4 = surface.field(surface.project(x + dt * k3))
    return surface.project(x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))


def _guarded_step(surface, x, dt, sign, tol):
    """One RK4 step at the base step, halved until h stays monotone.

    Halving only ever triggers next to a critical point (overshoot);
    returns (state, dt_taken) or (x, None) on step underflow.
    """
    for halvings in range(tol.max_halvings + 1):
        step = dt / (2.0**halvings)
        x_next = _rk4_step(surface, x, sign * step)
        if sign * float(surface.h(x_next) - surface.h(x)) >= -1e-13:
            return x_next, step
    return x, None


@dataclass
class FlowResult:
    states: np.ndarray
    times: np.ndarray
    truncated: bool


def integrate_flow(surface, x0, direction=1, horizon=10.0, tol=Tolerances()):
    """Fourth-order fixed-step flow from x0 (not near-critical), with step
    halving near criticals; `_guarded_step` keeps h monotone."""
    x = surface.project(np.asarray(x0, dtype=float))
    if surface.grad_norm(x) < tol.tol_crit:
        raise ValueError("flow must not start at a critical point")
    states = [x]
    times = [0.0]
    t = 0.0
    truncated = False
    sign = 1.0 if direction >= 0 else -1.0
    while t < horizon:
        x_next, taken = _guarded_step(surface, x, tol.step, sign, tol)
        if taken is None:
            truncated = True
            break
        t += taken
        x = x_next
        states.append(x)
        times.append(t if sign > 0 else -t)
    return FlowResult(np.array(states), np.array(times), truncated)


def find_critical_points(surface, tol=Tolerances()):
    """Grid-seeded Newton refinement of the gradient field, deduplicated,
    with Morse indices estimated from a finite-difference Hessian."""
    found = []
    for seed in surface.seeds():
        x = _newton_refine(surface, np.array(seed, dtype=float), tol)
        if x is None:
            continue
        if any(
            np.linalg.norm(surface.embed(x) - surface.embed(np.array(c)))
            < tol.tol_merge
            for c in found
        ):
            continue
        found.append(tuple(float(v) for v in x))
    out = [
        CriticalPoint(
            state=c,
            h=float(surface.h(np.array(c))),
            grad_norm=float(surface.grad_norm(np.array(c))),
            index=_morse_index(surface, np.array(c)),
        )
        for c in found
    ]
    out.sort(key=lambda cp: (cp.h, cp.state))
    return out


def _newton_refine(surface, x, tol, iters=120):
    # iterate well past tol_crit: shooting seeds sit 1e-7 from the
    # critical point and state error amplifies exponentially downstream
    eps = 1e-6
    best = None
    best_norm = float("inf")
    for _ in range(iters):
        norm = float(surface.grad_norm(x))
        if norm < best_norm:
            best, best_norm = surface.project(x), norm
        if norm < 1e-14:
            break
        frame = surface.frame(x)  # state_dim x 2

        def local_field(p):
            return frame.T @ surface.field(p)

        f0 = local_field(x)
        jac = np.zeros((2, 2))
        for j in range(2):
            xp = surface.retract(x, eps * frame[:, j])
            xm = surface.retract(x, -eps * frame[:, j])
            jac[:, j] = (local_field(xp) - local_field(xm)) / (2 * eps)
        try:
            delta = np.linalg.solve(jac, -f0)
        except np.linalg.LinAlgError:
            break
        if np.linalg.norm(delta) > 0.8:
            delta *= 0.8 / np.linalg.norm(delta)
        x = surface.retract(x, frame @ delta)
    return best if best_norm < tol.tol_crit else None


def _hessian(surface, x, frame, eps=1e-4):
    """Finite-difference Hessian of h at x in the orthonormal frame."""

    def phi(a, b):
        return float(surface.h(surface.retract(x, a * frame[:, 0] + b * frame[:, 1])))

    h00 = phi(0, 0)
    h11 = (phi(eps, 0) - 2 * h00 + phi(-eps, 0)) / eps**2
    h22 = (phi(0, eps) - 2 * h00 + phi(0, -eps)) / eps**2
    h12 = (phi(eps, eps) - phi(eps, -eps) - phi(-eps, eps) + phi(-eps, -eps)) / (
        4 * eps**2
    )
    return np.array([[h11, h12], [h12, h22]])


def _morse_index(surface, x):
    eigs = np.linalg.eigvalsh(_hessian(surface, x, surface.frame(x)))
    scale = max(1e-6, float(np.max(np.abs(eigs))))
    return int(np.sum(eigs < -1e-3 * scale))


def _unstable_directions(surface, critical: CriticalPoint, tol):
    """Points on the unstable sphere, in the orthonormal frame at the
    critical point: a full ring for index 0, the two eigendirections for
    index 1, nothing for index 2."""
    x = np.array(critical.state)
    frame = surface.frame(x)
    if critical.index == 0:
        angles = [2 * math.pi * k / tol.ring_seeds for k in range(tol.ring_seeds)]
        return [(a, np.cos(a) * frame[:, 0] + np.sin(a) * frame[:, 1]) for a in angles]
    if critical.index == 1:
        _, eigvecs = np.linalg.eigh(_hessian(surface, x, frame))
        # ascent flow: the unstable direction has the positive eigenvalue,
        # which eigh sorts last
        vec = eigvecs[:, 1]
        direction = vec[0] * frame[:, 0] + vec[1] * frame[:, 1]
        angle = math.atan2(vec[1], vec[0])
        return [(angle, direction), (angle + math.pi, -direction)]
    return []


@dataclass
class FlowSegment:
    source: int          # index into the critical-point list
    target: int
    seed_angle: float
    states: np.ndarray   # subsampled states, seed first
    times: np.ndarray    # flow times of the stored states
    h_values: np.ndarray


def _shoot_batch(surface, criticals, source_idx, seeds_with_angles, tol, stride=8):
    """Integrate a batch of seeds near one critical point until capture
    at another critical (or no-escape/horizon).  Returns segments."""
    if not seeds_with_angles:
        return []
    crit_embed = np.array([surface.embed(np.array(c.state)) for c in criticals])
    src = criticals[source_idx]
    angles = [a for a, _ in seeds_with_angles]
    rho = 10.0 * tol.tol_crit
    x = np.array(
        [
            surface.retract(np.array(src.state), rho * d)
            for _, d in seeds_with_angles
        ]
    )
    k = len(angles)
    active = np.ones(k, dtype=bool)
    escaped = np.zeros(k, dtype=bool)
    target = np.full(k, -1, dtype=int)
    times = np.zeros(k)
    history = [[(0.0, x[i].copy())] for i in range(k)]
    steps = 0
    max_steps = int(tol.horizon / tol.step) + 1
    dt = tol.step
    while np.any(active) and steps < max_steps:
        idx = np.nonzero(active)[0]
        xs = x[idx]
        h_before = surface.h(xs)
        x_next = _rk4_step(surface, xs, dt)
        taken = np.full(len(idx), dt)
        bad = np.nonzero(surface.h(x_next) - h_before < -1e-13)[0]
        for a in bad:  # overshoot next to a critical: halve that seed's step
            stepped, got = _guarded_step(surface, xs[a], dt, 1.0, tol)
            if got is None:
                active[idx[a]] = False  # stalled at a critical; no capture
                taken[a] = 0.0
            else:
                taken[a] = got
            x_next[a] = stepped
        x[idx] = x_next
        times[idx] += taken
        steps += 1
        emb = surface.embed(x_next)
        dists = np.linalg.norm(emb[:, None, :] - crit_embed[None, :, :], axis=-1)
        escaped[idx] |= dists[:, source_idx] > tol.escape
        nearest = np.argmin(dists, axis=1)
        min_dist = dists[np.arange(len(idx)), nearest]
        captured = escaped[idx] & (min_dist < tol.capture) & (nearest != source_idx)
        record = steps % stride == 0
        for a, i in enumerate(idx):
            if captured[a]:
                target[i] = int(nearest[a])
                active[i] = False
                history[i].append((times[i], x[i].copy()))
            elif record:
                history[i].append((times[i], x[i].copy()))
    segments = []
    for i in range(k):
        if target[i] < 0:
            continue
        ts = np.array([t for t, _ in history[i]])
        sts = np.array([s for _, s in history[i]])
        segments.append(
            FlowSegment(
                source=source_idx,
                target=int(target[i]),
                seed_angle=angles[i],
                states=sts,
                times=ts,
                h_values=np.array([float(surface.h(s)) for s in sts]),
            )
        )
    return segments


def find_connections(surface, criticals, tol=Tolerances(), refine_rounds=2):
    """All flow segments found by unstable-sphere shooting, with bisection
    refinement on ring angles whose outcomes differ (the basin-boundary
    indicator)."""
    segments = []
    for ci, crit in enumerate(criticals):
        dirs = _unstable_directions(surface, crit, tol)
        if not dirs:
            continue
        batch = _shoot_batch(surface, criticals, ci, dirs, tol)
        segments.extend(batch)
        if crit.index != 0 or not batch:
            continue
        # bisect between adjacent ring angles with different targets
        outcome = {}
        for seg in batch:
            outcome[seg.seed_angle] = seg.target
        angles = sorted(outcome)
        frame = surface.frame(np.array(crit.state))
        for round_ in range(refine_rounds):
            new_dirs = []
            pairs = list(zip(angles, angles[1:]))
            pairs.append((angles[-1], angles[0] + 2 * math.pi))
            for a, b in pairs:
                key_b = angles[0] if b == angles[0] + 2 * math.pi else b
                if outcome.get(a) != outcome.get(key_b):
                    for t in np.linspace(a, b, 6)[1:-1]:
                        new_dirs.append(
                            (
                                float(t),
                                math.cos(t) * frame[:, 0]
                                + math.sin(t) * frame[:, 1],
                            )
                        )
            if not new_dirs:
                break
            batch = _shoot_batch(surface, criticals, ci, new_dirs, tol)
            segments.extend(batch)
            for seg in batch:
                outcome[seg.seed_angle] = seg.target
            angles = sorted(outcome)
    return segments


@dataclass
class BrokenTrajectory:
    surface: object
    criticals: list        # CriticalPoints along the path, increasing h
    segments: list         # FlowSegments, one per component
    grid_t: np.ndarray
    points: np.ndarray

    @property
    def component_count(self):
        return len(self.segments)

    def point_at_height(self, t):
        return _path_point(self.surface, self.criticals, self.segments, float(t))


def _flow_to_height(surface, x, t_target, tol, iters=14):
    """Newton in flow time: move along the flow until h(x) = t_target."""
    x = np.asarray(x, dtype=float)
    for _ in range(iters):
        err = t_target - float(surface.h(x))
        if abs(err) < 1e-13:
            break
        speed = float(surface.grad_norm(x)) ** 2
        if speed < 1e-18:
            break
        dt = err / speed
        cap = 50 * tol.step
        if abs(dt) > cap:
            dt = math.copysign(cap, dt)
        x = _rk4_step(surface, x, dt)
    return x


def _path_point(surface, criticals, segments, t, tol=Tolerances()):
    heights = [c.h for c in criticals]
    if t <= heights[0]:
        return np.array(criticals[0].state)
    if t >= heights[-1]:
        return np.array(criticals[-1].state)
    j = max(i for i in range(len(heights) - 1) if heights[i] <= t)
    seg = segments[j]
    hs = seg.h_values
    if t <= hs[0]:
        return np.array(criticals[j].state)
    if t >= hs[-1]:
        return np.array(criticals[j + 1].state)
    idx = int(np.searchsorted(hs, t))
    base = seg.states[max(0, idx - 1)]
    return _flow_to_height(surface, base, t, tol)


def find_broken_trajectories(surface, start, end, tol=Tolerances(), criticals=None, segments=None, max_paths=64):
    """Broken gradient trajectories from one critical point to another,
    assembled by chaining shooting segments through intermediate criticals
    in increasing h and reparametrizing by height."""
    if criticals is None:
        criticals = find_critical_points(surface, tol)
    start_idx = _locate_critical(surface, criticals, start, tol)
    end_idx = _locate_critical(surface, criticals, end, tol)
    if criticals[start_idx].h >= criticals[end_idx].h:
        raise ValueError("need h(start) < h(end)")
    if segments is None:
        segments = find_connections(surface, criticals, tol)
    by_source = {}
    for seg in segments:
        by_source.setdefault(seg.source, []).append(seg)
    paths = []

    def extend(path):
        if len(paths) >= max_paths:
            return
        last = path[-1].target
        if last == end_idx:
            paths.append(list(path))
            return
        for seg in by_source.get(last, []):
            if criticals[seg.target].h > criticals[last].h:
                extend(path + [seg])

    for seg in by_source.get(start_idx, []):
        if criticals[seg.target].h > criticals[start_idx].h:
            extend([seg])

    out = []
    for path in paths:
        crits = [criticals[start_idx]] + [criticals[s.target] for s in path]
        grid = np.linspace(crits[0].h, crits[-1].h, tol.grid_points)
        pts = np.array(
            [_path_point(surface, crits, path, float(t), tol) for t in grid]
        )
        out.append(BrokenTrajectory(surface, crits, path, grid, pts))
    return out


def _locate_critical(surface, criticals, point, tol):
    if isinstance(point, int):
        return point
    if isinstance(point, CriticalPoint):
        target = surface.embed(np.array(point.state))
    else:
        target = surface.embed(np.asarray(point, dtype=float))
    dists = [
        float(np.linalg.norm(surface.embed(np.array(c.state)) - target))
        for c in criticals
    ]
    best = int(np.argmin(dists))
    if dists[best] > 1e-3:
        raise ValueError("point is not one of the critical points")
    return best


@dataclass(frozen=True)
class TrajectoryReport:
    endpoint_residual: float
    reparam_residual: float
    invariance_residual: float
    tol: Tolerances

    @property
    def ok(self):
        return (
            self.endpoint_residual < self.tol.tol_end
            and self.reparam_residual < self.tol.tol_reparam
            and self.invariance_residual < self.tol.tol_inv
        )


class SimplePath:
    """A bare sampled path (for validating arbitrary candidate paths);
    point_at_height is linear interpolation on the stored grid."""

    def __init__(self, surface, criticals, grid_t, points):
        self.surface = surface
        self.criticals = criticals
        self.grid_t = np.asarray(grid_t, dtype=float)
        self.points = np.asarray(points, dtype=float)

    def point_at_height(self, t):
        grid = self.grid_t
        if t <= grid[0]:
            return self.points[0]
        if t >= grid[-1]:
            return self.points[-1]
        i = int(np.searchsorted(grid, t)) - 1
        lam = (t - grid[i]) / (grid[i + 1] - grid[i])
        p = (1 - lam) * self.points[i] + lam * self.points[i + 1]
        return self.surface.project(p)


def validate_trajectory(traj, tol=Tolerances()):
    """Check the three defining clauses at their tolerances: endpoints hit
    the critical points, h(p(t)) = t on the grid, and the image is
    invariant under short flows."""
    surface = traj.surface
    grid = traj.grid_t
    points = traj.points
    start = surface.embed(np.array(traj.criticals[0].state))
    end = surface.embed(np.array(traj.criticals[-1].state))
    endpoint = max(
        float(np.linalg.norm(surface.embed(points[0]) - start)),
        float(np.linalg.norm(surface.embed(points[-1]) - end)),
    )
    reparam = float(
        np.max(np.abs(np.array([surface.h(p) for p in points]) - grid))
    )
    invariance = 0.0
    for i in range(0, len(grid), max(1, len(grid) // 24)):
        for tau in (0.05, -0.05):
            z = points[i]
            nsub = 10
            for _ in range(nsub):
                z = _rk4_step(surface, z, tau / nsub)
            t_z = float(surface.h(z))
            if not (grid[0] <= t_z <= grid[-1]):
                continue
            q = traj.point_at_height(t_z)
            invariance = max(
                invariance,
                float(np.linalg.norm(surface.embed(z) - surface.embed(q))),
            )
    return TrajectoryReport(endpoint, reparam, invariance, tol)


def trajectory_to_line(traj, marks_per_segment=1):
    """Extract the broken-line combinatorics of a validated trajectory.

    Components are the flow segments between consecutive criticals on the
    path; marks sit at recorded integrator times, so within-segment
    distances are exact flow-time differences and cross-segment distances
    are infinite.  Returns (BrokenLine, RepPoint, marks).
    """
    m = traj.component_count
    line = BrokenLine(m)
    order = LinOrder.standard(m * marks_per_segment)
    marks = {}
    gaps = []
    label = 0
    for a, seg in enumerate(traj.segments, start=1):
        count = len(seg.times)
        picks = [
            count // (marks_per_segment + 1) * (k + 1)
            for k in range(marks_per_segment)
        ]
        picks = [min(max(p, 0), count - 1) for p in picks]
        base_time = Fraction(float(seg.times[picks[-1]]))
        previous_time = None
        for p in picks:
            t_exact = Fraction(float(seg.times[p]))
            marks[label] = line.point(a, t_exact - base_time)
            if previous_time is not None:
                gaps.append(ExtReal(t_exact - previous_time))
            elif a > 1:
                gaps.append(INF)
            previous_time = t_exact
            label += 1
    rep = RepPoint.from_gaps(order, gaps)
    return line, rep, marks


def euler_characteristic(criticals):
    return sum((-1) ** c.index for c in criticals)


def render_svg(surface, criticals, segments, width=480, height=480):
    """Flow lines over the parameter/plot domain as a standalone SVG."""
    pts = []
    for seg in segments:
        pts.append(surface.plot_coords(seg.states))
    lo = np.array([-math.pi, -math.pi if surface.name == "torus" else 0.0])
    hi = np.array([math.pi, math.pi])

    def to_px(p):
        q = (p - lo) / (hi - lo)
        return q[0] * width, (1 - q[1]) * height

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for coords in pts:
        chunks = [[]]
        for k in range(len(coords)):
            if k > 0 and np.any(np.abs(coords[k] - coords[k - 1]) > math.pi):
                chunks.append([])
            chunks[-1].append(to_px(coords[k]))
        for chunk in chunks:
            if len(chunk) < 2:
                continue
            path = " ".join(f"{x:.2f},{y:.2f}" for x, y in chunk)
            lines.append(
                f'<polyline points="{path}" fill="none" stroke="#3366bb" '
                f'stroke-width="1"/>'
            )
    for c in criticals:
        x, y = to_px(surface.plot_coords(np.array(c.state)))
        lines.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#bb3333"/>'
        )
        lines.append(
            f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-size="12">'
            f"idx {c.index}</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines)


def demo_report(surface_name, tol=Tolerances()):
    """Criticals, connections, broken trajectories, and extracted
    combinatorics for one built-in surface, as JSON-ready data."""
    surface = SURFACES[surface_name]()
    criticals = find_critical_points(surface, tol)
    segments = find_connections(surface, criticals, tol)
    minimum = criticals[0]
    maximum = criticals[-1]
    trajectories = find_broken_trajectories(
        surface, minimum, maximum, tol, criticals=criticals, segments=segments
    )
    traj_entries = []
    for traj in trajectories:
        report = validate_trajectory(traj, tol)
        line, rep, _marks = trajectory_to_line(traj)
        traj_entries.append(
            {
                "components": traj.component_count,
                "criticals_h": [c.h for c in traj.criticals],
                "valid": report.ok,
                "endpoint_residual": report.endpoint_residual,
                "reparam_residual": report.reparam_residual,
                "invariance_residual": report.invariance_residual,
                "rep_point": rep.to_json(),
            }
        )
    return {
        "surface": surface_name,
        "criticals": [
            {
                "state": list(c.state),
                "h": c.h,
                "grad_norm": c.grad_norm,
                "index": c.index,
            }
            for c in criticals
        ],
        "euler_characteristic": euler_characteristic(criticals),
        "segments": [
            {"source": s.source, "target": s.target, "angle": s.seed_angle}
            for s in segments
        ],
        "trajectories": traj_entries,
        "svg": render_svg(surface, criticals, segments),
    }
