"""Numerical gradient flow on built-in compact surfaces: critical points,
broken gradient trajectories, validation, and extraction of broken-line
combinatorics.

This is the one floating-point module in the package; every check it
makes carries an explicit tolerance from `Tolerances`.  The surfaces are
built-in parametrizations (round sphere; torus of revolution standing on
its side so the height function is Morse), not user meshes, and each
gives its height h and gradient field in closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .extreal import INF, ExtReal
from .lines import BrokenLine
from .orders import LinOrder
from .rep import RepPoint


@dataclass(frozen=True)
class Tolerances:
    """The float pipeline's tolerances: seven fixed class constants and five settable fields."""

    tol_crit: ClassVar[float] = 1e-8      # gradient norm at accepted critical points
    tol_end: ClassVar[float] = 1e-4       # endpoint distance of a trajectory
    tol_reparam: ClassVar[float] = 1e-5   # max |h(p(t)) - t|
    tol_inv: ClassVar[float] = 1e-4       # flow-invariance residual of the image
    tol_merge: ClassVar[float] = 1e-5     # critical-point deduplication distance
    capture: ClassVar[float] = 1e-4       # capture radius at a critical point
    escape: ClassVar[float] = 1e-3        # radius a seed must leave before capture counts
    step: float = 1e-3          # first trial step; unit of the Newton cap
    horizon: float = 90.0       # max flow time per shot
    max_halvings: int = 20      # stall bound: steps below step / 2**max_halvings
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
        return x / _norms(x)[..., None]

    def embed(self, x):
        return np.asarray(x, dtype=float)

    def frame(self, x):
        """Two orthonormal tangent vectors at each x (..., 3), as the
        columns of a (..., 3, 2) array."""
        x = np.asarray(x, dtype=float)
        # project e_x, or e_y where x is close to the x-axis; vecdot is
        # the dot product of a 1-D np.dot or np.linalg.norm, bit for bit
        probe = np.where(np.abs(x[..., :1]) > 0.9, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
        e1 = probe - np.vecdot(probe, x)[..., None] * x
        e1 /= np.sqrt(np.vecdot(e1, e1))[..., None]
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
        # cos and sin of the whole state at once: elementwise, so bit for
        # bit those of each column alone
        x = np.asarray(x, dtype=float)
        cos, sin = np.cos(x), np.sin(x)
        out = np.empty(x.shape)
        np.divide(cos[..., 0], self.R + self.r * cos[..., 1], out=out[..., 0])
        # -(a b) / r, rounded the same as (a b) / -r
        np.divide(sin[..., 1] * sin[..., 0], -self.r, out=out[..., 1])
        return out

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
        cos, sin = np.cos(x), np.sin(x)
        ring = self.R + self.r * cos[..., 1]
        out = np.empty(x.shape[:-1] + (3,))
        out[..., 0] = ring * cos[..., 0]
        out[..., 1] = self.r * sin[..., 1]
        out[..., 2] = ring * sin[..., 0]
        return out

    def frame(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (2,))
        out[..., 0, 0] = 1.0 / (self.R + self.r * np.cos(x[..., 1]))
        out[..., 1, 1] = 1.0 / self.r
        return out

    def seeds(self):
        grid = np.linspace(-math.pi, math.pi, 8, endpoint=False)
        return np.array([[u, v] for u in grid for v in grid])

    def plot_coords(self, x):
        return np.asarray(x, dtype=float)


SURFACES = {"sphere": Sphere, "torus": Torus}


@dataclass(frozen=True)
class CriticalPoint:
    state: tuple
    h: float
    grad_norm: float
    index: int


# Dormand-Prince 5(4) pair (Dormand & Prince 1980; Hairer, Norsett &
# Wanner, Solving ODEs I, II.4-5).  Row s of _DP_A gives stage s from the
# earlier stages; its last row gives the fifth-order state, whose field is
# the seventh stage and also the first stage of the next step (FSAL).
# _DP_E gives the difference to the embedded fourth-order state.  Each row
# is a (s, 1, 1) column, to weight the first s stages of a (7, n, d) array.
_DP_A = [
    np.array(row).reshape(-1, 1, 1)
    for row in (
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
]
_DP_E = np.array(
    (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
).reshape(-1, 1, 1)
# local-error tolerance, per unit step: an adaptive step needs the norm of
# its error estimate to be at most _ATOL + _RTOL * (its displacement).
# Near a critical point this bounds the error relative to the distance
# from it, which sets the flow time to leave or reach it.
_RTOL = 1e-6
_ATOL = 1e-12
# step control: the error norm scales as h**4 per unit step, so the next
# step is the last one times _SAFETY * err**(-1/4), kept within
# [_MIN_FACTOR, _MAX_FACTOR]
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_NEWTON_ROUNDS = 120  # round cap of _newton_refine
_HEIGHT_ROUNDS = 14  # round cap of _flow_to_height
_HESSIAN_EPS = 1e-4  # finite-difference step of _hessian


def _norms(v):
    # np.linalg.norm(v, axis=-1), bit for bit, without its argument checks
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def _combine(column, stages):
    # the left-to-right sum from +0.0 of the weighted stages, elementwise,
    # so that a row's result does not depend on its batch; a zero weight
    # adds +-0.0 to a sum that is never -0.0, which changes no bit
    return np.add.reduce(column * stages, axis=0, initial=0.0)


def _dp_step(surface, x, f, h):
    """One Dormand-Prince 5(4) step of every row of x (n, d) by its own
    signed step h (n,), given f = surface.field(x).

    Returns the fifth-order state before projection, its projection and
    the (7, n, d) array of stages, whose last one is the field at that
    projection."""
    hc = h[:, None]
    k = np.empty((7,) + x.shape)
    k[0] = f
    for s, column in enumerate(_DP_A, start=1):
        x_new = x + hc * _combine(column, k[:s])
        y = surface.project(x_new)
        k[s] = surface.field(y)
    return x_new, y, k


def _dp_error(x, x_new, k, h):
    """The norm of the embedded error estimate of the step from x to x_new
    by h with stages k (`_dp_step`), in units of _ATOL + _RTOL * |x_new - x|."""
    scale = _ATOL + _RTOL * _norms(x_new - x)
    return _norms(h[:, None] * _combine(_DP_E, k)) / scale


def _hermite(a, fa, b, fb, h, s):
    """Cubic Hermite interpolant of steps h (n,) from a to b, with slopes
    fa and fb at the ends, at the fractions s (n,) of each step."""
    s = s[:, None]
    h = h[:, None]
    r = 1 - s
    r2 = r**2
    s2 = s**2
    return (1 + 2 * s) * r2 * a + s * r2 * h * fa + s2 * (3 - 2 * s) * b - s2 * r * h * fb


# how a row of _flow_rows ended, by its code there
_ENDINGS = (None, "stop", "horizon", "stalled")


def _flow_rows(surface, x0, sign, horizon, tol, stop=None):
    """Flow every row of x0 (n, d) along sign * grad h for flow time up to
    `horizon`, all rows together, each with its own adaptive step.

    A trial step is accepted when its error norm is at most 1 and h has
    not moved against the flow by more than 1e-13.  The first trial step
    is tol.step; steps are clipped so that no row passes the horizon; a
    row stalls when its step falls below tol.step / 2**tol.max_halvings.
    `stop(rows, a, fa, b, fb, h)` sees the rows whose step from a to b
    (before projection) was just accepted and returns a mask of those
    that end inside it, with the fraction of the step where each ends; the
    row's last time and state are then set there.

    Returns, per row, the times and states of every accepted step and how
    the row ended: "stop", "horizon" or "stalled".
    """
    x = surface.project(np.array(x0, dtype=float))
    n = len(x)
    f = surface.field(x)
    height = surface.h(x)
    t = np.zeros(n)
    step = np.full(n, float(tol.step))
    retried = np.zeros(n, dtype=bool)
    min_step = tol.step / 2.0**tol.max_halvings
    # one (rows, times, states) entry per accepted batch of steps
    log = [(np.arange(n), t.copy(), x.copy())]
    ended = np.zeros(n, dtype=int)  # index into _ENDINGS
    live = np.arange(n)
    while live.size:
        left, trial = horizon - t[live], step[live]
        last = trial >= left
        dt = np.where(last, left, trial)
        xs, h = x[live], sign * dt
        b, y, k = _dp_step(surface, xs, f[live], h)
        fb, err = k[-1], _dp_error(xs, b, k, h)
        hy = surface.h(y)
        ok = (err <= 1.0) & (sign * (hy - height[live]) >= -1e-13)
        growth = _SAFETY * np.maximum(err, 1e-16) ** -0.25
        factor = np.where(
            ok,
            np.minimum(growth, np.where(retried[live], 1.0, _MAX_FACTOR)),
            np.where(err > 1.0, np.maximum(growth, _MIN_FACTOR), 0.5),
        )
        step[live] = dt * factor
        retried[live] = ~ok
        rows = live[ok]
        a, fa, t_from = x[rows], f[rows], t[rows]
        x[rows], f[rows], height[rows] = y[ok], fb[ok], hy[ok]
        t[rows] = np.where(last[ok], horizon, t_from + dt[ok])
        if stop is not None and rows.size:
            h = h[ok]
            end, s = stop(rows, a, fa, b[ok], fb[ok], h)
            if end.any():
                cut = _hermite(a[end], fa[end], b[ok][end], fb[ok][end], h[end], s[end])
                x[rows[end]] = surface.project(cut)
                t[rows[end]] = t_from[end] + s[end] * dt[ok][end]
                ended[rows[end]] = 1
        log.append((rows, t[rows], x[rows]))
        going = ended[live] == 0
        done = t[live] >= horizon
        ended[live[going & done]] = 2
        ended[live[going & ~done & (step[live] < min_step)]] = 3
        live = live[ended[live] == 0]
    rows, t, x = (np.concatenate(parts) for parts in zip(*log))
    order = np.argsort(rows, kind="stable")
    cuts = np.cumsum(np.bincount(rows, minlength=n))[:-1]
    times = np.split(t[order], cuts)
    states = np.split(x[order], cuts)
    return times, states, [_ENDINGS[e] for e in ended]


def find_critical_points(surface, tol=Tolerances()):
    """Grid-seeded Newton refinement of the gradient field, deduplicated,
    with Morse indices estimated from a finite-difference Hessian."""
    refined, converged = _newton_refine(surface, surface.seeds(), tol)
    refined = refined[converged]
    found, embedded = [], []
    for x, e in zip(refined, surface.embed(refined)):
        if any(np.linalg.norm(e - c) < tol.tol_merge for c in embedded):
            continue
        found.append(tuple(float(v) for v in x))
        embedded.append(e)
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


def _newton_refine(surface, x, tol):
    """Newton iteration on the field in the orthonormal frame, all rows of
    x (n, d) in one batch, with a central-difference Jacobian.  A row stops
    when its gradient norm is below 1e-14, when its Jacobian is singular,
    or when it comes back to its state of two rounds before: from there it
    only cycles through states already scored.  Returns the projected
    state of least gradient norm of each row, and a mask of the rows where
    that norm is below tol.tol_crit."""
    # iterate well past tol_crit: shooting seeds sit 1e-7 from the
    # critical point and state error amplifies exponentially downstream
    eps = 1e-6
    x = np.array(x, dtype=float)
    best = x.copy()
    best_norm = np.full(len(x), np.inf)
    live = np.arange(len(x))
    # the states at the start of the last round and of this one
    before = start = np.full(x.shape, np.nan)
    for _ in range(_NEWTON_ROUNDS):
        before, start = start, x.copy()
        norm = surface.grad_norm(x[live])
        better = norm < best_norm[live]
        best[live[better]] = surface.project(x[live[better]])
        best_norm[live[better]] = norm[better]
        live = live[~(norm < 1e-14)]
        if not live.size:
            break
        xs = x[live]
        frame = surface.frame(xs)  # (rows, state_dim, 2)
        probes = [xs]
        for e in np.moveaxis(eps * frame, -1, 0):
            probes += [surface.project(xs + e), surface.project(xs - e)]
        # the field in the frame at x and at x +- eps along each frame
        # vector, from one field call
        local = (np.swapaxes(frame, -1, -2) @ surface.field(np.stack(probes))[..., None])[..., 0]
        jac = np.stack([local[1] - local[2], local[3] - local[4]], axis=-1) / (2 * eps)
        delta, solved = _solve_rows(jac, -local[0])
        size = np.sqrt(np.vecdot(delta, delta))
        big = size > 0.8
        delta[big] *= (0.8 / size[big])[:, None]
        live, xs, frame, delta = live[solved], xs[solved], frame[solved], delta[solved]
        x[live] = surface.project(xs + (frame @ delta[..., None])[..., 0])
        live = live[~np.all(x[live] == before[live], axis=1)]
    return best, best_norm < tol.tol_crit


def _solve_rows(a, b):
    """Solve a[i] y = b[i] for every row in one batch.  A row whose LU
    factorization (the one np.linalg.solve runs) has a zero pivot, shown
    by a zero slogdet sign, would fail the batch: it is solved against the
    identity instead.  Returns the solutions and the mask of solvable rows."""
    solved = np.linalg.slogdet(a)[0] != 0
    a = np.where(solved[:, None, None], a, np.eye(a.shape[-1]))
    return np.linalg.solve(a, b[..., None])[..., 0], solved


def _hessian(surface, x, frame):
    """Finite-difference Hessian of h at x in the orthonormal frame."""
    eps = _HESSIAN_EPS

    def phi(a, b):
        delta = a * frame[:, 0] + b * frame[:, 1]
        return float(surface.h(surface.project(x + delta)))

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
    states: np.ndarray   # accepted states: seed first, capture point last
    times: np.ndarray    # flow times of the stored states
    h_values: np.ndarray


def _shoot_batch(surface, criticals, shots, tol):
    """Flow a batch of shots (source index, angle, direction), each started
    10 * tol_crit from its source critical point along its direction, up
    the gradient until it comes within tol.capture of another critical
    point after leaving tol.escape of its own source.  All shots are
    stepped together by `_flow_rows`, each with its own step size.  The
    capture is located inside the step where it happens, on the cubic
    Hermite interpolant of the step, and the segment ends there.

    Returns per shot its FlowSegment, or how it ended when it stalled or
    reached tol.horizon first: "stalled" or "horizon"."""
    if not shots:
        return []
    crit_embed = np.array([surface.embed(np.array(c.state)) for c in criticals])
    source = np.array([ci for ci, _, _ in shots])
    rho = 10.0 * tol.tol_crit
    x0 = np.array(
        [surface.project(np.array(criticals[ci].state) + rho * d) for ci, _, d in shots]
    )
    escaped = np.zeros(len(x0), dtype=bool)
    target = np.full(len(x0), -1, dtype=int)

    def distance(x, centres):
        return _norms(surface.embed(surface.project(x)) - centres)

    def capture(rows, a, fa, b, fb, h):
        dists = distance(b[:, None, :], crit_embed[None, :, :])
        own = source[rows]
        k = np.arange(len(rows))
        escaped[rows] |= dists[k, own] > tol.escape
        nearest = np.argmin(dists, axis=1)
        hit = escaped[rows] & (dists[k, nearest] < tol.capture) & (nearest != own)
        target[rows[hit]] = nearest[hit]
        s = np.ones(len(rows))
        if hit.any():
            # bisect for the entry into the capture ball; s = 0 lies outside
            ends = (a[hit], fa[hit], b[hit], fb[hit], h[hit])
            centres = crit_embed[nearest[hit]]
            lo, hi = np.zeros(len(centres)), np.ones(len(centres))
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                inside = distance(_hermite(*ends, mid), centres) < tol.capture
                hi = np.where(inside, mid, hi)
                lo = np.where(inside, lo, mid)
            s[hit] = hi
        return hit, s

    times, states, ended = _flow_rows(surface, x0, 1.0, tol.horizon, tol, capture)
    out = []
    for i, (ci, angle, _) in enumerate(shots):
        if ended[i] != "stop":
            out.append(ended[i])
            continue
        sts = np.array(states[i])
        out.append(FlowSegment(ci, int(target[i]), angle, sts, np.array(times[i]), surface.h(sts)))
    return out


def _bisection_angles(outcome):
    """The 4 angles that split each interval between adjacent ring angles
    (keys of `outcome`) with different outcomes into 5; the last angle is
    paired with the first one a turn later."""
    angles = sorted(outcome)
    ends = angles[1:] + [angles[0] + 2 * math.pi]
    return [
        float(t)
        for a, b, key_b in zip(angles, ends, angles[1:] + angles[:1])
        if outcome[a] != outcome[key_b]
        for t in np.linspace(a, b, 6)[1:-1]
    ]


def find_connections(surface, criticals, tol=Tolerances(), refine_rounds=2):
    """All flow segments found by unstable-sphere shooting, with bisection
    refinement on ring angles whose outcomes differ (the basin-boundary
    indicator): each of `refine_rounds` rounds shoots the 4 angles that
    split each such interval of a minimum's ring into 5.

    Every unstable direction of every critical point is shot in one
    `_shoot_batch`.  Unless there is no round to run, or only two critical
    points (so that every ring seed has the same target), that batch also
    runs the first round ahead of time, as if every pair of neighbouring
    ring seeds had different targets.  The real first round then takes the
    shots it wants from there; a lost ring seed changes the intervals, and
    the angles that were not run early go into one more batch.  Later
    rounds shoot one batch each, for all minima together.

    Segments, and one warning per shot that stalls or reaches
    tol.horizon, come out per critical point: its unstable directions,
    then its rounds in order.  An early shot that no round asks for gives
    neither."""
    shots = [
        (ci, angle, d)
        for ci, crit in enumerate(criticals)
        for angle, d in _unstable_directions(surface, crit, tol)
    ]
    # per critical point, the angles whose shots give output, in order
    asked = {ci: [a for c, a, _ in shots if c == ci] for ci in range(len(criticals))}
    minima = [ci for ci, crit in enumerate(criticals) if crit.index == 0]
    frames = {ci: surface.frame(np.array(criticals[ci].state)) for ci in minima}

    def ring_shots(keys):
        return [
            (ci, t, math.cos(t) * frames[ci][:, 0] + math.sin(t) * frames[ci][:, 1])
            for ci, t in keys
        ]

    early = []
    if refine_rounds and len(criticals) > 2:
        early = ring_shots(
            (ci, t) for ci in minima for t in _bisection_angles({a: a for a in asked[ci]})
        )
    batch = shots + early
    results = dict(
        zip([(ci, a) for ci, a, _ in batch], _shoot_batch(surface, criticals, batch, tol))
    )

    def outcome(ci):
        found = (results[ci, a] for a in asked[ci])
        return {seg.seed_angle: seg.target for seg in found if isinstance(seg, FlowSegment)}

    for _ in range(refine_rounds):
        # a minimum whose ring gave no segment is not refined
        wanted = [
            (ci, t) for ci in minima if (seen := outcome(ci)) for t in _bisection_angles(seen)
        ]
        if not wanted:
            break
        missing = [key for key in wanted if key not in results]
        results.update(zip(missing, _shoot_batch(surface, criticals, ring_shots(missing), tol)))
        for ci, t in wanted:
            asked[ci].append(t)
    segments = []
    for ci, angles in asked.items():
        for a in angles:
            found = results[ci, a]
            if isinstance(found, FlowSegment):
                segments.append(found)
                continue
            src = criticals[ci]
            warnings.warn(
                f"{surface.name}: seed at angle {a:.6f} from critical point {ci} "
                f"(index {src.index}, h = {src.h:.6f}) lost: {found}",
                stacklevel=2,
            )
    return segments


@dataclass
class BrokenTrajectory:
    surface: object
    criticals: list        # CriticalPoints along the path, increasing h
    segments: list         # FlowSegments, one per component
    grid_t: np.ndarray
    points: np.ndarray
    tol: Tolerances = Tolerances()  # the tolerances the path was found at

    @property
    def component_count(self):
        return len(self.segments)

    def point_at_height(self, t):
        """The point of the path at height t, or one per entry of an array
        of heights."""
        t = np.asarray(t, dtype=float)
        (pts,) = _path_points(
            self.surface, [(self.criticals, self.segments, t.reshape(-1))], self.tol
        )
        return pts.reshape(t.shape + pts.shape[-1:])


def _flow_to_height(surface, x, t_target, tol):
    """Newton in flow time on all rows of x (n, d) at once: move each row
    along the flow until h = its entry of t_target (n,).  Each update is
    one Dormand-Prince step of the Newton time, capped at 50 * tol.step,
    which also gives the field at the row's new state; a row that has
    converged is frozen, never stepped or evaluated again."""
    x = np.array(x, dtype=float)
    f = surface.field(x)
    cap = 50 * tol.step
    live = np.arange(len(x))
    for _ in range(_HEIGHT_ROUNDS):
        xl = x[live]
        err = t_target[live] - surface.h(xl)
        speed = surface.grad_norm(xl) ** 2
        moving = (np.abs(err) >= 1e-13) & (speed >= 1e-18)
        live = live[moving]
        if not live.size:
            break
        dt = np.clip(err[moving] / speed[moving], -cap, cap)
        _, y, k = _dp_step(surface, x[live], f[live], dt)
        x[live], f[live] = y, k[-1]
    return x


def _path_points(surface, paths, tol):
    """Points of each path (criticals, segments, ts) at its heights ts (n,):
    a critical point where the height is at or beyond the range of its
    segment, otherwise the last stored state below the height.  That state
    is stepped by the flow time interpolated linearly in h within its
    accepted step (no longer than that step, so as accurate), then flowed
    to the height by `_flow_to_height`, the rows of all paths in one
    batch.  Returns one (n, state_dim) array per path."""
    outs, dests, bases, leads, targets = [], [], [], [], []
    for criticals, segments, ts in paths:
        out = np.empty((len(ts), surface.state_dim))
        heights = [c.h for c in criticals]
        # the segment of each height, and the index of the critical point
        # it sits at, or -1 where it lies inside its segment's range
        j = np.searchsorted(heights[:-1], ts, side="right") - 1
        at = np.where(ts <= heights[0], 0, np.where(ts >= heights[-1], len(heights) - 1, -1))
        for i, seg in enumerate(segments):
            hs = seg.h_values
            on = (j == i) & (at < 0)
            below, above = ts <= hs[0], ts >= hs[-1]
            at[on & below] = i
            at[on & ~below & above] = i + 1
            rows = np.flatnonzero(on & ~below & ~above)
            t = ts[rows]
            k = np.maximum(np.searchsorted(hs, t) - 1, 0)
            dests.append((out, rows))
            bases.append(seg.states[k])
            leads.append((t - hs[k]) / (hs[k + 1] - hs[k]) * (seg.times[k + 1] - seg.times[k]))
            targets.append(t)
        for i, c in enumerate(criticals):
            out[at == i] = c.state
        outs.append(out)
    x = np.concatenate(bases) if bases else np.empty((0, surface.state_dim))
    if len(x):
        x = _dp_step(surface, x, surface.field(x), np.concatenate(leads))[1]
        x = _flow_to_height(surface, x, np.concatenate(targets), tol)
    for (out, rows), part in zip(dests, np.split(x, np.cumsum([len(r) for _, r in dests]))):
        out[rows] = part
    return outs


# most broken trajectories that one call assembles
MAX_PATHS = 64


def find_broken_trajectories(surface, start, end, tol=Tolerances(), *, criticals, segments):
    """Broken gradient trajectories from one critical point to another, by
    chaining `segments` (from `find_connections`) through `criticals` in
    increasing h and reparametrizing by height.  If more than MAX_PATHS
    are found, the first MAX_PATHS are kept and one warning says so."""
    start_idx = _locate_critical(surface, criticals, start)
    end_idx = _locate_critical(surface, criticals, end)
    if criticals[start_idx].h >= criticals[end_idx].h:
        raise ValueError("need h(start) < h(end)")
    by_source = {}
    for seg in segments:
        by_source.setdefault(seg.source, []).append(seg)
    paths = []

    def extend(path):
        if len(paths) > MAX_PATHS:
            return
        last = path[-1].target if path else start_idx
        if last == end_idx:
            paths.append(path)
            return
        for seg in by_source.get(last, []):
            if criticals[seg.target].h > criticals[last].h:
                extend(path + [seg])

    extend([])
    if len(paths) > MAX_PATHS:
        lo, hi = criticals[start_idx], criticals[end_idx]
        warnings.warn(
            f"{surface.name}: more than {MAX_PATHS} broken trajectories from "
            f"critical point {start_idx} (index {lo.index}, h = {lo.h:.6f}) "
            f"to critical point {end_idx} (index {hi.index}, h = {hi.h:.6f}); "
            f"kept the first {MAX_PATHS}",
            stacklevel=2,
        )
        del paths[MAX_PATHS:]

    chains = []
    for path in paths:
        crits = [criticals[start_idx]] + [criticals[s.target] for s in path]
        chains.append((crits, path, np.linspace(crits[0].h, crits[-1].h, tol.grid_points)))
    return [
        BrokenTrajectory(surface, crits, path, grid, pts, tol)
        for (crits, path, grid), pts in zip(chains, _path_points(surface, chains, tol))
    ]


def _locate_critical(surface, criticals, point):
    if isinstance(point, int):
        if point not in range(len(criticals)):
            raise ValueError(f"critical point index {point} is out of range "
                             f"for {len(criticals)} critical points")
        return point
    state = point.state if isinstance(point, CriticalPoint) else point
    target = surface.embed(np.asarray(state, dtype=float))
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


def validate_trajectories(trajs, tol=Tolerances()):
    """A TrajectoryReport per trajectory, for trajectories on one surface.
    Each checks the three defining clauses at their tolerances: endpoints
    hit the critical points, h(p(t)) = t on the grid, and the image is
    invariant under short flows: every sampled grid point is flowed by
    +-0.05 (ten fixed Dormand-Prince steps, the samples of all
    trajectories in one batch) and compared with the path at the height
    it reaches, which each path finds by its own `point_at_height`."""
    if not trajs:
        return []
    surface = trajs[0].surface
    samples = [traj.points[:: max(1, len(traj.grid_t) // 24)] for traj in trajs]
    z = np.concatenate([np.concatenate([s, s]) for s in samples])
    f = surface.field(z)
    nsub = 10
    dt = np.concatenate([np.repeat([0.05 / nsub, -0.05 / nsub], len(s)) for s in samples])
    for _ in range(nsub):
        _, z, k = _dp_step(surface, z, f, dt)
        f = k[-1]
    reports = []
    for traj, flowed in zip(trajs, np.split(z, np.cumsum([2 * len(s) for s in samples])[:-1])):
        grid, points = traj.grid_t, traj.points
        start = surface.embed(np.array(traj.criticals[0].state))
        end = surface.embed(np.array(traj.criticals[-1].state))
        endpoint = max(
            float(np.linalg.norm(surface.embed(points[0]) - start)),
            float(np.linalg.norm(surface.embed(points[-1]) - end)),
        )
        reparam = float(np.max(np.abs(surface.h(points) - grid)))
        t_z = surface.h(flowed)
        inside = (grid[0] <= t_z) & (t_z <= grid[-1])
        invariance = 0.0
        if inside.any():
            q = traj.point_at_height(t_z[inside])
            invariance = float(
                np.max(np.linalg.norm(surface.embed(flowed[inside]) - surface.embed(q), axis=-1))
            )
        reports.append(TrajectoryReport(endpoint, reparam, invariance, tol))
    return reports


def validate_trajectory(traj, tol=Tolerances()):
    """The TrajectoryReport of one trajectory: `validate_trajectories` on
    a batch of one."""
    return validate_trajectories([traj], tol)[0]


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


# width and height of the rendered flow plot, in px
SVG_SIZE = 480


def render_svg(surface, criticals, segments):
    """Flow lines over the parameter/plot domain as a standalone SVG."""
    lo = np.array([-math.pi, -math.pi if surface.name == "torus" else 0.0])
    hi = np.array([math.pi, math.pi])

    def to_px(p):
        q = (p - lo) / (hi - lo)
        return np.stack([q[..., 0] * SVG_SIZE, (1 - q[..., 1]) * SVG_SIZE], axis=-1).tolist()

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]
    for seg in segments:
        coords = surface.plot_coords(seg.states)
        # a polyline breaks where a coordinate wraps across +-pi
        cuts = np.flatnonzero(np.any(np.abs(np.diff(coords, axis=0)) > math.pi, axis=1)) + 1
        px = to_px(coords)
        for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(px)]):
            if b - a < 2:
                continue
            path = " ".join(f"{x:.2f},{y:.2f}" for x, y in px[a:b])
            lines.append(
                f'<polyline points="{path}" fill="none" stroke="#3366bb" '
                f'stroke-width="1"/>'
            )
    centres = to_px(surface.plot_coords(np.array([c.state for c in criticals])))
    for c, (x, y) in zip(criticals, centres):
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
    for traj, report in zip(trajectories, validate_trajectories(trajectories, tol)):
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
