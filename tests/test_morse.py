import math
import warnings
from dataclasses import dataclass, fields

import numpy as np
import pytest

from brokenlines import morse
from brokenlines.extreal import INF
from brokenlines.morse import (
    MAX_PATHS,
    SURFACES,
    SVG_SIZE,
    BrokenTrajectory,
    FlowSegment,
    Sphere,
    Tolerances,
    Torus,
    demo_report,
    euler_characteristic,
    find_broken_trajectories,
    find_connections,
    find_critical_points,
    render_svg,
    trajectory_to_line,
    validate_trajectories,
    validate_trajectory,
    _dp_error,
    _dp_step,
    _flow_rows,
    _flow_to_height,
    _newton_refine,
    _path_points,
    _shoot_batch,
    _solve_rows,
    _unstable_directions,
)

TOL = Tolerances()
# flow-time residual: capture times against their oracles, and the
# re-integrated distance between two marks on one segment
TOL_TIME = 1e-3
# the perturbation of the stability tests: a Gaussian bump of this height
# and width in embedding distance, added to h
BUMP_HEIGHT = 1e-4
BUMP_WIDTH = 0.7


def rk4_step(surface, x, dt):
    """Classical fixed-step RK4, the oracle for the adaptive flow."""
    k1 = surface.field(x)
    k2 = surface.field(surface.project(x + 0.5 * dt * k1))
    k3 = surface.field(surface.project(x + 0.5 * dt * k2))
    k4 = surface.field(surface.project(x + dt * k3))
    return surface.project(x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))


# The Dormand-Prince tableau as lists, with the fifth-order weights apart:
# the oracles for the stage-array kernel of `_dp_step` and `_dp_error`.
DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)


def combine_list(coeffs, stages):
    """Python's sum of the weighted stages with a nonzero weight."""
    return sum(c * k for c, k in zip(coeffs, stages) if c)


def dp_step_list(surface, x, f, h):
    """One Dormand-Prince step with the stages in a list: the fifth-order
    state before projection, the field at its projection and the error
    norm in units of morse._ATOL + morse._RTOL * |x_new - x|."""
    hc = h[:, None]
    k = [f]
    for row in DP_A[1:]:
        k.append(surface.field(surface.project(x + hc * combine_list(row, k))))
    x_new = x + hc * combine_list(DP_B, k)
    f_new = surface.field(surface.project(x_new))
    k.append(f_new)
    scale = morse._ATOL + morse._RTOL * np.linalg.norm(x_new - x, axis=1)
    err = np.linalg.norm(hc * combine_list(DP_E, k), axis=1) / scale
    return x_new, f_new, err


def hermite_terms(a, fa, b, fb, h, s):
    """The cubic Hermite interpolant with each power of s and 1 - s
    written out where it is used."""
    s = s[:, None]
    h = h[:, None]
    return (
        (1 + 2 * s) * (1 - s) ** 2 * a
        + s * (1 - s) ** 2 * h * fa
        + s**2 * (3 - 2 * s) * b
        - s**2 * (1 - s) * h * fb
    )


def gaussian_bump(surface, x, center):
    """The bump at states x around the state `center`, with the
    embedding-space offsets from the center."""
    diff = surface.embed(x) - surface.embed(center)
    return BUMP_HEIGHT * np.exp(-np.sum(diff**2, axis=-1) / BUMP_WIDTH**2), diff


class BumpedSphere(Sphere):
    """The sphere with the bump at (1, 0, 0) added to h; the field adds
    the bump's ambient gradient projected to the tangent plane."""

    name = "sphere+bump"
    center = np.array([1.0, 0.0, 0.0])

    def h(self, x):
        return super().h(x) + gaussian_bump(self, x, self.center)[0]

    def field(self, x):
        x = np.asarray(x, dtype=float)
        bump, diff = gaussian_bump(self, x, self.center)
        grad = (-2.0 * bump / BUMP_WIDTH**2)[..., None] * diff
        grad -= np.sum(grad * x, axis=-1, keepdims=True) * x
        return super().field(x) + grad


class BumpedTorus(Torus):
    """The torus with the bump at state (0.4, 0.8) added to h; the field
    adds (dh/du / (R + r cos v)^2, dh/dv / r^2) of the bump."""

    name = "torus+bump"
    center = np.array([0.4, 0.8])

    def h(self, x):
        return super().h(x) + gaussian_bump(self, x, self.center)[0]

    def field(self, x):
        x = np.asarray(x, dtype=float)
        u, v = x[..., 0], x[..., 1]
        ring = self.R + self.r * np.cos(v)
        bump, diff = gaussian_bump(self, x, self.center)
        scale = -2.0 * bump / BUMP_WIDTH**2
        # the derivatives of the embedding along u and along v
        e_u = np.stack([-ring * np.sin(u), np.zeros_like(u), ring * np.cos(u)], axis=-1)
        e_v = self.r * np.stack(
            [-np.sin(v) * np.cos(u), np.cos(v), -np.sin(v) * np.sin(u)], axis=-1
        )
        du = scale * np.sum(diff * e_u, axis=-1) / ring**2
        dv = scale * np.sum(diff * e_v, axis=-1) / self.r**2
        return super().field(x) + np.stack([du, dv], axis=-1)


class CountingTorus(Torus):
    """Torus() that counts its calls of field and of h."""

    def __init__(self):
        super().__init__()
        self.calls = {"field": 0, "h": 0}

    def field(self, x):
        self.calls["field"] += 1
        return super().field(x)

    def h(self, x):
        self.calls["h"] += 1
        return super().h(x)


def newton_refine_all_rounds(surface, x, tol, iters=120):
    """`_newton_refine` without the cycle stop: every row that neither
    converges nor meets a singular Jacobian runs all `iters` rounds."""
    eps = 1e-6
    x = np.array(x, dtype=float)
    best = x.copy()
    best_norm = np.full(len(x), np.inf)
    live = np.arange(len(x))
    for _ in range(iters):
        norm = surface.grad_norm(x[live])
        better = norm < best_norm[live]
        best[live[better]] = surface.project(x[live[better]])
        best_norm[live[better]] = norm[better]
        live = live[~(norm < 1e-14)]
        if not live.size:
            break
        xs = x[live]
        frame = surface.frame(xs)
        probes = [xs]
        for e in np.moveaxis(eps * frame, -1, 0):
            probes += [surface.project(xs + e), surface.project(xs - e)]
        local = (np.swapaxes(frame, -1, -2) @ surface.field(np.stack(probes))[..., None])[..., 0]
        jac = np.stack([local[1] - local[2], local[3] - local[4]], axis=-1) / (2 * eps)
        delta, solved = _solve_rows(jac, -local[0])
        size = np.sqrt(np.vecdot(delta, delta))
        big = size > 0.8
        delta[big] *= (0.8 / size[big])[:, None]
        live, xs, frame, delta = live[solved], xs[solved], frame[solved], delta[solved]
        x[live] = surface.project(xs + (frame @ delta[..., None])[..., 0])
    return best, best_norm < tol.tol_crit


def newton_refine_one_seed(surface, x, tol, iters=120):
    """Newton refinement of one seed at a time, the oracle for the batched
    `_newton_refine`.  Returns the refined state (None if it did not
    converge), the number of rounds and whether the Jacobian was singular."""
    eps = 1e-6
    best = None
    best_norm = float("inf")
    singular = False
    for rounds in range(1, iters + 1):
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
            xp = surface.project(x + eps * frame[:, j])
            xm = surface.project(x - eps * frame[:, j])
            jac[:, j] = (local_field(xp) - local_field(xm)) / (2 * eps)
        try:
            delta = np.linalg.solve(jac, -f0)
        except np.linalg.LinAlgError:
            singular = True
            break
        if np.linalg.norm(delta) > 0.8:
            delta *= 0.8 / np.linalg.norm(delta)
        x = surface.project(x + frame @ delta)
    return (best if best_norm < tol.tol_crit else None), rounds, singular


def critical_states_one_seed_at_a_time(surface, tol):
    """The deduplicated states of `find_critical_points`, from the oracle
    refinement of each seed, in increasing h."""
    found = []
    for seed in surface.seeds():
        x = newton_refine_one_seed(surface, np.array(seed, dtype=float), tol)[0]
        if x is None:
            continue
        if any(
            np.linalg.norm(surface.embed(x) - surface.embed(np.array(c))) < tol.tol_merge
            for c in found
        ):
            continue
        found.append(tuple(float(v) for v in x))
    return sorted(found, key=lambda c: (float(surface.h(np.array(c))), c))


def flow_to_height_all_rows(surface, x, t_target, tol):
    """`_flow_to_height` evaluating h and the gradient on every row in
    each round, the frozen rows too: its oracle."""
    x = np.array(x, dtype=float)
    f = surface.field(x)
    cap = 50 * tol.step
    for _ in range(morse._HEIGHT_ROUNDS):
        err = t_target - surface.h(x)
        speed = surface.grad_norm(x) ** 2
        live = (np.abs(err) >= 1e-13) & (speed >= 1e-18)
        if not live.any():
            break
        dt = np.clip(err[live] / speed[live], -cap, cap)
        _, y, k = _dp_step(surface, x[live], f[live], dt)
        x[live], f[live] = y, k[-1]
    return x


def path_points_row_by_row(surface, criticals, segments, ts, tol):
    """Points of one path at heights ts with the segment of each height
    found row by row, the oracle for the batched lookup in `_path_points`."""
    heights = [c.h for c in criticals]
    out = np.empty((len(ts), surface.state_dim))
    rows, bases, lead = [], [], []
    for r, t in enumerate(ts):
        if t <= heights[0]:
            out[r] = criticals[0].state
            continue
        if t >= heights[-1]:
            out[r] = criticals[-1].state
            continue
        j = max(i for i in range(len(heights) - 1) if heights[i] <= t)
        seg = segments[j]
        hs = seg.h_values
        if t <= hs[0]:
            out[r] = criticals[j].state
        elif t >= hs[-1]:
            out[r] = criticals[j + 1].state
        else:
            k = max(0, int(np.searchsorted(hs, t)) - 1)
            rows.append(r)
            bases.append(seg.states[k])
            lead.append((t - hs[k]) / (hs[k + 1] - hs[k]) * (seg.times[k + 1] - seg.times[k]))
    if rows:
        x = np.array(bases)
        x = surface.project(_dp_step(surface, x, surface.field(x), np.array(lead))[0])
        out[rows] = _flow_to_height(surface, x, ts[rows], tol)
    return out


def render_svg_point_by_point(surface, criticals, segments):
    """`render_svg` with the pixel coordinates and the +-pi wrap of every
    point found one at a time, its oracle."""
    size = SVG_SIZE
    lo = np.array([-math.pi, -math.pi if surface.name == "torus" else 0.0])
    hi = np.array([math.pi, math.pi])

    def to_px(p):
        q = (p - lo) / (hi - lo)
        return q[0] * size, (1 - q[1]) * size

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for seg in segments:
        coords = surface.plot_coords(seg.states)
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
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#bb3333"/>')
        lines.append(
            f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-size="12">'
            f"idx {c.index}</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines)


def seed_direction(surface, critical, angle):
    frame = surface.frame(np.array(critical.state))
    return math.cos(angle) * frame[:, 0] + math.sin(angle) * frame[:, 1]


def connections_one_batch_per_round(surface, criticals, tol, refine_rounds):
    """`find_connections` with one `_shoot_batch` per source and per
    refinement round, its oracle.  Returns the segments and the text of
    the lost-seed warnings, both in order."""
    segments, lost = [], []

    def shoot(ci, seeds):
        shots = [(ci, angle, direction) for angle, direction in seeds]
        found = []
        for (_, angle, _), result in zip(shots, _shoot_batch(surface, criticals, shots, tol)):
            if isinstance(result, FlowSegment):
                found.append(result)
                continue
            src = criticals[ci]
            lost.append(
                f"{surface.name}: seed at angle {angle:.6f} from critical point {ci} "
                f"(index {src.index}, h = {src.h:.6f}) lost: {result}"
            )
        segments.extend(found)
        return found

    for ci, crit in enumerate(criticals):
        dirs = _unstable_directions(surface, crit, tol)
        if not dirs:
            continue
        batch = shoot(ci, dirs)
        if crit.index != 0 or not batch:
            continue
        # bisect between adjacent ring angles with different targets; the
        # last angle is paired with the first one a turn later
        outcome = {seg.seed_angle: seg.target for seg in batch}
        for _ in range(refine_rounds):
            angles = sorted(outcome)
            ends = angles[1:] + [angles[0] + 2 * math.pi]
            new = [
                (float(t), seed_direction(surface, crit, float(t)))
                for a, b, key_b in zip(angles, ends, angles[1:] + angles[:1])
                if outcome[a] != outcome[key_b]
                for t in np.linspace(a, b, 6)[1:-1]
            ]
            if not new:
                break
            outcome.update((seg.seed_angle, seg.target) for seg in shoot(ci, new))
    return segments, lost


def rk4_capture_times(surface, criticals, segments, tol):
    """Capture time of each segment's seed under fixed-step RK4 at
    tol.step, all seeds in one batch, captured at the first step that ends
    within tol.capture of a critical point other than the source after
    leaving tol.escape of it."""
    crit_embed = np.array([surface.embed(np.array(c.state)) for c in criticals])
    source = np.array([s.source for s in segments])
    x = np.array(
        [
            surface.project(
                np.array(criticals[s.source].state)
                + 10.0 * tol.tol_crit * seed_direction(surface, criticals[s.source], s.seed_angle)
            )
            for s in segments
        ]
    )
    escaped = np.zeros(len(segments), dtype=bool)
    times = np.full(len(segments), np.nan)
    live = np.arange(len(segments))
    steps = 0
    while live.size and steps * tol.step < tol.horizon:
        x[live] = rk4_step(surface, x[live], tol.step)
        steps += 1
        dists = np.linalg.norm(
            surface.embed(x[live])[:, None, :] - crit_embed[None, :, :], axis=-1
        )
        escaped[live] |= dists[np.arange(live.size), source[live]] > tol.escape
        nearest = np.argmin(dists, axis=1)
        hit = (
            escaped[live]
            & (dists[np.arange(live.size), nearest] < tol.capture)
            & (nearest != source[live])
        )
        times[live[hit]] = steps * tol.step
        live = live[~hit]
    return times


def outer_equator_capture_time(torus, tol):
    """Flow time from 10 * tol_crit off the minimum to tol.capture of the
    maximum along the outer equator v = 0 of a torus.  There du/dt =
    cos(u) / (R + r), so the time is (R + r) ln(4 (R + r)^2 / (rho *
    capture)) with rho = 10 * tol_crit, up to terms of order rho^2 and
    capture^2."""
    a = torus.R + torus.r
    return a * math.log(4 * a * a / (10.0 * tol.tol_crit * tol.capture))


@pytest.fixture(scope="module")
def sphere():
    return Sphere()


@pytest.fixture(scope="module")
def torus():
    return Torus()


@pytest.fixture(scope="module")
def sphere_criticals(sphere):
    return find_critical_points(sphere, TOL)


@pytest.fixture(scope="module")
def torus_criticals(torus):
    return find_critical_points(torus, TOL)


@pytest.fixture(scope="module")
def torus_segments(torus, torus_criticals):
    return find_connections(torus, torus_criticals, TOL)


@pytest.fixture(scope="module")
def torus_trajectories(torus, torus_criticals, torus_segments):
    return find_broken_trajectories(
        torus,
        torus_criticals[0],
        torus_criticals[-1],
        TOL,
        criticals=torus_criticals,
        segments=torus_segments,
    )


# ---------------------------------------------------------------- surfaces


def metric_gradient(surface, x, eps=1e-5):
    """Central-difference gradient of h at the state x: the slopes of h
    along the columns of the orthonormal frame, recombined in that frame."""
    frame = surface.frame(x)
    out = np.zeros(surface.state_dim)
    for j in range(2):
        hp = surface.h(surface.project(x + eps * frame[:, j]))
        hm = surface.h(surface.project(x - eps * frame[:, j]))
        out += (hp - hm) / (2 * eps) * frame[:, j]
    return out


@pytest.mark.parametrize(
    "surface",
    [make() for make in SURFACES.values()]
    + [Torus(2.2, 0.9), BumpedSphere(), BumpedTorus()],
    ids=lambda s: f"{s.name}-{s.R}-{s.r}" if isinstance(s, Torus) else s.name,
)
def test_surface_protocol(surface):
    rng = np.random.default_rng(7)
    x = surface.project(rng.uniform(-math.pi, math.pi, (9, surface.state_dim)))
    for method in (surface.h, surface.field, surface.grad_norm, surface.frame):
        batch = method(x)
        assert batch.shape[0] == len(x)
        assert np.array_equal(batch, np.array([method(row) for row in x]))
    for row in x:
        assert np.max(np.abs(surface.field(row) - metric_gradient(surface, row))) < 1e-6


def test_sphere_frame_batch_matches_rows(sphere):
    # rows near the x-axis take e_y as the probe, the others e_x
    x = sphere.project(np.array([[1.0, 0.2, 0.1], [-0.95, 0.1, 0.3], [0.3, 0.4, 0.8], [0.0, 0.0, -1.0]]))
    frames = sphere.frame(x)
    assert frames.shape == (4, 3, 2)
    assert np.array_equal(frames, np.array([sphere.frame(row) for row in x]))
    assert np.array_equal(frames[None], sphere.frame(x[None]))
    for row, frame in zip(x, frames):
        assert np.allclose(frame.T @ frame, np.eye(2), atol=1e-15)
        assert np.allclose(frame.T @ row, 0.0, atol=1e-15)


# ------------------------------------------------------------- integration


@dataclass
class FlowResult:
    states: np.ndarray
    times: np.ndarray
    truncated: bool


def integrate_flow(surface, x0, direction=1, horizon=10.0, tol=TOL):
    """Flow from x0 (not critical) up the gradient of h (direction >= 0)
    or down it, for flow time `horizon`: the one-row case of `_flow_rows`.
    Returns every accepted state with its signed flow time; `truncated` is
    set when the step stalled before the horizon."""
    x = surface.project(np.asarray(x0, dtype=float))
    if surface.grad_norm(x) < tol.tol_crit:
        raise ValueError("flow must not start at a critical point")
    sign = 1.0 if direction >= 0 else -1.0
    (times,), (states,), (ended,) = _flow_rows(surface, x[None], sign, horizon, tol)
    return FlowResult(np.array(states), sign * np.array(times), ended == "stalled")


def test_flow_from_equator_rises_to_north_pole(sphere):
    result = integrate_flow(sphere, [1.0, 0.0, 0.0], horizon=25.0, tol=TOL)
    hs = sphere.h(result.states)
    assert np.all(np.diff(hs) >= -1e-12)
    assert hs[-1] > 0.9999


def test_flow_rejects_critical_start(sphere):
    with pytest.raises(ValueError):
        integrate_flow(sphere, [0.0, 0.0, 1.0], tol=TOL)


def test_reversed_flow_descends(sphere):
    result = integrate_flow(sphere, [1.0, 0.0, 0.0], direction=-1, horizon=5.0, tol=TOL)
    hs = sphere.h(result.states)
    assert np.all(np.diff(hs) <= 1e-12)
    assert hs[-1] < -0.9


def test_torus_flow_monotone(torus):
    result = integrate_flow(torus, [0.3, 1.1], horizon=10.0, tol=TOL)
    hs = torus.h(result.states)
    assert np.all(np.diff(hs) >= -1e-12)


@pytest.mark.parametrize("direction", [1, -1])
def test_flow_along_meridian_matches_closed_form(sphere, direction):
    # on a meridian z' = 1 - z^2, so z(t) = tanh(t + atanh z0)
    z0 = 0.3
    x0 = [math.sqrt(1 - z0**2), 0.0, z0]
    result = integrate_flow(sphere, x0, direction=direction, horizon=5.0, tol=TOL)
    assert result.times[-1] == 5.0 * direction
    assert not result.truncated
    exact = math.tanh(5.0 * direction + math.atanh(z0))
    assert abs(result.states[-1][2] - exact) < 1e-8


def test_batch_matches_single_rows(torus, torus_criticals):
    tol = Tolerances(step=1e-2, ring_seeds=8)
    # ring seeds off the minimum mixed with the unstable directions of
    # both saddles, each captured away from its own source
    shots = [
        (0, a, seed_direction(torus, torus_criticals[0], a)) for a in (0.3, 1.0, 2.5, 4.0, 5.9)
    ]
    for ci in (1, 2):
        shots[ci:ci] = [(ci, a, d) for a, d in _unstable_directions(torus, torus_criticals[ci], tol)]
    batch = _shoot_batch(torus, torus_criticals, shots, tol)
    assert len(batch) == len(shots)
    assert [seg.source for seg in batch] == [ci for ci, _, _ in shots]
    assert all(seg.target != seg.source for seg in batch)
    for shot, together in zip(shots, batch):
        (alone,) = _shoot_batch(torus, torus_criticals, [shot], tol)
        assert alone.seed_angle == together.seed_angle == shot[1]
        assert alone.target == together.target
        assert np.array_equal(alone.states, together.states)
        assert np.array_equal(alone.times, together.times)
        assert np.array_equal(alone.h_values, together.h_values)


def kernel_batch(surface, n, sign, seed):
    """n seeded states of the surface, their fields and signed steps."""
    rng = np.random.default_rng(seed)
    x = surface.project(rng.uniform(-math.pi, math.pi, (n, surface.state_dim)))
    h = sign * 10.0 ** rng.uniform(-4, -0.5, n)
    return x, surface.field(x), h


KERNEL_SURFACES = [Sphere(), Torus(2.2, 0.9), BumpedTorus()]


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n", [1, 7, 52, 500])
@pytest.mark.parametrize("surface", KERNEL_SURFACES, ids=lambda s: s.name)
def test_dp_kernel_matches_list_oracle(surface, n, sign):
    x, f, h = kernel_batch(surface, n, sign, seed=n)
    x_new, y, k = _dp_step(surface, x, f, h)
    want = dp_step_list(surface, x, f, h)
    got = (x_new, k[-1], _dp_error(x, x_new, k, h))
    for ours, oracle in zip(got, want):
        assert ours.tobytes() == oracle.tobytes()
    assert y.tobytes() == surface.project(x_new).tobytes()
    assert k.shape == (7, n, surface.state_dim)


@pytest.mark.parametrize("surface", KERNEL_SURFACES, ids=lambda s: s.name)
def test_dp_kernel_batch_matches_rows(surface):
    x, f, h = kernel_batch(surface, 52, 1.0, seed=3)
    h[::2] *= -1.0
    x_new, _, k = _dp_step(surface, x, f, h)
    err = _dp_error(x, x_new, k, h)
    for i in range(len(x)):
        row = slice(i, i + 1)
        x_row, _, k_row = _dp_step(surface, x[row], f[row], h[row])
        assert x_row.tobytes() == x_new[row].tobytes()
        assert k_row.tobytes() == k[:, row].tobytes()
        assert _dp_error(x[row], x_row, k_row, h[row]).tobytes() == err[row].tobytes()


@pytest.mark.parametrize("n", [1, 7, 52, 500])
def test_hermite_matches_term_oracle(n):
    rng = np.random.default_rng(n)
    a, fa, b, fb = rng.normal(size=(4, n, 2))
    h, s = rng.normal(size=n), rng.uniform(size=n)
    got = morse._hermite(a, fa, b, fb, h, s)
    assert got.tobytes() == hermite_terms(a, fa, b, fb, h, s).tobytes()


CONNECTION_CASES = [
    pytest.param(
        surface, Tolerances(step=1e-2, ring_seeds=seeds), rounds,
        id=f"{name}-seeds{seeds}-rounds{rounds}",
    )
    for name, surface in [
        ("sphere", Sphere()),
        ("torus", Torus()),
        ("torus-2.023-0.927", Torus(2.023, 0.927)),
        ("torus-2.162-1.085", Torus(2.162, 1.085)),
    ]
    for seeds in (8, 16)
    for rounds in (0, 1, 2)
] + [
    # ring seeds between targets 1 and 3 are lost, so the first round
    # needs angles that the early round did not run
    pytest.param(
        Torus(), Tolerances(step=1e-2, ring_seeds=16, horizon=52.7), 1, id="torus-follow-up"
    ),
]


@pytest.mark.parametrize("surface, tol, rounds", CONNECTION_CASES)
def test_connections_match_one_batch_per_round(surface, tol, rounds):
    criticals = find_critical_points(surface, TOL)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        segments = find_connections(surface, criticals, tol, rounds)
    want, lost = connections_one_batch_per_round(surface, criticals, tol, rounds)
    assert [str(w.message) for w in record] == lost
    assert len(segments) == len(want)
    for got, seg in zip(segments, want):
        assert (got.source, got.target, got.seed_angle) == (seg.source, seg.target, seg.seed_angle)
        assert np.array_equal(got.states, seg.states)
        assert np.array_equal(got.times, seg.times)
        assert np.array_equal(got.h_values, seg.h_values)


@pytest.mark.parametrize(
    "surface, tol, rounds, rows",
    [
        # two critical points: every ring seed has the same target, so
        # there is no early round
        (Sphere(), Tolerances(step=1e-2, ring_seeds=8), 1, [8]),
        # the ring, both saddles and the early round, 4 angles per interval
        (Torus(), Tolerances(step=1e-2, ring_seeds=8), 1, [8 + 4 + 4 * 8]),
        (Torus(), Tolerances(step=1e-2, ring_seeds=8), 0, [8 + 4]),
        # at horizon 52.7 the ring seeds at k pi / 8 for k = 10, 11, 13
        # and 14 are lost, so the intervals from 9 pi / 8 to 12 pi / 8 and
        # on to 15 pi / 8 join a seed to the maximum and one to the
        # saddle; 3 of their 8 angles differ in the last bit from the
        # early ones and go into one follow-up batch
        (Torus(), Tolerances(step=1e-2, ring_seeds=16, horizon=52.7), 1, [16 + 4 + 4 * 16, 3]),
    ],
    ids=["sphere", "torus", "torus-rounds0", "torus-follow-up"],
)
def test_connections_flow_in_one_batch(surface, tol, rounds, rows, monkeypatch):
    criticals = find_critical_points(surface, TOL)
    seen = []
    flow_rows = morse._flow_rows

    def spy(surface, x0, *args):
        seen.append(len(x0))
        return flow_rows(surface, x0, *args)

    monkeypatch.setattr(morse, "_flow_rows", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        find_connections(surface, criticals, tol, rounds)
    assert seen == rows


def test_segment_heights_monotone(torus_segments):
    for seg in torus_segments:
        assert np.all(np.diff(seg.h_values) >= -1e-13)


def test_capture_times_match_rk4_oracle(torus, torus_criticals, torus_segments):
    # the seeds at angles 0 and pi off the minimum run along the outer
    # equator v = 0 for 87 time units (87k RK4 steps); the closed form is
    # their oracle, and fixed-step RK4 that of every other segment
    def on_equator(seg):
        return (
            torus_criticals[seg.source].index == 0
            and abs(math.sin(seg.seed_angle)) < 1e-12
        )

    equator = [seg for seg in torus_segments if on_equator(seg)]
    rest = [seg for seg in torus_segments if not on_equator(seg)]
    assert len(equator) == 2
    assert all(torus_criticals[seg.target].index == 2 for seg in equator)
    exact = outer_equator_capture_time(torus, TOL)
    assert abs(exact - 86.7359) < 1e-4
    assert all(abs(seg.times[-1] - exact) <= TOL_TIME for seg in equator)

    oracle = rk4_capture_times(torus, torus_criticals, rest, TOL)
    captured = np.array([seg.times[-1] for seg in rest])
    assert not np.any(np.isnan(oracle))
    assert np.max(np.abs(captured - oracle)) <= TOL.step + TOL_TIME


@pytest.mark.parametrize(
    "tol, reason",
    [
        (Tolerances(horizon=1.0), "horizon"),
        # a first trial step of 5 is rejected, and with no halvings
        # allowed the smaller retry is already below the stall bound
        (Tolerances(step=5.0, max_halvings=0), "stalled"),
    ],
)
def test_lost_seeds_are_reported(torus, torus_criticals, tol, reason):
    with pytest.warns(UserWarning, match=rf"torus: seed at angle .* lost: {reason}") as record:
        segments = find_connections(torus, torus_criticals, tol)
    assert segments == []
    # every seed of the ring at the minimum and of both saddles
    assert len(record) == tol.ring_seeds + 4
    assert any("index 0, h = -3.000000" in str(w.message) for w in record)


def test_stalled_flow_is_truncated(torus):
    result = integrate_flow(torus, [0.3, 1.1], tol=Tolerances(step=5.0, max_halvings=0))
    assert result.truncated
    assert len(result.states) == 1


# the tolerances that are the same for every run, at their values
FIXED_TOLERANCES = {
    "tol_crit": 1e-8, "tol_end": 1e-4, "tol_reparam": 1e-5, "tol_inv": 1e-4,
    "tol_merge": 1e-5, "capture": 1e-4, "escape": 1e-3,
}


@pytest.mark.parametrize("name, value", FIXED_TOLERANCES.items(), ids=list(FIXED_TOLERANCES))
def test_fixed_tolerances_are_class_constants(name, value):
    with pytest.raises(TypeError):
        Tolerances(**{name: value})
    assert getattr(Tolerances, name) == value
    assert getattr(Tolerances(step=1e-2, ring_seeds=8), name) == value


def test_the_settable_tolerances_are_the_fields():
    names = [field.name for field in fields(Tolerances)]
    assert names == ["step", "horizon", "max_halvings", "ring_seeds", "grid_points"]


# --------------------------------------------------------- critical points


def test_sphere_criticals(sphere_criticals):
    assert len(sphere_criticals) == 2
    assert [c.index for c in sphere_criticals] == [0, 2]
    assert all(c.grad_norm < TOL.tol_crit for c in sphere_criticals)
    assert euler_characteristic(sphere_criticals) == 2
    assert abs(sphere_criticals[0].h + 1.0) < 1e-9
    assert abs(sphere_criticals[1].h - 1.0) < 1e-9


def test_torus_criticals(torus_criticals):
    assert len(torus_criticals) == 4
    assert [c.index for c in torus_criticals] == [0, 1, 1, 2]
    assert all(c.grad_norm < TOL.tol_crit for c in torus_criticals)
    assert euler_characteristic(torus_criticals) == 0
    heights = [c.h for c in torus_criticals]
    assert np.allclose(heights, [-3.0, -1.0, 1.0, 3.0], atol=1e-9)


@pytest.mark.parametrize(
    "surface", [Sphere(), Torus(), BumpedSphere(), BumpedTorus()], ids=lambda s: s.name
)
def test_batched_newton_matches_one_seed_at_a_time(surface):
    seeds = surface.seeds()
    refined, converged = _newton_refine(surface, seeds, TOL)
    singular = 0
    for seed, x, ok in zip(seeds, refined, converged):
        alone, _, stopped = newton_refine_one_seed(surface, seed, TOL)
        singular += stopped
        assert ok == (alone is not None)
        if ok:
            assert np.array_equal(x, alone)
    if type(surface) is Torus:
        assert singular == 8
    states = [c.state for c in find_critical_points(surface, TOL)]
    assert states == critical_states_one_seed_at_a_time(surface, TOL)


@pytest.mark.parametrize(
    "surface", [Torus(), Torus(1.955, 1.02), Sphere()],
    ids=lambda s: f"{s.name}-{s.R}-{s.r}" if isinstance(s, Torus) else s.name,
)
def test_newton_cycle_stop_matches_all_rounds(surface):
    refined, converged = _newton_refine(surface, surface.seeds(), TOL)
    oracle, oracle_converged = newton_refine_all_rounds(surface, surface.seeds(), TOL)
    assert refined.tobytes() == oracle.tobytes()
    assert np.array_equal(converged, oracle_converged)


def test_newton_stops_the_cycling_rows():
    # the 6 seeds of Torus() on u = 0 alternate between two states forever
    torus = CountingTorus()
    _, converged = _newton_refine(torus, torus.seeds(), TOL)
    assert np.count_nonzero(~converged) >= 6
    assert torus.calls["field"] <= 70


def test_newton_evaluates_all_seeds_together():
    torus = CountingTorus()
    rounds = max(newton_refine_one_seed(torus, seed, TOL)[1] for seed in torus.seeds())
    torus.calls["field"] = 0
    crits = find_critical_points(torus, TOL)
    assert torus.calls["field"] <= 5 * rounds + 2 * len(crits)


def test_solve_rows_masks_singular_rows():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 2, 2))
    b = rng.normal(size=(6, 2))
    a[1] = 0.0
    a[4] = np.outer([1.0, 2.0], [3.0, -1.0])  # rank 1
    out, solved = _solve_rows(a, b)
    assert solved.tolist() == [True, False, True, True, False, True]
    for i in range(len(a)):
        try:
            alone = np.linalg.solve(a[i], b[i])
        except np.linalg.LinAlgError:
            assert not solved[i]
            continue
        assert solved[i]
        assert np.array_equal(out[i], alone)


def test_critical_counts_stable_under_perturbation(torus, torus_criticals):
    bumped = BumpedTorus()
    assert abs(bumped.h(bumped.center) - torus.h(bumped.center) - BUMP_HEIGHT) < 1e-12
    crits = find_critical_points(bumped, TOL)
    assert len(crits) == len(torus_criticals)
    assert sorted(c.index for c in crits) == sorted(
        c.index for c in torus_criticals
    )
    assert euler_characteristic(crits) == 0


def test_sphere_counts_stable_under_perturbation(sphere, sphere_criticals):
    bumped = BumpedSphere()
    assert abs(bumped.h(bumped.center) - sphere.h(bumped.center) - BUMP_HEIGHT) < 1e-12
    crits = find_critical_points(bumped, TOL)
    assert len(crits) == len(sphere_criticals)
    assert euler_characteristic(crits) == 2


# ------------------------------------------------------------ trajectories


def test_sphere_has_many_unbroken_trajectories(sphere, sphere_criticals):
    segments = find_connections(sphere, sphere_criticals, TOL)
    trajectories = find_broken_trajectories(
        sphere,
        sphere_criticals[0],
        sphere_criticals[-1],
        TOL,
        criticals=sphere_criticals,
        segments=segments,
    )
    assert len(trajectories) >= 8
    assert all(t.component_count == 1 for t in trajectories)
    for t in trajectories[:4]:
        assert validate_trajectory(t, TOL).ok


def test_trajectories_beyond_the_cap_are_reported(sphere, sphere_criticals):
    tol = Tolerances(ring_seeds=80)
    segments = find_connections(sphere, sphere_criticals, tol)
    assert len(segments) == 80 > MAX_PATHS
    with pytest.warns(UserWarning) as record:
        trajectories = find_broken_trajectories(
            sphere,
            sphere_criticals[0],
            sphere_criticals[-1],
            tol,
            criticals=sphere_criticals,
            segments=segments,
        )
    assert len(trajectories) == MAX_PATHS
    # the first MAX_PATHS segments, each a trajectory of its own, are kept
    for traj, seg in zip(trajectories, segments):
        assert len(traj.segments) == 1 and traj.segments[0] is seg
    (warning,) = record
    assert str(warning.message) == (
        f"sphere: more than {MAX_PATHS} broken trajectories from critical "
        "point 0 (index 0, h = -1.000000) to critical point 1 (index 2, "
        f"h = 1.000000); kept the first {MAX_PATHS}"
    )


def test_torus_broken_trajectories_exist(torus_trajectories):
    broken = [t for t in torus_trajectories if t.component_count >= 2]
    assert broken, "no broken trajectory found through the saddles"
    for t in broken:
        assert all(
            earlier.h < later.h
            for earlier, later in zip(t.criticals, t.criticals[1:])
        )


def test_torus_trajectories_validate(torus_trajectories):
    for t in torus_trajectories[:6] + [
        t for t in torus_trajectories if t.component_count >= 2
    ]:
        report = validate_trajectory(t, TOL)
        assert report.ok, report
        assert report.reparam_residual < TOL.tol_reparam


def test_trajectory_points_match_one_path_at_a_time(torus, torus_trajectories):
    assert len(torus_trajectories) >= 30
    for traj in torus_trajectories:
        path = (traj.criticals, traj.segments, traj.grid_t)
        (alone,) = _path_points(torus, [path], TOL)
        assert np.array_equal(traj.points, alone)
        assert np.array_equal(alone, path_points_row_by_row(torus, *path, TOL))


def test_trajectory_points_flow_all_paths_together(torus_criticals, torus_segments, torus_trajectories):
    torus = CountingTorus()
    ends = torus_criticals[0], torus_criticals[-1]

    def calls(segments):
        torus.calls.update(field=0, h=0)
        find_broken_trajectories(
            torus, *ends, TOL, criticals=torus_criticals, segments=segments
        )
        return dict(torus.calls)

    one_path = calls(torus_trajectories[0].segments)
    # every h call is one round of _flow_to_height
    assert one_path["h"] >= 2
    assert calls(torus_segments) == one_path


def test_every_step_starts_from_the_field_at_its_state(torus, torus_trajectories, monkeypatch):
    # the field a caller carries over from the last step (first same as
    # last) must be the field at the state it steps from
    dp_step = morse._dp_step
    rows = []

    def checked(surface, x, f, h):
        assert f.tobytes() == surface.field(x).tobytes()
        rows.append(len(x))
        return dp_step(surface, x, f, h)

    monkeypatch.setattr(morse, "_dp_step", checked)
    integrate_flow(torus, [0.3, 1.1], horizon=10.0, tol=TOL)
    flowed = len(rows)
    validate_trajectories(torus_trajectories[:4], TOL)
    assert flowed > 1 and len(rows) > flowed + 10


def test_point_at_height_keeps_the_tolerances(torus, torus_criticals, torus_segments, monkeypatch):
    # the Newton time cap of _flow_to_height is 50 * tol.step
    tol = Tolerances(step=1e-2)
    traj = find_broken_trajectories(
        torus, torus_criticals[0], torus_criticals[-1], tol,
        criticals=torus_criticals, segments=torus_segments,
    )[0]
    assert traj.tol is tol
    seen = []
    flow_to_height = morse._flow_to_height

    def spy(surface, x, t, tol):
        seen.append(tol)
        return flow_to_height(surface, x, t, tol)

    monkeypatch.setattr(morse, "_flow_to_height", spy)
    traj.point_at_height(traj.grid_t[1:-1])
    assert seen == [tol]


@pytest.mark.parametrize("name", ["torus", "sphere"])
def test_flow_to_height_matches_the_all_rows_oracle(name):
    surface = SURFACES[name]()
    x = surface.seeds()
    shift = np.random.default_rng(3).uniform(-0.2, 0.2, len(x))
    # every third row starts at its target height, so it is frozen at once
    shift[::3] = 0.0
    t = surface.h(x) + shift
    flowed = _flow_to_height(surface, x, t, TOL)
    assert flowed.tobytes() == flow_to_height_all_rows(surface, x, t, TOL).tobytes()
    assert flowed[::3].tobytes() == x[::3].tobytes()
    assert not np.array_equal(flowed[1::3], x[1::3])


def test_rejects_equal_endpoints(torus, torus_criticals, torus_segments):
    with pytest.raises(ValueError):
        find_broken_trajectories(
            torus,
            torus_criticals[0],
            torus_criticals[0],
            TOL,
            criticals=torus_criticals,
            segments=torus_segments,
        )


@pytest.mark.parametrize("start, end, bad", [(0, -1, -1), (0, 2, 2), (5, 1, 5)])
def test_rejects_a_critical_index_out_of_range(sphere, sphere_criticals, start, end, bad):
    # -1 would pass the height check (criticals[-1] is the maximum) and
    # then find no path, as no segment targets -1
    assert len(sphere_criticals) == 2
    with pytest.raises(ValueError) as err:
        find_broken_trajectories(
            sphere, start, end, TOL, criticals=sphere_criticals, segments=[]
        )
    assert str(err.value) == (
        f"critical point index {bad} is out of range for 2 critical points"
    )


def test_critical_indices_in_range_match_the_critical_points(sphere, sphere_criticals):
    segments = find_connections(sphere, sphere_criticals, TOL)
    by_index, by_point = (
        find_broken_trajectories(
            sphere, start, end, TOL, criticals=sphere_criticals, segments=segments
        )
        for start, end in [(0, 1), sphere_criticals]
    )
    assert [t.segments for t in by_index] == [t.segments for t in by_point]
    assert len(by_index) > 0


class SimplePath:
    """A bare sampled path for validating an arbitrary candidate path;
    point_at_height is linear interpolation on the stored grid."""

    def __init__(self, surface, criticals, grid_t, points):
        self.surface = surface
        self.criticals = criticals
        self.grid_t = np.asarray(grid_t, dtype=float)
        self.points = np.asarray(points, dtype=float)

    def point_at_height(self, t):
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        grid = self.grid_t
        i = np.clip(np.searchsorted(grid, flat) - 1, 0, len(grid) - 2)
        lam = ((flat - grid[i]) / (grid[i + 1] - grid[i]))[:, None]
        pts = self.surface.project((1 - lam) * self.points[i] + lam * self.points[i + 1])
        pts = np.where((flat <= grid[0])[:, None], self.points[0], pts)
        pts = np.where((flat >= grid[-1])[:, None], self.points[-1], pts)
        return pts.reshape(t.shape + pts.shape[-1:])


def chord(torus, torus_criticals):
    """The straight chord in the parameter plane from the minimum to the
    maximum, at the 101 heights between them: not a flow line."""
    start = np.array(torus_criticals[0].state)
    end = np.array(torus_criticals[-1].state)
    grid = np.linspace(torus_criticals[0].h, torus_criticals[-1].h, 101)
    lam = (grid - grid[0]) / (grid[-1] - grid[0])
    points = np.array([(1 - l) * start + l * end for l in lam])
    return SimplePath(torus, [torus_criticals[0], torus_criticals[-1]], grid, points)


def test_chord_counterexample_fails(torus, torus_criticals):
    report = validate_trajectory(chord(torus, torus_criticals), TOL)
    assert not report.ok
    assert report.reparam_residual >= TOL.tol_reparam
    assert report.invariance_residual >= TOL.tol_inv


def test_validate_trajectories_matches_one_at_a_time(torus, torus_criticals, torus_trajectories):
    # a bare path with its own point_at_height among the found ones
    paths = [*torus_trajectories[:3], chord(torus, torus_criticals), *torus_trajectories[3:]]
    reports = validate_trajectories(paths, TOL)
    assert reports == [validate_trajectory(path, TOL) for path in paths]
    assert [r.ok for r in reports] == [True] * 3 + [False] + [True] * (len(paths) - 4)
    assert validate_trajectories([], TOL) == []


def test_time_shifted_segments_validate_identically(torus, torus_trajectories):
    traj = next(t for t in torus_trajectories if t.component_count >= 2)
    shifted_segments = [
        FlowSegment(
            s.source,
            s.target,
            s.seed_angle,
            s.states,
            s.times + 5.0,
            s.h_values,
        )
        for s in traj.segments
    ]
    shifted = BrokenTrajectory(
        traj.surface, traj.criticals, shifted_segments, traj.grid_t, traj.points
    )
    a = validate_trajectory(traj, TOL)
    b = validate_trajectory(shifted, TOL)
    assert b.ok
    assert b.reparam_residual == a.reparam_residual


# ------------------------------------------------------------- extraction


def test_unbroken_extraction(sphere, sphere_criticals):
    segments = find_connections(sphere, sphere_criticals, TOL)
    trajectories = find_broken_trajectories(
        sphere,
        sphere_criticals[0],
        sphere_criticals[-1],
        TOL,
        criticals=sphere_criticals,
        segments=segments,
    )
    line, rep, marks = trajectory_to_line(trajectories[0])
    assert line.m == 1
    assert rep.base.n == 1


def test_broken_extraction_all_infinite_gaps(torus_trajectories):
    traj = next(t for t in torus_trajectories if t.component_count >= 2)
    line, rep, marks = trajectory_to_line(traj)
    assert line.m == traj.component_count
    assert all(g == INF for g in rep.gaps())
    # classification consistency: component count matches the line
    assert {p.component for p in marks.values()} == set(range(1, line.m + 1))


def test_within_segment_distance_matches_flow_time(torus, torus_trajectories):
    traj = next(t for t in torus_trajectories if t.component_count >= 2)
    line, rep, marks = trajectory_to_line(traj, marks_per_segment=2)
    # marks 0,1 sit on the first segment; the line distance is the exact
    # recorded time difference, which re-integration must reproduce
    seg = traj.segments[0]
    count = len(seg.times)
    i1, i2 = count // 3, 2 * count // 3
    delta = float(seg.times[i2] - seg.times[i1])
    state = seg.states[i1]
    steps = max(1, int(round(delta / TOL.step)))
    for _ in range(steps):
        state = rk4_step(torus, state, delta / steps)
    dist = float(np.linalg.norm(torus.embed(state) - torus.embed(seg.states[i2])))
    assert dist < TOL_TIME


# ------------------------------------------------------------------ report


def test_render_svg(torus, torus_criticals, torus_segments):
    svg = render_svg(torus, torus_criticals, torus_segments)
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert svg.count("circle") == len(torus_criticals)
    assert svg == render_svg_point_by_point(torus, torus_criticals, torus_segments)


def test_render_svg_matches_point_by_point(torus, torus_criticals, sphere, sphere_criticals):
    segments = find_connections(sphere, sphere_criticals, TOL)
    assert render_svg(sphere, sphere_criticals, segments) == render_svg_point_by_point(
        sphere, sphere_criticals, segments
    )
    # v wraps across +-pi twice, once after the first point, which leaves
    # a piece of one point that is not drawn
    states = np.array([[0.0, 3.1], [0.1, -3.1], [0.2, -3.0], [0.3, 3.0], [0.4, 2.9], [0.5, 2.8]])
    wrapping = FlowSegment(0, 3, 0.0, states, np.arange(6.0), torus.h(states))
    svg = render_svg(torus, torus_criticals, [wrapping])
    assert svg.count("<polyline") == 2
    assert svg == render_svg_point_by_point(torus, torus_criticals, [wrapping])


def test_demo_report_sphere():
    report = demo_report("sphere", TOL)
    assert report["euler_characteristic"] == 2
    assert len(report["criticals"]) == 2
    assert report["trajectories"]
    assert all(t["valid"] for t in report["trajectories"])
