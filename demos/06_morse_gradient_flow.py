"""Gradient flow as a source of broken lines.

Height flow on a compact surface produces broken gradient trajectories:
continuous paths reparametrized by height whose images are unions of flow
lines through intermediate critical points.  Each validated trajectory
extracts a broken line whose components are the flow segments.

Run with `torus` as an argument for the full broken-trajectory search
(a second or two); the default sphere demo is quick.
"""

import sys

from brokenlines.morse import (
    Sphere,
    Tolerances,
    Torus,
    euler_characteristic,
    find_broken_trajectories,
    find_connections,
    find_critical_points,
    trajectory_to_line,
    validate_trajectory,
)

surface = Torus() if "torus" in sys.argv[1:] else Sphere()
tol = Tolerances()

criticals = find_critical_points(surface, tol)
print(f"{surface.name}: {len(criticals)} critical points")
for c in criticals:
    print(f"  h = {c.h:+.4f}, index {c.index}, |grad| = {c.grad_norm:.1e}")
print("euler characteristic:", euler_characteristic(criticals))

segments = find_connections(surface, criticals, tol)
print(f"\nflow segments found: {len(segments)}")

trajectories = find_broken_trajectories(
    surface, criticals[0], criticals[-1], tol,
    criticals=criticals, segments=segments,
)
print(f"trajectories min -> max: {len(trajectories)}")
shown = 0
for traj in trajectories:
    if traj.component_count < 2 and shown >= 3:
        continue
    shown += 1
    report = validate_trajectory(traj, tol)
    line, rep, _marks = trajectory_to_line(traj)
    print(
        f"  m = {line.m}: reparam residual {report.reparam_residual:.1e}, "
        f"gaps {[str(g) for g in rep.gaps()]}, valid = {report.ok}"
    )
