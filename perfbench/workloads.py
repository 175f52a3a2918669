"""The benchmark's four workloads: their inputs, one pass of fixed work, and checks.

A pass is the workload's fixed work; a run repeats identical passes.  Flows
and campaigns go through ``isodiam.cli.main`` in-process, so that document
parsing and report writing are measured too.  Every check is computed apart
from the program (closed forms, plain numpy) or is a property the method
must have.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import isodiam.cli as cli
from isodiam import convexity, experiments
from isodiam.geometry import Ball, Space

from tracer import Tracer

S2 = Space(1, 2)
H2 = Space(-1, 2)


class PassFailed(RuntimeError):
    """The program exited non-zero or raised; the pass's outputs are unusable."""


def _write_json(path: Path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ball_doc(center, radius) -> dict:
    return {"kind": "ball", "center": [float(v) for v in center], "radius": float(radius)}


def _run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise PassFailed(f"isodiam {argv[0]} exited {rc}: {out.getvalue().strip()}")
    return out.getvalue()


def _read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _report_bytes(outdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def _exact(value):
    """A comparable form of nested results that keeps every bit of every array."""
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(_exact(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, _exact(v)) for k, v in value.items())
    if isinstance(value, convexity.HemisphereCertificate):
        return _exact((value.z, value.min_margin))
    return value


class Flow:
    """``isodiam flow`` on one S2 region document at its pinned seed."""

    def __init__(self, name: str, region: dict, seed: int, steps: int, density: float,
                 volume_samples: int, rebase_depth: int, inputs: Path):
        self.ops_per_pass = steps
        self.document = inputs / f"{name}.json"
        _write_json(self.document, {"space": {"curvature": 1, "dim": 2}, "region": region})
        self.args = ["--seed", str(seed), "--steps", str(steps), "--epsilon", "0",
                     "--density", repr(density), "--volume-samples", str(volume_samples),
                     "--rebase-depth", str(rebase_depth)]

    def run_pass(self, outdir: Path) -> list:
        """Runs the flow and returns the time of each step."""
        with Tracer(("symmetrize.flow_step",)) as steps:
            stdout = _run_cli(["flow", "--region", str(self.document), "--out",
                               str(outdir / "flow.csv"), "--json", str(outdir / "flow.json")]
                              + self.args)
        if f"steps={self.ops_per_pass} " not in stdout:
            raise PassFailed(f"flow stopped early: {stdout.strip()}")
        return [end - start for _, start, end, *_ in steps.spans]

    @staticmethod
    def outputs(outdir: Path) -> dict:
        return _report_bytes(outdir)

    @staticmethod
    def _rows(outdir: Path) -> list:
        rows = []
        for r in _read_rows(outdir / "flow.csv"):
            row = {k: float(r[k]) for k in
                   ("volume", "volume_stderr", "diameter", "hausdorff", "spacing")}
            row["rebased"] = r["rebased"] == "1"
            rows.append(row)
        return rows


class FlowDeep(Flow):
    """The dented ball: symmetrized chains of depth 1-9 and two rebases."""

    def __init__(self, inputs: Path):
        # Ball of radius 0.8 at the pole minus the ball of radius 0.25 whose
        # center lies 0.45 along the geodesic toward +x.
        t = 0.45
        region = {"kind": "difference", "a": _ball_doc([0.0, 0.0, 1.0], 0.8),
                  "b": _ball_doc([math.sin(t), 0.0, math.cos(t)], 0.25)}
        super().__init__("flow-deep", region, seed=12, steps=20, density=2500.0,
                         volume_samples=12000, rebase_depth=9, inputs=inputs)

    def check(self, outdir: Path) -> list:
        rows = self._rows(outdir)
        errors = []
        seg = rows[0]
        for k, cur in enumerate(rows[1:], start=1):
            if cur["rebased"]:
                seg = cur
                continue
            budget = 3.0 * math.hypot(seg["volume_stderr"], cur["volume_stderr"])
            if abs(cur["volume"] - seg["volume"]) > budget:
                errors.append(f"step {k}: volume drifted beyond 3 sigma of its segment start")
        for k, (prev, cur) in enumerate(zip(rows, rows[1:]), start=1):
            slack = 2.0 * (prev["spacing"] + cur["spacing"])
            if not cur["rebased"] and cur["diameter"] > prev["diameter"] + slack + 1e-9:
                errors.append(f"step {k}: diameter rose beyond the sampling slack")
        with open(outdir / "flow.json") as fh:
            radius = json.load(fh)["reference_ball"]["radius"]
        expected = math.acos(1.0 - rows[0]["volume"] / (2.0 * math.pi))
        if abs(radius - expected) > 1e-9:
            errors.append(f"reference radius {radius!r} != arccos(1 - V0/2pi) = {expected!r}")
        if not rows[-1]["hausdorff"] < rows[0]["hausdorff"]:
            errors.append("final Hausdorff distance is not below step 0's")
        return errors


class FlowFlat(Flow):
    """The pole cap: every plane passes through its center, so it stays one ball."""

    RADIUS = 0.8

    def __init__(self, inputs: Path):
        super().__init__("flow-flat", _ball_doc([0.0, 0.0, 1.0], self.RADIUS), seed=401,
                         steps=100, density=2000.0, volume_samples=20000, rebase_depth=9,
                         inputs=inputs)

    def check(self, outdir: Path) -> list:
        rows = self._rows(outdir)
        exact = 2.0 * math.pi * (1.0 - math.cos(self.RADIUS))
        errors = []
        for k, r in enumerate(rows):
            # the envelope is the ball itself, so std_error can be 0; 1e-9 is
            # the relative tolerance of the quadrature behind the envelope volume
            if abs(r["volume"] - exact) > 3.0 * r["volume_stderr"] + 1e-9 * exact:
                errors.append(f"step {k}: volume {r['volume']!r} is off 2pi(1-cos 0.8)")
            if r["diameter"] > 2.0 * self.RADIUS + 1e-9:
                errors.append(f"step {k}: sampled diameter {r['diameter']!r} exceeds 1.6")
            if r["hausdorff"] > rows[0]["hausdorff"] + 2.0 * (r["spacing"] + rows[0]["spacing"]):
                errors.append(f"step {k}: Hausdorff distance grew beyond the spacing slack")
        return errors


def _closed_form_ball_volume(curvature: int, dim: int, r: float) -> float:
    if dim == 2:
        return {0: math.pi * r * r, 1: 2.0 * math.pi * (1.0 - math.cos(r)),
                -1: 2.0 * math.pi * (math.cosh(r) - 1.0)}[curvature]
    return {0: 4.0 * math.pi * r ** 3 / 3.0, 1: math.pi * (2.0 * r - math.sin(2.0 * r)),
            -1: math.pi * (math.sinh(2.0 * r) - 2.0 * r)}[curvature]


class Campaign:
    """The eight criterion-4 ``isodiam verify`` campaigns, 545 trials in all."""

    #: (curvature, dim, D, trials, seed, region density); 100k volume samples each
    CONFIGS = (
        (0, 2, 1.0, 100, 531, 600.0),
        (1, 2, 1.0, 100, 532, 600.0),
        (1, 2, 2.0, 100, 533, 600.0),
        (-1, 2, 1.0, 100, 534, 600.0),
        (-1, 2, 1.5, 100, 535, 600.0),
        (0, 3, 1.2, 15, 536, 400.0),
        (1, 3, 1.2, 15, 537, 400.0),
        (-1, 3, 1.2, 15, 538, 400.0),
    )

    def __init__(self, inputs: Path):
        self.configs = []
        for i, (curv, dim, D, trials, seed, density) in enumerate(self.CONFIGS):
            path = inputs / f"campaign-{i}.json"
            _write_json(path, {"curvature": curv, "dim": dim, "D": D, "trials": trials,
                               "seed": seed, "volume_samples": 100_000,
                               "region_density": density})
            self.configs.append(path)
        self.ops_per_pass = sum(c[3] for c in self.CONFIGS)

    def run_pass(self, outdir: Path) -> list:
        """Runs the campaigns and returns the time of each trial.

        A trial ends with the region_digest call for its report row; the
        first trial of a campaign starts at its cli.main call.
        """
        with Tracer(("cli.main", "regionio.region_digest")) as marks:
            for i, path in enumerate(self.configs):
                _run_cli(["verify", "--config", str(path),
                          "--out", str(outdir / f"campaign-{i}.csv"),
                          "--json", str(outdir / f"campaign-{i}.json")])
        times, mark = [], 0.0
        for name, start, end, *_ in marks.spans:
            if name == "cli.main":
                mark = start
            else:
                times.append(end - mark)
                mark = end
        return times

    @staticmethod
    def outputs(outdir: Path) -> dict:
        return _report_bytes(outdir)

    def check(self, outdir: Path) -> list:
        errors = []
        for i, (curv, dim, D, trials, _, _) in enumerate(self.CONFIGS):
            rows = _read_rows(outdir / f"campaign-{i}.csv")
            if len(rows) != trials:
                errors.append(f"campaign {i}: {len(rows)} rows, expected {trials}")
            if any(r["violation"] != "0" for r in rows):
                errors.append(f"campaign {i}: a trial is a violation")
            first = rows[0]
            if abs(float(first["margin"])) > 3.0 * float(first["std_error"]) + 1e-12:
                errors.append(f"campaign {i}: the exact-ball trial 0 is not at equality")
            with open(outdir / f"campaign-{i}.json") as fh:
                v_ball = json.load(fh)["ball_reference_volume"]
            exact = _closed_form_ball_volume(curv, dim, D / 2.0)
            if abs(v_ball - exact) > 1e-9 * exact:
                errors.append(f"campaign {i}: ball_reference_volume {v_ball!r} != {exact!r}")
        return errors


def _cap_cloud(rng, curvature: int, radius: float, offset: float, n: int) -> np.ndarray:
    """n points uniform in the ball of the given radius, its center moved off the pole.

    The center is ``offset`` along +x from the pole: a rotation on S2, a
    boost on H2, a translation on R2.
    """
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    u = rng.random(n)
    if curvature == 0:
        rho = radius * np.sqrt(u)
        return np.column_stack([offset + rho * np.cos(phi), rho * np.sin(phi)])
    if curvature == 1:
        ct = 1.0 - u * (1.0 - math.cos(radius))
        st = np.sqrt(1.0 - ct * ct)
        c, s = math.cos(offset), math.sin(offset)
        move = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    else:
        ct = 1.0 + u * (math.cosh(radius) - 1.0)
        st = np.sqrt(ct * ct - 1.0)
        c, s = math.cosh(offset), math.sinh(offset)
        move = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    local = np.column_stack([st * np.cos(phi), st * np.sin(phi), ct])
    return local @ move.T


class Probes:
    """Rounds of the public functions behind greedy, hull-check, hemisphere, ball-probe."""

    ROUNDS = 6
    GREEDY_D = 1.2
    GREEDY_CANDIDATES = 8000
    HULL_SAMPLES = 2500
    PROBE_TRIALS = 10_000

    def __init__(self, seed: int):
        self.ops_per_pass = self.ROUNDS
        self.rounds = []
        for r in range(self.ROUNDS):
            rng = np.random.default_rng([seed, r])
            hull = [(Space(curv, 2), _cap_cloud(rng, curv, rad, 0.4, 120))
                    for curv, rad in ((0, 0.7), (1, 0.7), (-1, 0.7))]
            self.rounds.append({
                # The greedy deficit's seed-to-seed spread is wider than the
                # sigma it reports, so its -3 sigma check keeps fixed seeds.
                "greedy_seed": 5 + r,
                "hull": hull,
                "hull_seed": int(rng.integers(2**31)),
                "hemisphere": _cap_cloud(rng, 1, 0.8, 0.6, 2000),
                "probe_seeds": [int(v) for v in rng.integers(2**31, size=3)],
            })
        self.results = []

    def _round(self, inp) -> dict:
        cloud, deficit, sigma = experiments.greedy_maximal(
            S2, self.GREEDY_D, self.GREEDY_CANDIDATES, inp["greedy_seed"])
        hull = [convexity.hull_diameter_check(space, pts, self.HULL_SAMPLES, inp["hull_seed"])
                for space, pts in inp["hull"]]
        cert = convexity.hemisphere_center(inp["hemisphere"])
        probes = [convexity.ball_convexity_probe(space, Ball(space.base_point, radius),
                                                 self.PROBE_TRIALS, seed)
                  for (space, radius), seed in zip(
                      ((H2, 2.0), (S2, math.pi / 4.0), (S2, 3.0 * math.pi / 4.0)),
                      inp["probe_seeds"])]
        return {"greedy": (cloud.points, deficit, sigma), "hull": hull, "cert": cert,
                "probes": probes}

    def run_pass(self, outdir: Path) -> list:
        """Runs every round, keeps the results, and returns the round times."""
        times, self.results = [], []
        for inp in self.rounds:
            t = time.perf_counter()
            self.results.append(self._round(inp))
            times.append(time.perf_counter() - t)
        return times

    def outputs(self, outdir: Path):
        """Every result of the last pass, exactly, for the traced/untraced comparison."""
        return _exact(self.results)

    def check(self, outdir: Path) -> list:
        errors = []
        for r, (inp, res) in enumerate(zip(self.rounds, self.results)):
            pts, deficit, sigma = res["greedy"]
            worst = 1.0
            for i0 in range(0, len(pts), 512):
                worst = min(worst, float(np.min(pts[i0:i0 + 512] @ pts.T)))
            if math.acos(max(worst, -1.0)) > self.GREEDY_D + 1e-9:
                errors.append(f"round {r}: greedy accepted a pair farther than D")
            if deficit < -3.0 * sigma:
                errors.append(f"round {r}: greedy deficit {deficit!r} below -3 sigma")
            for (space, _), (d0, d1) in zip(inp["hull"], res["hull"]):
                if not d0 - 2e-3 <= d1 <= d0 + 1e-9:
                    errors.append(f"round {r}: {space.name} hull diameter {d1!r} "
                                  f"outside [d0 - 2e-3, d0 + 1e-9], d0 = {d0!r}")
            cert = res["cert"]
            if cert is None or not np.all(inp["hemisphere"] @ cert.z > 0.0):
                errors.append(f"round {r}: no hemisphere certificate with positive margins")
            (n_h2, _), (n_s2, _), (_, witness) = res["probes"]
            if n_h2 or n_s2:
                errors.append(f"round {r}: a convex ball gave midpoint violations")
            if witness is None:
                errors.append(f"round {r}: the 3pi/4 cap gave no witness")
            else:
                mid = witness[0] + witness[1]
                mid /= np.linalg.norm(mid)
                if not math.acos(min(mid[-1], 1.0)) > 3.0 * math.pi / 4.0:
                    errors.append(f"round {r}: the witness midpoint lies inside the cap")
        return errors


def make(name: str, seed: int, inputs: Path):
    """The named workload with its inputs built; only the probes depend on seed."""
    if name == "flow-deep":
        return FlowDeep(inputs)
    if name == "flow-flat":
        return FlowFlat(inputs)
    if name == "campaign":
        return Campaign(inputs)
    return Probes(seed)
