"""Experiment driver: inequality verification, delta-sweeps with exponent
fits, config ingestion, and report emission.

The verified inequality compares the union mass |E_L| against

    rhs_core = delta^(t*eps1/2) * lambda^(1/2) * delta^((t-1)/2)
               * gamma_star^(-1/2) * sum_l |Y(l)|

and reports ratio = lhs / rhs_core.  No leading constant is assumed: sweeps
fit the exponent of the ratio against delta, and "the inequality holds" is
operationalized as ratio >= delta^0.3 at desk scales.  Hypothesis constants
(Katz-Tao and two-ends) are measured and flagged, never silently assumed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .constructions import (
    ConfigSpec,
    ConstructionError,
    build_config,
    measure_remark_bullets,
)
from .geometry import GeometryError, LineFamily, union_shadings
from .grid import GridError
from .measures import (
    MeasureError,
    densities,
    frostman_constant,
    gamma_sup,
    katz_tao_constant,
    two_ends_constants,
)
from .structure import StructureError, multiscale_decompose, verify_decomposition

__all__ = [
    "LabError",
    "TheoremReport",
    "SweepResult",
    "verify_theorem",
    "verify_corollary",
    "sweep",
    "fit_exponent",
    "run_cli",
    "main",
    "CSV_COLUMNS",
]

CSV_COLUMNS = (
    "delta,k,t,t_star,eps1,lambda,gamma_star,lhs,sum_shading,rhs_core,ratio,kt_const,te_const"
)

KT_THRESHOLD = 32.0
TE_THRESHOLD = 32.0


class LabError(ValueError):
    pass


def rhs_core_value(
    delta: float,
    t: float,
    eps1: float,
    lam: float,
    gamma_star: float,
    sum_shading: float,
    with_gamma: bool = True,
) -> float:
    """The right-hand side core; reports recompute it through this exact path."""
    rhs = (
        delta ** (t * eps1 / 2.0)
        * math.sqrt(lam)
        * delta ** ((t - 1.0) / 2.0)
        * sum_shading
    )
    if with_gamma:
        rhs = rhs / math.sqrt(gamma_star)
    return rhs


@dataclass(frozen=True)
class TheoremReport:
    delta: float
    k: int
    t: float
    t_star: float
    eps1: float
    eps2: float
    n_lines: int
    lhs_mass: float
    sum_shading: float
    lam: float
    gamma_star: float
    kt_const: float
    te_const: float
    rhs_core: float
    ratio: float
    flags: tuple[str, ...]
    corollary: bool = False
    shading_kt_const: float = float("nan")

    def recompute_rhs(self) -> float:
        return rhs_core_value(
            self.delta,
            self.t,
            self.eps1,
            self.lam,
            self.gamma_star,
            self.sum_shading,
            with_gamma=not self.corollary,
        )

    def to_json_obj(self) -> dict:
        out = asdict(self)
        out["lambda"] = out.pop("lam")
        if not self.corollary:
            del out["shading_kt_const"]
        return out


def _family_measurements(F: LineFamily, t: float, eps1: float, eps2: float):
    """The family's measured quantities; gamma and Katz-Tao come as reports."""
    if len(F) == 0:
        raise LabError("empty family")
    if not (0.0 < t < 2.0):
        raise LabError(f"t {t} outside (0, 2)")
    if not (0.0 < eps2 < eps1 < 1.0):
        raise LabError(f"need 0 < eps2 < eps1 < 1, got ({eps1}, {eps2})")
    delta = F.scale.delta
    t_star = min(t, 2.0 - t)
    lhs = union_shadings(F).mass
    # every mass is a whole number of delta^2, so this is the exact sum
    sum_shading = sum(sh.cells.n_cells for _, sh in F.entries) * delta * delta
    lam = float(densities(F.shadings).min())
    gam = gamma_sup(F, t_star)
    kt = katz_tao_constant(F.dual_points(), t, delta=delta)
    te = float(two_ends_constants(F.shadings, eps1, eps2).max())
    return delta, t_star, lhs, sum_shading, lam, gam, kt, te


def verify_theorem(F: LineFamily, t: float, eps1: float, eps2: float) -> TheoremReport:
    """Measure every component of the two-ends inequality and report the ratio."""
    delta, t_star, lhs, s_sum, lam, gam, kt, te = _family_measurements(F, t, eps1, eps2)
    flags = []
    if kt.constant > KT_THRESHOLD:
        flags.append(f"katz_tao_constant {kt.constant:.3g} exceeds {KT_THRESHOLD}")
    if te > TE_THRESHOLD:
        flags.append(f"two_ends_constant {te:.3g} exceeds {TE_THRESHOLD}")
    rhs = rhs_core_value(delta, t, eps1, lam, gam.value, s_sum, with_gamma=True)
    return TheoremReport(
        delta=delta,
        k=F.scale.k,
        t=t,
        t_star=t_star,
        eps1=eps1,
        eps2=eps2,
        n_lines=len(F),
        lhs_mass=lhs,
        sum_shading=s_sum,
        lam=lam,
        gamma_star=gam.value,
        kt_const=kt.constant,
        te_const=te,
        rhs_core=rhs,
        ratio=lhs / rhs,
        flags=tuple(flags),
    )


def verify_corollary(F: LineFamily, t: float, eps1: float, eps2: float) -> TheoremReport:
    """Corollary form: the gamma factor is dropped after checking that every
    shading is itself a Katz-Tao (delta, t*)-set.

    At t = 1 this is the classical two-ends bound delta^(eps1/2) *
    lambda^(1/2) * sum; no separate verifier is exposed for that case.
    """
    rep = verify_theorem(F, t, eps1, eps2)
    sh_kt = float(
        max(katz_tao_constant(sh.cells, rep.t_star).constant for _, sh in F.entries)
    )
    flags = rep.flags
    if sh_kt > KT_THRESHOLD:
        flags += (f"shading katz_tao_constant {sh_kt:.3g} exceeds {KT_THRESHOLD}",)
    rhs = rhs_core_value(
        rep.delta, t, eps1, rep.lam, rep.gamma_star, rep.sum_shading, with_gamma=False
    )
    return replace(
        rep,
        rhs_core=rhs,
        ratio=rep.lhs_mass / rhs,
        flags=flags,
        corollary=True,
        shading_kt_const=sh_kt,
    )


# -- sweeps -----------------------------------------------------------------------


def fit_exponent(deltas: Sequence[float], ratios: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope of log2(ratio) against log2(delta), plus RMS residual."""
    x = np.log2(np.asarray(deltas, dtype=np.float64))
    y = np.log2(np.asarray(ratios, dtype=np.float64))
    if x.size < 3:
        raise LabError("exponent fit needs at least 3 scales")
    order = np.lexsort((y, x))  # canonical order: the fit is input-order invariant
    x, y = x[order], y[order]
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
    return float(coef[0]), resid


@dataclass(frozen=True)
class SweepResult:
    spec: ConfigSpec
    eps1: float
    eps2: float
    points: tuple[tuple[float, TheoremReport], ...]
    fitted_exponent: float
    residual: float
    partial: bool
    failures: tuple[str, ...]

    def to_json_obj(self) -> dict:
        out = asdict(self)
        out["points"] = [{"delta": d, "report": rep.to_json_obj()} for d, rep in self.points]
        return out


def build_sweep_family(spec: ConfigSpec, delta: float) -> LineFamily:
    """One sweep point: the spec's generator instantiated at the given delta."""
    return build_config(replace(spec, delta=delta))


def sweep(
    spec: ConfigSpec, deltas: Sequence[float], eps1: float, eps2: float
) -> SweepResult:
    """Run verify_theorem over a delta ladder and fit the ratio exponent.

    Points are pure jobs keyed by (spec, delta, seed) and merged in delta
    order, so the fit is invariant under reordering of the input list.
    """
    distinct = sorted(set(deltas), reverse=True)
    if len(distinct) < 3:
        raise LabError("a sweep needs at least 3 distinct deltas")
    points: list[tuple[float, TheoremReport]] = []
    failures: list[str] = []
    for d in distinct:
        try:
            fam = build_sweep_family(spec, d)
            points.append((d, verify_theorem(fam, spec.t, eps1, eps2)))
        except (ConstructionError, GridError, GeometryError) as exc:
            failures.append(f"delta={d}: {exc}")
    if len(points) < 3:
        raise LabError("sweep infeasible at too many scales: " + "; ".join(failures))
    slope, resid = fit_exponent([d for d, _ in points], [rep.ratio for _, rep in points])
    return SweepResult(
        spec=spec,
        eps1=eps1,
        eps2=eps2,
        points=tuple(points),
        fitted_exponent=slope,
        residual=resid,
        partial=bool(failures),
        failures=tuple(failures),
    )


# -- CLI --------------------------------------------------------------------------


def _parse_scale(text: str) -> float:
    text = text.strip()
    if "^" in text:
        base, exp = text.split("^")
        return float(base) ** float(exp)
    return float(text)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise LabError("config must be a JSON object")
    return obj


def _config_value(cfg: dict, key: str, default, kind: Callable = float):
    """kind(cfg[key]), or kind(default) when key is absent; a value that does
    not convert is a LabError naming the key."""
    value = cfg.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise LabError(f"config value {key!r} is malformed: {value!r}") from None


def _config_scale(value) -> float:
    """A scale in a config: a number or a "2^-k" string, as on the command line."""
    return _parse_scale(value) if isinstance(value, str) else float(value)


def _config_scales(values) -> list[float]:
    """A config list of scales (a string is not such a list)."""
    if isinstance(values, str):
        raise ValueError(values)
    return [_config_scale(v) for v in values]


def _spec_from(cfg: dict) -> ConfigSpec:
    return ConfigSpec(
        delta=_config_value(cfg, "delta", 2.0**-8, _config_scale),
        t=_config_value(cfg, "t", 1.0),
        s=_config_value(cfg, "s", 1.0),
        r=_config_value(cfg, "r", 2.0**-4, _config_scale),
        seed=_config_value(cfg, "seed", 0, int),
        kind=str(cfg.get("kind", "random")),
        lambda_target=_config_value(cfg, "lambda" if "lambda" in cfg else "lambda_target", 1.0),
        max_lines=_config_value(cfg, "max_lines", 2048, int),
    )


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, reports: Sequence[TheoremReport]) -> None:
    """One row per report, read from its JSON object in CSV_COLUMNS order."""
    columns = CSV_COLUMNS.split(",")
    keys = ["lhs_mass" if c == "lhs" else c for c in columns]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rep in reports:
        obj = rep.to_json_obj()
        row = [obj[key] for key in keys]
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    path.write_text(buf.getvalue(), encoding="utf-8")


# Every flag's argparse keywords; a flag's dest is its config key.
_FLAGS = {
    "config": dict(help="JSON config path"),
    "out": dict(default=".", help="output directory"),
    "seed": dict(type=int),
    "delta": dict(type=_parse_scale, help='e.g. "2^-8"'),
    "deltas": dict(help='comma list, e.g. "2^-6,2^-8"'),
    "t": dict(type=float),
    "s": dict(type=float),
    "r": dict(type=_parse_scale),
    "lambda": dict(type=float),
    "eps1": dict(type=float),
    "eps2": dict(type=float),
    "kind": dict(),
    "max-lines": dict(type=int),
    "family": dict(help="LineFamily JSON input path"),
    "eta": dict(type=float),
}
# The flags each subcommand reads, with its help text.
_SPEC = "config out seed t s r lambda kind max-lines"
_COMMANDS = {
    "generate": ("build a configuration and write family.json", f"{_SPEC} delta"),
    "measure": ("measure constants of a family", f"{_SPEC} delta family eps1 eps2"),
    "decompose": ("multiscale-decompose a sampled profile", "config out eta"),
    "verify": ("verify the main inequality on a family", f"{_SPEC} delta family eps1 eps2"),
    "sweep": (
        "verify across a delta ladder and fit the ratio exponent",
        f"{_SPEC} deltas eps1 eps2",
    ),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubelab",
        description="grid laboratory for line families and tube shadings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
        # no abbreviations: sweep would take --delta for --deltas
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _merged_config(args: argparse.Namespace) -> dict:
    cfg = _load_config(args.config)
    for key, val in vars(args).items():
        if val is not None and key not in ("command", "config", "out", "family"):
            cfg[key] = val
    if getattr(args, "deltas", None) is not None:
        try:
            cfg["deltas"] = [_parse_scale(v) for v in args.deltas.split(",")]
        except ValueError:
            raise LabError(f"--deltas is malformed: {args.deltas!r}") from None
    return cfg


def _eps(cfg: dict) -> tuple[float, float]:
    return _config_value(cfg, "eps1", 0.1), _config_value(cfg, "eps2", 0.05)


def _family_from(args: argparse.Namespace, cfg: dict) -> LineFamily:
    if args.family:
        with open(args.family, "r", encoding="utf-8") as fh:
            return LineFamily.from_json_obj(json.load(fh))
    return build_config(_spec_from(cfg))


def run_cli(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        cfg = _merged_config(args)

        if args.command == "generate":
            spec = _spec_from(cfg)
            fam = build_config(spec)
            _write_json(out_dir / "family.json", fam.to_json_obj())
            report = {
                "spec": spec.to_json_obj(),
                "n_lines": len(fam),
                "union_mass": union_shadings(fam).mass,
                "sum_shading": float(sum(sh.mass for _, sh in fam.entries)),
            }
            if spec.kind in ("base", "case1", "case2"):
                report["measured"] = measure_remark_bullets(fam, spec.t, spec.s)
            _write_json(out_dir / "report.json", report)
            return 0

        if args.command == "measure":
            spec = _spec_from(cfg)
            fam = _family_from(args, cfg)
            *_, lam, gam, kt, te = _family_measurements(fam, spec.t, *_eps(cfg))
            report = {
                "spec": spec.to_json_obj(),
                "n_lines": len(fam),
                "katz_tao_constant": kt.to_json_obj(),
                "gamma_star": gam.to_json_obj(),
                "lambda_min": lam,
                "two_ends_max": te,
                "shading_frostman_max": float(
                    max(frostman_constant(sh.cells, spec.s).constant for _, sh in fam.entries)
                ),
            }
            _write_json(out_dir / "report.json", report)
            return 0

        if args.command == "decompose":
            if "f" not in cfg:
                raise LabError('decompose needs "f": [samples] in the config')
            eta = _config_value(cfg, "eta", 0.1)
            samples = _config_value(cfg, "f", None, lambda f: np.asarray(f, dtype=np.float64))
            part = multiscale_decompose(samples, eta)
            ok, msg = verify_decomposition(samples, eta, part)
            _write_json(
                out_dir / "report.json",
                {"partition": part.to_json_obj(), "verified": ok, "violation": msg},
            )
            return 0

        if args.command == "verify":
            spec = _spec_from(cfg)
            fam = _family_from(args, cfg)
            rep = verify_theorem(fam, spec.t, *_eps(cfg))
            _write_json(
                out_dir / "report.json", {"spec": spec.to_json_obj(), "report": rep.to_json_obj()}
            )
            _write_csv(out_dir / "table.csv", [rep])
            if rep.flags:
                print("hypothesis flags: " + "; ".join(rep.flags), file=sys.stderr)
                return 1
            return 0

        if args.command == "sweep":
            deltas = _config_value(cfg, "deltas", [], _config_scales)
            if not deltas:
                raise LabError('sweep needs "deltas" in the config or --deltas')
            # the spec's delta is the finest point: r is checked against a delta the sweep runs
            spec = _spec_from({**cfg, "delta": min(deltas)})
            result = sweep(spec, deltas, *_eps(cfg))
            _write_json(out_dir / "report.json", result.to_json_obj())
            _write_csv(out_dir / "table.csv", [rep for _, rep in result.points])
            flagged = result.partial or any(rep.flags for _, rep in result.points)
            if flagged:
                for msg in result.failures:
                    print("sweep failure: " + msg, file=sys.stderr)
                return 1
            return 0

        raise LabError(f"unknown subcommand {args.command!r}")
    except (
        LabError,
        ConstructionError,
        GridError,
        GeometryError,
        MeasureError,
        StructureError,
        OSError,
        json.JSONDecodeError,
        KeyError,
        TypeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
