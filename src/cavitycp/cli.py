"""Command-line front end: parameter scans emitted as CSV or JSON tables.

Subcommands: profile, depth, bragg, heating, asym.  Exit codes: 0 on
success, 2 for configuration/usage errors, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .config import ConfigError, Registry, load_registry, parse_quantity
from .constants import C, EPSILON_0
from .greens import CavityGeometry
from .materials import ConstantR, multilayer_reflection, quarter_wave_stack
from .molecules import ThermalEnvironment, photon_number
from .potential import heating_rate_free, \
    heating_rate_profile, heating_rate_single_plate, nonresonant_potential, \
    potential_depth, resonance_width, resonant_potential
from .quadrature import QuadratureError, QuadratureSpec
from . import asymptotics

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_GLOBAL_DEFAULTS = {"config": None, "out": None, "format": "csv",
                    "rel_tol": 1e-9}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(rows, header, args):
    if args.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps([dict(zip(header, row)) for row in rows],
                          indent=2) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _registry(args) -> Registry:
    if args.config:
        with open(args.config) as fh:
            return load_registry(fh.read())
    return load_registry("")


def _lookup(table, name, kind):
    if name not in table:
        raise ConfigError(f"unknown {kind} {name!r}; available: "
                          f"{', '.join(sorted(table))}")
    return table[name]


def _resolve_width(text, molecule):
    if text.startswith("resonance:"):
        nu = int(text.split(":", 1)[1])
        return resonance_width(molecule.transitions[0], nu)
    width = parse_quantity(text)
    if width <= 0:
        raise ConfigError(f"cavity width must be positive, got {text!r}")
    return width


def _quad_spec(args) -> QuadratureSpec:
    return QuadratureSpec(rel_tol=args.rel_tol)


def _setup(args):
    """(registry, molecule, thermal environment, quadrature spec) of args."""
    reg = _registry(args)
    return (reg, _lookup(reg.molecules, args.molecule, "molecule"),
            ThermalEnvironment(parse_quantity(args.temperature)),
            _quad_spec(args))


def _z_grid(width, points):
    edge = width / 2.0 - width / 1000.0
    if points < 2:
        raise ConfigError("grid needs at least 2 points")
    step = 2.0 * edge / (points - 1)
    return [-edge + i * step for i in range(points)]


def cmd_profile(args) -> int:
    reg, mol, env, spec = _setup(args)
    mirror = _lookup(reg.mirrors, args.mirror, "mirror")
    width = _resolve_width(args.width, mol)
    cavity = CavityGeometry(width=width, mirror=mirror)

    # the grid and, unless --raw, its z = 0 centre offset share one
    # Matsubara integral and one real-frequency trace per transition
    zs = np.array(_z_grid(width, args.points) + ([] if args.raw else [0.0]))
    u = np.array([nonresonant_potential(zs, mol, cavity, env, spec),
                  *resonant_potential(zs, mol, cavity, env, spec)])
    off = np.zeros(3) if args.raw else u[:, -1]
    rows = [(z, *c, sum(c))
            for z, c in zip(zs.tolist(), (u.T[:args.points] - off).tolist())]
    _emit(rows, ["z_m", "U_nr_J", "U_pr_J", "U_ev_J", "U_total_J"], args)
    return EXIT_OK


def cmd_depth(args) -> int:
    reg, mol, env, spec = _setup(args)
    mirror = _lookup(reg.mirrors, args.mirror, "mirror")
    nus = [int(s) for s in args.nu.split(",") if s.strip()]
    if not nus or any(nu < 1 for nu in nus):
        raise ConfigError("--nu needs a comma-separated list of integers >= 1")

    rows = []
    for nu in nus:
        rep = potential_depth(mol, mirror, nu, env, spec)
        z_min = rep.minima_positions[0] if rep.minima_positions else math.nan
        rows.append((nu, rep.width, rep.depth, z_min,
                     ";".join(_fmt(z) for z in rep.maxima_positions),
                     "well_depth" if rep.is_well_depth else "peak_height"))
    _emit(rows, ["nu", "a_m", "depth_J", "z_min_m", "z_maxima_m", "kind"],
          args)
    return EXIT_OK


def cmd_bragg(args) -> int:
    reg = _registry(args)
    mat_a = _lookup(reg.materials, args.material_a, "material")
    mat_b = _lookup(reg.materials, args.material_b, "material")
    omega0 = float(args.design_frequency)
    if args.n_min > args.n_max or args.n_min < 0:
        raise ConfigError("need 0 <= n-min <= n-max")

    rows = []
    prev = None
    for n_pairs in range(args.n_min, args.n_max + 1):
        layers = quarter_wave_stack(mat_a, mat_b, n_pairs, omega0)
        r = complex(multilayer_reflection(layers, omega0, np.array([0.0]),
                                          "p")[0])
        one_minus = 1.0 - r.real
        saturated = prev is not None and \
            abs(one_minus - prev) <= 0.01 * abs(prev)
        rows.append((n_pairs, one_minus, abs(r), saturated))
        prev = one_minus
    _emit(rows, ["n_pairs", "one_minus_re_r", "abs_r", "saturated"], args)
    return EXIT_OK


def cmd_heating(args) -> int:
    reg, mol, env, spec = _setup(args)
    mirror = _lookup(reg.mirrors, args.mirror, "mirror")
    width = _resolve_width(args.width, mol)
    gamma_free = heating_rate_free(mol, env)

    if args.single_plate:
        lam = 2.0 * math.pi * C / mol.transitions[0].omega
        lo, hi = lam / 100.0, width
        step = (hi - lo) / (args.points - 1)
        grid = [lo + i * step for i in range(args.points)]
        gammas = [heating_rate_single_plate(d, mol, mirror, env, spec)
                  for d in grid]
    else:
        cavity = CavityGeometry(width=width, mirror=mirror)
        grid = _z_grid(width, args.points)
        gammas = heating_rate_profile(np.array(grid), mol, cavity, env, spec)
    rows = [(z, float(g), gamma_free) for z, g in zip(grid, gammas)]
    _emit(rows, ["z_m", "gamma_per_s", "gamma_free_per_s"], args)
    return EXIT_OK


def cmd_asym(args) -> int:
    _, mol, env, spec = _setup(args)
    t = mol.transitions[0]
    lam = 2.0 * math.pi * C / t.omega
    coupling = photon_number(t.omega, env) * t.d_squared / (3.0 * EPSILON_0)
    nus = list(range(args.nu_min, args.nu_max + 1))
    deltas = [float(s) for s in args.delta.split(",") if s.strip()] \
        if args.delta else []
    if not nus:
        raise ConfigError("empty nu range")
    if any(nu < 2 for nu in nus):
        raise ConfigError("asym requires nu >= 2")

    rows = []
    for nu in nus:
        phi = asymptotics.phi_nu(nu)
        if not deltas:
            rows.append((nu, math.nan, math.nan, math.nan, math.nan,
                         phi, asymptotics.phi_asymptote(nu)))
            continue
        for delta in deltas:
            cfg = asymptotics.ConstantRCavity(r=1.0 - delta, nu=nu, lam=lam)
            series = coupling * (
                asymptotics.I_phi_series(cfg, 0.5 - 1.5 / nu)
                - asymptotics.I_phi_series(cfg, 0.5 - 1.0 / nu))
            rep = potential_depth(mol, ConstantR(1.0 - delta), nu, env, spec)
            rows.append((nu, delta, rep.depth, series,
                         asymptotics.depth_scaling(nu, delta, lam, coupling),
                         phi, asymptotics.phi_asymptote(nu)))
    _emit(rows, ["nu", "delta", "depth_quadrature_J", "depth_series_J",
                 "depth_scaling_J", "phi_nu", "phi_asymptote"], args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # global flags, accepted before and after the subcommand (defaults:
    # _GLOBAL_DEFAULTS, the namespace main() parses into)
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--config",
                        help="path to a molecules/materials/mirrors config")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "json"),
                        help="default csv")
    common.add_argument("--rel-tol", type=float,
                        help="quadrature relative tolerance (default 1e-9)")
    parser = argparse.ArgumentParser(
        prog="cavitycp", parents=[common],
        description="Thermal Casimir-Polder potentials, well depths, and "
                    "heating rates for polar molecules in planar cavities.")
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, parents=[common])

    p = add("profile", help="potential components on a z grid")
    p.add_argument("--molecule", default="LiH")
    p.add_argument("--mirror", default="gold")
    p.add_argument("--width", required=True,
                   help="cavity width (e.g. 500um) or resonance:NU")
    p.add_argument("--temperature", default="300K")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--raw", action="store_true",
                   help="emit constant-dropped values without the "
                   "vanish-at-center shift")
    p.set_defaults(func=cmd_profile)

    p = add("depth", help="well depths at cavity resonances")
    p.add_argument("--molecule", default="LiH")
    p.add_argument("--mirror", default="gold")
    p.add_argument("--nu", required=True, help="comma-separated resonance "
                   "orders")
    p.add_argument("--temperature", default="300K")
    p.set_defaults(func=cmd_depth)

    p = add("bragg", help="Bragg mirror reflectivity vs layer count")
    p.add_argument("--material-a", required=True)
    p.add_argument("--material-b", required=True)
    p.add_argument("--n-min", type=int, default=0)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--design-frequency", required=True,
                   help="stack design angular frequency, rad/s")
    p.set_defaults(func=cmd_bragg)

    p = add("heating", help="heating-rate profile")
    p.add_argument("--molecule", default="LiH")
    p.add_argument("--mirror", default="gold")
    p.add_argument("--width", required=True)
    p.add_argument("--temperature", default="300K")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--single-plate", action="store_true",
                   help="distance scan from a single plate instead of a "
                   "cavity profile")
    p.set_defaults(func=cmd_heating)

    p = add("asym", help="compare quadrature depths with the "
            "constant-reflectivity asymptotics")
    p.add_argument("--molecule", default="LiH")
    p.add_argument("--temperature", default="300K")
    p.add_argument("--nu-min", type=int, default=2)
    p.add_argument("--nu-max", type=int, required=True)
    p.add_argument("--delta", default="",
                   help="comma-separated list of 1-r values (optional)")
    p.set_defaults(func=cmd_asym)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            argv, namespace=argparse.Namespace(**_GLOBAL_DEFAULTS))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
