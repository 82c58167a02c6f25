"""Command-line front end: parameter scans emitted as CSV or JSON tables.

Subcommands: profile, depth, bragg, heating, asym.  Exit codes: 0 on
success, 2 for configuration/usage errors, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_registry, lookup
from .constants import C, EPSILON_0
from .greens import CavityGeometry, PlateGeometry
from .materials import ConstantR, Stack, quarter_wave_stack
from .molecules import ThermalEnvironment, photon_number
from .potential import heating_rate_free, heating_rate_profile, \
    nonresonant_potential, potential_depth, resonance_width, \
    resonant_potential
from .quadrature import QuadratureError, QuadratureSpec
from . import asymptotics

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_GLOBAL_DEFAULTS = {"config": None, "out": None, "format": "csv",
                    "rel_tol": "1e-9"}


def _csv(rows, header) -> str:
    """CSV text, one %-template per tuple of row types: floats as %.17g,
    bools as true/false, anything else by str."""
    lines, templates = [",".join(header)], {}
    for row in rows:
        kinds = tuple(map(type, row))
        if kinds not in templates:
            templates[kinds] = ",".join(
                "%.17g" if issubclass(k, float) else "%s" for k in kinds)
        if bool in kinds:
            row = [("true" if v else "false") if k is bool else v
                   for k, v in zip(kinds, row)]
        lines.append(templates[kinds] % tuple(row))
    return "\n".join(lines) + "\n"


def _emit(rows, header, args):
    if args.format == "csv":
        text = _csv(rows, header)
    else:  # imported here only; non-finite floats become null (RFC 8259)
        import json
        text = json.dumps(
            [{k: None if isinstance(v, float) and not math.isfinite(v) else v
              for k, v in zip(header, row)} for row in rows],
            indent=2, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_UNITS = {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "cm": 1e-2, "m": 1.0, "K": 1.0}


def _quantity(text, flag, units=(), kind=float, hi=math.inf):
    """kind(text) in (0, hi) (with hi - it < hi for a finite hi), scaled by its
    unit if it ends in one of units, else a ConfigError line naming flag."""
    head = text.strip()
    number, unit = re.fullmatch(r"(.*?)([a-zA-Z]*)", head, re.S).groups()
    try:
        value = kind(number) * _UNITS[unit] if number and unit in units \
            else kind(head)
    except ValueError:
        wrong = units and number and unit not in ("", *units)
        what = "/".join(units) if wrong else "an integer" if kind is int \
            else "a number"
        raise ConfigError(f"{flag} takes {what}, not "
                          f"{unit if wrong else text!r}") from None
    if not 0 < value < hi or math.isfinite(hi) and hi - value == hi:
        raise ConfigError(f"{flag} must be positive and finite, got {text!r}"
                          if hi == math.inf else f"{flag} takes v in (0, "
                          f"{hi:g}) with {hi:g} - v < {hi:g}, got {text!r}")
    return value


def _setup(args):
    """Resolve the shared flags once, in place: args.reg (from --config), and
    args.molecule, env, mirror and width (m) where the subcommand has them."""
    args.reg = load_registry(Path(args.config).read_text() if args.config
                             else "")
    if "molecule" in args:
        args.molecule = lookup(args.reg.molecules, args.molecule, "molecule")
        args.env = ThermalEnvironment(_quantity(
            args.temperature, "--temperature", ("K",)))
    if "mirror" in args:
        args.mirror = lookup(args.reg.mirrors, args.mirror, "mirror")
    if "width" in args and args.width.startswith("resonance:"):
        args.width = resonance_width(args.molecule.transitions[0], _quantity(
            args.width.split(":", 1)[1], "--width resonance:N", kind=int))
    elif "width" in args:
        args.width = _quantity(args.width, "--width",
                               ("nm", "um", "mm", "cm", "m"))


def _grid(lo, hi, points):
    """points evenly spaced values from lo up to hi > lo."""
    if points < 2:
        raise ConfigError(f"--points needs at least 2, got {points}")
    step = (hi - lo) / (points - 1)
    return [lo + i * step for i in range(points)]


def _z_grid(width, points):
    """points evenly spaced positions across the cavity, a/1000 from each
    wall, exactly antisymmetric (z[i] == -z[-1 - i], centre 0.0 for odd
    points), so that mirror positions fold onto one evaluation."""
    edge = width / 2.0 - width / 1000.0
    half = _grid(-edge, edge, points)[:points // 2]
    return half + [0.0] * (points % 2) + [-z for z in reversed(half)]


def cmd_profile(args):
    mol, env, spec, width = args.molecule, args.env, args.spec, args.width
    cavity = CavityGeometry(width=width, mirror=args.mirror)

    # the grid and, unless --raw, its z = 0 centre offset share one
    # Matsubara integral and one real-frequency trace per transition
    zs = np.array(_z_grid(width, args.points) + ([] if args.raw else [0.0]))
    u = np.array([nonresonant_potential(zs, mol, cavity, env, spec),
                  *resonant_potential(zs, mol, cavity, env, spec)])
    off = np.zeros(3) if args.raw else u[:, -1]
    rows = [(z, *c, sum(c))
            for z, c in zip(zs.tolist(), (u.T[:args.points] - off).tolist())]
    return rows, ["z_m", "U_nr_J", "U_pr_J", "U_ev_J", "U_total_J"]


def cmd_depth(args):
    nus = [_quantity(s, "--nu", kind=int) for s in args.nu.split(",")
           if s.strip()]
    if not nus:
        raise ConfigError("--nu needs a comma-separated list of integers >= 1")

    rows = []
    for nu in nus:
        rep = potential_depth(args.molecule, args.mirror, nu, args.env,
                              args.spec)
        z_min = rep.depth_positions[1] if rep.is_well_depth else math.nan
        rows.append((nu, rep.width, rep.depth, z_min,
                     ";".join("%.17g" % z for z in rep.maxima_positions),
                     "well_depth" if rep.is_well_depth else "peak_height"))
    return rows, ["nu", "a_m", "depth_J", "z_min_m", "z_maxima_m", "kind"]


def cmd_bragg(args):
    mat_a = lookup(args.reg.materials, args.material_a, "material")
    mat_b = lookup(args.reg.materials, args.material_b, "material")
    omega0 = _quantity(args.design_frequency, "--design-frequency")
    # (w/c)^2 normal, and beta^2 + (eps_j - 1) (w/c)^2 finite: the chain
    # evaluates each eps_j(w) only if w/c passes its lower bound
    eps = (abs(m.eps(omega0) - 1.0) for m in (mat_a, mat_b))
    if not math.sqrt(sys.float_info.min) < omega0 / C < math.sqrt(
            sys.float_info.max / (1.0 + max(eps))):
        raise ConfigError(f"--design-frequency {omega0} is out of float range")
    if args.n_min > args.n_max or args.n_min < 0:
        raise ConfigError(f"--n-min {args.n_min} is not in [0, n-max]")

    # r_p at normal incidence of n = 0, ..., n-max pairs: each n-pair stack
    # is the n-max-pair stack's tail, all from one back-to-front pass
    stack = Stack(quarter_wave_stack(mat_a, mat_b, args.n_max, omega0))
    tails = stack.tails(omega0, np.array([omega0 / C + 0j]), 2)
    rows = []
    prev = None
    for n_pairs, rp in enumerate(tails[args.n_min:], args.n_min):
        r = complex(rp[0])
        one_minus = 1.0 - r.real
        saturated = prev is not None and \
            abs(one_minus - prev) <= 0.01 * abs(prev)
        rows.append((n_pairs, one_minus, abs(r), saturated))
        prev = one_minus
    return rows, ["n_pairs", "one_minus_re_r", "abs_r", "saturated"]


def cmd_heating(args):
    gamma_free = heating_rate_free(args.molecule, args.env)

    if args.single_plate:
        floor = 2.0 * math.pi * C / args.molecule.transitions[0].omega / 100
        if not args.width > floor:
            raise ConfigError(f"--width must exceed lam/100 = {floor} m, the "
                              f"plate grid's floor, got {args.width} m")
        geometry = PlateGeometry(args.mirror)
        grid = _grid(floor, args.width, args.points)
    else:
        geometry = CavityGeometry(width=args.width, mirror=args.mirror)
        grid = _z_grid(args.width, args.points)
    gammas = heating_rate_profile(np.array(grid), args.molecule, geometry,
                                  args.env, args.spec)
    rows = [(z, float(g), gamma_free) for z, g in zip(grid, gammas)]
    return rows, ["z_m", "gamma_per_s", "gamma_free_per_s"]


def cmd_asym(args):
    mol, env, spec = args.molecule, args.env, args.spec
    t = mol.transitions[0]
    lam = 2.0 * math.pi * C / t.omega
    coupling = photon_number(t.omega, env) * t.d_squared / (3.0 * EPSILON_0)
    nus = list(range(args.nu_min, args.nu_max + 1))
    deltas = [_quantity(s, "--delta", hi=1.0) for s in args.delta.split(",")
              if s.strip()]
    if not nus or nus[0] < 2:
        raise ConfigError(f"--nu-min {args.nu_min} is not in [2, nu-max]")

    # the series of every nu from one Lerch integral per delta
    phis = [[0.5 - 1.5 / nu, 0.5 - 1.0 / nu] for nu in nus]
    series = {delta: asymptotics.I_phi_series(1.0 - delta, nus, lam, phis)
              for delta in deltas}
    rows = []
    for nu in nus:
        phi = asymptotics.phi_nu(nu)
        if not deltas:
            rows.append((nu, math.nan, math.nan, math.nan, math.nan,
                         phi, asymptotics.phi_asymptote(nu)))
            continue
        for delta in deltas:
            i_max, i_min = series[delta][nu - nus[0]].tolist()
            rep = potential_depth(mol, ConstantR(1.0 - delta), nu, env, spec)
            rows.append((nu, delta, rep.depth, coupling * (i_max - i_min),
                         asymptotics.depth_scaling(nu, delta, lam, coupling),
                         phi, asymptotics.phi_asymptote(nu)))
    return rows, ["nu", "delta", "depth_quadrature_J", "depth_series_J",
                  "depth_scaling_J", "phi_nu", "phi_asymptote"]


@functools.cache  # built at the first call; a parse leaves it unchanged
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
    common.add_argument("--rel-tol",
                        help="quadrature relative tolerance (default 1e-9)")
    parser = argparse.ArgumentParser(
        prog="cavitycp", parents=[common],
        description="Thermal Casimir-Polder potentials, well depths, and "
                    "heating rates for polar molecules in planar cavities.")
    # shared flags: molecule subcommands, and cavity ones that add a mirror
    molecule = argparse.ArgumentParser(add_help=False, parents=[common])
    molecule.add_argument("--molecule", default="LiH")
    molecule.add_argument("--temperature", default="300K")
    cavity = argparse.ArgumentParser(add_help=False, parents=[molecule])
    cavity.add_argument("--mirror", default="gold")
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, parents=[common])

    p = add("profile", parents=[cavity],
            help="potential components on a z grid")
    p.add_argument("--width", required=True,
                   help="cavity width (e.g. 500um) or resonance:NU")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--raw", action="store_true",
                   help="emit constant-dropped values without the "
                   "vanish-at-center shift")
    p.set_defaults(func=cmd_profile)

    p = add("depth", parents=[cavity],
            help="well depths at cavity resonances")
    p.add_argument("--nu", required=True, help="comma-separated resonance "
                   "orders")
    p.set_defaults(func=cmd_depth)

    p = add("bragg", help="Bragg mirror reflectivity vs layer count")
    p.add_argument("--material-a", required=True)
    p.add_argument("--material-b", required=True)
    p.add_argument("--n-min", type=int, default=0)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--design-frequency", required=True,
                   help="stack design angular frequency, rad/s")
    p.set_defaults(func=cmd_bragg)

    p = add("heating", parents=[cavity], help="heating-rate profile")
    p.add_argument("--width", required=True)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--single-plate", action="store_true",
                   help="distance scan from a single plate instead of a "
                   "cavity profile")
    p.set_defaults(func=cmd_heating)

    p = add("asym", parents=[molecule], help="compare quadrature depths "
            "with the constant-reflectivity asymptotics")
    p.add_argument("--nu-min", type=int, default=2)
    p.add_argument("--nu-max", type=int, required=True)
    p.add_argument("--delta", default="",
                   help="comma-separated list of 1-r values (optional)")
    p.set_defaults(func=cmd_asym)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse takes -1e-3 for a flag
        flag, value = argv[i - 1:i + 1]
        if flag[:2] == "--" and value[:1] == "-" and value[1:2].isdigit():
            argv[i - 1:i + 1] = [flag + "=" + value]
    try:
        args = build_parser().parse_args(
            argv, namespace=argparse.Namespace(**_GLOBAL_DEFAULTS))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        args.spec = QuadratureSpec(_quantity(args.rel_tol, "--rel-tol", hi=1))
        _setup(args)
        _emit(*args.func(args), args)
        return EXIT_OK
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
