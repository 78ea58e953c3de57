"""Command-line interface.

Subcommands mirror the pipeline stages: ``modes`` solves and serializes a
spectrum window, ``expand``/``evolve`` build and propagate a packet, ``gh``,
``husimi`` and ``tunnel1d`` extract observables, and ``report`` compares every
metric against the reference values with explicit tolerances.  All artifacts
are deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import cylinder, scenarios, serialization as ser
from .errors import CurvewaveError
from .potential import PotentialSpec
from .spectrum import build_mode_table


def _add_common(p):
    p.add_argument("--preset", choices=sorted(scenarios.PRESETS), default=None)
    p.add_argument("--config", default=None, help="INI config path")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--solve", action="store_true",
                   help="solve the mode table if its artifact is missing")
    p.add_argument("--tolerance-scale", type=float, default=1.0)


def _config_from(args) -> scenarios.ScenarioConfig:
    if args.config:
        cfg = scenarios.load_config(args.config)
    elif args.preset:
        cfg = scenarios.preset_config(args.preset)
    else:
        raise CurvewaveError("pass --preset or --config")
    cfg.jobs = args.jobs
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="curvewave")
    sub = parser.add_subparsers(dest="command", required=True)

    p_modes = sub.add_parser("modes", help="solve and serialize a spectrum window")
    _add_common(p_modes)
    p_modes.add_argument("--m", type=int, default=None, help="single angular momentum")
    p_modes.add_argument("--m-min", type=int, default=None)
    p_modes.add_argument("--m-max", type=int, default=None)
    p_modes.add_argument("--kmax", type=float, default=None,
                         help="resonance search upper Re k")

    for name, help_text in (("expand", "expansion coefficients and counts"),
                            ("gh", "boundary-shift fit and theory"),
                            ("husimi", "emission Husimi analysis"),
                            ("report", "all metrics vs reference values")):
        _add_common(sub.add_parser(name, help=help_text))

    p_ev = sub.add_parser("evolve", help="field frames at the listed times")
    _add_common(p_ev)
    p_ev.add_argument("--times", type=float, nargs="+", required=True)
    p_ev.add_argument("--cartesian-n", type=int, default=400,
                      help="export grid points per axis")

    p_t1 = sub.add_parser("tunnel1d", help="1D barrier delays and phase curves")
    _add_common(p_t1)
    p_t1.add_argument("--v-max", type=float, default=100.0)
    p_t1.add_argument("--v-min", type=float, default=60.0)
    p_t1.add_argument("--x-a", type=float, default=0.0)
    p_t1.add_argument("--x-b", type=float, default=1.0)
    p_t1.add_argument("--modified-m", type=int, default=17)
    p_t1.add_argument("--modified-v0", type=float, default=100.0)
    p_t1.add_argument("--exit-x", type=float, default=2.7)

    p_ce = sub.add_parser("corefn-eval")   # debug/oracle cross-checks
    p_ce.add_argument("--kind", choices=("j", "h1", "k"), required=True)
    p_ce.add_argument("--order", type=int, required=True)
    p_ce.add_argument("--re", type=float, required=True)
    p_ce.add_argument("--im", type=float, default=0.0)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except CurvewaveError as err:
        json.dump({"error": type(err).__name__, "message": str(err)},
                  sys.stderr, indent=2)
        sys.stderr.write("\n")
        return 2


def _dispatch(args) -> int:
    if args.command == "corefn-eval":
        ev = cylinder.eval_cylinder(args.kind, args.order,
                                    complex(args.re, args.im))
        print(json.dumps({"order": ev.order,
                          "argument": [ev.argument.real, ev.argument.imag],
                          "value": [ev.value.real, ev.value.imag],
                          "derivative": [ev.derivative.real, ev.derivative.imag],
                          "log_scale": ev.log_scale},
                         indent=2, sort_keys=True))
        return 0

    if args.command == "tunnel1d":
        from .barrier1d import RectBarrier
        bar = RectBarrier(v_max=args.v_max, v_min=args.v_min,
                          x_a=args.x_a, x_b=args.x_b)
        delays = scenarios.run_tunnel1d(args.out, rect=bar,
                                        modified_m=args.modified_m,
                                        modified_v0=args.modified_v0,
                                        exit_x=args.exit_x)
        print(json.dumps(delays, indent=2, sort_keys=True))
        return 0

    if args.command == "modes" and args.m is not None:
        # the potential of --config/--preset, the default one without either
        pot = (_config_from(args).potential if args.config or args.preset
               else PotentialSpec())
        kmax = args.kmax if args.kmax else pot.k_step + 20.0
        table = build_mode_table(pot, [args.m], resonance_k_max=kmax)
        import os
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"modes_m{args.m}.txt")
        ser.save_modes(path, table)
        print(f"{len(table)} modes -> {path}")
        return 0

    cfg = _config_from(args)
    if args.command == "modes":
        if args.m_min is not None:
            cfg.m_lo = args.m_min
        if args.m_max is not None:
            cfg.m_hi = args.m_max
        if args.kmax is not None:
            cfg.resonance_k_max = args.kmax
        ws = scenarios.Workspace(cfg, args.out)
        table = ws.solve_table()
        print(f"{len(table)} modes -> {ws.modes_path}")
        return 0

    ws = scenarios.Workspace(cfg, args.out)
    ws.table(solve=args.solve or args.command in ("report", "expand"))

    if args.command == "expand":
        counts = scenarios.run_expand(ws)
        print(json.dumps(counts, indent=2, sort_keys=True))
        return 0
    if args.command == "evolve":
        ev = ws.evaluator()
        n = args.cartesian_n
        half = cfg.grid_r_max / np.sqrt(2.0)
        xs = np.linspace(-half, half, n)
        x0, y0 = cfg.packet.launch_point
        cut = np.linspace(-1.2, 1.2, 481)
        for t in args.times:
            snap = ev.snapshot(t, cfg.packet.s0)
            xx, yy = np.meshgrid(xs, xs, indexing="xy")
            pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
            vals = snap.at_points(pts).reshape(n, n)
            path = ws.path(f"field_{cfg.preset}_t{t:g}.bin")
            ser.save_field_binary(path, vals, xs[0], xs[0],
                                  xs[1] - xs[0], xs[1] - xs[0], t)
            # 1D cuts through the launch point, the profile-overlay idiom
            horiz = snap.at_points(np.stack([x0 + cut, np.full_like(cut, y0)], -1))
            vert = snap.at_points(np.stack([np.full_like(cut, x0), y0 + cut], -1))
            ser.write_csv(ws.path(f"profile_{cfg.preset}_t{t:g}.csv"),
                          ("offset", "prob_horizontal", "prob_vertical"),
                          list(zip(cut, np.abs(horiz) ** 2, np.abs(vert) ** 2)))
            print(f"t={t:g} -> {path}")
        return 0
    if args.command == "gh":
        out = scenarios.run_gh(ws)
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    if args.command == "husimi":
        out = scenarios.run_husimi(ws)
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    if args.command == "report":
        report = scenarios.run_report(ws, tolerance_scale=args.tolerance_scale)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    raise CurvewaveError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
