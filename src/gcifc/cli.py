"""Command-line front end: classify | region | gap | atlas | verify.

Emits plot-ready CSV (or JSON) with 12-digit mantissas and fixed C
formatting, so identical configs produce byte-identical output. Each
subcommand takes only the flags it reads. A JSON config file can mirror
any flag of its subcommand, keyed by the flag's name (`"format"`,
`"a-min"`) or its dest (`"fmt"`, `"a_min"`); explicit flags win.
Invalid values and flags, and values a subcommand would ignore, exit 2
(EXIT_USAGE) with a message, never a traceback; other library errors
exit 3, and 1 means only that `verify` found a failed check.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import inner, outer, region, verify
from .channel import ChannelParams, RawChannel, classify, to_standard_form
from .errors import DegenerateDirectLink, GcifcError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_LIBRARY = 3  # a bound outside its regime, or another library error


def _scheme_e(policy: str):
    return lambda ch, g: inner.scheme_e(ch, lambda_policy=policy)


def _transform(preset: str):
    return lambda ch, g: outer.transformed_outer(ch, preset=preset, grid=g)


_E_SWEEP = _scheme_e("sweep")
OUTER, INNER = region.Kind.OUTER, region.Kind.INNER

# every bound/scheme id: its kind and its builder, called as build(ch, grid);
# grid is the r1 nodes of an outer bound, and every inner builder ignores it
BUILDERS = {
    "weak": (OUTER, outer.weak_outer),
    "strong": (OUTER, outer.strong_outer),
    "unified": (OUTER, outer.unified_outer),
    "bc-pr": (OUTER, outer.bc_pr_outer),
    "bc-dms-deg": (OUTER, outer.bc_dms_degraded_outer),
    "bc-dms-s": (OUTER, outer.bc_dms_s_outer),
    "pl-si": (OUTER, outer.piecewise_linear_outer),
    "transform:tos": (OUTER, _transform("tos")),
    "transform:toweak": (OUTER, _transform("toweak")),
    "transform:tovs": (OUTER, _transform("tovs")),
    "outer:best": (OUTER, outer.best_outer),
    "a": (INNER, lambda ch, g: inner.scheme_a(ch)),
    "b": (INNER, lambda ch, g: inner.scheme_b(ch)),
    "c": (INNER, lambda ch, g: inner.scheme_c(ch)),
    "c46": (INNER, lambda ch, g: inner.scheme_c46(ch)),
    "d": (INNER, lambda ch, g: inner.scheme_d(ch)),
    "e": (INNER, _E_SWEEP),
    "e:sweep": (INNER, _E_SWEEP),
    "e:costa1": (INNER, _scheme_e("costa1")),
    "e:zero": (INNER, _scheme_e("zero")),
    "f": (INNER, lambda ch, g: inner.scheme_f(ch)),
    "tdma": (INNER, lambda ch, g: inner.tdma_inner(ch)),
    "inner:best": (INNER, lambda ch, g: inner.best_inner(ch)),
}


# add_argument's keywords per flag: --config and --out on every subcommand
_FLAGS = {
    "a": dict(help="cross gain at the cognitive receiver "
                   "(complex, e.g. '0.5' or '1+2j')"),
    "b": dict(type=float, help="cross gain at the primary receiver (>= 0)"),
    "p1": dict(type=float, help="cognitive transmit power"),
    "p2": dict(type=float, help="primary transmit power"),
    "raw": dict(help="raw channel 'h11=..,h12=..,h21=..,h22=..,sigma1=..,"
                     "sigma2=..,p1=..,p2=..' (auto-reduced to standard form)"),
    "config": dict(help="JSON file mirroring the flags"),
    "out": dict(help="output path (or prefix for region)"),
    "format": dict(dest="fmt", choices=("csv", "json"), default="csv"),
    "grid": dict(type=int, default=region.R1_GRID_DEFAULT,
                 help="r1 nodes of output tables and outer bounds"),
}


class UsageError(Exception):
    pass


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise UsageError(f"--a: cannot parse complex value {text!r}") from None


# each --raw key and the RawChannel field it sets; the fields' defaults
_RAW_KEYS = {"h11": "h11", "h12": "h12", "h21": "h21", "h22": "h22",
             "sigma1": "sigma1_sq", "sigma1_sq": "sigma1_sq",
             "sigma2": "sigma2_sq", "sigma2_sq": "sigma2_sq",
             "p1": "p1_raw", "p2": "p2_raw"}
_RAW_DEFAULTS = dict(h11="1", h12="0", h21="0", h22="1", sigma1_sq="1",
                     sigma2_sq="1", p1_raw="1", p2_raw="1")


def _parse_raw(text: str) -> RawChannel:
    fields = {}
    for part in text.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise UsageError(f"--raw: expected key=value, got {part!r}")
        k, v = (s.strip() for s in part.split("=", 1))
        if k not in _RAW_KEYS:
            raise UsageError(f"--raw: unknown key {k!r} (keys: "
                             f"{', '.join(_RAW_KEYS)})")
        if _RAW_KEYS[k] in fields:
            raise UsageError(f"--raw: {k!r} sets {_RAW_KEYS[k]} twice")
        fields[_RAW_KEYS[k]] = v
    try:
        return RawChannel(**{f: (complex if f[0] == "h" else float)(v)
                             for f, v in {**_RAW_DEFAULTS, **fields}.items()})
    except ValueError as exc:
        raise UsageError(f"--raw: {exc}") from None


def _checked_channel(a, b, p1, p2) -> ChannelParams:
    try:
        return ChannelParams(a, b, p1, p2)
    except ValueError as exc:
        raise UsageError(f"invalid channel: {exc}") from None


def _none_set(args, flags, why: str):
    """A usage error naming those of `flags` that are set, which `why`
    would leave unread."""
    given = [f"--{k}" for k in flags if getattr(args, k) is not None]
    if given:
        raise UsageError(f"{why}: {', '.join(given)} would be ignored")


def _channel_from_args(args) -> ChannelParams:
    if args.raw:
        _none_set(args, ("a", "b", "p1", "p2"), "--raw sets the whole channel")
        return to_standard_form(_parse_raw(args.raw))
    if args.a is None and args.b is None:
        raise UsageError("a channel is required: --a/--b/--p1/--p2 or --raw")
    missing = [k for k in ("a", "b", "p1", "p2") if getattr(args, k) is None]
    if missing:
        raise UsageError(f"missing channel flags: --{', --'.join(missing)}")
    return _checked_channel(_parse_complex(args.a), args.b, args.p1, args.p2)


def _parse_args(parser, argv):
    """Parse argv; a --config file's values become the subcommand's
    defaults and argv is parsed again, so explicit flags win."""
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            conf = dict(json.load(fh))
    except (OSError, ValueError, TypeError) as exc:
        raise UsageError(f"config file: {exc}") from None
    # keyed by flag name or dest, either with '-' or '_'
    actions = {name.lstrip("-").replace("-", "_"): act
               for act in args.command_parser._actions
               if act.dest not in ("help", "config")
               for name in [act.dest, *act.option_strings]}
    for key, val in conf.items():
        act = actions.get(key.replace("-", "_"))
        if act is None:
            raise UsageError(f"config file: unknown option {key!r}")
        if act.nargs == 0:  # a store_true switch
            ok = isinstance(val, bool)
        else:
            # as text, which argparse converts like a flag's value
            val = None if val is None else str(val)
            ok = not act.choices or val in act.choices
        if not ok:
            raise UsageError(f"config file: invalid {key!r}: {val!r}")
        args.command_parser.set_defaults(**{act.dest: val})
    return parser.parse_args(argv)


def _named_nonfinite(obj):
    """obj with every non-finite float replaced by its name: 'inf', '-inf'
    or 'nan'."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(float(obj))
    if isinstance(obj, dict):
        return {k: _named_nonfinite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_named_nonfinite(v) for v in obj]
    return obj


def _json(obj, **kwargs) -> str:
    """The CLI's one JSON writer: RFC 8259 JSON, non-finite floats written
    as the strings 'inf', '-inf' and 'nan', finite values as json.dumps
    writes them."""
    return json.dumps(_named_nonfinite(obj), allow_nan=False, **kwargs)


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _region_path(out: str, rid: str, ext: str) -> str:
    return f"{out}_{rid.replace(':', '-')}.{ext}"


def _gnuplot_script(out: str, ids) -> str:
    lines = ["set datafile separator ','", "set key autotitle columnhead",
             "set xlabel 'R1 [bits]'", "set ylabel 'R2 [bits]'"]
    plots = ", ".join(f"'{_region_path(out, rid, 'csv')}' using 1:2 with lines "
                      f"title '{rid}'" for rid in ids)
    lines.append("plot " + plots)
    return "\n".join(lines) + "\n"


def cmd_classify(args) -> int:
    _emit(_json(classify(args.channel).to_json_dict(), indent=2,
                sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _builder(rid: str, kind=None):
    """The builder of a bound/scheme id. With a kind, the id must be of
    that kind and bare 'best' names that kind's best; without one, 'best'
    is ambiguous."""
    if rid == "best":
        if kind is None:
            raise UsageError("'best' is ambiguous here: use inner:best or "
                             "outer:best")
        rid = f"{kind.value}:best"
    entry = BUILDERS.get(rid)
    if entry is None or kind not in (None, entry[0]):
        what = "bound/scheme" if kind is None else kind.value
        raise UsageError(f"unknown {what} id {rid!r}")
    return entry[1]


def cmd_region(args) -> int:
    ids = [s.strip() for s in (args.ids or "").split(",") if s.strip()]
    if not ids:
        raise UsageError("region needs --ids")
    if args.gnuplot and (not args.out or args.fmt != "csv"):
        raise UsageError("--gnuplot writes a script next to CSV files: it "
                         "needs --out and --format csv")
    for rid in ids:
        reg = _builder(rid)(args.channel, args.grid).on_grid(args.grid)
        text = (_json(reg.to_json_dict()) + "\n" if args.fmt == "json"
                else reg.to_csv())
        if not args.out:
            sys.stdout.write(f"# id: {rid}\n")
        _emit(text, args.out and _region_path(args.out, rid, args.fmt))
    if args.gnuplot:
        _emit(_gnuplot_script(args.out, ids), f"{args.out}.gp")
    return EXIT_OK


def cmd_gap(args) -> int:
    if not args.outer_id or not args.inner_id:
        raise UsageError("gap needs --outer and --inner ids")
    build_o = _builder(args.outer_id, OUTER)
    build_i = _builder(args.inner_id, INNER)
    reg_i = build_i(args.channel, args.grid)
    reg_o = build_o(args.channel, args.grid)
    rep = region.gap_report(reg_o, reg_i)
    _emit(_json(rep.to_json_dict(), indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_atlas(args) -> int:
    if args.p is not None:
        _none_set(args, ("p1", "p2"), "--p sets both powers")
        p1 = p2 = args.p
    else:
        p1 = 10.0 if args.p1 is None else args.p1
        p2 = 10.0 if args.p2 is None else args.p2
    if args.resolution < 2:
        raise UsageError("--resolution must be at least 2")
    # every cell lies between the two corner channels
    _checked_channel(args.a_min, args.b_min, p1, p2)
    _checked_channel(args.a_max, args.b_max, p1, p2)
    cells = verify.atlas((args.a_min, args.a_max), (args.b_min, args.b_max),
                         args.resolution, p1, p2, args.mode)
    if args.fmt == "json":
        rows = [{"a_re": c.a.real, "a_im": c.a.imag, "b": c.b,
                 "label": c.label, "capacity_known": c.capacity_known,
                 "margin_5": c.margin_5, "margin_31a": c.margin_31a,
                 "margin_31b": c.margin_31b, "gap": c.gap} for c in cells]
        _emit(_json(rows) + "\n", args.out)
    else:
        lines = [verify.ATLAS_CSV_HEADER] + [c.csv_row() for c in cells]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.n <= 0:
        raise UsageError("--n must be positive")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    reports = verify.run_verification(n=args.n, seed=args.seed)
    payload = [r.to_json_dict() for r in reports]
    if args.out:
        _emit(_json(payload, indent=2, sort_keys=True) + "\n", args.out)
    failed = [r for r in reports if not r.holds]
    for r in sorted(reports, key=lambda r: r.theorem_id):
        status = "PASS" if r.holds else "FAIL"
        print(f"[{status}] {r.theorem_id}: worst violation "
              f"{r.worst_violation:.3e} over {r.channels_tested} checks")
        if not r.holds:
            print(f"        worst offender: {_json(r.details[0])}")
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gcifc",
        description="Capacity bounds and regime maps for the Gaussian "
                    "cognitive interference channel")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, help, flags=()):
        sp = sub.add_parser(name, help=help)
        # the handler, and the parser a --config file sets defaults on
        sp.set_defaults(run=run, command_parser=sp)
        for flag in ("config", "out", *flags):
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        return sp

    channel = ("a", "b", "p1", "p2", "raw")
    command("classify", cmd_classify, "regime flags and margins", channel)

    sp = command("region", cmd_region, "boundary tables for bounds/schemes",
                 channel + ("format", "grid"))
    sp.add_argument("--ids", help="comma-separated bound/scheme ids")
    sp.add_argument("--gnuplot", action="store_true",
                    help="also emit a gnuplot script next to the CSVs")

    sp = command("gap", cmd_gap, "additive/multiplicative gap between bounds",
                 channel + ("grid",))
    sp.add_argument("--outer", dest="outer_id", help="outer bound id")
    sp.add_argument("--inner", dest="inner_id", help="inner scheme id")

    sp = command("atlas", cmd_atlas, "regime or gap map over an (a, b) grid",
                 ("p1", "p2", "format"))
    sp.add_argument("--p", type=float, help="set p1 = p2 = p")
    sp.add_argument("--mode", choices=("regime", "gap"), default="regime")
    sp.add_argument("--resolution", type=int, default=41)
    sp.add_argument("--a-min", type=float, default=-5.0)
    sp.add_argument("--a-max", type=float, default=5.0)
    sp.add_argument("--b-min", type=float, default=0.0)
    sp.add_argument("--b-max", type=float, default=5.0)

    sp = command("verify", cmd_verify, "run the randomized theorem suite")
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=42)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        if "grid" in args and args.grid < 1:
            raise UsageError("--grid must be positive")
        if "raw" in args:
            args.channel = _channel_from_args(args)
        return args.run(args)
    except SystemExit as exc:  # argparse has printed its message
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateDirectLink as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GcifcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_LIBRARY


if __name__ == "__main__":
    sys.exit(main())
