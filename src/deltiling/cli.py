"""Command line driver: build, render, analyze and verify tilings."""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .field import MAX_ORDER, field_for_order
from .arrangement import SymmetryIndex, get_arrangement, triangular_pattern
from .prototiles import prototile_catalog
from .substitution import Patch, derive_rules, derive_edge_words, \
    prototile_ids, verify_face_to_face
from . import analysis, patchio, svg
from . import random as ensembles


def _out_dir(args):
    out = args.out or os.environ.get("DELTILING_OUT", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _sign(s):
    if s in ("+", "1", "+1"):
        return 1
    if s in ("-", "-1"):
        return -1
    raise argparse.ArgumentTypeError("sign must be + or -")


def _stage(entry):
    """(p, sign) of a --compose entry "p,sign"."""
    try:
        p, sign = entry.split(",")
        return int(p), _sign(sign)
    except (AttributeError, ValueError, argparse.ArgumentTypeError):
        raise ValueError(f"--compose entry {entry!r} is not p,sign "
                         "(for example 3,+ or 5,-)") from None


def cmd_arrange(args):
    out = _out_dir(args)
    sym = SymmetryIndex(args.d, args.kappa)
    arr = get_arrangement(args.d, args.kappa)
    base = os.path.join(out, f"arrangement_d{args.d}_k{args.kappa}")
    with open(base + ".txt", "w", newline="\n") as fh:
        fh.write(f"deltoid tangent arrangement d={args.d} kappa={args.kappa}\n")
        fh.write(f"segments: {len(arr.segments)}\n")
        for mu in range(args.d):
            v2, v3 = arr.vertex_multiplicities(mu)
            seq = arr.subdivision_sequence(mu)
            fh.write(f"segment {mu}: v2={v2} v3={v3} subdivision={seq}\n")
        fh.write(f"elementary triangles: {len(triangular_pattern(sym))}\n")
        fh.write("vertices (exact coefficient vector / denominator, float):\n")
        for rec in arr.vertices.values():
            z = rec.z
            fh.write(f"  mult={rec.multiplicity} num={list(z.num)} "
                     f"den={z.den} float={z.cvalue():.12f}\n")
    svg.render_arrangement(args.d, args.kappa, base + ".svg",
                           polygon=(args.d % 2 == 0))
    print(f"wrote {base}.txt and {base}.svg")


def cmd_prototiles(args):
    out = _out_dir(args)
    cat = prototile_catalog(args.d)
    base = os.path.join(out, f"prototiles_d{args.d}")
    with open(base + ".txt", "w", newline="\n") as fh:
        fh.write(f"prototile catalog d={args.d}: {len(cat.prototiles)} tiles\n")
        for p in cat.prototiles:
            sig = " ".join(str(l) for l in p.signature)
            fh.write(f"{p.name}: kappa={p.kappa} indices={p.face.tri.idx} "
                     f"sides={p.side_classes} letters=[{sig}]\n")
    svg.render_prototile_sheet(args.d, base + ".svg")
    print(f"wrote {base}.txt and {base}.svg")


def _rule_children(rules):
    """(name, child names) of each prototile with a rule, by name."""
    names, _ = prototile_ids(rules.d)
    count, kids = rules.table()
    it = iter(kids.columns[0].tolist())
    return sorted((name, [names[k] for k in itertools.islice(it, c)])
                  for name, c in zip(names, count.tolist()) if c >= 0)


def _rules_listing(rules):
    lines = [f"Phi({name}) = {' u '.join(children)}"
             for name, children in _rule_children(rules)]
    words = derive_edge_words(rules)
    for l in sorted(words, key=lambda l: (l.cls, -l.orient)):
        lines.append(f"phi({l}) = " + "".join(str(x) for x in words[l]))
    return "\n".join(lines) + "\n"


def cmd_rules(args):
    out = _out_dir(args)
    rules = derive_rules(args.d, args.p, args.sign)
    tag = "p" if args.sign > 0 else "m"
    base = os.path.join(out, f"rules_d{args.d}_p{args.p}_{tag}")
    with open(base + ".txt", "w", newline="\n") as fh:
        fh.write(_rules_listing(rules))
    # sheet: every inflated prototile with its dissection
    cv = svg.Canvas()
    palette = svg._shape_palette(args.d)
    iota = abs(rules.iota.cvalue())
    cell = 4.5 * iota
    cols = 6
    for i, (name, kids) in enumerate(_rule_children(rules)):
        col, row = i % cols, i // cols
        shift = complex(col * cell, -row * cell)
        tile = Patch.single(args.d, name)
        children = tile.inflate(rules).corner_values() + shift
        for cname, pts in zip(kids, children.tolist()):
            cv.polygon(pts, fill=palette[cname], stroke="#222", width=0.02)
        rep = (tile.corner_values()[0] * iota + shift).tolist()
        cv.polygon(rep, fill="none", stroke="#000", width=0.05)
        cv.text(sum(rep) / 3 - 0.6j * iota, name, size=0.8)
    cv.write(base + ".svg", margin=2.0)
    print(f"wrote {base}.txt and {base}.svg")


def cmd_tile(args):
    stages = [(args.p, args.sign)] + [_stage(e) for e in args.compose or []]
    out = _out_dir(args)
    patch = Patch.single(args.d, args.seed_tile)
    manifest = {"mode": "deterministic", "d": args.d, "seed_tile":
                args.seed_tile, "stages": []}
    for step in range(args.n):
        p, sign = stages[step % len(stages)]
        patch = patch.inflate(derive_rules(args.d, p, sign))
        manifest["stages"].append({"p": p, "sign": sign})
    base = os.path.join(out, f"patch_d{args.d}_{args.seed_tile}_n{args.n}")
    patchio.export_patch(patch, base + ".json", manifest)
    svg.render_patch(patch, base + ".svg", decorations=args.decorations)
    print(f"wrote {base}.json and {base}.svg ({len(patch)} tiles)")


def cmd_random(args):
    out = _out_dir(args)
    manifest = {"mode": args.mode, "d": args.d, "rng_seed": args.rng_seed}
    highlight = []
    if args.mode == "rearrange":
        rules = derive_rules(args.d, args.p, args.sign)
        patch = Patch.single(args.d, args.seed_tile)
        for _ in range(args.n):
            patch = patch.inflate(rules)
        manifest.update(p=args.p, sign=args.sign, n=args.n, steps=args.steps,
                        seed_tile=args.seed_tile)
        patch, flips = ensembles.rearrangement_run(patch, args.steps,
                                                   args.rng_seed)
        manifest["flips"] = flips
        if flips < args.steps:
            print(f"note: no flip site left after {flips} of {args.steps} "
                  "steps", file=sys.stderr)
        # each flip site's shared edge: side k of tile i, corners k and k+1
        if args.mark_flips:
            corners = patch.corner_values()
            for site in ensembles.find_flippable(patch):
                k = site.side % 3
                highlight.append(tuple(
                    corners[site.i, sorted((k, (k + 1) % 3))].tolist()))
    else:
        family = ensembles.random_rule_family(args.d, cap=args.cap)
        pi = family.uniform_pi()
        manifest.update(n=args.n, family_size=len(family), pi=pi,
                        cap=args.cap, seed_tile=args.seed_tile)
        patch = ensembles.random_substitution(args.seed_tile, family, pi,
                                              args.n, args.rng_seed)
    rep = verify_face_to_face(patch, decorated=False)
    if not rep.ok:
        raise AssertionError(f"ensemble sample failed the audit: {rep}")
    base = os.path.join(out, f"random_d{args.d}_{args.mode}_s{args.rng_seed}")
    patchio.export_patch(patch, base + ".json", manifest)
    svg.render_patch(patch, base + ".svg", highlight_edges=highlight)
    print(f"wrote {base}.json and {base}.svg ({len(patch)} tiles)")


def cmd_analyze(args):
    ps = range(2, args.d // 2 + 1) if args.p is None else [args.p]
    rep = analysis.census_report(args.d)
    print(f"census d={args.d}: all_match={rep['all_match']}")
    for v in rep["variants"]:
        print(f"  kappa={v['kappa']}: triangles={v['geometric']} "
              f"closed_form={v['closed_form']} "
              f"multiplicities_ok={v['multiplicities_ok']} "
              f"subdivisions_ok={v['subdivisions_ok']}")
    for row in analysis.pisot_table(args.d):
        if row["p"] not in ps:
            continue
        print(f"iota_{{{args.d},{row['p']}}} = {row['value']:.6f}: "
              f"Pisot={row['pisot']} ({row['reason']})")
    for p in ps:
        try:
            lam, freq = analysis.tile_frequencies(derive_rules(args.d, p, 1))
        except ValueError:
            print(f"matrix d={args.d} p={p}: not primitive")
            continue
        head = " ".join(f"{n}:{v:.4f}"
                        for n, v in analysis.top_frequencies(freq))
        # lam is iota^2, proved by the area balance (tile_frequencies)
        print(f"matrix d={args.d} p={p}: lambda1={lam:.9f} "
              f"iota^2={lam:.9f} top frequencies {head}")


def cmd_verify(args):
    patch, manifest = patchio.import_patch(args.patch)
    rep = verify_face_to_face(patch, decorated=not args.undecorated)
    print(rep)
    for problem in rep.problems:
        print("  " + problem)
    if not rep.ok:
        sys.exit(1)
    print("PASS")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="deltiling",
        description="Deltoid-tangent arrangements, triangle substitution "
                    "tilings and random ensembles.")
    ap.add_argument("--config", help="JSON file with default argument values")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output directory "
                       "(default: $DELTILING_OUT or .)")

    p = sub.add_parser("arrange", help="build a tangent-line arrangement")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--kappa", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_arrange)

    p = sub.add_parser("prototiles", help="derive the prototile catalog")
    p.add_argument("--d", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_prototiles)

    p = sub.add_parser("rules", help="derive substitution rules")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--sign", type=_sign, default=1)
    common(p)
    p.set_defaults(fn=cmd_rules)

    p = sub.add_parser("tile", help="generate a deterministic tiling patch")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--sign", type=_sign, default=1)
    p.add_argument("--seed-tile", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--compose", nargs="*",
                   help="extra stages as p,sign (cycled with the first)")
    p.add_argument("--decorations", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_tile)

    p = sub.add_parser("random", help="sample a random ensemble member")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", choices=("rearrange", "subst"), required=True)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--sign", type=_sign, default=1)
    p.add_argument("--seed-tile", default=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=64)
    p.add_argument("--mark-flips", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_random)

    p = sub.add_parser("analyze", help="census, frequency and Pisot reports")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("verify", help="audit a patch file")
    p.add_argument("patch")
    p.add_argument("--undecorated", action="store_true")
    p.set_defaults(fn=cmd_verify)
    ap.subcommands = sub.choices
    return ap


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _load_config(path):
    """The --config JSON object, or exit 2 with the reason."""
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: invalid JSON or UTF-8, or an int past int()'s digit
        # limit; RecursionError: nesting deeper than the interpreter's stack
        _fail(f"cannot read config {path}: {exc}")
    if not isinstance(config, dict):
        _fail(f"config {path} must hold a JSON object")
    return config


def _flag_value(action, value):
    """value as the action's flag gives it: a JSON string, or an integer
    as its text where the flag has a type, through that type and the
    choices."""
    if type(value) is int and action.type is not None:
        value = str(value)
    if type(value) is not str:
        raise TypeError(f"{type(value).__name__} is not a flag value")
    if action.type is not None:
        value = action.type(value)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{value!r} is not one of {list(action.choices)}")
    return value


def _config_value(action, value):
    """A --config value for action, checked and converted as its flag
    would be (argparse applies `type` to string defaults only); exit 2
    unless it is valid.  A switch takes true or false and a flag of any
    number of values a list."""
    flag = "/".join(action.option_strings) or action.dest
    try:
        if action.nargs == 0:
            if type(value) is not bool:
                raise TypeError("a switch takes true or false")
            return value
        if action.nargs == "*":
            if type(value) is not list:
                raise TypeError("a flag of several values takes a list")
            return [_flag_value(action, v) for v in value]
        return _flag_value(action, value)
    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        _fail(f"config value for {flag} is not valid: {exc}")


def _check_seed_tile(args):
    """Default --seed-tile to the first prototile; reject unknown names."""
    if not hasattr(args, "seed_tile"):
        return
    names = [p.name for p in prototile_catalog(args.d).prototiles]
    if args.seed_tile is None:
        args.seed_tile = names[0]
    elif args.seed_tile not in names:
        raise ValueError(f"unknown --seed-tile {args.seed_tile!r} for "
                         f"d={args.d}; valid names: {' '.join(names)}")


def _check_orders(args):
    """Every inflation index p the command takes, --p and each --compose
    stage, is one of 2..floor(d/2), whether or not the command reaches
    it."""
    ps = [] if getattr(args, "p", None) is None else [args.p]
    ps += [_stage(e)[0] for e in getattr(args, "compose", None) or []]
    for p in ps:
        if not 2 <= p <= args.d // 2:
            raise ValueError(f"inflation index p={p} outside "
                             f"2..floor(d/2)={args.d // 2}")


def main(argv=None):
    ap = build_parser()
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config:
        # config values become the subcommands' defaults, so an explicit
        # flag still wins; each is checked in every subcommand that has it
        config = _load_config(known.config)
        for sub in ap.subcommands.values():
            sub.set_defaults(**{a.dest: _config_value(a, config[a.dest])
                                for a in sub._actions if a.dest in config
                                and a.default is not argparse.SUPPRESS})
    args = ap.parse_args(argv)
    # flags and config values now have the flags' types: check the ranges
    for name in ("n", "steps"):
        value = getattr(args, name, 0)
        if value < 0:
            _fail(f"--{name} must be a non-negative integer (got {value!r})")
    # and the order, before anything of memory quadratic in it is built
    d = getattr(args, "d", 5)
    if not 5 <= d <= MAX_ORDER:
        _fail(f"--d must be an integer from 5 to {MAX_ORDER} (got {d!r})")
    try:
        _check_orders(args)
        _check_seed_tile(args)
        args.fn(args)
    except (ValueError, OverflowError, patchio.SchemaError) as exc:
        # OverflowError: input whose exact coefficients leave the int64 range
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
