"""The three benchmark workloads: derive, grow and ensemble.

Each workload has a `setup` (inputs built from the seed, plus the
arrangements, catalogs and rule sets it takes as input), a `round` (the
timed part: a fixed list of operations, the same in every round), and a
`check` (independent output checks, run outside the timed part).  Every
call into a deltiling module goes through `tracer.call`, which gives the
stage times and, in a traced run, the parents of the program's own spans.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random as stdrandom
from fractions import Fraction

from deltiling import random as ensembles
from deltiling import substitution
from deltiling.analysis import pisot_table, tile_frequencies
from deltiling.arrangement import get_arrangement
from deltiling.field import field_for_order, inflation_factor
from deltiling.patchio import export_patch, import_patch, patch_document
from deltiling.prototiles import prototile_catalog
from deltiling.substitution import (Isometry, Patch, Tile, derive_edge_words,
                                    derive_rules, tile_corners,
                                    verify_face_to_face)
from deltiling.svg import render_patch

import checks
from checks import require


def clear_caches(module):
    """Empty every functools cache defined in `module` (not imported ones)."""
    for value in vars(module).values():
        if (hasattr(value, "cache_clear")
                and getattr(value, "__module__", None) == module.__name__):
            value.cache_clear()


def seeded_placement(rng, d):
    """A random direct isometry: rotation zeta^r, Gaussian-integer shift."""
    f = field_for_order(d)
    t = f.rational(rng.randint(-9, 9)) + f.i * rng.randint(-9, 9)
    return Isometry(rng.randrange(f.n), t)


class Workload:
    name = ""
    flip_steps = 0

    def __init__(self, seed, outdir):
        self.seed = seed
        self.rng = stdrandom.Random(f"{self.name}:{seed}")
        self.outdir = outdir

    def failed(self, out):
        return 0

    def rates(self, tracer, start, stop, round_s):
        """Throughputs of the round whose spans are tracer.spans[start:stop]."""
        return {}

    def _build(self, tracer, orders, rule_params=()):
        for d in orders:
            tracer.call("arrangement.get_arrangement", get_arrangement, d, 0)
        for d in orders:
            tracer.call("prototiles.prototile_catalog", prototile_catalog, d)
            # the field caches every iota; filling it here keeps the first
            # round from paying for what later rounds get for free
            for p in range(2, d // 2 + 1):
                inflation_factor(d, p)
        return {key: tracer.call("substitution.derive_rules", derive_rules,
                                 *key) for key in rule_params}


# -- derive -----------------------------------------------------------------

class Derive(Workload):
    """Rule derivation at field degrees 24 (d=14) and 48 (d=13), cold."""

    name = "derive"
    orders = (14, 13)

    def setup(self, tracer):
        self._build(tracer, self.orders)
        self.jobs = ([(14, p, s) for p in range(2, 8) for s in (1, -1)]
                     + [(13, p, s) for p in (2, 3) for s in (1, -1)])
        self.rng.shuffle(self.jobs)
        self.ops = 3 * len(self.jobs) + len(self.orders)

    def round(self, tracer):
        clear_caches(substitution)
        out = {"rules": {}, "words": {}, "lam": {}, "pisot": {}}
        for key in self.jobs:
            rules = tracer.call("substitution.derive_rules", derive_rules, *key)
            out["rules"][key] = rules
            out["words"][key] = tracer.call("substitution.derive_edge_words",
                                            derive_edge_words, rules)
        for d in self.orders:
            out["pisot"][d] = tracer.call("analysis.pisot_table",
                                          pisot_table, d)
        for key, rules in out["rules"].items():
            out["lam"][key] = tracer.call("analysis.tile_frequencies",
                                          tile_frequencies, rules)[0]
        return out

    def check(self, out):
        require(sorted(out["rules"]) == sorted(self.jobs), "missing rule sets")
        for (d, p, s), rules in out["rules"].items():
            require(len(rules.rules) == len(prototile_catalog(d).prototiles),
                    f"({d},{p},{s}) lacks rules for some prototiles")
            checks.check_iota(d, p, rules.iota)
            checks.check_rule_areas(rules)
            checks.check_edge_words(d, p, s, out["words"][(d, p, s)])
            checks.check_perron(rules, out["lam"][(d, p, s)])
        for d, rows in out["pisot"].items():
            checks.check_pisot_table(d, rows)

    def rates(self, tracer, start, stop, round_s):
        return {"rulesets_per_s": len(self.jobs) / round_s}


# -- grow -------------------------------------------------------------------

LEVELS = 5
CONTROL_FRACTIONS = (Fraction(1, 50), Fraction(1, 20), Fraction(19, 20),
                     Fraction(49, 50))


def defect_controls(d=5):
    """Two-tile patches with a corner of B strictly inside an edge of A.

    Tile A sits at the identity.  For every edge of A, every fraction in
    CONTROL_FRACTIONS, every prototile B and every corner of B, that
    corner is placed exactly on the edge and B is turned so that its
    corner bisector points along the outward normal of the edge, which
    keeps B outside A.  Each patch has a T-junction, so the correct
    verdict is "not face-to-face".  Returns (patch, A corners, point) per
    control.
    """
    f = field_for_order(d)
    names = [p.name for p in prototile_catalog(d).prototiles]
    out = []
    for a_name in names:
        ca = tile_corners(d, a_name)
        for k in range(3):
            a, b = ca[k], ca[(k + 1) % 3]
            normal = cmath.phase(-1j * (b - a).cvalue())
            for lam in CONTROL_FRACTIONS:
                point = a + (b - a) * lam
                for b_name in names:
                    cb = tile_corners(d, b_name)
                    for j in range(3):
                        u = (cb[(j + 1) % 3] - cb[j]).cvalue()
                        w = (cb[(j + 2) % 3] - cb[j]).cvalue()
                        bis = cmath.phase(u / abs(u) + w / abs(w))
                        r = round((normal - bis) * f.n / (2 * math.pi)) % f.n
                        iso = Isometry(r, point - cb[j].mul_zeta(r))
                        patch = Patch(d, [Tile(a_name, Isometry(0, f.zero)),
                                          Tile(b_name, iso)])
                        out.append((patch, (a, b), point))
    return out


def check_control(patch, edge, point):
    """The control really has B's corner strictly inside A's edge, B outside."""
    d = patch.d
    a, b = edge
    corners = checks.placed(d, *checks.records(patch.tiles)[1])
    keys = [c.key() for c in corners]
    require(point.key() in keys, "control corner is not on the edge")
    x = checks.cross(b - a, point - a)
    require(x == x.conj(), "control corner is off the edge line")
    u = (b - a).cvalue()
    for c in corners:
        if c.key() != point.key():
            require((u.conjugate() * (c - a).cvalue()).imag < -1e-9,
                    "control tile B is not outside tile A")


class Grow(Workload):
    """Alternating (3,+)/(3,-) inflation of G at d=14 up to 45,070 tiles."""

    name = "grow"
    d = 14
    seed_tile = "G"

    def setup(self, tracer):
        rules = self._build(tracer, (self.d,), ((self.d, 3, 1), (self.d, 3, -1)))
        self.stages = [rules[(self.d, 3, 1)], rules[(self.d, 3, -1)]]
        self._build(tracer, (5,))
        self.controls = defect_controls()
        self.place = seeded_placement(self.rng, self.d)
        self.ops = 2 * LEVELS + 3 + len(self.controls)

    def round(self, tracer):
        d = self.d
        patch = Patch(d, [Tile(self.seed_tile, self.place)])
        levels = []
        for k in range(LEVELS):
            patch = tracer.call("substitution.inflate", patch.inflate,
                                self.stages[k % 2], size=len)
            # the last level is verified as its re-imported copy below
            ok = k == LEVELS - 1 or tracer.call(
                "substitution.verify_face_to_face", verify_face_to_face,
                patch, size=len(patch)).ok
            levels.append((patch, ok))
        path = os.path.join(self.outdir, "grow.json")
        manifest = {"mode": "deterministic", "d": d,
                    "seed_tile": self.seed_tile, "levels": LEVELS}
        tracer.call("patchio.export_patch", export_patch, patch, path,
                    manifest, size=lambda _: os.path.getsize(path))
        imported, _ = tracer.call("patchio.import_patch", import_patch, path)
        rep = tracer.call("substitution.verify_face_to_face",
                          verify_face_to_face, imported, size=len(imported))
        svg_path = os.path.join(self.outdir, "grow.svg")
        tracer.call("svg.render_patch", render_patch, patch, svg_path,
                    size=lambda _: os.path.getsize(svg_path))
        verdicts = [tracer.call("controls.verify_face_to_face",
                                verify_face_to_face, c).ok
                    for c, _, _ in self.controls]
        return {"levels": levels, "path": path, "manifest": manifest,
                "imported": imported, "imported_ok": rep.ok,
                "svg": svg_path, "verdicts": verdicts}

    def failed(self, out):
        # a "face-to-face" verdict on a control is a missed T-junction
        return sum(out["verdicts"])

    def check(self, out):
        d = self.d
        order = [p.name for p in prototile_catalog(d).prototiles]
        seq = [self.stages[k % 2] for k in range(LEVELS)]
        want = checks.expected_counts(seq, order, self.seed_tile)
        iota = self.stages[0].iota
        require(self.stages[1].iota == iota, "(3,+) and (3,-) factors differ")
        factor = field_for_order(d).one
        for k, (patch, ok) in enumerate(out["levels"]):
            factor = factor * iota
            checks.check_counts(patch.tiles, want[k], f"level {k + 1}")
            checks.check_pairing(d, checks.records(patch.tiles),
                                 checks.scaled_outline(d, self.seed_tile,
                                                       self.place.r,
                                                       self.place.t, factor))
            require(ok, f"verify rejected the level-{k + 1} patch")
        final = out["levels"][-1][0]
        require(out["imported_ok"], "verify rejected the imported patch")
        require(checks.records(out["imported"].tiles)
                == checks.records(final.tiles),
                "the imported patch differs from the exported one")
        again = os.path.join(self.outdir, "grow-again.json")
        export_patch(out["imported"], again, out["manifest"])
        with open(out["path"], "rb") as fh1, open(again, "rb") as fh2:
            require(fh1.read() == fh2.read(),
                    "re-exporting the imported patch changed the bytes")
        os.remove(again)
        with open(out["svg"]) as fh:
            svg = fh.read()
        require(svg.rstrip().endswith("</svg>")
                and svg.count("<polygon") == len(final),
                "the SVG does not draw one polygon per tile")
        require(len(out["verdicts"]) == len(self.controls),
                "not every defect control was audited")
        for patch, edge, point in self.controls:
            check_control(patch, edge, point)

    def rates(self, tracer, start, stop, round_s):
        # seed to a verified, exported, re-imported and rendered patch
        first = tracer.spans[start]
        render = tracer.since(start, "svg.render_patch", stop)[-1]
        final = tracer.since(start, "substitution.inflate", stop)[-1][4]
        return {"tiles_per_s": final / tracer.clock.scaled(first[1], render[2])}


# -- ensemble ---------------------------------------------------------------

DRAWS = 2
RSUBST_N = 3


class Ensemble(Workload):
    """Rearrangement flips on a 678-tile patch plus random substitution."""

    name = "ensemble"
    flip_steps = 6
    d = 14
    seed_tile = "G"

    def setup(self, tracer):
        d = self.d
        rules = self._build(tracer, (d,), ((d, 3, 1), (d, d // 2, 1)))
        self.rules = rules[(d, 3, 1)]
        self.place = seeded_placement(self.rng, d)
        patch = Patch(d, [Tile(self.seed_tile, self.place)])
        for _ in range(3):
            patch = tracer.call("substitution.inflate", patch.inflate,
                                self.rules, size=len)
        self.base = patch
        self.flip_seed = self.rng.randrange(2 ** 31)
        self.draw_seeds = [self.rng.randrange(2 ** 31) for _ in range(DRAWS)]
        self.ops = self.flip_steps + 2 + 2 * DRAWS

    def round(self, tracer):
        clear_caches(ensembles)
        sample = tracer.call("random.rearrangement_sample",
                             ensembles.rearrangement_sample, self.base,
                             self.flip_steps, self.flip_seed)
        ok = tracer.call("substitution.verify_face_to_face",
                         verify_face_to_face, sample, decorated=False,
                         size=len(sample)).ok
        family = tracer.call("random.random_rule_family",
                             ensembles.random_rule_family, self.d, cap=4)
        draws = []
        for s in self.draw_seeds:
            patch = tracer.call("random.random_substitution",
                                ensembles.random_substitution, self.seed_tile,
                                family, family.uniform_pi(), RSUBST_N, s,
                                size=len)
            rep = tracer.call("substitution.verify_face_to_face",
                              verify_face_to_face, patch, decorated=False,
                              size=len(patch))
            draws.append((patch, rep.ok))
        return {"sample": sample, "sample_ok": ok, "family": family,
                "draws": draws}

    def check(self, out):
        d = self.d
        iota3 = self.rules.iota
        outline = checks.scaled_outline(d, self.seed_tile, self.place.r,
                                        self.place.t, iota3 * iota3 * iota3)
        sample = out["sample"]
        require(out["sample_ok"], "verify rejected the rearranged patch")
        checks.check_pairing(d, checks.records(sample.tiles), outline)
        replay = checks.replay_flips(self.base, self.flip_steps, self.flip_seed,
                                     ensembles.find_flippable,
                                     ensembles.apply_flip)
        require(patch_bytes(replay) == patch_bytes(sample),
                "the same seed gave a different rearrangement")
        family = out["family"]
        require(len(family) >= 2, "the random rule family has one member")
        iota = family.iota
        f = field_for_order(d)
        ident = (0, f.zero)
        big = checks.scaled_outline(d, self.seed_tile, *ident, iota * iota * iota)
        area = checks.prototile_area(d, self.seed_tile)
        for _ in range(2 * RSUBST_N):
            area = area * iota
        for (patch, ok), s in zip(out["draws"], self.draw_seeds):
            require(ok, "verify rejected a random-substitution draw")
            checks.check_pairing(d, checks.records(patch.tiles), big)
            checks.check_area(d, patch.tiles, area)
            again = ensembles.random_substitution(
                self.seed_tile, family, family.uniform_pi(), RSUBST_N, s)
            require(checks.records(again.tiles) == checks.records(patch.tiles),
                    "the same seed gave a different random substitution")
        require(len(out["draws"]) == DRAWS, "missing random-substitution draws")

    def rates(self, tracer, start, stop, round_s):
        flips = tracer.seconds("random.rearrangement_sample", start, stop)
        draws = tracer.since(start, "random.random_substitution", stop)
        tiles = sum(s[4] for s in draws)
        # the first audit is the rearranged patch's, the rest the draws'
        audit = tracer.since(start, "substitution.verify_face_to_face",
                             stop)[1:]
        busy = sum(map(tracer.duration, draws + audit))
        return {"flips_per_s": self.flip_steps / flips,
                "rsubst_tiles_per_s": tiles / busy}


def patch_bytes(patch):
    return json.dumps(patch_document(patch), indent=1, sort_keys=True)


WORKLOADS = {w.name: w for w in (Derive, Grow, Ensemble)}
