"""The CI checks beyond Tier-1: the construction at every order, pinned.

Tier-1 checks the construction up to about d = 14.  These checks run it
at every order the package builds and pin what it makes by sha256 and by
count: the flip templates and tables, the rotation tables, all 390 rule
sets and their edge words, the Pisot tables, the catalogs and inflated
targets up to field.MAX_ORDER, a flip chain, the verifier and the patch
reader at 45,070 tiles, and the level-6 patch's memory and files.
Tier-1 does not collect this module (pyproject.toml's testpaths), so it
runs only when named; each check is one workflow step,

    PYTHONPATH=src python -m pytest -q tools/ci_checks.py::test_rule_sets

and the same command without the `::name` runs them all (about two
minutes on a 2-core host; add --durations=0 for each check's time).

The memory checks run in a fresh child process, which imports this
module and the package but not pytest, so that its ru_maxrss measures
what the package holds; this module therefore imports no pytest, and
takes its fixtures by name.  The command line runs as `python -m
deltiling.cli`, so a source checkout needs no install.
"""

import ast
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

from deltiling import patchio, svg
from deltiling import random as R
from deltiling import substitution as S
from deltiling.analysis import pisot_table, tile_frequencies
from deltiling.arrangement import edge_class, get_arrangement
from deltiling.field import MAX_ORDER, field_for_order
from deltiling.prototiles import prototile_catalog
from deltiling.substitution import (Isometry, Patch, Tile, derive_edge_words,
                                    derive_rules, prototile_ids, tile_corners,
                                    verify_face_to_face)

ROOT = Path(__file__).resolve().parent.parent


def _update(h, a, bound=""):
    """Feeds array `a` to hash `h` as dtype, shape, `bound` and bytes."""
    h.update(f"{a.dtype.str}{a.shape}{bound};".encode() + a.tobytes())


def _check_files(directory, pins):
    """Each file `name` of `directory` has the sha256 `pins[name]`."""
    for name, digest in pins.items():
        got = hashlib.sha256((directory / name).read_bytes()).hexdigest()
        assert got == digest, f"{name} has sha256 {got}"


def _same_columns(a, b):
    """Patches `a` and `b` have equal columns of equal dtypes."""
    for x, y in zip(a.columns, b.columns):
        assert np.asarray(x).dtype == np.asarray(y).dtype
        assert np.array_equal(x, y)


def _drop_caches():
    """Clears the tables the package keeps per order: a loop over the
    orders then holds one order's at a time, so memory stays that of the
    largest."""
    for cache in (prototile_catalog, get_arrangement, prototile_ids,
                  S._corner_rows, S._tile_geometry):
        cache.cache_clear()


def grown_patch(level, iso=None):
    """Prototile G of d = 14, at the identity or placed by `iso`, inflated
    `level` times by iota_{14,3} with signs +, -, +, ... in turn."""
    if iso is None:
        patch = Patch.single(14, "G")
    else:
        patch = Patch(14, [Tile("G", iso)])
    for k in range(level):
        patch = patch.inflate(derive_rules(14, 3, (-1) ** k))
    return patch


def _seed(name):
    f = field_for_order(14)
    return {"identity": Isometry(0, f.zero),
            "rotated": Isometry(5, f.rational(2) + f.i * -3),
            "zeta45": Isometry(45, f.rational(-7) + f.i * -8)}[name]


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tools")]))


def _cli(*args):
    subprocess.run([sys.executable, "-m", "deltiling.cli", *map(str, args)],
                   env=_env(), check=True)


def _fresh(call):
    """The value of `call`, a call of a function of this module, made in
    a fresh process that has not imported pytest.

    Linux hands a process's peak resident set on to a child it starts,
    through fork and exec, as the child's ru_maxrss: a child of this
    process would read at least this process's peak.  So a small python
    process starts the child, and the child inherits only its peak."""
    program = ("import sys, ci_checks\n"
               "assert 'pytest' not in sys.modules\n"
               f"print(repr(ci_checks.{call}))")
    hop = ("import subprocess, sys\n"
           "sys.exit(subprocess.run(sys.argv[1:]).returncode)")
    out = subprocess.run(
        [sys.executable, "-c", hop, sys.executable, "-c", program],
        env=_env(), stdout=subprocess.PIPE, text=True, check=True)
    return ast.literal_eval(out.stdout)


def _maxrss():
    """This process's peak resident set in bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def level6_peak(seed):
    """ru_maxrss in MiB after inflating G, placed by the named seed, to
    level 6 and verifying it; made in a fresh process."""
    patch = grown_patch(6, _seed(seed))
    assert len(patch) == 360_335, len(patch)
    assert verify_face_to_face(patch).ok
    return _maxrss() / 2**20


def io_growth(step, path, small):
    """(growth of ru_maxrss, file size) in bytes for importing the patch
    file `path` (step "import") or rendering the level-5 patch to `path`
    (step "render"), after a one-tile patch written to `small` has filled
    the caches; made in a fresh process."""
    patchio.export_patch(Patch.single(14, "G"), small)
    patchio.import_patch(small)
    svg.render_patch(Patch.single(14, "G"), small + ".svg")
    if step == "import":
        before = _maxrss()
        patchio.import_patch(path)
    else:
        patch = grown_patch(5)
        before = _maxrss()
        svg.render_patch(patch, path)
    return _maxrss() - before, os.path.getsize(path)


def test_flip_templates():
    """Tier-1 audits the templates up to d = 18; this audits all 154 of
    them, d = 8..30 with each kappa variant, through the flip table."""
    n = sum(len(R.enumerate_flips(d, k)) for d in range(8, 31, 2)
            for k in ((0, -2, 2) if d % 3 == 0 else (0,)))
    assert n == 154, n
    print(n, "flip templates audited")


def test_flip_tables():
    """Tier-1 checks flip sites against the exact-corner reference at
    d = 8..14; this pins the sha256 of every flip-table entry found at
    d = 8..30: the forward sites of the first prototile inflated three
    times by iota_{d,3}, the inverse sites after 50 flips of that patch,
    and the sites inside the iota_{d,d/2} rule set.  Flip rows are
    integral, and the literal 1 stands where the digest first hashed their
    denominator."""
    h, n = hashlib.sha256(), [0, 0, 0]
    for d in range(8, 31, 2):
        q = d // 2
        rules = derive_rules(d, 3, 1)
        base = Patch.single(d, prototile_ids(d)[0][0])
        for _ in range(3):
            base = base.inflate(rules)
        sample = R.rearrangement_sample(base, 50, 0)
        groups = R._site_groups(d, derive_rules(d, q, 1))
        for k, sites in enumerate((
                R.find_flippable(base),
                R.find_flippable(sample, edge_class=q - 1, diag_class=q),
                [site for _, site in groups])):
            for s in sites:
                f = s.flip
                h.update(repr((d, s.side, s.i, s.j, f.ids, f.r,
                               1)).encode() + f.t.tobytes())
            n[k] += len(sites)
    assert n == [53, 66, 3694], n
    assert h.hexdigest() == ("0c36bd51be8a6637577f6304f91c2864"
                             "35a71f32a5aef1884439e0a3a5ff485a"), h.hexdigest()
    print(sum(n), "flip sites match the pinned flip tables")


def test_rotation_tables():
    """Pins the sha256 of every order's zeta-orbit tables, d = 5..30: the
    prototile corner table (_corner_table) and the turned child
    translations of the iota_{d,3} rule set, iota_{5,2} at d = 5 (its
    column table's rot), each as dtype, shape, bound and bytes."""
    h, n = hashlib.sha256(), 0
    for d in range(5, 31):
        tab = derive_rules(d, min(3, d // 2), 1).columns()
        for a, bound in (S._corner_table(d), (tab.rot, tab.rot_max)):
            _update(h, a, bound)
        n += 1
    assert n == 26, n
    assert h.hexdigest() == ("4748e23c587f0c0065e2d5cf88f116ae"
                             "e04c9abcf7ec5789141f7da5740ebe05"), h.hexdigest()
    print(n, "orders match the pinned rotation tables")


def test_rule_sets():
    """Tier-1 compares the rules with the per-child reference up to
    d = 16 and pins edge words up to d = 14; this derives all 390 rule
    sets, d = 5..30 with every p and sign, and pins the sha256 of their
    column tables (child counts, ids, rotations, translations and
    denominators; the translations are hashed as int64 rows, whatever
    narrow dtype stores them) and, separately, of their edge words
    (letters as str, keys in sorted order).  It also takes the Perron
    data of each: a primitive matrix gives a positive frequency vector,
    and an imprimitive one is refused and matches the kappa-cycle rule
    (3 | d and (-sign p) mod 3 = 1); their count is pinned."""
    h, hw, n, imprimitive = hashlib.sha256(), hashlib.sha256(), 0, 0
    for d in range(5, 31):
        for p in range(2, d // 2 + 1):
            for sign in (1, -1):
                rules = derive_rules(d, p, sign)
                count, kids = rules.table()
                ids, r, t, den = kids.columns
                for a in (count, ids, r, t.astype("<i8")):
                    _update(h, a)
                h.update(f"{den};".encode())
                words = derive_edge_words(rules)
                hw.update(repr(sorted((str(a), [str(b) for b in w])
                                      for a, w in words.items())).encode())
                try:
                    _, freq = tile_frequencies(rules)
                except ValueError:
                    assert d % 3 == 0 and (-sign * p) % 3 == 1, (d, p, sign)
                    imprimitive += 1
                else:
                    assert min(freq.values()) > 0, (d, p, sign)
                n += 1
    assert n == 390, n
    assert imprimitive == 45, imprimitive
    assert h.hexdigest() == ("d08147f9b21a0aa4d84686735d666edd"
                             "27dce4bf21c8d60a9087cf4c975954b5"), h.hexdigest()
    assert hw.hexdigest() == ("6308faf7f136f10157f89edea14ea4a4"
                              "602fc041bea79af68bf2199025a47566"), hw.hexdigest()
    print(n, "rule sets match the pinned column tables and edge words;",
          imprimitive, "imprimitive ones follow the kappa-cycle rule")


def test_pisot_tables():
    """Tier-1 compares the Pisot verdicts with root isolation up to
    d = 20; this pins the sha256 of `pisot_table(d)` for d = 5..30: per
    row d, p, the degree of the minimal polynomial, the verdict, the
    reason and repr(margin), so the margin is pinned to the last bit."""
    h, n, pisot = hashlib.sha256(), 0, 0
    for d in range(5, 31):
        for row in pisot_table(d):
            h.update(repr((d, row["p"], row["degree"], row["pisot"],
                           row["reason"], repr(row["margin"]))).encode()
                     + b"\n")
            n += 1
            pisot += row["pisot"]
    assert (n, pisot) == (195, 15), (n, pisot)
    assert h.hexdigest() == ("68aaece8a46106473707a71efbe677e4"
                             "e257fe46b9e2d261dc32e3d32d08228e"), h.hexdigest()
    print(n, "inflation factors match the pinned Pisot table;", pisot,
          "are Pisot")


def test_catalogs():
    """Builds the prototile catalog of every order d = 5..64
    (field.MAX_ORDER), so the decoration's premise assertions run at each,
    and pins the sha256 of every prototile: d, kappa, name, signature,
    face indices, corner and inscribed keys.  At even d it also asserts
    that no prototile has two sides of class d/2, the premise of the
    rearrangement run (default flip sites share no tile); for d <= 30 it
    asserts that every letter class is the exact length class of its
    side, the premise of the verifier comparing no letter classes across
    a shared edge."""
    h, n = hashlib.sha256(), 0
    for d in range(5, MAX_ORDER + 1):
        for p in prototile_catalog(d).prototiles:
            face = p.face
            assert d % 2 or sum(l.cls == d // 2
                                for l in p.signature) <= 1, (d, p.name)
            if d <= 30:
                w = tile_corners(d, p.name)
                assert [edge_class(d, w[(k + 1) % 3] - w[k])
                        for k in range(3)] == \
                    [l.cls for l in p.signature], (d, p.name)
            h.update(repr((d, p.kappa, p.name,
                           [(l.cls, l.orient) for l in p.signature],
                           face.tri.idx,
                           [c.key() for c in face.corners],
                           [c.key() for c in face.inscribed])).encode())
            n += 1
        _drop_caches()
    assert n == 27800, n
    assert h.hexdigest() == ("34d8645faeba318e19b21e9d9eb3d5be"
                             "2a641a51cd9e27a5b245f7d527137a12"), h.hexdigest()
    print(n, "prototiles match the pinned catalogs")


def test_inflated_targets():
    """Locates every prototile's inflated image as derive_rules does, at
    d = 5..64 (field.MAX_ORDER) with p in {2, 3, d // 2} and both signs,
    and pins the sha256 of the targets and placements (kappa', target
    indices, r, translation rows, and the literal den 1: the targets are
    integral).  The full p range would take about ten minutes."""
    h, n = hashlib.sha256(), 0
    for d in range(5, MAX_ORDER + 1):
        corners = S._corner_rows(d)
        tris = [(q.face.sym, q.face.tri)
                for q in prototile_catalog(d).prototiles]
        for p in sorted({2, 3, d // 2} & set(range(2, d // 2 + 1))):
            src = S._inflated(corners, d, p)
            for sign in (1, -1):
                targets, r, t, _ = S._locate(tris, src, p, sign)
                at = np.array([(s.kappa, *tri.idx) for s, tri in targets])
                for a in (at, r, t):
                    _update(h, a)
                h.update(b"1;")
                n += len(targets)
        _drop_caches()
    assert n == 166748, n
    assert h.hexdigest() == ("489a7bd14923a245e026e0989b511578"
                             "b68035641fe275c41f787d94bbf52d6d"), h.hexdigest()
    print(n, "inflated prototiles match the pinned targets")


def test_flip_chain(tmp_path):
    """Asks for 20,000 flips on the 5,577-tile (14, G, (3,+)^4) patch; the
    run ends when no flip site is left, and the result must still pass
    the undecorated audit."""
    _cli("random", "--d", "14", "--mode", "rearrange", "--p", "3", "--n", "4",
         "--seed-tile", "G", "--steps", "20000", "--out", tmp_path)
    _cli("verify", "--undecorated", tmp_path / "random_d14_rearrange_s0.json")


def test_verifier_at_scale(tmp_path, monkeypatch):
    """The 45,070-tile (14, G) patch of (3,+)(3,-) inflations must pass
    the decorated audit, read back from its patch file.  The exported file
    goes through the canonical pass (checked: a None there would fall back
    to json, correct but slow), re-exported from the imported patch to the
    same bytes; a copy with one shadow digit changed is declined by the
    canonical pass and imports through json to the same patch; a compact
    re-dump with every object's keys reversed goes through the json
    reader.  Each in a fresh process, after a one-tile patch has filled
    the caches, importing the file and rendering the patch raise ru_maxrss
    by less than the size of the file read or written, since both hold a
    block of the file at a time.  The sha256 of the patch file and of the
    SVG written beside it (23 blocks of 2,048 records each) are pinned.

    The same patch placed by the bench's seed-1 isometry zeta^45 w - 7 - 8i
    has corner keys of 76 bits, two words, which take the lexsort: it must
    pass the decorated audit, and its corner ids must number the corner
    rows as np.unique does."""
    _cli("tile", "--d", "14", "--p", "3", "--compose", "3,-", "--n", "5",
         "--seed-tile", "G", "--out", tmp_path)
    big = tmp_path / "patch_d14_G_n5.json"
    _check_files(tmp_path, {
        "patch_d14_G_n5.json":
            "f10ccf15d063afd66d15acb20dce563eecad6523c066dae162fe0ee6e702fe54",
        "patch_d14_G_n5.svg":
            "ad8105b9ead84863274de13f5a220fd78ca05a373aea8c97d2dafdc2bcb949e0",
    })
    _cli("verify", big)

    with open(big, "rb") as fh:
        fast = patchio._canonical_patch(fh)
        fh.seek(0)
        d, manifest, *tiles = patchio._json_columns(fh.read().decode())
    assert fast is not None, "the exported file left the canonical pass"
    assert fast[1] == manifest
    _same_columns(fast[0], patchio._patch(d, *tiles))

    data = big.read_bytes()
    m = re.compile(rb"[0-9]").search(data, data.index(b"\"corners\": ["))
    shadow = tmp_path / "shadow.json"
    shadow.write_bytes(data[:m.start()] + (b"2" if m.group() == b"1" else b"1")
                       + data[m.end():])
    with open(shadow, "rb") as fh:
        assert patchio._canonical_patch(fh) is None, \
            "a file with an edited shadow was read canonically"
    patch, manifest = patchio.import_patch(big)
    edited, edited_manifest = patchio.import_patch(shadow)
    assert edited_manifest == manifest
    _same_columns(patch, edited)

    again = tmp_path / "again.json"
    patchio.export_patch(patch, again, manifest)
    assert again.read_bytes() == data, "the re-export changed the bytes"

    compact = tmp_path / "compact.json"
    doc = json.loads(data, object_pairs_hook=lambda kv: dict(kv[::-1]))
    compact.write_text(json.dumps(doc, separators=(",", ":")))
    _cli("verify", compact)

    small = str(tmp_path / "small.json")
    for step, path in (("import", big), ("render", tmp_path / "render.svg")):
        grown, size = _fresh(f"io_growth({step!r}, {str(path)!r}, "
                             f"{small!r})")
        print(f"{step}: ru_maxrss +{grown / 2**20:.1f} MiB, "
              f"file {size / 2**20:.1f} MiB")
        assert grown < size, f"the {step} peak grew with the file"

    patch = grown_patch(5, _seed("zeta45"))
    rep = verify_face_to_face(patch)
    assert rep.ok, rep
    words = []
    block_ids = S._block_ids
    monkeypatch.setattr(S, "_block_ids", lambda keys, free: (
        words.append(len(keys)) or block_ids(keys, free)))
    pid, first = S._corner_ids(patch)
    assert words == [2], words
    rows, _ = patch.corner_rows()
    _, want_first, want = np.unique(rows.reshape(-1, rows.shape[-1]),
                                    axis=0, return_index=True,
                                    return_inverse=True)
    assert np.array_equal(pid.ravel(), want.ravel())
    assert np.array_equal(first, want_first)
    print(len(patch), "tiles placed by zeta^45 w - 7 - 8i:", rep)


def test_level6_memory():
    """In a fresh process per seed, inflating (14, G) by (3,+)/(3,-) to
    level 6 (360,335 tiles) and verifying it peaks at 200 MiB at most:
    the translation rows are stored narrow, and the verifier packs the
    corner keys from the corner table and the translation rows, never
    from the whole corner matrix.  The seed placed by zeta^5 w + 2 - 3i
    spreads the corners over more columns and wider ranges than the
    identity seed."""
    for seed in ("identity", "rotated"):
        peak = _fresh(f"level6_peak({seed!r})")
        print(f"level 6 from the {seed} seed: ru_maxrss {peak:.0f} MiB")
        assert peak <= 200, "level 6 peaked above 200 MiB"


def test_level6_pins(tmp_path):
    """Exports and renders the level-6 patch of the check above and pins
    the sha256 of both files; 1,799 of its corner coordinates are below
    1e-4 in magnitude, so the shadow printer's numpy kernel and its
    per-value fallback both run at scale."""
    patch = grown_patch(6)
    assert len(patch) == 360_335, len(patch)
    patchio.export_patch(patch, tmp_path / "level6.json")
    svg.render_patch(patch, tmp_path / "level6.svg")
    _check_files(tmp_path, {
        "level6.json":
            "828ae2e91f294db48abf340935f13e2bc49425d97303de81c37c7be4a1a02372",
        "level6.svg":
            "9f10aae9e5bde13e02cb4dcd54e982330fe73510b27ff50c6ae017b5ac0912e7",
    })
