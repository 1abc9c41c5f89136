"""Patch interchange format, SVG rendering and the command line."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from deltiling.field import MAX_ORDER, field_for_order
from deltiling.prototiles import prototile_catalog
from deltiling.substitution import (Isometry, Patch, Tile, derive_rules,
                                    verify_face_to_face)
from deltiling import cli, patchio, svg
from deltiling.cli import main


def build(d=14, p=3, n=2, seed="G"):
    patch = Patch.single(d, seed)
    rules = derive_rules(d, p, 1)
    for _ in range(n):
        patch = patch.inflate(rules)
    return patch


def test_round_trip_byte_identical(tmp_path):
    patch = build()
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    patchio.export_patch(patch, a, manifest={"p": 3, "n": 2})
    loaded, manifest = patchio.import_patch(a)
    assert manifest == {"p": 3, "n": 2}
    assert loaded.tiles == patch.tiles
    patchio.export_patch(loaded, b, manifest=manifest)
    assert a.read_bytes() == b.read_bytes()


def test_exact_coordinates_survive(tmp_path):
    patch = build(n=1)
    path = tmp_path / "p.json"
    patchio.export_patch(patch, path)
    loaded, _ = patchio.import_patch(path)
    for t1, t2 in zip(patch.tiles, loaded.tiles):
        assert t1.iso.t == t2.iso.t
        assert [c.key() for c in t1.corners(14)] == \
            [c.key() for c in t2.corners(14)]
    assert verify_face_to_face(loaded).ok


def test_schema_errors(tmp_path):
    patch = build(n=1)
    path = tmp_path / "p.json"
    patchio.export_patch(patch, path)
    doc = json.loads(path.read_text())

    def corrupted(mutate):
        bad = json.loads(json.dumps(doc))
        mutate(bad)
        q = tmp_path / "bad.json"
        q.write_text(json.dumps(bad))
        with pytest.raises(patchio.SchemaError):
            patchio.import_patch(q)

    corrupted(lambda b: b.update(version=99))
    corrupted(lambda b: b.update(version=True))
    corrupted(lambda b: b.update(field_order=84.0))
    corrupted(lambda b: b.update(format="something"))
    corrupted(lambda b: b.update(field_order=10))
    corrupted(lambda b: b["tiles"][0].pop("t"))
    corrupted(lambda b: b["tiles"][0]["t"]["num"].pop())
    corrupted(lambda b: b["tiles"][0].update(r="x"))


def test_shadow_matches_exact(tmp_path):
    patch = build(n=1)
    patchio.export_patch(patch, tmp_path / "p.json", precision=12)
    doc = json.loads((tmp_path / "p.json").read_text())
    for tile, shadow in zip(patch.tiles, doc["shadow"]["corners"]):
        for c, (x, y) in zip(tile.corners(14), shadow):
            assert abs(c.cvalue() - complex(x, y)) < 1e-9


def test_export_rejects_a_float_precision_before_writing(tmp_path):
    path = tmp_path / "p.json"
    with pytest.raises(TypeError):
        patchio.export_patch(build(n=1), path, precision=12.0)
    assert not path.exists()


def test_svg_outputs(tmp_path):
    patch = build(n=1)
    out = tmp_path / "patch.svg"
    svg.render_patch(patch, out, decorations=True, labels=True)
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    polys = [e for e in root.iter() if e.tag.endswith("polygon")]
    assert len(polys) >= 2 * len(patch)  # outline + decoration per tile
    # coordinates match the exact embedding
    first = polys[0].get("points").split()
    z = patch.tiles[0].corners(14)[0].cvalue()
    x, y = map(float, first[0].split(","))
    assert abs(complex(x, -y) - z) < 1e-9
    svg.render_arrangement(14, 0, tmp_path / "arr.svg")
    assert ET.parse(tmp_path / "arr.svg")
    svg.render_prototile_sheet(14, tmp_path / "sheet.svg")
    assert ET.parse(tmp_path / "sheet.svg")


#: sha256 of the render of `build()` with decorations, labels and two
#: highlighted edges, as written before polygons were formatted in blocks
RENDER_DIGEST = ("4a8d53cd88d3bd05bab4209a3aa5b682"
                 "14beb50be6731d587fb449941c930be4")


@pytest.mark.parametrize("chunk", [1, 7, svg.CHUNK])
def test_render_in_blocks_is_unchanged(tmp_path, monkeypatch, chunk):
    patch = build()
    z = patch.corner_values()
    monkeypatch.setattr(svg, "CHUNK", chunk)
    out = tmp_path / "p.svg"
    svg.render_patch(patch, out, decorations=True, labels=True,
                     highlight_edges=[(z[0, 0], z[0, 1]), (z[5, 1], z[5, 2])])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RENDER_DIGEST


#: sha256 of decorated renders, as written when every tile read its
#: prototile's face corners through `Elem.cvalue`
DECORATED_DIGESTS = {
    14: "8553def4db48325ccdaafae18b362644987e41935a6d74b80e7480f6b0011a3d",
    9: "bb2be5881249d6002b0c9d93a136042c5e5890953087362398d994c04e127778",
}


@pytest.mark.parametrize("d, stages", [
    (14, [(3, 1), (3, -1), (3, 1)]), (9, [(2, 1), (4, -1)])],
    ids=["d14-678", "d9-21"])
def test_decorated_render_is_pinned(tmp_path, d, stages):
    # a seed turned and moved off the origin, so every overlay takes the
    # float affine map of a placed tile; d = 9 has mirror prototiles
    f = field_for_order(d)
    name = "G" if d == 14 else prototile_catalog(d).prototiles[-1].name
    patch = Patch(d, [Tile(name, Isometry(3, f.rational(2) + f.i * -3))])
    for p, sign in stages:
        patch = patch.inflate(derive_rules(d, p, sign))
    out = tmp_path / "p.svg"
    svg.render_patch(patch, out, decorations=True)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        DECORATED_DIGESTS[d]


def test_files_are_written_with_unix_newlines(tmp_path):
    # text mode writes os.linesep in place of "\n" unless newline is given
    with mock.patch("builtins.open", wraps=open) as spy:
        patchio.export_patch(build(n=1), tmp_path / "p.json")
        svg.render_patch(build(n=1), tmp_path / "p.svg")
        with contextlib.redirect_stdout(io.StringIO()):
            main(["prototiles", "--d", "8", "--out", str(tmp_path)])
    writes = [c for c in spy.call_args_list
              if "w" in (c.args[1:2] or (c.kwargs.get("mode", "r"),))[0]]
    assert {Path(c.args[0]).suffix for c in writes} == {".json", ".svg",
                                                        ".txt"}
    assert all(c.kwargs.get("newline") == "\n" for c in writes)


def test_cli_tile_and_verify(tmp_path, capsys):
    out = str(tmp_path)
    main(["tile", "--d", "14", "--p", "3", "--sign", "+", "--seed-tile", "G",
          "--n", "2", "--out", out])
    patch_file = os.path.join(out, "patch_d14_G_n2.json")
    assert os.path.exists(patch_file)
    main(["verify", patch_file])
    text = capsys.readouterr().out
    assert "PASS" in text


def test_cli_arrange_prototiles_rules(tmp_path, capsys):
    out = str(tmp_path)
    main(["arrange", "--d", "8", "--kappa", "0", "--out", out])
    main(["prototiles", "--d", "8", "--out", out])
    main(["rules", "--d", "8", "--p", "3", "--out", out])
    listing = (tmp_path / "rules_d8_p3_p.txt").read_text()
    assert "Phi(" in listing and "phi(" in listing
    dump = (tmp_path / "arrangement_d8_k0.txt").read_text()
    assert "v2=" in dump and "subdivision=" in dump


def test_cli_analyze(capsys):
    main(["analyze", "--d", "14", "--p", "5"])
    text = capsys.readouterr().out
    assert "iota_{14,5}" in text and "Pisot=True" in text
    assert "all_match=True" in text


def test_cli_analyze_reports_an_imprimitive_matrix(capsys):
    # (9, 2, +) is imprimitive: its line says so and p = 3, 4 still print;
    # frequencies equal to four decimals print by name
    main(["analyze", "--d", "9"])
    text = capsys.readouterr().out
    assert "matrix d=9 p=2: not primitive\n" in text
    assert ("matrix d=9 p=3: lambda1=6.411474128 iota^2=6.411474128 "
            "top frequencies T2:0.0887 T2h:0.0887 T2ht:0.0887 T2t:0.0887\n"
            "matrix d=9 p=4: lambda1=8.290859369 iota^2=8.290859369 "
            "top frequencies T2:0.0887 T2h:0.0887 T2ht:0.0887 T2t:0.0887\n"
            ) in text


@pytest.mark.parametrize("p", ["0", "1", "8"])
def test_cli_analyze_rejects_bad_p_before_any_output(capsys, p):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--d", "14", "--p", p])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"p={p}" in err


def test_cli_random_reproducible(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["random", "--d", "14", "--mode", "subst", "--n", "2",
            "--rng-seed", "9", "--cap", "4"]
    main(args + ["--out", out1])
    main(args + ["--out", out2])
    f1 = os.path.join(out1, "random_d14_subst_s9.json")
    f2 = os.path.join(out2, "random_d14_subst_s9.json")
    assert Path(f1).read_bytes() == Path(f2).read_bytes()
    loaded, manifest = patchio.import_patch(f1)
    assert manifest["rng_seed"] == 9 and "pi" in manifest
    assert verify_face_to_face(loaded, decorated=False).ok


def test_cli_error_exit(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["arrange", "--d", "4", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("mutate", [
    lambda b: b["tiles"][0].update(name="Zz"),
    lambda b: b["tiles"][0].update(name=["G"]),
    lambda b: b["tiles"][0]["t"].update(den=0),
    lambda b: b["tiles"][0]["t"].update(den=-1),
    lambda b: b["tiles"][0]["t"].update(den=1.0),
    lambda b: b["tiles"][0]["t"].update(den=True),
    lambda b: b["tiles"][0]["t"]["num"].__setitem__(0, 0.5),
    lambda b: b["tiles"][0].update(r=True),
    lambda b: b["tiles"][0]["t"]["num"].__setitem__(0, 2 ** 62),
    lambda b: b["tiles"][0]["t"]["num"].__setitem__(0, -2 ** 70),
], ids=["unknown-name", "list-name", "den-zero", "den-negative",
        "den-float", "den-bool", "num-float", "r-bool", "num-2^62",
        "num-beyond-int64"])
def test_cli_verify_rejects_malformed_patch(tmp_path, capsys, mutate):
    patchio.export_patch(build(n=1), tmp_path / "p.json")
    bad = json.loads((tmp_path / "p.json").read_text())
    mutate(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "SchemaError" in err and "Traceback" not in err


def _hostile(change):
    """The bytes of an exported 9-tile patch file after change(its text),
    which returns str or bytes."""
    def edit(tmp_path):
        patchio.export_patch(build(n=1), tmp_path / "p.json")
        out = change((tmp_path / "p.json").read_text())
        return out if isinstance(out, bytes) else out.encode()
    return edit


@pytest.mark.parametrize("edit, error", [
    (_hostile(lambda s: s.replace('"manifest": {}', '"manifest": '
                                  + "[" * 100_000)), "SchemaError"),
    (_hostile(lambda s: s.replace('"tiles": [', '"tiles": ' + "[" * 100_000,
                                  1)), "SchemaError"),
    (_hostile(lambda s: s.replace('"manifest": {}', '"manifest": "\xff"')
              .encode("latin-1")), "SchemaError"),
    (_hostile(lambda s: s.replace('"r": ', '"r": ' + "7" * 5000, 1)),
     "SchemaError"),
    (_hostile(lambda s: s.replace('"d": 14', '"d": 1400000')), "SchemaError"),
    (_hostile(lambda s: s[:len(s) // 2]), "SchemaError"),
    (_hostile(lambda s: b""), "SchemaError"),
    (_hostile(lambda s: re.sub(r'"num": \[\n     -?\d+',
                               f'"num": [\n     {2 ** 62 - 1}', s, 1)),
     "OverflowError"),
], ids=["deep-manifest", "deep-tiles", "not-utf8", "r-5000-digits",
        "d-without-its-field", "truncated", "empty",
        "corners-beyond-int64"])
def test_cli_verify_rejects_hostile_bytes(tmp_path, capsys, edit, error):
    path = tmp_path / "bad.json"
    path.write_bytes(edit(tmp_path))
    if error == "SchemaError":
        with pytest.raises(patchio.SchemaError):
            patchio.import_patch(path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {error}" in err and "Traceback" not in err


def test_cli_verify_rejects_an_order_past_the_bound_at_once(tmp_path,
                                                          capsys,
                                                          monkeypatch):
    # d = 1,400,000 with its own field order passes the field check; the
    # bound on d rejects the file before a field quadratic in d is built,
    # so no module of the package may reach `field_for_order` once the
    # file is written
    path = tmp_path / "bad.json"
    path.write_bytes(_hostile(
        lambda s: s.replace('"d": 14', '"d": 1400000')
        .replace('"field_order": 84', '"field_order": 8400000'))(tmp_path))

    def build(d):
        raise AssertionError(f"field of order {d} built")

    for name, mod in list(sys.modules.items()):
        if name.startswith("deltiling") and hasattr(mod, "field_for_order"):
            monkeypatch.setattr(mod, "field_for_order", build)
    with pytest.raises(patchio.SchemaError, match="symmetry order"):
        patchio.import_patch(path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: SchemaError" in err and "Traceback" not in err


@pytest.mark.parametrize("d", [str(MAX_ORDER + 1), "1400000", "4"])
def test_cli_rejects_an_order_outside_the_bound(tmp_path, capsys, d):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["arrange", "--d", d, "--out", str(out)])
    assert exc.value.code == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and "--d" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_cli_verify_rejects_unreadable_path(tmp_path, capsys, kind):
    path = tmp_path / "missing.json" if kind == "missing" else tmp_path
    with pytest.raises(patchio.SchemaError):
        patchio.import_patch(path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "SchemaError" in err and "Traceback" not in err


@pytest.mark.parametrize("entry", ["3,x", "3"])
def test_cli_tile_rejects_malformed_compose(tmp_path, capsys, entry):
    with pytest.raises(SystemExit) as exc:
        main(["tile", "--d", "8", "--p", "3", "--seed-tile", "T1t",
              "--compose", entry, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert repr(entry) in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["tile", "--d", "14", "--p", "3", "--seed-tile", "G", "--n", "2",
     "--compose", "3,+", "9,-"],
    ["tile", "--d", "14", "--p", "1", "--seed-tile", "G"],
    ["random", "--d", "14", "--mode", "subst", "--p", "9"],
    ["rules", "--d", "14", "--p", "8"],
], ids=["unreached-compose-stage", "tile-p", "subst-p", "rules-p"])
def test_cli_rejects_p_outside_the_inflation_indices(tmp_path, capsys, argv):
    # every p is checked before any output, also one that the command
    # would never reach (the third stage of two) or never read (subst)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and "Traceback" not in err
    assert "p=" in err and "outside 2..floor(d/2)" in err
    assert not out.exists()


def test_cli_tile_compose_cycles_stages(tmp_path):
    # --p 3 --sign + --compose 3,- --n 2 is (3,+) then (3,-)
    main(["tile", "--d", "14", "--p", "3", "--seed-tile", "G", "--n", "2",
          "--compose", "3,-", "--out", str(tmp_path)])
    loaded, manifest = patchio.import_patch(tmp_path / "patch_d14_G_n2.json")
    assert manifest["stages"] == [{"p": 3, "sign": 1}, {"p": 3, "sign": -1}]
    expect = Patch.single(14, "G").inflate(derive_rules(14, 3, 1)) \
        .inflate(derive_rules(14, 3, -1))
    assert loaded.tiles == expect.tiles


def test_cli_tile_output_is_unchanged(tmp_path):
    # sha256 of both artifacts as written before patches were stored
    # column-wise
    main(["tile", "--d", "14", "--p", "3", "--seed-tile", "G", "--n", "3",
          "--out", str(tmp_path)])
    digest = {ext: hashlib.sha256(
        (tmp_path / f"patch_d14_G_n3.{ext}").read_bytes()).hexdigest()
        for ext in ("json", "svg")}
    assert digest == {
        "json": "ce3478878d0b501b02ccaa33d86472daa08f6fe2167e23ad95ab8b28a5d78f71",
        "svg": "7c8b6fb6f81d442ace1692c08d679f913d414827cdc694295bc3c683e3e3ffbc",
    }


#: sha256 of every artifact, recorded before rule derivation and
#: decoration read the arrangement's pair-point and face tables
CLI_DIGESTS = {
    "arrange --d 14 --kappa 0": {
        "arrangement_d14_k0.svg": "05b56f332587d085836e1337957e751742c5eedeb8be8414217d888cb6d59053",
        "arrangement_d14_k0.txt": "86d969e282ecea7513227c7c8bdc7f614c05805b99e1c53c8d54dd58cf37b554"},
    "arrange --d 12 --kappa -2": {
        "arrangement_d12_k-2.svg": "c217caed3018a6cce31ebc20fcb8ea0bba993086b655fedcff2f8a8a02a774d0",
        "arrangement_d12_k-2.txt": "aed66e753eadf6aa7eb7b1635b8c04a5d1ad9e3a45110ea8e5de98f88ae8bbef"},
    "prototiles --d 14": {
        "prototiles_d14.svg": "163d6f2f78f5bb4d75903293d4122d8c6945395deade23d0e140e5a32759c241",
        "prototiles_d14.txt": "4c10b93b8d4be827261aef236b23fee6560f6aceb193e092cdb939b7032e7b20"},
    "prototiles --d 12": {
        "prototiles_d12.svg": "a1993c0b3143e1611f591b49df0a5c163a8cf16b3ebb1ffed09bfb188ce09e12",
        "prototiles_d12.txt": "dd475ce2628c664df227248de80e13ef9b577570f7648c18541d1876cae1e0b5"},
    "rules --d 14 --p 3 --sign +": {
        "rules_d14_p3_p.svg": "a3e6e30a92c2a599b756d5c36fa3aa63aa74eab06bae4e4944c10739bb9750d4",
        "rules_d14_p3_p.txt": "1ac57b688842d10fd61046feafe489d986fe5797862f995e72313ca37bf13730"},
    "rules --d 12 --p 3 --sign -": {
        "rules_d12_p3_m.svg": "99209677a7c647f5fdead7d6f0d494989f0a0f15c07d841a46f9d4d2848aa1a5",
        "rules_d12_p3_m.txt": "4cf1418220731ffda905fe9cc59ae5c130e1e40dc5c8cd52e2fe87ae0f598848"},
    "rules --d 13 --p 2 --sign +": {
        "rules_d13_p2_p.svg": "f2ed7886b1d63155257a24986c8293832a8fa0dc6a0868ae9c5f4fd1d0d7d5b3",
        "rules_d13_p2_p.txt": "527f3022a5ddd9b3912957fa29e7ff72e072fadf2da06b4e0df4d61ae1209698"},
    # 678 tiles; the svg marks the 19 flip sites left after 50 steps, and
    # the manifest records the 50 flips made
    "random --d 14 --mode rearrange --seed-tile G --n 3 --mark-flips": {
        "random_d14_rearrange_s0.json": "eb182f4152fadcbd1cbe2999619249642ab07f134a73d0f3850b659fc0ecec4c",
        "random_d14_rearrange_s0.svg": "c6cc4e743dcf10187fab88e1e20f5f5349ed87d9634ec92f59c6f15d5b0b0a8e"},
}


@pytest.mark.parametrize("command", sorted(CLI_DIGESTS))
def test_cli_artifacts_are_unchanged(tmp_path, command):
    main(command.split() + ["--out", str(tmp_path)])
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == CLI_DIGESTS[command]


def test_cli_notes_a_flip_chain_that_runs_out_of_sites(tmp_path, capsys):
    # the 678-tile (14, G) patch has 69 flip sites and each flip uses one
    args = ["random", "--d", "14", "--mode", "rearrange", "--seed-tile", "G",
            "--n", "3", "--out", str(tmp_path)]
    # the svg draws the tiles only; the json manifest records --steps and
    # the flips made
    path = tmp_path / "random_d14_rearrange_s0.svg"
    doc = tmp_path / "random_d14_rearrange_s0.json"
    main(args + ["--steps", "69"])
    assert capsys.readouterr().err == ""
    full = path.read_bytes()
    manifest = json.loads(doc.read_text())["manifest"]
    assert (manifest["steps"], manifest["flips"]) == (69, 69)
    main(args + ["--steps", "100"])
    assert capsys.readouterr().err == \
        "note: no flip site left after 69 of 100 steps\n"
    assert path.read_bytes() == full
    manifest = json.loads(doc.read_text())["manifest"]
    assert (manifest["steps"], manifest["flips"]) == (100, 69)


@pytest.mark.parametrize("command", [
    ["tile", "--d", "8", "--p", "3", "--seed-tile", "A"],
    ["random", "--d", "8", "--mode", "subst", "--seed-tile", "A"],
], ids=["tile", "random"])
def test_cli_rejects_unknown_seed_tile(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'A'" in err and "T1t" in err and "Traceback" not in err


def test_cli_config_sets_defaults_and_flags_win(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"n": 1, "sign": "-"}))
    args = ["--config", str(config), "tile", "--d", "8", "--p", "3",
            "--seed-tile", "T1t", "--out", str(tmp_path)]
    main(args)
    doc = json.loads((tmp_path / "patch_d8_T1t_n1.json").read_text())
    assert doc["manifest"]["stages"] == [{"p": 3, "sign": -1}]
    main(args + ["--n", "2"])
    assert (tmp_path / "patch_d8_T1t_n2.json").exists()


@pytest.mark.parametrize("content", [
    None, "{not json", "[1, 2]", "[" * 50_000, '{"n": ' + "1" * 5000 + "}",
    b'{"n": "\xff"}'], ids=["missing", "invalid", "not-object", "deep",
                           "int-5000-digits", "not-utf8"])
def test_cli_bad_config_exits_2(tmp_path, capsys, content):
    config = tmp_path / "c.json"
    if content is not None:
        config.write_bytes(content if isinstance(content, bytes)
                           else content.encode())
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(config), "tile", "--d", "8", "--p", "3",
              "--seed-tile", "T1t", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "config" in err and "Traceback" not in err


@pytest.mark.parametrize("command, name, value", [
    (["tile", "--d", "14", "--p", "3", "--seed-tile", "G"], "n", -1),
    (["random", "--d", "8", "--mode", "subst"], "n", -2),
    (["random", "--d", "8", "--mode", "rearrange"], "steps", -3),
    (["tile", "--d", "14", "--p", "3", "--seed-tile", "G"], "n", 2.5),
    (["random", "--d", "8", "--mode", "rearrange"], "steps", True),
], ids=["tile-n", "subst-n", "rearrange-steps", "tile-n-float",
        "steps-bool"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_rejects_bad_counts_before_any_output(tmp_path, capsys, command,
                                                  name, value, source):
    out = tmp_path / "out"
    if source == "flag":
        # argparse itself rejects a non-integer flag ("True", "2.5")
        args = command + [f"--{name}", str(value)]
    else:
        config = tmp_path / "c.json"
        config.write_text(json.dumps({name: value}))
        args = ["--config", str(config)] + command
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(out)])
    assert exc.value.code == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and f"--{name}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    (["tile", "--d", "8", "--p", "3", "--seed-tile", "T1t"], {"compose": 5}),
    (["random", "--d", "8", "--mode", "subst"], {"cap": 2.5}),
    (["rules", "--d", "8", "--p", "3"], {"out": 5}),
    (["rules", "--d", "8", "--p", "3"], {"sign": 5}),
    (["rules", "--d", "8", "--p", "3"], {"sign": 0}),
    (["random", "--d", "8", "--mode", "subst"], {"p": 3.0}),
    (["random", "--d", "8", "--mode", "subst"], {"rng_seed": 1.5}),
    (["random", "--d", "8", "--mode", "subst"], {"mark_flips": 1}),
    (["tile", "--d", "8", "--p", "3", "--seed-tile", "T1t"],
     {"mode": "both"}),
], ids=["compose-int", "cap-float", "out-int", "sign-5", "sign-0",
        "p-float", "rng-seed-float", "switch-int", "mode-not-a-choice"])
def test_cli_checks_config_values_as_flags(tmp_path, capsys, command,
                                           config):
    # argparse applies `type` to string defaults only
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path)] + command + ["--out", str(out)])
    assert exc.value.code == 2
    stdout, err = capsys.readouterr()
    flag = "--" + next(iter(config)).replace("_", "-")
    assert stdout == "" and flag in err and "Traceback" not in err
    assert not out.exists()


# ---- fuzz: configs ----

SUBCOMMANDS = cli.build_parser().subcommands
#: one action per dest: a dest means the same in every subcommand
ACTIONS = {a.dest: a for sub in SUBCOMMANDS.values() for a in sub._actions
           if a.default is not argparse.SUPPRESS}
COMMANDS = [["arrange", "--d", "8"], ["prototiles", "--d", "8"],
            ["rules", "--d", "8", "--p", "3"],
            ["tile", "--d", "8", "--p", "3", "--seed-tile", "T1t"],
            ["random", "--d", "8", "--mode", "subst"], ["analyze", "--d", "8"],
            ["verify", "p.json"]]
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=3)
    | st.integers(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)


def flag_like(action):
    """Values near those the action's flag takes."""
    if action.nargs == 0:
        return st.booleans()
    if action.nargs == "*":
        return st.lists(st.sampled_from(["3,+", "5,-", "x"]), max_size=2)
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if action.type is None:
        return st.sampled_from(["T1t", "G", "out"])
    return st.integers(-3, 9) | st.sampled_from(["+", "-", "1", "-1", "3"])


# each value near a flag's or any JSON value
CONFIGS = st.lists(st.one_of([
    st.tuples(st.just(dest), flag_like(action) | ANY_JSON)
    for dest, action in sorted(ACTIONS.items())]), max_size=4).map(dict)


def flag_typed(action, value):
    """value has the type that action's flag, or its default, gives."""
    if value is action.default:
        return True
    if action.nargs == 0:
        return type(value) is bool
    if action.nargs == "*":
        return type(value) is list and all(type(v) is str for v in value)
    if action.type is None:
        return type(value) is str and (action.choices is None
                                       or value in action.choices)
    return type(value) is int and value == action.type(str(value))


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(CONFIGS, st.sampled_from(COMMANDS))
def test_config_fuzz(tmp_path_factory, config, command):
    # every subcommand function is a stub: main exits 2 or hands it args
    # of the flags' types
    path = tmp_path_factory.mktemp("config") / "c.json"
    path.write_text(json.dumps(config))
    ran = []
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stderr(err):
        for name in SUBCOMMANDS:
            mp.setattr(cli, f"cmd_{name}", ran.append)
        try:
            main(["--config", str(path)] + command)
        except SystemExit as exc:
            assert exc.code == 2 and not ran and "error:" in err.getvalue()
            return
    args, = ran
    for action in SUBCOMMANDS[command[0]]._actions:
        if action.default is not argparse.SUPPRESS:
            value = getattr(args, action.dest)
            assert flag_typed(action, value), (action.dest, value)
