"""Patch export, import and SVG rendering hold a block of the file at a
time, not the file: their traced memory peaks stay below the file's
size."""

import tracemalloc

import pytest

from deltiling import patchio, substitution, svg
from deltiling.field import field_for_order
from deltiling.substitution import Isometry, Patch, Tile, derive_rules


@pytest.fixture(scope="module")
def big(tmp_path_factory):
    """(patch, path): the 45,070-tile (14, G, (3,+)(3,-)(3,+)(3,-)(3,+))
    patch and its exported file, with the caches that importing and
    rendering a patch of d = 14 fill already filled."""
    patch = Patch.single(14, "G")
    for k in range(5):
        patch = patch.inflate(derive_rules(14, 3, (-1) ** k))
    assert len(patch) == 45_070
    path = tmp_path_factory.mktemp("big") / "p.json"
    patchio.export_patch(patch, path)
    small = Patch.single(14, "G")
    patchio.export_patch(small, path.with_name("small.json"))
    patchio.import_patch(path.with_name("small.json"))
    svg.render_patch(small, path.with_name("small.svg"))
    return patch, path


def traced_peak(fn, *args):
    """The peak of the memory traced while fn(*args) runs, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_export_peak_stays_below_a_fifth_of_the_file_size(big):
    # one block of CHUNK records and its token matrix at a time: 1.9 MiB
    # traced for a 20 MiB file
    patch, path = big
    out = path.with_name("again.json")
    peak = traced_peak(patchio.export_patch, patch, out)
    assert peak < out.stat().st_size / 5


def test_import_peak_stays_below_the_file_size(big):
    # the parent read the whole file and copied its columns: 41 MiB traced
    # for a 20 MiB file
    _, path = big
    assert traced_peak(patchio.import_patch, path) < path.stat().st_size


def test_render_peak_stays_below_one_and_a_half_svg_sizes(big):
    # the parent held every polygon's text: 24 MiB traced for 7.3 MiB
    patch, path = big
    out = path.with_name("p.svg")
    peak = traced_peak(svg.render_patch, patch, out)
    assert peak < 1.5 * out.stat().st_size


def test_corner_values_peak_stays_below_twice_the_result(big):
    # the corner rows are converted a block of tiles at a time: the parent
    # held the whole N x 3 x D matrix, 7.35 MiB traced for 2.06 MiB
    patch, _ = big
    peak = traced_peak(patch.corner_values)
    assert peak < 2 * patch.corner_values().nbytes


def test_corner_ids_peak_stays_below_6_mib():
    # 135,210 corners of the rotated level-5 patch, over 18 of 24 columns:
    # one packed 8-byte word per corner key.  The parent sorted 40-byte
    # keys of the corners' bytes: 12.7 MiB traced
    f = field_for_order(14)
    patch = Patch(14, [Tile("G", Isometry(5, f.rational(2) + f.i * -3))])
    for k in range(5):
        patch = patch.inflate(derive_rules(14, 3, (-1) ** k))
    substitution._corner_ids(patch)
    assert traced_peak(substitution._corner_ids, patch) <= 6 * 2 ** 20
