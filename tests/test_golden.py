"""Golden outputs: sha256 of CLI reports, PPM images and raster occupancies.

The digests were recorded before the exact coordinate maps were rewritten
in scaled integers; every report, image and occupancy grid must stay
byte-identical.
"""

import hashlib
from fractions import Fraction

import pytest

from tileforge import approximate, rasterize, tensor_product
from tileforge.cli import main

DRAGON = ("--matrix", "[[1,1],[-1,1]]", "--digits", "[[0,0],[1,0]]")
# BoxForm((2, 3), +1): the cyclic matrix has determinant -6.
BOX_NEG = ("--matrix", "[[0,2],[3,0]]",
           "--digits", "[[0,0],[0,1],[0,2],[1,0],[1,1],[1,2]]")
THREE = ("--matrix", "[[2]]", "--digits", "[[0],[3]]")

CLI_CASES = {
    "dragon_render": (("tile", "render", *DRAGON, "--depth", "12",
                       "--resolution", "64", "--out", "out.ppm"), 0),
    "dragon_tiling": (("tile", "render", *DRAGON, "--depth", "10",
                       "--resolution", "32", "--tiling=0:2,0:2", "--out", "out.ppm"), 0),
    "box_neg_render": (("tile", "render", *BOX_NEG, "--depth", "6",
                        "--resolution", "24", "--out", "out.ppm"), 0),
    "box_neg_haar_raster": (("haar", "gram", *BOX_NEG, "--method", "raster",
                             "--resolution", "16", "--depth", "5"), 0),
    "dragon_check": (("tile", "check", *DRAGON, "--depth", "8"), 0),
    "dragon_haar_raster": (("haar", "gram", *DRAGON, "--method", "raster",
                            "--resolution", "16", "--depth", "6"), 0),
    "three_check": (("tile", "check", *THREE, "--depth", "8"), 1),
}

CLI_DIGESTS = {
    "dragon_render": ("581933ce526ee7c4c9552fc878393521a2f64831c34a8a59432a466ef934c1d7",
                      "bc4f13f1dfac35a991cd51de2f63579d4a18c58da2a38157147bee28d71baca0"),
    "dragon_tiling": ("299cbaecfef9fac73fcc3d1022f249781b6abbd6066c3808858c6afbdd549272",
                      "abdc4fe639dc0c25c2620e414744ba9e5da10ba06f451d67c44429455d5578f0"),
    "box_neg_render": ("1ad693f724a9101072bd2f4c778b9c0f49745ec5ce3fccf9e7f6c7b4c381c18f",
                       "2b57fb03178b0234e9ddb6e705c413c5c253ed8254bf937a972d320bf270cf8d"),
    "box_neg_haar_raster": ("5a85190e3a4d6d6d5a006931732ed9b4cc650ec15eca8e6d57c94afe07f3520b",
                            None),
    "dragon_check": ("b2f0b98b44c245b4e54748a538b0abc07fda0002c817bdd865bd2403977bccbb",
                     None),
    "dragon_haar_raster": ("10af6fc38c37d1596fbf9ac1f8ffafe766a7ad7b28d3be700cb4f684f0418149",
                           None),
    "three_check": ("2a1ed1a8ab5d99be0f39e2e3bb7b2ee8ba89f033746641de993950ef49d788f7",
                    None),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_digests(name, capsys):
    argv, code = CLI_CASES[name]
    assert main(list(argv)) == code
    report = _sha(capsys.readouterr().out.encode())
    image = _sha(open("out.ppm", "rb").read()) if "--out" in argv else None
    return report, image


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_is_byte_identical(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _cli_digests(name, capsys) == CLI_DIGESTS[name]


def _product_system():
    return tensor_product(((2,),), ((0,), (1,)), ((-3,),), ((0,), (1,), (2,)))


RASTER_CASES = {
    "dragon": (lambda: approximate([[1, 1], [-1, 1]], [(0, 0), (1, 0)], 12), 64, None),
    "box_neg_rational_box": (
        lambda: approximate([[0, 2], [3, 0]],
                            [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)], 6),
        20, ((Fraction(-1, 3), 0), (2, Fraction(5, 2)))),
    "product_float_box": (lambda: approximate(*_product_system(), 5), 27,
                          ((-0.75, -0.5), (1.25, 0.5))),
    "three_by_three": (lambda: approximate([[0, 1, 0], [0, 0, 1], [-2, 0, 0]],
                                           [(0, 0, 0), (0, 0, -1)], 9), 6, None),
    "real_shifts": (lambda: approximate([[3]], [(0.0,), (0.25,), (1.5,)], 6), 10, None),
}

RASTER_DIGESTS = {
    "dragon": "6c90501ac069b0e7f51e8accad52ab929897f224ed339beee52397c3a653c83b",
    "box_neg_rational_box": "ba6b6efbcac5d026d43a28ac065f9131822dd7bd23e8432e45b876a664f91770",
    "product_float_box": "ad451ad2b55fedd01ddad5bcda59fadab63ea15d67a23e0af52db202e09248b6",
    "three_by_three": "cb01bedfc4975cdaf74cead5724efeb6c5e0f0a8a13a5415c0a3c9635e2a5a3a",
    "real_shifts": "89cfcb5a3324219a3121f5b4cc416963f99e582afff90484fadefd517c2f1103",
}


def _raster_digest(name):
    build, resolution, box = RASTER_CASES[name]
    r = rasterize(build(), resolution, box=box)
    head = repr((r.origin, r.cell_size, r.extent, r.occupancy.dtype.str)).encode()
    return _sha(head + r.occupancy.tobytes())


@pytest.mark.parametrize("name", sorted(RASTER_CASES))
def test_raster_is_byte_identical(name):
    assert _raster_digest(name) == RASTER_DIGESTS[name]
