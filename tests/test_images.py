"""Image codec + invariant tests (BASELINE.json:15 per-row invariant)."""

from __future__ import annotations

import numpy as np
import pytest

from georay import images


@pytest.mark.parametrize("i", [0, 1, 7, 63, 100])
def test_lossless_roundtrip(i):
    pixels = images.synth_pixels(i)
    for fmt in ("bmp", "png"):
        back = images.decode_image(images.encode_image(pixels, fmt), fmt)
        assert np.array_equal(back, pixels)


@pytest.mark.parametrize("i", [0, 5, 42])
def test_q6_lossy_psnr(i):
    pixels = images.synth_pixels(i)
    back = images.decode_image(images.encode_image(pixels, "q6"), "q6")
    p = images.psnr(pixels, back)
    assert 40.0 <= p < 99.0  # lossy but above the invariant floor


def test_psnr_identical_is_inf():
    a = images.synth_pixels(3)
    assert images.psnr(a, a) == float("inf")


def test_content_hash_identity_and_dispersal():
    a = images.synth_pixels(10)
    b = images.synth_pixels(10).copy()
    c = images.synth_pixels(11)
    assert images.content_hash64(a) == images.content_hash64(b)
    assert images.content_hash64(a) != images.content_hash64(c)
    # single-byte flip changes the hash
    b2 = b.copy()
    b2[0, 0, 0] ^= 1
    assert images.content_hash64(b2) != images.content_hash64(b)


def test_pixel_period():
    # the SQL-oracle handle: identical pixels iff indices agree mod 768
    from georay.fixtures import PIXEL_PERIOD

    for i in (0, 5, 13):
        a = images.synth_pixels(i)
        b = images.synth_pixels(i + PIXEL_PERIOD)
        assert np.array_equal(a, b)
        assert not np.array_equal(images.synth_pixels(i), images.synth_pixels(i + 1))


def test_bmp_odd_width_padding():
    # width 33 -> stride padding path
    pixels = images.synth_pixels(0, 33, 17)
    back = images.decode_bmp(images.encode_bmp(pixels))
    assert np.array_equal(back, pixels)


def test_decode_garbage_raises():
    with pytest.raises(ValueError):
        images.decode_bmp(b"not a bmp at all")
    with pytest.raises(ValueError):
        images.decode_png(b"not a png at all")


def test_make_image_rows_dup_injection():
    from georay import fixtures

    t = fixtures.make_image_rows(np.array([62, 63, 64]))
    ph = t["phash"].to_pylist()
    assert ph[0] == ph[1]  # row 63 carries row 62's pixels
    assert ph[0] != ph[2]
    assert t["image_id"].to_pylist() == ["img000000000062", "img000000000063", "img000000000064"]
    assert t["caption"].to_pylist()[0].startswith("caption for img000000000062: ")


def test_decode_invariant_batch():
    from georay import fixtures
    from georay.ops.images import DecodeInvariant

    t = fixtures.make_image_rows(np.arange(24))
    out = DecodeInvariant()(t)
    assert out["ok"].to_pylist() == [True] * 24
    psnr_v = np.array(out["psnr"].to_pylist())
    fmts = out["fmt"].to_pylist()
    lossy = np.array([f in images.LOSSY_FORMATS for f in fmts])
    assert "jpeg" in fmts  # pix 5 and 21 land in the 24-row window
    assert (psnr_v[~lossy] == 99.0).all()
    assert (psnr_v[lossy] >= 40.0).all() and (psnr_v[lossy] < 99.0).all()


def test_decode_invariant_catches_corruption():
    from georay import fixtures
    from georay.ops.images import DecodeInvariant
    import pyarrow as pa

    t = fixtures.make_image_rows(np.arange(3))
    blobs = t["bytes"].to_pylist()
    mid = len(blobs[1]) // 2  # corrupt IDAT interior, not the IEND trailer
    blobs[1] = blobs[1][:mid] + b"\x00\x01\x02\x03" + blobs[1][mid + 4 :]
    t = t.set_column(1, "bytes", pa.array(blobs, pa.binary()))
    out = DecodeInvariant()(t)
    assert out["ok"].to_pylist()[0] is True
    assert out["ok"].to_pylist()[1] is False


def test_decode_invariant_catches_caption_mismatch():
    from georay import fixtures
    from georay.ops.images import DecodeInvariant
    import pyarrow as pa

    t = fixtures.make_image_rows(np.arange(2))
    caps = t["caption"].to_pylist()
    caps[0] = caps[0] + " tampered"
    t = t.set_column(5, "caption", pa.array(caps, pa.string()))
    out = DecodeInvariant()(t)
    assert out["ok"].to_pylist() == [False, True]


# ------------------------------------------------------------- baseline JPEG


@pytest.mark.parametrize("i", [0, 5, 42, 225])  # 225 = measured worst pattern
def test_jpeg_roundtrip_psnr(i):
    from georay.jpeg import decode_jpeg, encode_jpeg

    pixels = images.synth_pixels(i)
    back = decode_jpeg(encode_jpeg(pixels))
    assert back.shape == pixels.shape
    p = images.psnr(pixels, back)
    assert 40.0 <= p < 99.0  # real lossy codec above the invariant floor


def test_jpeg_odd_dims_padding():
    from georay.jpeg import decode_jpeg, encode_jpeg

    pixels = images.synth_pixels(0, 33, 17)  # non-multiple-of-8 both axes
    back = decode_jpeg(encode_jpeg(pixels))
    assert back.shape == (17, 33, 3)
    assert images.psnr(pixels, back) >= 40.0


def test_jpeg_marker_structure():
    """The stream is spec-shaped JFIF: SOI, APP0(JFIF), DQT, SOF0, DHT,
    SOS, EOI — and every interior 0xFF is stuffed or a marker."""
    from georay.jpeg import encode_jpeg

    blob = encode_jpeg(images.synth_pixels(7))
    assert blob[:2] == b"\xff\xd8" and blob[-2:] == b"\xff\xd9"
    assert blob[2:4] == b"\xff\xe0" and blob[6:11] == b"JFIF\x00"
    for marker in (b"\xff\xdb", b"\xff\xc0", b"\xff\xc4", b"\xff\xda"):
        assert marker in blob[:2000], marker


def test_jpeg_extreme_pixels_encode():
    """Full-scale basis-pattern blocks at quality 100 stay inside the
    baseline Huffman category range (the ±1023 clamp)."""
    from georay.jpeg import decode_jpeg, encode_jpeg

    # worst case: 1-px checkerboard (Nyquist) at max amplitude
    px = np.zeros((16, 16, 3), np.uint8)
    px[::2, ::2] = 255
    px[1::2, 1::2] = 255
    back = decode_jpeg(encode_jpeg(px, quality=100))
    assert back.shape == px.shape  # decodes cleanly; PSNR not asserted


def test_jpeg_garbage_raises():
    from georay.jpeg import decode_jpeg

    for bad in (b"nope", b"\xff\xd8\xff\xd9", b"\xff\xd8" + b"\x01" * 64):
        with pytest.raises(ValueError):
            decode_jpeg(bad)


def test_jpeg_truncation_raises():
    from georay.jpeg import decode_jpeg, encode_jpeg

    blob = encode_jpeg(images.synth_pixels(1))
    with pytest.raises(ValueError):
        decode_jpeg(blob[: len(blob) // 2] + b"\xff\xd9")


def test_image_fmt_jpeg_share():
    fmts = [images.image_fmt(i) for i in range(768)]
    assert fmts.count("jpeg") == 48  # 1/16 of the period
    assert images.image_fmt(5) == "jpeg"
    assert images.image_fmt(21) == "jpeg"
    assert images.image_fmt(0) == "bmp"
    # registry dispatch
    px = images.synth_pixels(5)
    back = images.decode_image(images.encode_image(px, "jpeg"), "jpeg")
    assert images.psnr(px, back) >= 40.0


def test_image_read_stage_is_not_fused(ray_session, tmp_path):
    """The file-read stage asks for at most one CPU (so a 1-CPU node can
    schedule it) and still runs as its own operator: a fused read would
    take the downstream batch_size over the PATHS input."""
    import re

    import pyarrow as pa
    import pyarrow.parquet as pq

    from georay import fixtures

    for i in range(3):
        pq.write_table(pa.table({"image_id": [f"img{i:012d}"],
                                 "bytes": [bytes(8)]}),
                       str(tmp_path / f"part-{i}.parquet"))
    ds = fixtures._read_images_path(str(tmp_path), None).map_batches(
        lambda t: t, batch_format="pyarrow", batch_size=64
    )
    read_ops = [op for op in ds._logical_plan.dag.post_order_iter()
                if op.name == "MapBatches(readf)"]
    assert len(read_ops) == 1
    assert read_ops[0]._ray_remote_args["num_cpus"] <= 1
    out = ds.materialize()
    assert out.count() == 3
    stats = out.stats()
    assert re.search(r"Operator \d+ MapBatches\(readf\):", stats), stats
    assert "MapBatches(readf)->" not in stats
