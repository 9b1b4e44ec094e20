"""Baseline JPEG decoder exactness: pinned output digests and hand-built
entropy streams for every error path of the Huffman pass.

The digests and outcomes below were recorded with the previous decoder
(a two-peek ``(symbol, length)`` table per DHT payload and three append
lists), so they hold the fused-table decoder to its pixels and its
exceptions.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from georay import images, jpeg

# images.content_hash64 of the 48 per-slot decode digests of the fixture's
# jpeg slots (one 768-pixel period), per encoder quality
_SLOT_DIGESTS = {
    25: 0x09B06FC0182A4DA6,
    50: 0xE89AFBB427B88AFE,
    75: 0x756918718E08D40D,
    97: 0x8CFEFDCB5EBAF049,
    100: 0xA03786FFFD9389CF,
}
# decode digest of synth_pixels(0, 33, 17) (odd dims: padded edge blocks)
_ODD_DIGESTS = {
    25: 0x62E88C1A95F44945,
    50: 0x75C74FF1E109DFA8,
    75: 0x0DCA382F5B4B7C38,
    97: 0xF47E3946DA0794BF,
    100: 0x6FDE0058F03CA93F,
}


@pytest.mark.parametrize("quality", sorted(_SLOT_DIGESTS))
def test_decode_matches_pinned_digests(quality):
    slots = [i for i in range(768) if images.image_fmt(i) == "jpeg"]
    assert len(slots) == 48
    digests = [
        images.content_hash64(jpeg.decode_jpeg(
            jpeg.encode_jpeg(images.synth_pixels(i), quality)))
        for i in slots
    ]
    assert images.content_hash64(np.array(digests, np.uint64)) == (
        _SLOT_DIGESTS[quality])
    odd = jpeg.decode_jpeg(
        jpeg.encode_jpeg(images.synth_pixels(0, 33, 17), quality))
    assert odd.shape == (17, 33, 3)
    assert images.content_hash64(odd) == _ODD_DIGESTS[quality]


# ------------------------------------------------- hand-built entropy streams


def _code(table: dict, sym: int, value_bits: str = "") -> str:
    code, length = table[sym]
    return format(code, f"0{length}b") + value_bits


def _dc(cat: int, value_bits: str = "", chroma: bool = False) -> str:
    return _code(jpeg._ENC_DC[chroma], cat, value_bits)


def _ac(sym: int, value_bits: str = "", chroma: bool = False) -> str:
    return _code(jpeg._ENC_AC[chroma], sym, value_bits)


def _with_scan(bits: str, ncomp: int = 3) -> bytes:
    """An 8×8 baseline JPEG (one block per component, Annex K tables) whose
    entropy-coded segment is ``bits``, 1-padded to a byte and stuffed."""
    blob = jpeg.encode_jpeg(np.zeros((8, 8, 3), np.uint8))
    sof, dht, sos = (blob.index(m) for m in (b"\xff\xc0", b"\xff\xc4",
                                             b"\xff\xda"))
    if ncomp == 1:
        def seg(marker: int, payload: bytes) -> bytes:
            return struct.pack(">HH", marker, len(payload) + 2) + payload

        head = (blob[:sof]
                + seg(0xFFC0, struct.pack(">BHHB", 8, 8, 8, 1) + b"\x01\x11\x00")
                + blob[dht:sos]
                + seg(0xFFDA, b"\x01\x01\x00\x00\x3f\x00"))
    else:
        head = blob[:sos + 2 + int.from_bytes(blob[sos + 2:sos + 4], "big")]
    bits += "1" * (-len(bits) % 8)
    scan = int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""
    return head + scan.replace(b"\xff", b"\xff\x00") + b"\xff\xd9"


_Y_TO_62 = _dc(0) + _ac(0x01, "1") * 62  # DC, then +1 at zigzag 1..62
_CHROMA_EMPTY = (_dc(0, chroma=True) + _ac(0x00, chroma=True)) * 2

# stream -> (bits, components, the error message or the decoded image's
# content_hash64)
_STREAMS = {
    # run 1 after position 62 lands on 64: code + value fit the peek
    "run_past_end_fused": (_Y_TO_62 + _ac(0x11, "1") + _CHROMA_EMPTY, 3,
                           "AC run past block end"),
    # same run with 10 value bits behind a 16-bit code: past the peek
    "run_past_end_slow": (_Y_TO_62 + _ac(0x1A, "1" * 10) + _CHROMA_EMPTY, 3,
                          "AC run past block end"),
    # the stream ends (on a byte boundary) right after that symbol's code,
    # so its value bits start at the end: reported as truncation
    "run_past_end_at_stream_end": (_Y_TO_62 + _ac(0x11), 3,
                                   "entropy stream truncated"),
    # the last coefficient of the last block takes its value bits from
    # past the end: only the end-of-MCU check sees it
    "value_past_end_in_last_block": (_Y_TO_62 + _ac(0x04), 1,
                                     "entropy stream truncated"),
    # a zero run past position 63 ends the block without an error
    "zrl_past_end": (_dc(0) + _ac(0x01, "1") * 60 + _ac(0xF0) + _CHROMA_EMPTY,
                     3, 0x9DEA1ED9791B120E),
    # all-ones prefixes are no code in either Annex K table
    "invalid_dc_prefix": ("1" * 16, 3, "invalid DC Huffman prefix"),
    "invalid_ac_prefix": (_dc(0) + "1" * 16, 3, "invalid AC Huffman prefix"),
    # the stream stops inside the first MCU's chroma blocks
    "cut_inside_mcu": (_Y_TO_62 + _ac(0x00) + _dc(0, chroma=True), 3,
                       "entropy stream truncated"),
}


@pytest.mark.parametrize("name", sorted(_STREAMS))
def test_hand_built_streams(name):
    bits, ncomp, want = _STREAMS[name]
    if name in ("run_past_end_at_stream_end", "value_past_end_in_last_block"):
        assert len(bits) % 8 == 0  # no 1-padding behind the last code
    blob = _with_scan(bits, ncomp)
    if isinstance(want, str):
        with pytest.raises(ValueError) as err:
            jpeg.decode_jpeg(blob)
        assert str(err.value) == want
    else:
        assert images.content_hash64(jpeg.decode_jpeg(blob)) == want


def test_one_component_stream():
    # DC +5, then -1 and +3 at zigzag 1 and 2, EOB: a gray 8×8 image
    bits = _dc(3, "101") + _ac(0x01, "0") + _ac(0x02, "11") + _ac(0x00)
    out = jpeg.decode_jpeg(_with_scan(bits, ncomp=1))
    assert out.shape == (8, 8, 3)
    assert (out[:, :, 0] == out[:, :, 1]).all()
    assert (out[:, :, 0] == out[:, :, 2]).all()
    assert images.content_hash64(out) == 0xADD3459C17FA34B0


@pytest.mark.parametrize("cut", [1, 2, 3, 4, 5, 6])
def test_cut_streams_report_truncation(cut):
    blob = jpeg.encode_jpeg(images.synth_pixels(1))
    sos = blob.index(b"\xff\xda")
    start = sos + 2 + int.from_bytes(blob[sos + 2:sos + 4], "big")
    at = start + (len(blob) - 2 - start) * cut // 7
    with pytest.raises(ValueError, match="^entropy stream truncated$"):
        jpeg.decode_jpeg(blob[:at] + b"\xff\xd9")


class _CountingTable(list):
    """A fused table that counts lookups of entries decoded in the table
    (``fused``) and of entries decoded from their symbol (``slow``)."""

    def __init__(self, lut, counts):
        super().__init__(lut)
        self.counts = counts

    def __getitem__(self, i):
        e = list.__getitem__(self, i)
        if e[0]:
            self.counts["fused"] += 1
        elif e[1]:
            self.counts["slow"] += 1
        return e


# quality 100 (unit quantizers) at full amplitude: a 1-px checkerboard puts
# ±1023 (size 10, a 16-bit code) at the highest frequency, and 8×8 black and
# white blocks make DC differences of size 11 (a 9-bit code); both carry
# more than 16 code + value bits
_EXTREMES = {
    "pixel_checker": (lambda y, x: (y + x) % 2, 16, 0x44C6BE00543EDEC5),
    "block_checker": (lambda y, x: (y // 8 + x // 8) % 2, 32,
                      0x85B1D32DE94A73A5),
}


@pytest.mark.parametrize("name", sorted(_EXTREMES))
def test_extreme_pixels_take_both_paths(monkeypatch, name):
    pattern, size, want = _EXTREMES[name]
    yy, xx = np.mgrid[:size, :size]
    px = np.repeat((pattern(yy, xx) * 255).astype(np.uint8)[:, :, None], 3, 2)
    counts = {"fused": 0, "slow": 0}
    table = jpeg._huffman_table
    monkeypatch.setattr(jpeg, "_huffman_table",
                        lambda seg: _CountingTable(table(seg), counts))
    out = jpeg.decode_jpeg(jpeg.encode_jpeg(px, quality=100))
    assert counts["fused"] > 0 and counts["slow"] > 0, counts
    assert images.content_hash64(out) == want
