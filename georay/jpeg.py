"""Pure-numpy baseline JPEG (JFIF) encoder/decoder.

The sandbox has no PIL/libjpeg (SURVEY.md §7), but a baseline sequential
DCT JPEG is public knowledge (ITU-T T.81: 8×8 DCT-II, Annex K quantization
and Huffman tables, canonical code assignment, byte stuffing) — this module
implements exactly that, 4:4:4 (no chroma subsampling, one block per
component per MCU), 8-bit precision, so the image fixture's lossy rows
exercise a REAL perceptual transform codec (VERDICT r4 gap #2 / task #7),
not just bit-truncation like ``q6``.

Self-consistency note: the byte stream is a spec-valid JFIF file — any
conforming decoder reads it, because DQT/DHT carry the actual tables used.
Hot-path design:

- encode: DCT + quantization are one batched ``C @ B @ Cᵀ`` matmul over all
  blocks; only the run-length symbol emission loops (over NONZERO coeffs,
  sparse after quantization); bit packing is vectorized (np.repeat bit
  expansion → np.packbits → bytes.replace stuffing).
- decode: marker walk, then one sequential Huffman pass per image. The
  16-bit peek at every bit offset of the entropy stream is one numpy pass
  (a memoryview, so a peek is one index). Each DHT payload gets one fused
  table, built once per worker process (``process_state.per_process``):
  when a code and its value bits fit the peek, the entry already holds the
  bits to consume, the zigzag advance and the sign-extended value (libjpeg's
  lookahead decoding), so the common coefficient is one lookup and one
  store into a flat int64 zigzag buffer; EOB and ZRL have reserved entries,
  and longer codes decode from their symbol. The buffer is un-zigzagged by
  one fancy-index assignment, and dequant + IDCT + color are batched
  matmuls again. This is the only Python-loop decode in the engine, and
  the image fixture bounds its share (fmt='jpeg' on 1/16 of rows).
"""

from __future__ import annotations

import struct
from array import array

import numpy as np

from georay.process_state import per_process

# ----------------------------------------------------------- constant tables

# zigzag: index k in zigzag order -> flat (row-major) position in the 8x8
# block. Generated, not transcribed (T.81 figure A.6 traversal rule).


def _make_zigzag() -> np.ndarray:
    out = []
    for s in range(15):
        rng = range(max(0, s - 7), min(8, s + 1))
        diag = [(r, s - r) for r in rng]  # r increasing
        if s % 2 == 0:
            diag.reverse()
        out += [r * 8 + c for r, c in diag]
    return np.array(out, dtype=np.int64)


ZIGZAG = _make_zigzag()  # zigzag k -> natural index

# Annex K.1 / K.2 base quantization tables (natural row-major order).
Q_LUM = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
], dtype=np.int64)
Q_CHR = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
], dtype=np.int64)

# Annex K.3 Huffman specs: (BITS[1..16], HUFFVAL). If a value here deviated
# from the standard the files would merely compress differently — DHT in the
# stream defines the actual codes, so encoder/decoder stay in lockstep.
_DC_LUM = (
    [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    list(range(12)),
)
_DC_CHR = (
    [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
    list(range(12)),
)
_AC_LUM = (
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
    [
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
        0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
        0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
        0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
        0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
        0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
        0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
        0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
        0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
        0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
        0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
        0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
        0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
        0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
        0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
        0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
        0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
        0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
        0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
        0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
        0xF9, 0xFA,
    ],
)
_AC_CHR = (
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
    [
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
        0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
        0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
        0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
        0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
        0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
        0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
        0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
        0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
        0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
        0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
        0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
        0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
        0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
        0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
        0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
        0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
        0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
        0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
        0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
        0xF9, 0xFA,
    ],
)

# orthonormal 8x8 DCT-II matrix: forward F = C @ B @ C.T, inverse C.T @ F @ C
_C = np.cos((2 * np.arange(8)[None, :] + 1) * np.arange(8)[:, None] * np.pi / 16)
_C *= np.sqrt(2.0 / 8.0)
_C[0, :] = np.sqrt(1.0 / 8.0)


def _scaled_qtable(base: np.ndarray, quality: int) -> np.ndarray:
    """IJG quality scaling (public libjpeg convention)."""
    if not 1 <= quality <= 100:
        raise ValueError("quality must be in 1..100")
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    return np.clip((base * scale + 50) // 100, 1, 255).astype(np.int64)


def _canonical_codes(bits: list[int], vals: list[int]):
    """T.81 C.2 canonical assignment: (code, length) per symbol value."""
    out: dict[int, tuple[int, int]] = {}
    code, k = 0, 0
    for ln in range(1, 17):
        for _ in range(bits[ln - 1]):
            out[vals[k]] = (code, ln)
            code += 1
            k += 1
        code <<= 1
    return out


_ENC_DC = (_canonical_codes(*_DC_LUM), _canonical_codes(*_DC_CHR))
_ENC_AC = (_canonical_codes(*_AC_LUM), _canonical_codes(*_AC_CHR))


# ------------------------------------------------------------------- encoder


def _blockify(chan: np.ndarray) -> np.ndarray:
    """(h, w) float64 channel -> (n_blocks, 8, 8), edge-replicated padding,
    blocks in raster (row-major) order."""
    h, w = chan.shape
    ph, pw = (-h) % 8, (-w) % 8
    if ph or pw:
        chan = np.pad(chan, ((0, ph), (0, pw)), mode="edge")
    hh, ww = chan.shape
    return (
        chan.reshape(hh // 8, 8, ww // 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(-1, 8, 8)
    )


def _unblockify(blocks: np.ndarray, h: int, w: int) -> np.ndarray:
    hh, ww = (h + 7) // 8 * 8, (w + 7) // 8 * 8
    full = (
        blocks.reshape(hh // 8, ww // 8, 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(hh, ww)
    )
    return full[:h, :w]


def _category(v: np.ndarray) -> np.ndarray:
    """ssss (bit length of |v|); 0 for v == 0. Exact for |v| < 2^20."""
    a = np.abs(v)
    return np.where(
        a == 0, 0, np.floor(np.log2(np.maximum(a, 1)) + 1e-12).astype(np.int64) + 1
    )


def _emit_scan(comp_zz: list[np.ndarray]) -> bytes:
    """Interleaved-MCU entropy coding (4:4:4 → one block per component per
    MCU). comp_zz[c] is (n_blocks, 64) int64 zigzag-ordered quantized
    coefficients. Returns stuffed entropy bytes (1-padded to a byte)."""
    ncomp = len(comp_zz)
    n_mcu = comp_zz[0].shape[0]
    # DC differentials + value bits, vectorized per component; the symbol
    # loop below is pure-int Python over plain lists (no numpy scalars —
    # a 6x measured win on the fixture images)
    dc_codes, dc_cats, dc_vbits, comp_rows = [], [], [], []
    for c in range(ncomp):
        dc = comp_zz[c][:, 0]
        diff = np.diff(dc, prepend=0)
        cat = _category(diff)
        vb = np.where(diff < 0, diff + (1 << cat) - 1, diff)
        dc_cats.append(cat.tolist())
        dc_vbits.append(vb.tolist())
        dc_codes.append(_ENC_DC[min(c, 1)])
        comp_rows.append(comp_zz[c].tolist())
    ac_codes = [_ENC_AC[min(c, 1)] for c in range(ncomp)]

    codes: list[int] = []
    lens: list[int] = []
    for m in range(n_mcu):
        for c in range(ncomp):
            s = dc_cats[c][m]
            hc, hl = dc_codes[c][s]
            codes.append((hc << s) | dc_vbits[c][m])
            lens.append(hl + s)
            row = comp_rows[c][m]
            actab = ac_codes[c]
            run = 0
            for k in range(1, 64):
                v = row[k]
                if v == 0:
                    run += 1
                    continue
                while run >= 16:
                    zc, zl = actab[0xF0]  # ZRL
                    codes.append(zc)
                    lens.append(zl)
                    run -= 16
                s = v.bit_length() if v > 0 else (-v).bit_length()
                vb = v + (1 << s) - 1 if v < 0 else v
                hc, hl = actab[(run << 4) | s]
                codes.append((hc << s) | vb)
                lens.append(hl + s)
                run = 0
            if run:
                ec, el = actab[0x00]  # EOB
                codes.append(ec)
                lens.append(el)
    codes_a = np.asarray(codes, dtype=np.int64)
    lens_a = np.asarray(lens, dtype=np.int64)
    total = int(lens_a.sum())
    ent = np.repeat(np.arange(codes_a.size), lens_a)
    starts = np.cumsum(lens_a) - lens_a
    pos = np.arange(total) - np.repeat(starts, lens_a)
    bits = ((codes_a[ent] >> (lens_a[ent] - 1 - pos)) & 1).astype(np.uint8)
    pad = (-total) % 8
    if pad:
        bits = np.concatenate([bits, np.ones(pad, np.uint8)])  # 1-fill (F.1.2.3)
    raw = np.packbits(bits).tobytes()
    return raw.replace(b"\xff", b"\xff\x00")  # byte stuffing


def _dht_payload() -> bytes:
    out = b""
    for tc_th, (bits, vals) in (
        (0x00, _DC_LUM), (0x10, _AC_LUM), (0x01, _DC_CHR), (0x11, _AC_CHR)
    ):
        out += bytes([tc_th]) + bytes(bits) + bytes(vals)
    return out


def encode_jpeg(pixels: np.ndarray, quality: int = 97) -> bytes:
    """(h, w, 3) uint8 RGB → baseline JFIF bytes (4:4:4, Annex K tables)."""
    h, w, _ = pixels.shape
    if h > 65535 or w > 65535:
        raise ValueError("image too large for SOF0")
    p = pixels.astype(np.float64)
    y = 0.299 * p[:, :, 0] + 0.587 * p[:, :, 1] + 0.114 * p[:, :, 2]
    cb = -0.168736 * p[:, :, 0] - 0.331264 * p[:, :, 1] + 0.5 * p[:, :, 2] + 128.0
    cr = 0.5 * p[:, :, 0] - 0.418688 * p[:, :, 1] - 0.081312 * p[:, :, 2] + 128.0
    qt = (_scaled_qtable(Q_LUM, quality), _scaled_qtable(Q_CHR, quality))
    comp_zz = []
    for c, chan in enumerate((y, cb, cr)):
        blocks = _blockify(chan) - 128.0
        f = _C @ blocks @ _C.T  # batched 2-D DCT
        q = qt[min(c, 1)].reshape(8, 8)
        # clamp to ±1023 (category ≤ 10 for AC, DC diff ≤ 2046 → category
        # ≤ 11): keeps every symbol inside the baseline Annex K tables even
        # at quality 100 / unit quantizers, where a full-scale basis block
        # could otherwise reach ±1024 and have no Huffman symbol
        coef = np.clip(np.round(f / q), -1023, 1023).astype(np.int64)
        comp_zz.append(coef.reshape(-1, 64)[:, ZIGZAG])
    scan = _emit_scan(comp_zz)

    def seg(marker: int, payload: bytes) -> bytes:
        return struct.pack(">HH", marker, len(payload) + 2) + payload

    out = b"\xff\xd8"  # SOI
    out += seg(0xFFE0, b"JFIF\x00\x01\x01\x00" + struct.pack(">HHBB", 1, 1, 0, 0))
    dqt = b""
    for tq, q in enumerate(qt):
        dqt += bytes([tq]) + bytes(q[ZIGZAG].astype(np.uint8))  # zigzag order
    out += seg(0xFFDB, dqt)
    sof = struct.pack(">BHHB", 8, h, w, 3)
    for cid, tq in ((1, 0), (2, 1), (3, 1)):
        sof += bytes([cid, 0x11, tq])  # H=V=1 (4:4:4)
    out += seg(0xFFC0, sof)
    out += seg(0xFFC4, _dht_payload())
    sos = b"\x03" + bytes([1, 0x00, 2, 0x11, 3, 0x11]) + b"\x00\x3f\x00"
    out += seg(0xFFDA, sos)
    out += scan + b"\xff\xd9"  # EOI
    return out


# ------------------------------------------------------------------- decoder

# One fused 16-bit-peek table per DHT payload (class, BITS, HUFFVAL bytes),
# built once per worker process. An entry is one tuple shared by every peek
# that starts with its code (and, when they fit, its value bits):
# - AC: (bits, k_advance, value) for a coefficient whose code and value
#   bits fit the peek; (bits, 0, 0) for EOB and (bits, 16, 0) for ZRL;
#   (0, symbol << 8 | code_length, 0) for a longer code + value, and
#   (0, 0, 0) for a prefix that is no code.
# - DC: (bits, value) when the code and value bits fit the peek;
#   (0, symbol << 8 | code_length) otherwise, (0, 0) for no code.
# A coefficient's value is never 0, so ``value == 0`` marks every AC entry
# that is not a plain coefficient.
def _tables() -> dict[bytes, list]:
    return per_process("georay.jpeg.huffman", dict)


def _huffman_table(seg: bytes) -> list:
    """Fused table for one DHT table segment ``Tc/Th + BITS + HUFFVAL``."""
    tables = _tables()
    lut = tables.get(seg)
    if lut is None:
        lut = _fused_table(seg[0] >> 4, seg[1:17], seg[17:])
        tables[seg] = lut
    return lut


def _fused_table(ac: int, bits: bytes, vals: bytes) -> list:
    lut = [(0, 0, 0) if ac else (0, 0)] * 65536
    code, k = 0, 0
    for ln in range(1, 17):
        for _ in range(bits[ln - 1]):
            sym = vals[k]
            s = sym & 0xF if ac else sym
            lo = code << (16 - ln)
            hi = (code + 1) << (16 - ln)
            if ac and sym in (0x00, 0xF0):  # EOB, ZRL
                lut[lo:hi] = [(ln, 16 if sym else 0, 0)] * (hi - lo)
            elif ln + s > 16 or (ac and s == 0):
                # value bits run past the peek (or a size-0 AC symbol
                # besides EOB/ZRL): decoded from the symbol, not the entry
                slow = (sym << 8) | ln
                lut[lo:hi] = [(0, slow, 0) if ac else (0, slow)] * (hi - lo)
            else:
                span = 1 << (16 - ln - s)
                for vb in range(1 << s):
                    v = vb if s == 0 or vb >> (s - 1) else vb - (1 << s) + 1
                    e = (ln + s, (sym >> 4) + 1, v) if ac else (ln + s, v)
                    at = lo + vb * span
                    lut[at:at + span] = [e] * span
            code += 1
            k += 1
        code <<= 1
    return lut


# bit offset within a byte -> right shift of its 24-bit window to the
# 16-bit peek starting there
_PEEK_SHIFTS = np.arange(8, 0, -1, dtype=np.uint32)


def decode_jpeg(data: bytes) -> np.ndarray:
    """Baseline JFIF bytes → (h, w, 3) uint8 RGB.

    Supports the profile this engine emits (and the common subset of real
    baseline files): SOF0, 8-bit, 1 or 3 components, 1×1 sampling (4:4:4),
    no restart markers, no progressive scans. Raises ValueError on anything
    else or on corrupt streams."""
    if len(data) < 4 or data[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (missing SOI)")
    pos = 2
    qtables: dict[int, np.ndarray] = {}
    dc_luts: dict[int, list] = {}
    ac_luts: dict[int, list] = {}
    h = w = None
    comps: list[tuple[int, int]] = []  # (component id, quant table id)
    scan_comps: list[tuple[int, int, int]] = []  # (cid, dc table, ac table)
    scan_start = None
    while pos + 4 <= len(data):
        if data[pos] != 0xFF:
            raise ValueError("JPEG marker desync")
        marker = data[pos + 1]
        (ln,) = struct.unpack_from(">H", data, pos + 2)
        body = pos + 4
        end = pos + 2 + ln
        if marker == 0xDB:  # DQT
            q = body
            while q < end:
                pq_tq = data[q]
                if pq_tq >> 4 != 0:
                    raise ValueError("16-bit DQT unsupported")
                tbl = np.frombuffer(data, np.uint8, 64, q + 1).astype(np.int64)
                nat = np.empty(64, np.int64)
                nat[ZIGZAG] = tbl  # stored zigzag → natural
                qtables[pq_tq & 0xF] = nat
                q += 65
        elif marker == 0xC4:  # DHT
            q = body
            while q < end:
                tc_th = data[q]
                bits = data[q + 1: q + 17]
                nv = sum(bits)
                lut = _huffman_table(data[q: q + 17 + nv])
                (ac_luts if tc_th >> 4 else dc_luts)[tc_th & 0xF] = lut
                q += 17 + nv
        elif marker == 0xC0:  # SOF0 baseline
            prec, h, w, nc = struct.unpack_from(">BHHB", data, body)
            if prec != 8:
                raise ValueError("only 8-bit precision supported")
            for c in range(nc):
                cid, hv, tq = data[body + 6 + 3 * c: body + 9 + 3 * c]
                if hv != 0x11:
                    raise ValueError("subsampled JPEG unsupported (4:4:4 only)")
                comps.append((cid, tq))
        elif marker in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7,
                        0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise ValueError("non-baseline JPEG (SOF%d) unsupported" % (marker - 0xC0))
        elif marker == 0xDD:
            raise ValueError("restart intervals unsupported")
        elif marker == 0xDA:  # SOS
            ns = data[body]
            for c in range(ns):
                cid = data[body + 1 + 2 * c]
                tt = data[body + 2 + 2 * c]
                scan_comps.append((cid, tt >> 4, tt & 0xF))
            scan_start = end
            break
        pos = end
    if scan_start is None or h is None or not comps:
        raise ValueError("JPEG missing SOF/SOS")
    eoi = data.rfind(b"\xff\xd9")
    if eoi < scan_start:
        raise ValueError("JPEG missing EOI")
    eb = data[scan_start:eoi].replace(b"\xff\x00", b"\xff")

    nbx, nby = (w + 7) // 8, (h + 7) // 8
    n_mcu = nbx * nby
    ncomp = len(scan_comps)
    if ncomp != len(comps):
        raise ValueError("scan/frame component mismatch")

    # the 16-bit peek at every bit offset: one index per lookup (a peek at
    # or past the end of the stream raises IndexError -> "truncated")
    arr = np.frombuffer(eb + b"\x00\x00\x00", np.uint8).astype(np.uint32)
    w24 = (arr[:-3] << 16) | (arr[1:-2] << 8) | arr[2:-1]
    peek = memoryview((w24[:, None] >> _PEEK_SHIFTS).astype(np.uint16).ravel())
    limit = len(peek)

    luts = []
    for cid, tdc, tac in scan_comps:
        if tdc not in dc_luts or tac not in ac_luts:
            raise ValueError("scan references undefined Huffman table")
        luts.append((dc_luts[tdc], ac_luts[tac]))

    # zigzag-ordered coefficients, block b at [64 b, 64 b + 64); the 16
    # spare slots take a coefficient whose run passes the last block's end.
    # int64, not int32: a corrupt stream can push the DC predictor past
    # 2^31, which decodes (to clipped pixels) rather than overflowing
    n_coef = ncomp * n_mcu * 64
    zz = array("q", bytes(8 * (n_coef + 16)))
    pred = [0] * ncomp
    bitpos = 0
    try:
        for m in range(n_mcu):
            for c in range(ncomp):
                lut_dc, lut_ac = luts[c]
                slot = (c * n_mcu + m) << 6  # zz index of this block's k = 0
                nb, v = lut_dc[peek[bitpos]]
                if nb:
                    bitpos += nb
                else:  # code + value bits past the peek, or no code
                    if v == 0:
                        raise ValueError("invalid DC Huffman prefix")
                    s = v >> 8
                    bitpos += v & 0xFF
                    v = peek[bitpos] >> (16 - s)
                    bitpos += s
                    if v < (1 << (s - 1)):
                        v -= (1 << s) - 1
                pred[c] += v
                zz[slot] = pred[c]
                last = slot + 63
                while slot < last:
                    nb, ka, v = lut_ac[peek[bitpos]]
                    if v:
                        bitpos += nb
                        slot += ka
                        zz[slot] = v
                    elif nb:
                        bitpos += nb
                        if ka == 0:
                            break  # EOB
                        slot += 16  # ZRL: past k = 63 it ends the block
                        if slot > last:
                            slot = last
                    else:  # code + value bits past the peek, or no code
                        if ka == 0:
                            raise ValueError("invalid AC Huffman prefix")
                        bitpos += ka & 0xFF
                        sym = ka >> 8
                        slot += (sym >> 4) + 1
                        s = sym & 0xF
                        v = peek[bitpos] >> (16 - s)
                        bitpos += s
                        if v < (1 << (s - 1)):
                            v -= (1 << s) - 1
                        if slot > last:
                            raise ValueError("AC run past block end")
                        zz[slot] = v
                if slot > last:
                    # a table entry's run passed position 63; the stream
                    # is reported truncated instead when this symbol's
                    # value bits start at or past its end
                    if bitpos - abs(v).bit_length() >= limit:
                        raise ValueError("entropy stream truncated")
                    raise ValueError("AC run past block end")
            if bitpos > limit:
                raise ValueError("entropy stream truncated")
    except IndexError:
        raise ValueError("entropy stream truncated") from None

    coefs = np.zeros((ncomp * n_mcu, 64), np.float64)
    coefs[:, ZIGZAG] = np.frombuffer(zz, np.int64, n_coef).reshape(-1, 64)
    chans = []
    for c, (cid, tq) in enumerate(comps):
        if tq not in qtables:
            raise ValueError("frame references undefined quant table")
        blk = coefs[c * n_mcu:(c + 1) * n_mcu] * qtables[tq]
        blk = blk.reshape(-1, 8, 8)
        pix = _C.T @ blk @ _C + 128.0  # batched inverse DCT + level shift
        chans.append(_unblockify(pix, h, w))
    if ncomp == 1:
        g = np.clip(np.round(chans[0]), 0, 255).astype(np.uint8)
        return np.stack([g, g, g], axis=2)
    y, cb, cr = chans[0], chans[1] - 128.0, chans[2] - 128.0
    rgb = np.stack(
        [y + 1.402 * cr, y - 0.344136 * cb - 0.714136 * cr, y + 1.772 * cb],
        axis=2,
    )
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)
