"""Image decode + invariant enforcement (SURVEY.md N7).

The stage runs as STATELESS TASKS that share one ``DecodeInvariant`` (and
its ground-truth cache) per worker process through ``runtime.per_process``,
however georay ships to the workers: Ray reuses worker processes, so the
cache amortizes exactly like actor state, while tasks pack elastically with
the read/shuffle stages. An actor pool reserves its CPUs, which on a small
node starves the parquet read running beside it; the task form measured 2×
end-to-end over the pool on 32 CPUs. ``image_features`` runs the same way
over one ``ImageTransform`` per process.

Per-row invariant (BASELINE.json:15): decoded pixels vs the deterministically
regenerated ground truth — exact equality for lossless fmts, PSNR ≥ 40 dB for
lossy — plus caption equality against the recomputed expected caption.
Batch size is capped in ROWS kept small because rows carry binary payloads
(SURVEY.md §7 "cap batch_size by bytes, not rows").
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from georay import codec, images
from georay.fixtures import PIXEL_PERIOD, pixel_index, row_coords
from georay.runtime import group_agg, per_process

PSNR_MIN = 40.0


class DecodeInvariant:
    """Decode each image, check the pixel + caption invariants.

    Output schema: every input column except the binary payload and the
    caption (verified then dropped), plus ok(bool), psnr(float64),
    dec_w, dec_h — so downstream stages (cell encode, tile assign) chain
    directly on the checked stream.
    """

    def __init__(self, check_caption: bool = True):
        self.check_caption = check_caption
        # per-process ground-truth cache: synth pixels are periodic in the
        # pixel index (PIXEL_PERIOD=768 distinct tensors, ~9 MB) — state
        # paying for itself across every batch the process sees
        self._truth: dict[int, np.ndarray] = {}

    def _ground_truth(self, pix: int) -> np.ndarray:
        # NOTE: PIXEL_PERIOD must be imported at module level — a lazy
        # `import georay...` executed ON A WORKER fails when the worker's
        # sys.path lacks the repo (by-value pickling ships objects, not
        # importability)
        key = pix % PIXEL_PERIOD
        t = self._truth.get(key)
        if t is None:
            t = images.synth_pixels(key)
            self._truth[key] = t
        return t

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        id_col = t["image_id"].combine_chunks() if isinstance(
            t["image_id"], pa.ChunkedArray
        ) else t["image_id"]
        # vectorized "img%012d" -> int (no Python string parsing)
        idx = pc.cast(pc.utf8_slice_codeunits(id_col, 3, 15), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        fmts = t["fmt"].to_pylist()
        blobs = t["bytes"].to_pylist()
        n = len(fmts)
        pix_idx = pixel_index(idx)
        caption_ok = np.ones(n, dtype=bool)
        if self.check_caption:
            lon, lat = row_coords(idx)
            gh = codec.encode_str(lon, lat, 5)
            expected = pc.binary_join_element_wise(
                pa.scalar("caption for "),
                id_col,
                pa.scalar(": "),
                pa.array(gh.astype("U")),
                pa.scalar(""),  # separator
            )
            caption_ok = pc.equal(t["caption"], expected).to_numpy(
                zero_copy_only=False
            )
        ok = np.zeros(n, dtype=bool)
        psnr_v = np.zeros(n, dtype=np.float64)
        ws = np.zeros(n, dtype=np.int32)
        hs = np.zeros(n, dtype=np.int32)
        for k in range(n):
            try:
                pixels = images.decode_image(blobs[k], fmts[k])
            except Exception:
                continue
            hs[k], ws[k] = pixels.shape[0], pixels.shape[1]
            truth = self._ground_truth(int(pix_idx[k]))
            if truth.shape != pixels.shape:
                continue
            if fmts[k] not in images.LOSSY_FORMATS:
                pixel_ok = np.array_equal(truth, pixels)
                psnr_v[k] = 99.0 if pixel_ok else images.psnr(truth, pixels)
            else:
                p = images.psnr(truth, pixels)
                psnr_v[k] = p if np.isfinite(p) else 99.0
                pixel_ok = p >= PSNR_MIN
            ok[k] = pixel_ok and caption_ok[k]
        cols = {
            name: t[name]
            for name in t.column_names
            if name not in ("bytes", "caption")
        }
        cols["ok"] = pa.array(ok)
        cols["psnr"] = pa.array(psnr_v)
        cols["dec_w"] = pa.array(ws)
        cols["dec_h"] = pa.array(hs)
        return pa.table(cols)


def _decode_invariant_batch(t: pa.Table) -> pa.Table:
    """Stateless-task form: per-worker-process DecodeInvariant instance."""
    return per_process("georay-decode-invariant", DecodeInvariant)(t)


def decode_invariant(ds):
    """Run decode+invariant over an images Dataset: stateless tasks with
    per-process cached state (elastic CPU sharing with the read stage)."""
    return ds.map_batches(
        _decode_invariant_batch, batch_format="pyarrow", batch_size=512
    )


def resize_bilinear(pixels: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Pure-numpy bilinear resize (no PIL in the sandbox — SURVEY.md §7)."""
    h, w, c = pixels.shape
    ys = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    wy = np.clip(ys - y0, 0, 1)[:, None, None]
    wx = np.clip(xs - x0, 0, 1)[None, :, None]
    p = pixels.astype(np.float64)
    top = p[y0][:, x0] * (1 - wx) + p[y0][:, x1] * wx
    bot = p[y1][:, x0] * (1 - wx) + p[y1][:, x1] * wx
    return np.clip(top * (1 - wy) + bot * wy + 0.5, 0, 255).astype(np.uint8)


class ImageTransform:
    """Per-process stage state: decode → resize to a thumbnail → extract cheap
    features (mean RGB, luma std, content hash of the thumbnail). Output:
    image_id, thumb (binary, q6-encoded WxH thumbnail), mean_r/g/b,
    luma_std, thumb_hash."""

    def __init__(self, thumb_w: int = 16, thumb_h: int = 16):
        self.tw, self.th = thumb_w, thumb_h

    def __call__(self, t: pa.Table) -> pa.Table:
        fmts = t["fmt"].to_pylist()
        blobs = t["bytes"].to_pylist()
        n = len(fmts)
        thumbs, mr, mg, mb, lstd, thash = [], [], [], [], [], []
        for k in range(n):
            px = images.decode_image(blobs[k], fmts[k])
            th = resize_bilinear(px, self.tw, self.th)
            thumbs.append(images.encode_image(th, "q6"))
            mr.append(float(px[:, :, 0].mean()))
            mg.append(float(px[:, :, 1].mean()))
            mb.append(float(px[:, :, 2].mean()))
            luma = 0.299 * px[:, :, 0] + 0.587 * px[:, :, 1] + 0.114 * px[:, :, 2]
            lstd.append(float(luma.std()))
            thash.append(np.uint64(images.content_hash64(th)).astype(np.int64))
        return pa.table(
            {
                "image_id": t["image_id"],
                "thumb": pa.array(thumbs, pa.binary()),
                "mean_r": pa.array(mr),
                "mean_g": pa.array(mg),
                "mean_b": pa.array(mb),
                "luma_std": pa.array(lstd),
                "thumb_hash": pa.array(np.asarray(thash, np.int64)),
            }
        )


def image_features(ds, thumb: tuple[int, int] = (16, 16)):
    """Decode → thumbnail → feature columns, as stateless tasks over one
    ``ImageTransform`` per worker process (see module docstring)."""

    def fn(t: pa.Table) -> pa.Table:
        key = f"georay-image-transform-{thumb}"
        return per_process(key, lambda: ImageTransform(*thumb))(t)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=512)


def audio_features(ds, frame_len: int = 1024):
    """Audio feature extraction for opaque binary audio columns (the
    multimodal-column pattern, SURVEY.md N7 family).

    Two REAL containers decode in pure numpy: ``rawa`` (little-endian
    header ``<IH``: sample_rate, channels, then int16 PCM) and ``wav``
    (RIFF/WAVE PCM16 — a genuine chunk walk, ``images.decode_wav``).
    Lossy-compressed formats (mp3/flac/...) raise ``NotImplementedError``
    (no audio codec libs in this sandbox). Output per row: duration_ms,
    rms, peak, zero_crossings, n_frames — all vectorized numpy.
    """

    def fn(t: pa.Table) -> pa.Table:
        fmts = t["fmt"].to_pylist()
        blobs = t["bytes"].to_pylist()
        ids = t["audio_id"].to_pylist()
        dur, rms, peak, zc, nf = [], [], [], [], []
        for fmt, blob in zip(fmts, blobs):
            import struct

            if fmt == "rawa":
                rate, chans = struct.unpack_from("<IH", blob, 0)
                pcm = np.frombuffer(blob, dtype=np.int16, offset=6)
            elif fmt == "wav":
                rate, chans, pcm = images.decode_wav(blob)
            else:
                raise NotImplementedError(
                    f"audio codec {fmt!r} unavailable in this sandbox (no audio libs)"
                )
            if chans > 1:
                pcm = pcm.reshape(-1, chans).mean(axis=1)
            x = pcm.astype(np.float64) / 32768.0
            dur.append(int(x.size / rate * 1000))
            rms.append(float(np.sqrt(np.mean(x * x))) if x.size else 0.0)
            peak.append(float(np.abs(x).max()) if x.size else 0.0)
            zc.append(int(np.count_nonzero(np.diff(np.signbit(x)))))
            nf.append(int(np.ceil(x.size / frame_len)))
        return pa.table(
            {
                "audio_id": pa.array(ids, pa.string()),
                "duration_ms": pa.array(dur, pa.int64()),
                "rms": pa.array(rms),
                "peak": pa.array(peak),
                "zero_crossings": pa.array(zc, pa.int64()),
                "n_frames": pa.array(nf, pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=256)


def sample_video_frames(ds, every_n: int = 10):
    """Frame-sampling stage for video payloads (SURVEY.md N7 family).

    Two REAL containers parse in pure numpy: ``rawv`` (bare ``<HHH``
    w,h,nf header + concatenated frames) and ``y4m`` (YUV4MPEG2 — a
    genuine parameter-line + per-FRAME-marker walk, ``images.decode_y4m``;
    C444 planes, payload = w·h·3 bytes/frame). Compressed codecs
    (h264/vp9/...) raise ``NotImplementedError`` (no ffmpeg in this
    sandbox). The flat-map shape is the point: 1 video row → ⌈nf/every_n⌉
    frame rows, frames sliced zero-copy out of the blob.
    """

    def fn(t: pa.Table) -> pa.Table:
        fmts = t["fmt"].to_pylist()
        blobs = t["bytes"].to_pylist()
        ids = t["video_id"].to_pylist()
        out_id, out_frame, out_blob = [], [], []
        for vid, fmt, blob in zip(ids, fmts, blobs):
            if fmt == "rawv":
                w, h, nf = np.frombuffer(blob[:6], dtype=np.uint16)
                frame_bytes = int(w) * int(h) * 3
                for f in range(0, int(nf), every_n):
                    start = 6 + f * frame_bytes
                    out_id.append(vid)
                    out_frame.append(f)
                    out_blob.append(blob[start: start + frame_bytes])
            elif fmt == "y4m":
                _w, _h, frames = images.decode_y4m(blob)
                for f in range(0, frames.shape[0], every_n):
                    out_id.append(vid)
                    out_frame.append(f)
                    out_blob.append(frames[f].tobytes())
            else:
                raise NotImplementedError(
                    f"video codec {fmt!r} unavailable in this sandbox (no ffmpeg)"
                )
        return pa.table(
            {
                "video_id": pa.array(out_id, pa.string()),
                "frame_idx": pa.array(out_frame, pa.int64()),
                "frame_rgb": pa.array(out_blob, pa.binary()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=64)


def scene_cuts(ds, thresh_per_byte: int = 7):
    """Scene-cut detection over video payloads: per video, the per-frame
    byte-sum signature is diffed frame-to-frame and a cut is declared where
    ``|Δsum| > thresh_per_byte · frame_bytes`` (a mean per-byte shift above
    the threshold). A video's frames live inside its ONE blob row, so the
    whole detector is an embarrassingly-parallel ``map_batches`` — no
    shuffle, no frame explosion; only (video_id, n_frames, n_cuts) leaves
    the stage. Same rawv/y4m codec boundary as
    :func:`sample_video_frames` (no ffmpeg in this sandbox).

    Real scene-cut detectors swap the byte-sum signature for a color
    histogram or feature distance per frame — the plumbing (in-blob frame
    walk, per-video vectorized diff) is identical.
    """

    def fn(t: pa.Table) -> pa.Table:
        fmts = t["fmt"].to_pylist()
        blobs = t["bytes"].to_pylist()
        ids = t["video_id"].to_pylist()
        n = len(blobs)
        n_frames = np.zeros(n, np.int64)
        n_cuts = np.zeros(n, np.int64)
        for j, (fmt, blob) in enumerate(zip(fmts, blobs)):
            if fmt == "rawv":
                w, h, nf = np.frombuffer(blob[:6], dtype=np.uint16)
                fb = int(w) * int(h) * 3
                # all frames of one video in ONE vectorized pass
                fr = np.frombuffer(blob, dtype=np.uint8, count=int(nf) * fb,
                                   offset=6).reshape(int(nf), fb)
            elif fmt == "y4m":
                w, h, fr = images.decode_y4m(blob)
                fb, nf = int(w) * int(h) * 3, fr.shape[0]
            else:
                raise NotImplementedError(
                    f"video codec {fmt!r} unavailable in this sandbox"
                    " (no ffmpeg)"
                )
            sums = fr.sum(axis=1, dtype=np.int64)
            n_frames[j] = int(nf)
            n_cuts[j] = int(
                (np.abs(np.diff(sums)) > thresh_per_byte * fb).sum()
            )
        return pa.table(
            {
                "video_id": pa.array(ids, pa.string()),
                "n_frames": pa.array(n_frames),
                "n_cuts": pa.array(n_cuts),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=64)


def sharpness(ds, out_col: str = "sharp"):
    """image_id + integer Laplacian-energy sharpness per image — the
    classic blur-detection signal (variance-of-Laplacian family) an
    image-curation pipeline thresholds on. All-integer and exact: luma is
    the milli-weighted 299R+587G+114B int32 plane, the 4-neighbor
    Laplacian is an int64 difference field, and the score is Σ lap² over
    interior pixels (|lap| ≤ 8·255·10³ → 64×64 images stay < 2⁵⁵).
    Stateless tasks; the per-image decode loop is inherent to
    variable-size codecs (same shape as image_features)."""

    def fn(t: pa.Table) -> pa.Table:
        fmts = t["fmt"].to_pylist()
        blobs = t["bytes"].to_pylist()
        out = np.empty(len(fmts), dtype=np.int64)
        for k in range(len(fmts)):
            px = images.decode_image(blobs[k], fmts[k]).astype(np.int64)
            lum = px[:, :, 0] * 299 + px[:, :, 1] * 587 + px[:, :, 2] * 114
            lap = (4 * lum[1:-1, 1:-1] - lum[:-2, 1:-1] - lum[2:, 1:-1]
                   - lum[1:-1, :-2] - lum[1:-1, 2:])
            out[k] = int((lap * lap).sum())
        return pa.table({"image_id": t["image_id"], out_col: pa.array(out)})

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=512)


def perceptual_hashes(ds, out_col: str = "ahash"):
    """image_id + 64-bit perceptual aHash per image: decode → grayscale
    8×8 block means → median threshold (images.ahash64). Stateless tasks;
    the per-image decode loop is inherent to variable-size codecs (same
    shape as image_features). Feed the output into
    ops/minhash.hamming_near_dup_pairs for visual near-dup search — unlike
    the avalanching content ``phash`` (exact dedup), aHash Hamming distance
    is a similarity metric."""

    def fn(t: pa.Table) -> pa.Table:
        fmts = t["fmt"].to_pylist()
        blobs = t["bytes"].to_pylist()
        out = np.empty(len(fmts), dtype=np.int64)
        for k in range(len(fmts)):
            px = images.decode_image(blobs[k], fmts[k])
            out[k] = np.uint64(images.ahash64(px)).astype(np.int64)
        return pa.table({"image_id": t["image_id"], out_col: pa.array(out)})

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=512)


def dedup_by_phash(ds):
    """Exact first-wins dedup on the content hash: only (phash, image_idx)
    pairs reach the combine, never the binary payloads (SURVEY.md N8)."""

    def project(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # vectorized "img%012d" -> int (no Python string loop)
        idx = pc.cast(pc.utf8_slice_codeunits(t["image_id"], 3, 15), pa.int64())
        return pa.table({"phash": t["phash"], "idx": idx})

    return group_agg(
        ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
        "phash", {"first_id": ("min", "idx"), "n_copies": ("count", None)},
    ).select_columns(["first_id", "n_copies"])
