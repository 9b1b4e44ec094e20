"""Deterministic synthetic image+caption table and tile polygons (FIXTURES.md
F1/F2 — the BASELINE.json input_hint shape).

The images table is generated DISTRIBUTED (``ray.data.range → map_batches``,
one deterministic row per index — layout identical to the 10^12-image
target), cached as partitioned parquet under ``/tmp/georay_cache``, and read
back with column pruning. Row semantics:

- ``image_id = f"img{i:012d}"``; ``w, h = 32+(i%4)*16, 32+(i%3)*16``;
  ``fmt`` cycles bmp/png/q6, except pixel-index % 16 == 5 rows are real
  baseline JPEG (georay/jpeg.py — the DCT-codec share of the corpus).
- pixels: :func:`georay.images.synth_pixels` (period 768 in the pixel index —
  the SQL-oracle handle for content dedup).
- duplicate injection: rows with ``i % 64 == 63`` carry the pixels/dims/fmt
  of row ``i-1`` (exact-dedup fixture → identical ``phash``).
- coords: the shared synthetic formulas, except every 10th row is pinned to
  one of 3 dense "urban" cells (skew fixture for salting).
- ``caption = f"caption for {image_id}: {geohash5}"``.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from georay import codec, images
from georay import io as gio
from georay.geometry import make_box_ring
from georay.ops.spatial import synth_lonlat

CACHE_ROOT = "/tmp/georay_cache"

# images per scale factor (dir basename -> rows)
N_IMAGES = {"sf0.001": 1_000, "sf0.01": 10_000, "sf0.1": 100_000}

HOT_CITIES = ((-74.006, 40.7128), (2.3522, 48.8566), (139.6917, 35.6895))
PIXEL_PERIOD = 768  # lcm of all i-periodicities in synth_pixels + dims

# bump whenever row synthesis OR file layout changes: stale /tmp caches from
# an older synthesis would otherwise silently break the range()-arithmetic
# oracles (v2: 2000-row shards — 25 shards at 100k images capped read/decode
# parallelism at 25 of 32 cpus; v3: odd audio/video rows carry REAL
# RIFF/WAVE and YUV4MPEG2 container bytes, same closed-form payloads;
# v4: pixel-index % 16 == 5 rows are REAL baseline JPEG, quality 97)
FIXTURE_VERSION = 4


def n_images_for(sf_dir: str) -> int:
    base = os.path.basename(os.path.normpath(sf_dir))
    return N_IMAGES.get(base, 1_000)


def row_coords(i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lon/lat per image row: shared synth formula + hot-cell override."""
    lon, lat = synth_lonlat(i)
    hot = (i % 10) == 0
    city = i % 3
    clon = np.array([c[0] for c in HOT_CITIES])
    clat = np.array([c[1] for c in HOT_CITIES])
    lon = np.where(hot, clon[city], lon)
    lat = np.where(hot, clat[city], lat)
    return lon, lat


def pixel_index(i: np.ndarray) -> np.ndarray:
    """Index whose synth_pixels output this row carries (dup injection)."""
    return np.where((i % 64) == 63, i - 1, i)


def make_image_rows(indices: np.ndarray) -> pa.Table:
    """One deterministic image row per index — the map_batches generator."""
    indices = np.asarray(indices, dtype=np.int64)
    pix_idx = pixel_index(indices)
    lon, lat = row_coords(indices)
    gh = codec.encode_str(lon, lat, 5)
    ids, blobs, ws, hs, fmts, captions, phashes = [], [], [], [], [], [], []
    for k in range(indices.size):
        i = int(indices[k])
        p = int(pix_idx[k])
        w, h = images.image_dims(p)
        fmt = images.image_fmt(p)
        pixels = images.synth_pixels(p, w, h)
        ids.append(f"img{i:012d}")
        blobs.append(images.encode_image(pixels, fmt))
        ws.append(w)
        hs.append(h)
        fmts.append(fmt)
        captions.append(f"caption for img{i:012d}: {gh[k].decode()}")
        phashes.append(np.uint64(images.content_hash64(pixels)).astype(np.int64))
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array(np.asarray(ws, np.int32)),
            "h": pa.array(np.asarray(hs, np.int32)),
            "fmt": pa.array(fmts, pa.string()),
            "caption": pa.array(captions, pa.string()),
            "phash": pa.array(np.asarray(phashes, np.int64)),
            "lon": pa.array(lon),
            "lat": pa.array(lat),
        }
    )


def ensure_images_table(sf_dir: str, cache_root: str = CACHE_ROOT) -> str:
    """Generate (once) and return the parquet dir of the images table for a
    scale. Distributed generation; atomic commit via done-marker."""
    return ensure_images_table_n(n_images_for(sf_dir), cache_root)


def ensure_images_table_n(n: int, cache_root: str = CACHE_ROOT) -> str:
    out = os.path.join(cache_root, f"images_{n}")
    marker = os.path.join(out, "_DONE")
    if os.path.exists(marker):
        with open(marker) as f:
            if f.read().strip() == f"v{FIXTURE_VERSION} n{n}":
                return out
        import shutil

        shutil.rmtree(out, ignore_errors=True)  # stale synthesis version
    import ray.data

    def gen(t: pa.Table) -> pa.Table:
        return make_image_rows(t["id"].to_numpy(zero_copy_only=False))

    tmp = out + ".tmp"
    import shutil

    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    (
        ray.data.range(n, override_num_blocks=max(4, n // 2000))
        .map_batches(gen, batch_format="pyarrow")
        .write_parquet(tmp)
    )
    os.replace(tmp, out)
    with open(marker, "w") as f:
        f.write(f"v{FIXTURE_VERSION} n{n}")
    return out


def read_images(sf_dir: str, columns: list[str] | None = None):
    """Ray Dataset over the (cached) images table. The IO facade: would be
    ``ray.data.read_lance`` when pylance is importable (SURVEY.md §7); this
    sandbox has parquet only.

    A read of the ``bytes`` column (or of every column) reads one parquet
    file per task with pyarrow, one block per file: Ray's reader spends ~3×
    the CPU on wide binary columns. Other column sets go through
    ``io.read_parquet``."""
    return _read_images_path(ensure_images_table(sf_dir), columns)


def read_images_n(n: int, columns: list[str] | None = None):
    """Same as read_images but keyed by explicit row count (scaling bench)."""
    return _read_images_path(ensure_images_table_n(n), columns)


# CPU request of the file-reading map_batches stages. It must differ from
# the default (1) so Ray never fuses the read with a downstream map_batches:
# fused, the downstream batch_size would apply to the PATHS input and a
# single task would read hundreds of files (measured 46 s vs 8 s). It must
# not exceed 1, or a 1-CPU node can never schedule the read.
READ_NUM_CPUS = 0.99


def _read_images_path(path: str, columns: list[str] | None):
    import glob

    import ray.data

    if columns is not None and "bytes" not in columns:
        # pruned scalar read: Ray's native reader is fine
        return gio.read_parquet(path, columns)
    # wide-binary read: Ray's parquet reader spends ~3× the CPU of a direct
    # pyarrow read on binary columns (measured 9.6s vs 2.9s for 9.6 GB);
    # read one file per task with pyarrow directly, one ~24 MB block each
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    cols = columns

    def readf(t: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        tabs = [pq.read_table(p, columns=cols) for p in t["path"].to_pylist()]
        return pa.concat_tables(tabs)

    return (
        ray.data.from_arrow(pa.table({"path": files}))
        .repartition(len(files))
        .map_batches(readf, batch_format="pyarrow", batch_size=1,
                     num_cpus=READ_NUM_CPUS)
    )


# ------------------------------------------------- audio / video (multimodal)

N_AUDIO = {"sf0.001": 200, "sf0.01": 2_000, "sf0.1": 20_000}
N_VIDEO = {"sf0.001": 100, "sf0.01": 1_000, "sf0.1": 10_000}
AUDIO_RATE = 8000


def n_audio_for(sf_dir: str) -> int:
    return N_AUDIO.get(os.path.basename(os.path.normpath(sf_dir)), 200)


def n_video_for(sf_dir: str) -> int:
    return N_VIDEO.get(os.path.basename(os.path.normpath(sf_dir)), 100)


def make_audio_rows(indices: np.ndarray) -> pa.Table:
    """Deterministic audio rows. All features have CLOSED FORMS in the
    row index — the SQL-oracle handle: n_samples = 800 + (i%5)·400,
    half-period p/2 = 4 + (i%7), amplitude 1000·(1 + i%3).

    Container alternates per row (v3): even i → ``rawa`` (bare header
    ``<IH`` + int16 PCM), odd i → ``wav`` (REAL RIFF/WAVE container,
    images.encode_wav) — the SAME square-wave PCM either way, so every
    oracle formula is container-independent while the wav rows exercise
    a genuine chunk-walk parse."""
    import struct

    indices = np.asarray(indices, dtype=np.int64)
    ids, fmts, blobs = [], [], []
    for i in indices.tolist():
        ns = 800 + (i % 5) * 400
        half_p = 4 + (i % 7)
        amp = 1000 * (1 + i % 3)
        k = np.arange(ns)
        pcm = np.where((k // half_p) % 2 == 0, amp, -amp).astype(np.int16)
        ids.append(f"aud{i:09d}")
        if i % 2:
            fmts.append("wav")
            blobs.append(images.encode_wav(pcm, AUDIO_RATE, 1))
        else:
            fmts.append("rawa")
            blobs.append(struct.pack("<IH", AUDIO_RATE, 1) + pcm.tobytes())
    return pa.table(
        {
            "audio_id": pa.array(ids, pa.string()),
            "fmt": pa.array(fmts, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
        }
    )


def make_video_rows(indices: np.ndarray) -> pa.Table:
    """Deterministic video rows. Frame byte k of frame f is
    ``(i·31 + f·7 + k) % 256`` — frame checksums have closed forms.
    w = 4+(i%3)·2, h = 4+(i%2)·2, nf = 10 + (i%11)·3.

    Container alternates per row (v3): even i → ``rawv`` (bare ``<HHH``
    w,h,nf header + concatenated frames), odd i → ``y4m`` (REAL
    YUV4MPEG2 container, C444 planes = exactly w·h·3 payload bytes per
    frame, images.encode_y4m) — the SAME frame payloads either way, so
    the per-frame byte-sum oracles are container-independent while the
    y4m rows exercise a genuine header/FRAME-marker parse."""
    indices = np.asarray(indices, dtype=np.int64)
    ids, fmts, blobs = [], [], []
    for i in indices.tolist():
        w, h, nf = 4 + (i % 3) * 2, 4 + (i % 2) * 2, 10 + (i % 11) * 3
        fb = w * h * 3
        f_idx = np.arange(nf)[:, None]
        k_idx = np.arange(fb)[None, :]
        frames = ((i * 31 + f_idx * 7 + k_idx) % 256).astype(np.uint8)
        ids.append(f"vid{i:09d}")
        if i % 2:
            fmts.append("y4m")
            blobs.append(images.encode_y4m(frames, w, h))
        else:
            fmts.append("rawv")
            header = np.array([w, h, nf], dtype=np.uint16).tobytes()
            blobs.append(header + frames.tobytes())
    return pa.table(
        {
            "video_id": pa.array(ids, pa.string()),
            "fmt": pa.array(fmts, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
        }
    )


def _ensure_media_table(kind: str, n: int, row_fn, cache_root: str) -> str:
    out = os.path.join(cache_root, f"{kind}_{n}")
    marker = os.path.join(out, "_DONE")
    if os.path.exists(marker):
        with open(marker) as f:
            if f.read().strip() == f"v{FIXTURE_VERSION} n{n}":
                return out
        import shutil

        shutil.rmtree(out, ignore_errors=True)
    import shutil

    import ray.data

    def gen(t: pa.Table) -> pa.Table:
        return row_fn(t["id"].to_numpy(zero_copy_only=False))

    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    (
        ray.data.range(n, override_num_blocks=max(4, n // 2000))
        .map_batches(gen, batch_format="pyarrow")
        .write_parquet(tmp)
    )
    os.replace(tmp, out)
    with open(marker, "w") as f:
        f.write(f"v{FIXTURE_VERSION} n{n}")
    return out


def read_audio(sf_dir: str, cache_root: str = CACHE_ROOT):
    path = _ensure_media_table(
        "audio", n_audio_for(sf_dir), make_audio_rows, cache_root
    )
    return gio.read_parquet(path)


def read_video(sf_dir: str, cache_root: str = CACHE_ROOT):
    path = _ensure_media_table(
        "video", n_video_for(sf_dir), make_video_rows, cache_root
    )
    return gio.read_parquet(path)


# ------------------------------------------------------------------ tiles (F2)


def make_tiles(n_tiles: int = 64, seed: int = 42):
    """Deterministic tile polygon table: (tile_id, zoom, ring). Mostly quads,
    25% perturbed into non-convex hexagons; one antimeridian-crossing pair
    (pre-split) and one pole-adjacent tile."""
    rng = np.random.RandomState(seed)
    ids, rings, zooms = [], [], []
    for t in range(n_tiles):
        z = 3 + t % 4
        lon0 = rng.uniform(-170, 130)
        lat0 = rng.uniform(-80, 60)
        w = rng.uniform(8, 30)
        h = rng.uniform(6, 20)
        if t % 4 == 3:  # non-convex hexagon (notched box)
            rx = np.array([lon0, lon0 + w, lon0 + w, lon0 + w / 2, lon0 + w / 2, lon0])
            ry = np.array([lat0, lat0, lat0 + h, lat0 + h, lat0 + h / 2, lat0 + h / 2])
        else:
            rx, ry = make_box_ring(lon0, lat0, w, h)
        ids.append(f"t{z}/{t}")
        zooms.append(z)
        rings.append((rx, ry))
    # antimeridian-crossing tile, pre-split into two rings sharing the id
    for part, (lo, hi) in enumerate([(170.0, 180.0), (-180.0, -172.0)]):
        ids.append("tam/0")
        zooms.append(3)
        rings.append(make_box_ring(lo, -10.0, hi - lo, 20.0))
    # pole-adjacent tile
    ids.append("tpole/0")
    zooms.append(3)
    rings.append(make_box_ring(-30.0, 80.0, 60.0, 9.9))
    return ids, zooms, rings
