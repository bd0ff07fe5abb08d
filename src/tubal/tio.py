"""Tensor and image file I/O.

TNS1 format: bytes 0-3 are the magic ``TNS1``; bytes 4-27 are three
unsigned 64-bit little-endian dimensions I1, I2, I3; the payload is
I1*I2*I3 IEEE-754 binary64 little-endian values in linear-offset order
(first mode fastest, frontal slices contiguous).  No padding, no checksum.
"""

import os
import re
from pathlib import Path

import numpy as np

from .core import as_tensor3
from .errors import (
    BadHeader,
    BadMagic,
    DimMismatch,
    DimOverflow,
    EmptyDir,
    InconsistentDims,
    TruncatedFile,
)

TNS_MAGIC = b"TNS1"

# Refuse headers whose element count could not fit in memory anyway.
MAX_ELEMENTS = 2**48

# A PGM header's four tokens (magic, width, height, maxval), after optional
# separators and between separators: whitespace, or a # comment to the end
# of its line.
_PGM_SEP = rb"(?:\s|#[^\n]*(?:\n|\Z))"
_PGM_HEADER = re.compile(_PGM_SEP + b"*" + (_PGM_SEP + b"+").join([rb"([^\s#]+)"] * 4))


def save_tns(x: np.ndarray, path) -> None:
    """Write a tensor to ``path`` in TNS1 format; load_tns, too, needs every dimension >= 1."""
    x = as_tensor3(x)
    i1, i2, i3 = x.shape
    if min(i1, i2, i3) < 1:
        raise DimMismatch(f"TNS1 dimensions must be >= 1, got {x.shape}")
    header = TNS_MAGIC + np.array([i1, i2, i3], dtype="<u8").tobytes()
    with open(path, "wb") as f:
        f.write(header)
        # The transpose of an F-ordered x is C-contiguous, in linear-offset order.
        np.asfortranarray(x, dtype="<f8").T.tofile(f)


def load_tns(path) -> np.ndarray:
    """Read a TNS1 file back into a writable, Fortran-ordered tensor; the round trip is bit-exact.

    The header and the file size are checked before the payload is read
    straight into the tensor's memory.
    """
    with open(path, "rb") as f:
        header = f.read(28)
        if header[:4] != TNS_MAGIC:
            raise BadMagic(f"{path}: expected magic {TNS_MAGIC!r}, got {header[:4]!r}")
        if len(header) < 28:
            raise TruncatedFile(f"{path}: header needs 28 bytes, file has {len(header)}")
        i1, i2, i3 = (int(d) for d in np.frombuffer(header[4:], dtype="<u8"))
        if min(i1, i2, i3) < 1 or i1 * i2 * i3 > MAX_ELEMENTS:
            raise DimOverflow(f"{path}: unusable dimensions {(i1, i2, i3)}")
        expected = 28 + 8 * i1 * i2 * i3
        size = os.fstat(f.fileno()).st_size
        if size != expected:
            raise TruncatedFile(
                f"{path}: dims {(i1, i2, i3)} imply {expected} bytes, file has {size}"
            )
        flat = np.fromfile(f, dtype="<f8", count=i1 * i2 * i3)
    if flat.size != i1 * i2 * i3:
        raise TruncatedFile(f"{path}: payload ended after {flat.size} values")
    return as_tensor3(flat.reshape((i1, i2, i3), order="F"))


def _read_pgm_tokens(raw: bytes, path) -> tuple:
    """Parse a P5 header, returning (width, height, maxval, payload offset)."""
    m = _PGM_HEADER.match(raw)
    if m is None:
        raise BadHeader(f"{path}: incomplete PGM header")
    tokens = m.groups()
    if tokens[0] != b"P5":
        raise BadHeader(f"{path}: not a binary (P5) PGM, got {tokens[0]!r}")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise BadHeader(f"{path}: non-numeric PGM header fields") from None
    if width < 1 or height < 1:
        raise BadHeader(f"{path}: bad PGM dimensions {width}x{height}")
    if maxval != 255:
        raise BadHeader(f"{path}: only 8-bit PGM (maxval 255) is supported, got {maxval}")
    # A single whitespace byte separates maxval from the raster.
    return width, height, maxval, m.end() + 1


def load_pgm(path) -> np.ndarray:
    """Load one binary 8-bit PGM as a (height, width) array scaled to [0, 1]."""
    with open(path, "rb") as f:
        raw = f.read()
    width, height, _, offset = _read_pgm_tokens(raw, path)
    need = width * height
    pixels = np.frombuffer(raw[offset:offset + need], dtype=np.uint8)
    if pixels.size < need:
        raise BadHeader(f"{path}: raster has {pixels.size} of {need} pixels")
    return pixels.reshape(height, width).astype(np.float64) / 255.0


def save_pgm(path, image: np.ndarray) -> None:
    """Write a [0, 1]-valued matrix as a binary 8-bit PGM, clipping out-of-range values."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise DimMismatch("PGM image must be a matrix")
    data = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    height, width = img.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (width, height))
        f.write(data.tobytes())


def pgm_files(dir_path) -> list:
    """The ``*.pgm`` files of a directory in lexicographic order: the frontal slice order."""
    d = Path(dir_path)
    if not d.is_dir():
        raise EmptyDir(f"{dir_path} is not a directory")
    files = sorted(p for p in d.iterdir() if p.suffix.lower() == ".pgm")
    if not files:
        raise EmptyDir(f"no .pgm files in {dir_path}")
    return files


def load_pgm_stack(source) -> np.ndarray:
    """Load PGM images as one tensor whose frontal slices are the images.

    source is a directory, read in pgm_files order, or a list of PGM files,
    read in the order given.  The result, (height, width, num_images) in [0, 1],
    is not rescanned: the loader checks the frames' count and shape, each uint8 / 255.
    """
    files = pgm_files(source) if isinstance(source, (str, os.PathLike)) else list(source)
    if not files:
        raise EmptyDir("no .pgm files to stack")
    images = [load_pgm(p) for p in files]
    shape = images[0].shape
    for p, img in zip(files, images):
        if img.shape != shape:
            raise InconsistentDims(
                f"{p}: size {img.shape} differs from first image {shape}"
            )
    return np.stack(images, axis=2)


def save_pgm_stack(dir_path, x: np.ndarray, names=None) -> None:
    """Write frontal slices of a tensor as numbered (or given) PGM files.

    x is checked by as_tensor3 and names, if given, must hold one file name
    per frontal slice, before any directory or file is written.
    """
    x = as_tensor3(x)
    count = x.shape[2]
    if names is None:
        names = [f"slice{k:04d}.pgm" for k in range(count)]
    if len(names) != count:
        raise DimMismatch(f"{len(names)} names for {count} frontal slices")
    os.makedirs(dir_path, exist_ok=True)
    for k in range(count):
        save_pgm(Path(dir_path) / names[k], x[:, :, k])
