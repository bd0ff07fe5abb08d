"""The benchmark's workloads: how each input is built from a seed, and the job run on it.

Every input is a function of the workload seed alone.  The library sees
only the generated tensor (in memory) and the files written from it (on
the CLI path); it never sees the seed that made the data.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

import tubal


@dataclass(frozen=True)
class Workload:
    """One named job: an input builder and the parameters every phase runs with.

    ``make(seed)`` returns the tensor.  ``files`` is "tns" (one TNS1 file,
    CLI ``adaptive --save-factors``) or "pgm" (one image per frontal slice,
    CLI ``compress``).  ``eps`` is the relative error bound of the
    adaptive run, ``rank`` the fixed rank r_w of the truncated and
    randomized t-SVD phases.  Every workload runs with POWER and OVERSAMPLE.
    """

    name: str
    make: Callable[[int], np.ndarray]
    files: str
    eps: float
    block: int
    rank: int


POWER = 1       # power iterations of adaptive_qb and randomized_tsvd
OVERSAMPLE = 5  # oversampling of randomized_tsvd

CUBE_DELTA = 0.01       # noise level of gen_synthetic's exact-lowrank case
IMAGE_CORR = 1.0        # correlation length of the texture, in pixels
IMAGE_TEXTURE = 0.15    # texture amplitude
IMAGE_NOISE = 0.01      # per-pixel noise amplitude
IMAGE_RHO = 0.9         # AR(1) coefficient of the texture across frames
TUBES_DECAY = 0.93      # weight ratio of successive separable terms
TUBES_NOISE = 0.01      # noise norm relative to the clean tensor's


def cube_lowrank(seed: int, n: int = 200, rank: int = 10) -> np.ndarray:
    """The library's own exact-lowrank generator: the paper's headline problem."""
    spec = tubal.SyntheticSpec(case="exact-lowrank", n=n, rank=rank, delta=CUBE_DELTA,
                               seed=tubal.RngStream(seed))
    return tubal.gen_synthetic(spec)


def image_stack(seed: int, height: int = 240, width: int = 320, frames: int = 24) -> np.ndarray:
    """8-bit frames: a smooth gradient, a textured field drifting frame to frame, noise.

    The texture is white noise low-pass filtered to correlation length
    IMAGE_CORR pixels and mixed across frames as an AR(1) process with
    coefficient IMAGE_RHO; its fine grain is what makes ~100 lateral slices
    necessary at a 5 % bound.  Values are quantized to k/255 exactly as
    a PGM loader would return them.
    """
    g = np.random.default_rng(seed)
    rho = IMAGE_RHO
    ky = np.fft.fftfreq(height)[:, None]
    kx = np.fft.rfftfreq(width)[None, :]
    lowpass = np.exp(-2.0 * (np.pi * IMAGE_CORR) ** 2 * (ky ** 2 + kx ** 2))
    yy, xx = np.mgrid[0:height, 0:width]
    phase = xx / width * g.uniform(0.5, 1.5) + yy / height * g.uniform(0.5, 1.5)
    base = 0.45 + 0.15 * np.sin(2.0 * np.pi * phase)
    field = np.zeros((height, width))
    images = []
    for k in range(frames):
        innov = np.fft.irfft2(np.fft.rfft2(g.standard_normal((height, width))) * lowpass,
                              s=(height, width))
        innov /= innov.std()
        field = rho * field + np.sqrt(1.0 - rho * rho) * innov if k else innov
        frame = base + IMAGE_TEXTURE * field + IMAGE_NOISE * g.standard_normal((height, width))
        images.append(np.rint(np.clip(frame, 0.0, 1.0) * 255.0).astype(np.uint8))
    return np.stack(images, axis=2).astype(np.float64) / 255.0


def long_tubes(seed: int, i1: int = 64, i2: int = 48, i3: int = 1001,
               comps: int = 30) -> np.ndarray:
    """Sum of ``comps`` separable terms a∘b∘c with random-walk tubes c, plus noise.

    Term i has weight TUBES_DECAY**i; the noise has norm TUBES_NOISE
    times that of the clean tensor.
    """
    g = np.random.default_rng(seed)
    a = g.standard_normal((i1, comps))
    b = g.standard_normal((i2, comps))
    c = np.cumsum(g.standard_normal((i3, comps)), axis=0)
    a /= np.linalg.norm(a, axis=0)
    b /= np.linalg.norm(b, axis=0)
    c /= np.linalg.norm(c, axis=0)
    x = np.einsum("ir,jr,kr->ijk", a * TUBES_DECAY ** np.arange(comps), b, c)
    e = g.standard_normal(x.shape)
    return x + TUBES_NOISE * np.linalg.norm(x) / np.linalg.norm(e) * e


WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="cube-lowrank", make=cube_lowrank, files="tns", eps=0.01, block=25, rank=10),
        Workload(name="image-stack", make=image_stack, files="pgm", eps=0.05, block=10, rank=100),
        Workload(name="long-tubes", make=long_tubes, files="tns", eps=0.02, block=8, rank=28),
    )
}

