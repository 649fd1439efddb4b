"""Shared numeric kernels: seeded RNG streams, Student-t tail, PCA, norms.

Matrices throughout the package are plain two-dimensional float64 numpy
arrays. The ``Rng`` generator exists so that every random draw in an
experiment is addressed by ``(seed, label)`` and is therefore reproducible
bit-for-bit regardless of call order anywhere else in the program.
"""

import hashlib
import math
import struct

import numpy as np


_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))  # Generator.choice's, on a law's sum


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Philox's two key words as its seed sequence: ``key=`` would build a
    ``SeedSequence`` from OS entropy only to throw it away."""
    __slots__ = ("words",)

    def __init__(self, words: tuple):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two 64-bit words")
        return self.words


class Rng(np.random.Generator):
    """Deterministic random stream keyed by a 64-bit seed and a text label:
    a numpy ``Generator``, so it draws with all of its methods.

    The bit generator is Philox (counter-based), keyed with a SHA-256 hash
    of ``(seed, label)``. Two instances built with the same seed and label
    emit identical sequences on any platform, and derived sub-streams are
    independent of how much the parent has been consumed.
    """

    def __init__(self, seed: int, label: str = "root"):
        self.seed = int(seed)
        self.label = label
        digest = hashlib.sha256(f"{self.seed}\x1f{label}".encode()).digest()
        # the words of Philox(key=int.from_bytes(digest[:16], "little"))
        super().__init__(np.random.Philox(_PhiloxKey(struct.unpack_from("<2Q", digest))))

    def choice(self, a, size=None, replace=True, p=None, axis=0, shuffle=True):
        """``Generator.choice``; a draw ``choice(n, p=law)`` from a 1-D float64
        law skips numpy's checks for its inverse-CDF draw, with the same index
        and stream, when the law is nonnegative, has at most 2**24 entries and
        sums to 1 within half numpy's tolerance, so that numpy's compensated
        sum would pass it too. Every other call goes to numpy."""
        if (size is None and replace and type(a) is int and 0 < a <= 1 << 24
                and type(p) is np.ndarray and p.dtype == np.float64 and p.shape == (a,)):
            cdf = p.cumsum()
            if abs(cdf[-1] - 1.0) <= _CHOICE_ATOL / 2 and p.min() >= 0.0:
                cdf /= cdf[-1]
                return int(cdf.searchsorted(self.random(), side="right"))
        return super().choice(a, size, replace, p, axis, shuffle)

    def derive(self, label: str) -> "Rng":
        """Fresh child stream for ``label``; does not consume this stream."""
        return Rng(self.seed, f"{self.label}/{label}")

    def __repr__(self):
        return f"Rng(seed={self.seed}, label={self.label!r})"
    __str__ = __repr__  # Generator's own names only the bit generator


def derive_seed(seed: int, *labels) -> int:
    """Stable non-negative 63-bit integer from a seed and a label path."""
    text = "/".join([str(int(seed))] + [str(part) for part in labels])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def l2_norm(v) -> float:
    """Euclidean norm of a vector; zero exactly when the vector is zero."""
    return float(np.linalg.norm(np.asarray(v, dtype=float)))


def student_t_sf(t_stat: float, dof: int) -> float:
    """Two-sided tail probability P(|T_dof| >= |t_stat|) at integer dof.

    One minus the finite series for P(|T| < t) (Abramowitz & Stegun
    26.7.3-4), with theta = atan(|t| / sqrt(dof)) and c = cos^2 theta:
    2/pi (theta + sin cos (1 + 2/3 c + 2*4/(3*5) c^2 + ...)) at odd dof
    (2 theta / pi at dof 1) and sin (1 + 1/2 c + 1*3/(2*4) c^2 + ...) at
    even, the last factor being (dof-3)/(dof-2): O(dof) work.
    """
    t_stat = float(t_stat)
    if not math.isfinite(t_stat):
        raise ValueError("invalid statistic")
    dof = int(dof)
    if dof < 1:
        raise ValueError("dof must be >= 1")
    theta = math.atan2(abs(t_stat), math.sqrt(dof))
    sin, cos = math.sin(theta), math.cos(theta)
    term = total = 1.0
    for k in range(dof % 2 + 2, dof - 1, 2):
        term *= cos * cos * (k - 1) / k
        total += term
    if dof % 2 == 0:
        inside = sin * total
    else:
        inside = 2.0 / math.pi * (theta + (sin * cos * total if dof > 1 else 0.0))
    return min(max(1.0 - inside, 0.0), 1.0)


def pca_project(points: np.ndarray, dims: int) -> np.ndarray:
    """Project mean-centered rows onto the top ``dims`` principal components.

    Components are ordered by descending eigenvalue of the sample
    covariance, and each component's sign is fixed so its
    largest-magnitude loading is positive. Data whose rows are all
    identical projects to the zero matrix.

    Args:
        points: (n, d) matrix, n >= 2.
        dims: number of components, 1 <= dims <= min(n, d).

    Returns:
        (n, dims) matrix of component scores.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D matrix")
    n, d = pts.shape
    if n < 2:
        raise ValueError("need at least 2 rows")
    if not 1 <= dims <= min(n, d):
        raise ValueError(f"dims must be in [1, {min(n, d)}], got {dims}")
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:dims]
    components = eigvecs[:, order]
    for j in range(components.shape[1]):
        k = int(np.argmax(np.abs(components[:, j])))
        if components[k, j] < 0:
            components[:, j] = -components[:, j]
    return centered @ components
