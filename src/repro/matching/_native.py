"""Optional C fast lane for the kernel's uniform-instance hot loops.

One random instance at the ensemble scale tier (``k = 1000``) is ~2.8M
Mersenne draws of Fisher-Yates, two rank-matrix inversions and a
~``k ln k``-proposal Gale-Shapley loop.  Each is a few lines of integer
arithmetic, so this module compiles them once with the system C
compiler and loads them through :mod:`ctypes` — no build-time
dependency, no packaging step, no numpy, and no behavioural
difference:

* :meth:`NativeKernel.fy_fill` runs CPython's own MT19937
  (``genrand_uint32`` of ``Modules/_randommodule.c``) from the state
  ``rng.getstate()`` exposes, with the same ``_randbelow`` rejection
  loop as ``Random.shuffle``, and hands the advanced state back through
  ``rng.setstate`` — the rows *and* the generator's stream position
  are bit-identical to the pure-python shuffle;
* :meth:`NativeKernel.invert_rows` turns preference rows into rank rows;
* :meth:`NativeKernel.gs` is the displacement-chasing proposal loop of
  :func:`repro.matching.kernel.gs_rank_arrays`.

``tests/test_kernel.py`` holds the differentials against the
pure-python paths.  Availability is best-effort by design:

* no C compiler, a failed compile, an unwritable build directory, or
  ``REPRO_NATIVE=0`` all degrade silently to the pure-python path;
* the shared object is cached under ``build/native/`` next to the
  repository (or the system temp dir as a fallback) keyed by a hash of
  the C source, so edits recompile and repeated imports pay nothing.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import random
import shutil
import subprocess
import tempfile
from array import array
from pathlib import Path

__all__ = ["NativeKernel", "load"]

_C_SOURCE = r"""
#include <stdint.h>

#define MT_N 624
#define MT_M 397

/* The MT19937 state refill of CPython's genrand_uint32
 * (Modules/_randommodule.c). */
static void mt_twist(uint32_t *mt)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    for (; kk < MT_N - 1; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
    mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
}

/* The tempering of CPython's genrand_uint32, over a whole block. */
static void mt_temper(const uint32_t *mt, uint32_t *tempered)
{
    for (int kk = 0; kk < MT_N; kk++) {
        uint32_t y = mt[kk];
        y ^= (y >> 11);
        y ^= (y << 7) & 0x9d2c5680U;
        y ^= (y << 15) & 0xefc60000U;
        y ^= (y >> 18);
        tempered[kk] = y;
    }
}

/* nrows shuffled copies of [0..k), exactly as Random.shuffle draws
 * them.  mt is a getstate()-shaped state (624 words, then the index of
 * the next one) and is advanced in place.  The words are CPython's
 * genrand_uint32 (refill when the index runs off the end, then
 * temper), tempered a block at a time.  For a bound n the draw is
 * getrandbits(bit_length(n)) = word >> (32 - bit_length(n)), redrawn
 * while it lands at or above n. */
void repro_fy_fill(uint32_t *mt, int32_t k, int32_t nrows, int32_t *out)
{
    uint32_t tempered[MT_N];
    uint32_t index = mt[MT_N];
    if (index < MT_N)
        mt_temper(mt, tempered);
    for (int32_t r = 0; r < nrows; r++) {
        int32_t *row = out + (long)r * k;
        for (int32_t t = 0; t < k; t++)
            row[t] = t;
        for (int32_t i = k - 1; i > 0; i--) {
            uint32_t n = (uint32_t)i + 1u;
            int shift = __builtin_clz(n); /* 32 - bit_length(n) */
            uint32_t j;
            do {
                if (index >= MT_N) {
                    mt_twist(mt);
                    mt_temper(mt, tempered);
                    index = 0;
                }
                j = tempered[index++] >> shift;
            } while (j >= n);
            int32_t tmp = row[i];
            row[i] = row[(int32_t)j];
            row[(int32_t)j] = tmp;
        }
    }
    mt[MT_N] = index;
}

/* out[r] = the inverse permutation of rows[r] (the rank matrix of a
 * preference matrix).  Returns -1 on an entry outside [0, k). */
int repro_invert_rows(const int32_t *rows, int32_t nrows, int32_t k,
                      int32_t *out)
{
    for (int32_t r = 0; r < nrows; r++) {
        const int32_t *row = rows + (long)r * k;
        int32_t *inv = out + (long)r * k;
        for (int32_t i = 0; i < k; i++) {
            if ((uint32_t)row[i] >= (uint32_t)k)
                return -1;
            inv[row[i]] = i;
        }
    }
    return 0;
}

/* Deferred acceptance by displacement chasing; engaged[r] receives the
 * proposer matched to responder r.  Returns the proposal count, or -1
 * when a proposer runs off its list or names a responder outside
 * [0, k) (malformed input: the caller reruns the reference loop, which
 * raises). */
int64_t repro_gs(int32_t k, const int32_t *pref, const int32_t *rank,
                 int32_t *engaged, int32_t *next_choice)
{
    int64_t proposals = 0;
    for (int32_t r = 0; r < k; r++) {
        engaged[r] = -1;
        next_choice[r] = 0;
    }
    for (int32_t starter = 0; starter < k; starter++) {
        int32_t proposer = starter;
        while (proposer >= 0) {
            int32_t choice = next_choice[proposer];
            if (choice >= k)
                return -1;
            int32_t responder = pref[(long)proposer * k + choice];
            if ((uint32_t)responder >= (uint32_t)k)
                return -1;
            next_choice[proposer] = choice + 1;
            proposals++;
            int32_t incumbent = engaged[responder];
            if (incumbent < 0) {
                engaged[responder] = proposer;
                proposer = -1;
            } else {
                const int32_t *row = rank + (long)responder * k;
                if (row[proposer] < row[incumbent]) {
                    engaged[responder] = proposer;
                    proposer = incumbent;
                }
            }
        }
    }
    return proposals;
}
"""


def _address(buffer: array) -> int:
    return buffer.buffer_info()[0]


def _zeros(count: int) -> array:
    """A fresh ``array('i')`` of ``count`` zeros (one allocation, no
    temporary ``bytes``)."""
    return array("i", [0]) * count


def _is_int_matrix(matrix: object, cells: int) -> bool:
    """Whether ``matrix`` is an ``array('i')`` of at least ``cells`` entries,
    the only input the C loops may read."""
    return type(matrix) is array and matrix.typecode == "i" and len(matrix) >= cells


class NativeKernel:
    """ctypes façade over the compiled helpers; matrices are flat
    ``array('i')`` buffers, row-major."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._fy_fill = lib.repro_fy_fill
        self._fy_fill.restype = None
        self._fy_fill.argtypes = (
            ctypes.c_void_p,
            ctypes.c_int32,
            ctypes.c_int32,
            ctypes.c_void_p,
        )
        self._invert = lib.repro_invert_rows
        self._invert.restype = ctypes.c_int
        self._invert.argtypes = (
            ctypes.c_void_p,
            ctypes.c_int32,
            ctypes.c_int32,
            ctypes.c_void_p,
        )
        self._gs = lib.repro_gs
        self._gs.restype = ctypes.c_int64
        self._gs.argtypes = (
            ctypes.c_int32,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
        )

    def fy_fill(self, rng: random.Random, k: int, nrows: int) -> array:
        """``nrows`` shuffled copies of ``range(k)`` drawn from ``rng``,
        as one ``nrows x k`` matrix; ``rng`` is left exactly where
        ``nrows`` calls of ``rng.shuffle`` would leave it.  Only a plain
        ``random.Random`` is accepted: subclasses may draw differently."""
        if type(rng) is not random.Random:
            raise TypeError(f"fy_fill needs a random.Random, got {type(rng).__name__}")
        version, internal, gauss = rng.getstate()
        state = array("I", internal)  # 624 words, then the index
        out = _zeros(k * nrows)
        self._fy_fill(_address(state), k, nrows, _address(out))
        rng.setstate((version, tuple(state), gauss))
        return out

    def invert_rows(self, rows: array, k: int) -> array | None:
        """Row ``r`` of the result is the inverse permutation of row
        ``r`` of ``rows``; ``None`` unless ``rows`` is an ``array('i')`` of
        whole rows with every entry in ``[0, k)``."""
        if k < 1 or not _is_int_matrix(rows, 0) or len(rows) % k:
            return None
        out = _zeros(len(rows))
        if self._invert(_address(rows), len(rows) // k, k, _address(out)) < 0:
            return None
        return out

    def gs(self, k: int, pref: array, responder_rank: array) -> tuple[list[int], int] | None:
        """``(engaged, proposals)`` of deferred acceptance, or ``None``
        on malformed input (not two ``array('i')`` of ``k * k`` entries,
        a responder outside ``[0, k)``, or a proposer running off its
        list)."""
        cells = k * k
        if not (_is_int_matrix(pref, cells) and _is_int_matrix(responder_rank, cells)):
            return None
        engaged = _zeros(k)
        scratch = _zeros(k)
        proposals = self._gs(
            k, _address(pref), _address(responder_rank), _address(engaged), _address(scratch)
        )
        if proposals < 0:
            return None
        return engaged.tolist(), proposals


def _build_dir() -> Path:
    """``build/native`` next to the repo when writable, temp dir otherwise."""
    override = os.environ.get("REPRO_NATIVE_DIR")
    if override:
        return Path(override)
    here = Path(__file__).resolve()
    if len(here.parents) >= 4:  # src/repro/matching/_native.py -> repo root
        candidate = here.parents[3] / "build" / "native"
        if (here.parents[3] / "pyproject.toml").exists():
            return candidate
    return Path(tempfile.gettempdir()) / "repro-native"


def _compile(directory: Path) -> Path | None:
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    shared = directory / f"repro_kernel_{digest}.so"
    if shared.exists():
        return shared
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        return None
    directory.mkdir(parents=True, exist_ok=True)
    source = directory / f"repro_kernel_{digest}.c"
    source.write_text(_C_SOURCE)
    scratch = directory / f".{shared.name}.{os.getpid()}.tmp"
    subprocess.run(
        [compiler, "-O2", "-shared", "-fPIC", "-o", str(scratch), str(source)],
        check=True,
        capture_output=True,
        timeout=120,
    )
    os.replace(scratch, shared)  # atomic: concurrent builders agree
    return shared


_CACHE: list[NativeKernel | None] | None = None


def load() -> NativeKernel | None:
    """The compiled kernel, building it on first use; ``None`` when
    unavailable (no compiler, failed build, ``REPRO_NATIVE=0``, or a
    platform whose C ``int``/``unsigned`` is not 32 bits wide)."""
    global _CACHE
    if _CACHE is not None:
        return _CACHE[0]
    kernel: NativeKernel | None = None
    word_sizes_ok = array("i").itemsize == array("I").itemsize == 4
    if word_sizes_ok and os.environ.get("REPRO_NATIVE", "1") != "0":
        try:
            shared = _compile(_build_dir())
            if shared is not None:
                kernel = NativeKernel(ctypes.CDLL(str(shared)))
        except Exception:  # pragma: no cover - degrade to pure python
            kernel = None
    _CACHE = [kernel]
    return kernel
