"""Compiled trellis-update kernels.

The reference forward passes in :mod:`repro.viterbi.decoder` and
:mod:`repro.viterbi.multires` are correct and hookable, but they pay a
fixed Python/numpy-dispatch cost *per trellis step*: a branch-metric
broadcast, ``argmin`` plus ``take_along_axis``/``put_along_axis``
pairs, and a handful of temporaries, every step of every frame batch.
For the small arrays a Viterbi batch produces (``frames x states``),
that dispatch overhead — not arithmetic — dominates cold evaluation
time.

This module runs the forward passes and the trace-back of both decoders
in C (``acs.c``) instead, without changing a single output bit:

- **Precomputed branch metrics.**  The whole received tensor is
  quantized once, each step's level tuple is folded into one integer
  (:func:`symbol_indices`), and per-step metrics become a row lookup
  in the table built by
  :meth:`~repro.viterbi.metrics.BranchMetricTable.combo_lut` instead of
  a broadcast + mask + reduce per step.  Symbols are stored one
  contiguous ``(frames,)`` row per step.
- **States-major layout.**  The C loops work on ``(states, frames)``
  arrays; the tables are ``(2 * states, combos)`` with the slot-0
  branches in the first half.
- **Two-way compare-select.**  A radix-2 trellis has exactly two
  predecessors per state, so ``argmin`` over an axis of length 2 is one
  ``c1 < c0``: ties select slot 0 in both formulations, keeping the
  survivor memory bit-identical.
- **Loading.**  :func:`native_library` compiles ``acs.c`` with the
  system C compiler on the first decode, caches the shared
  library by source, flags and platform hash under
  ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``) and loads it
  with :mod:`ctypes`, which releases the interpreter lock for each
  call.  With no ``cc``, a failed build, an unwritable cache or any
  other load failure it returns ``None``, and decoders run the
  reference loops, which give the same bits (several times slower).
- **Numpy's selection.**  The multiresolution forward pass ranks its
  M-set and N best with numpy's own ``argpartition``/``argsort``, whose
  tie order a compiled sort would not reproduce, so its Python loop
  keeps those calls and makes one C call per step for everything else.

The kernels are *drop-in equivalent*: for every input they produce the
same ``(decisions, best)`` arrays, the same ``_final_metrics``, and
therefore the same decoded bits as the reference loops.
:meth:`~repro.viterbi.decoder.ViterbiDecoder.active_kernel` decides
when decoders use them: only when the library loads, no active
fault-injection hook is attached — the hooked path keeps the reference
loop so resilience semantics stay untouched — and the metric tables are
small enough to precompute (``combo_lut()`` returns ``None``
otherwise).
"""
from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
from importlib import resources
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

#: Compiler flags for ``acs.c``.  No ``-ffast-math`` (it may reorder
#: floating-point operations) and no ``-march=native`` (a cache
#: directory may be shared across hosts); ``-ffp-contract=off`` keeps
#: every add a separate, correctly rounded double operation.
NATIVE_CFLAGS: Tuple[str, ...] = (
    "-O3", "-shared", "-fPIC", "-ffp-contract=off",
)

_log = logging.getLogger(__name__)

#: Memo of :func:`native_library`: ``_UNLOADED`` until a decoder first
#: asks for it, then the loaded library or ``None`` (reference).
#: Module state only, never a decoder attribute: decoders and evaluators
#: are pickled to pool workers, and a ``ctypes`` handle does not pickle.
_UNLOADED = object()
_native = _UNLOADED
_native_lock = threading.Lock()


def _reset_lock_after_fork() -> None:
    # A fork while another thread builds would leave the child a held lock.
    global _native_lock
    _native_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock_after_fork)


def native_source() -> bytes:
    """The C source of the compiled loops, read through the package."""
    return resources.files("repro.viterbi").joinpath("acs.c").read_bytes()


def native_cache_dir() -> Path:
    """Where built libraries are cached: ``$XDG_CACHE_HOME/repro``."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "repro"


def native_library():
    """The compiled ``acs.c`` loops, or ``None`` to run the reference loops.

    Built and loaded once per process, on first use; every later call
    returns the memo.
    """
    global _native
    if _native is _UNLOADED:
        with _native_lock:
            if _native is _UNLOADED:
                _native = _load_native()
    return _native


def _load_native():
    """Load the cached build of ``acs.c``, building it first if needed."""
    compiler = shutil.which("cc")
    if compiler is None:
        _log.info("no C compiler on PATH; decoders run the reference loops")
        return None
    try:
        source = native_source()
        key = hashlib.sha256(
            b"\0".join(
                [
                    source,
                    " ".join(NATIVE_CFLAGS).encode(),
                    f"{sys.platform}-{platform.machine()}".encode(),
                    compiler.encode(),
                ]
            )
        ).hexdigest()[:16]
        path = native_cache_dir() / f"acs-{key}.so"
        if not path.exists():
            _build_native(compiler, source, path)
        return _bind_native(path)
    except Exception as exc:
        # Any failure to locate, build or bind the library (no home
        # directory, compiler error, unwritable cache, a cached file
        # without the symbols) leaves the reference loops, which give
        # the same bits.
        _log.info(
            "compiled decode loops unavailable (%r); using the reference "
            "loops", exc,
        )
        return None


def _build_native(compiler: str, source: bytes, path: Path) -> None:
    """Compile into a temporary file beside ``path``, then rename.

    ``os.replace`` is atomic, so processes racing to build the same
    library each install a complete file and none loads a partial one.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.stem + ".", suffix=".tmp"
    )
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *NATIVE_CFLAGS, "-x", "c", "-", "-o", tmp],
            input=source,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            check=True,
            timeout=300,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class _MultiresPlan(ctypes.Structure):
    """``struct multires_plan`` of ``acs.c``, field for field: the
    buffers and sizes one multiresolution forward pass fixes for all its
    steps, so each step's call passes only the step and this plan."""

    _fields_ = [
        (name, ctypes.c_int64)
        for name in (
            "n_steps", "n_states", "n_frames", "n_paths", "n_norm",
            "n_low_combos", "n_high_combos",
        )
    ] + [
        (name, ctypes.c_void_p)
        for name in (
            "low_symbols", "high_symbols", "low_table", "high_table",
            "pred", "chosen", "order", "acc", "low_acc", "work",
            "decisions", "best",
        )
    ]


def _bind_native(path: Path):
    lib = ctypes.CDLL(str(path))
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.acs_forward.argtypes = [i64] * 4 + [ptr] * 9
    lib.acs_forward.restype = None
    lib.acs_traceback.argtypes = [i64] * 4 + [ptr] + [i64] * 3 + [ptr] * 3
    lib.acs_traceback.restype = None
    lib.acs_multires_step.argtypes = [i64, ctypes.POINTER(_MultiresPlan)]
    lib.acs_multires_step.restype = None
    lib.acs_row_means.argtypes = [i64, i64, ptr, ptr]
    lib.acs_row_means.restype = None
    return lib


def _ptr(array: np.ndarray) -> int:
    return array.ctypes.data


def _within(indices: np.ndarray, bound: int) -> bool:
    """Whether a non-empty index array lies in ``[0, bound)``."""
    return indices.size > 0 and 0 <= indices.min() and indices.max() < bound


def symbol_indices(levels: np.ndarray, base: int) -> np.ndarray:
    """Fold quantized level tuples into single lookup-table row indices.

    ``levels`` has shape ``(..., n_symbols)`` with entries in
    ``[-1, base - 2]`` (``-1`` is the erasure sentinel); the result has
    shape ``(...)`` with symbol 0 as the most significant digit,
    matching the row ordering of
    :meth:`~repro.viterbi.metrics.BranchMetricTable.combo_lut`.
    """
    levels = np.asarray(levels)
    n = levels.shape[-1]
    index = levels[..., 0] + 1
    for k in range(1, n):
        index = index * base + (levels[..., k] + 1)
    return index


def _step_symbols(
    quantizer, received: np.ndarray, sigma: Optional[float]
) -> np.ndarray:
    """Quantize once and fold to lookup rows, one contiguous row per step.

    Returns ``(steps, frames)``; the ``(frames, steps)`` fold is a
    temporary, so only one symbol array outlives the call.
    """
    levels = quantizer.quantize(received, sigma)
    return np.ascontiguousarray(
        symbol_indices(levels, quantizer.lut_base).T, dtype=np.int64
    )


def _double_width(lut: np.ndarray) -> np.ndarray:
    """``(combos, states, 2)`` table as float64 ``(2 * states, combos)``.

    Rows ``[0, S)`` hold the slot-0 branches and ``[S, 2S)`` the slot-1
    branches, so one gather along the combo axis yields a step's
    metrics in the states-major layout of the C loops.  The metrics are
    small integers, exactly representable, and float64 lets the step
    loop add them to the accumulated metrics without a conversion.
    """
    n_combos, n_states, _ = lut.shape
    return np.ascontiguousarray(
        np.transpose(lut, (2, 1, 0)).reshape(2 * n_states, n_combos),
        dtype=np.float64,
    )


def fused_forward(
    decoder, received: np.ndarray, sigma: Optional[float]
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``acs_forward``: compiled add-compare-select for
    :class:`ViterbiDecoder`.

    Bit-identical to ``ViterbiDecoder._forward_reference``; the caller
    has checked :meth:`~ViterbiDecoder.active_kernel`.  Returns ``None``,
    having run nothing, when a symbol lies outside the table the C loop
    indexes unchecked, and the caller runs the reference loop instead.
    """
    n_frames, n_steps, _ = received.shape
    symbols = _step_symbols(decoder.quantizer, received, sigma)
    lutw = _double_width(decoder.metric_table.combo_lut())
    n_states, n_combos = decoder.trellis.n_states, lutw.shape[1]
    if not _within(symbols, n_combos):
        return None
    acc = np.ascontiguousarray(decoder._initial_metrics(n_frames).T)
    decisions = np.empty((n_steps, n_states, n_frames), dtype=np.uint8)
    best = np.empty((n_steps, n_frames), dtype=np.int64)
    pred = np.ascontiguousarray(decoder.trellis.predecessors, np.int64)
    scratch = np.empty_like(acc)
    metrics = np.empty((2 * n_states, n_frames))
    rowmin = np.empty(n_frames)
    native_library().acs_forward(
        n_steps, n_states, n_frames, n_combos,
        _ptr(symbols), _ptr(lutw), _ptr(pred), _ptr(acc),
        _ptr(scratch), _ptr(metrics), _ptr(rowmin),
        _ptr(decisions), _ptr(best),
    )
    decoder._final_metrics = np.ascontiguousarray(acc.T)
    # The rest of the decoder thinks in (steps, frames, states).
    return decisions.transpose(0, 2, 1), best


def fused_forward_multires(
    decoder, received: np.ndarray, sigma: Optional[float]
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Compiled forward pass for :class:`MultiresolutionViterbiDecoder`.

    Runs in the ``(states, frames)`` layout of :func:`fused_forward`:
    per-step symbols are contiguous rows, and the ``scale-offset``
    rescaling is applied to the high-resolution table once, not per
    step.  ``acs_multires_step`` does each step's arithmetic and only
    numpy's selection calls stay in the Python loop
    (:func:`_multires_native`), which has two branches:

    - ``M == n_states`` (the design space clamps M to the trellis, so
      every multiresolution point of a ``max_resolution=0`` Table 3
      search is K=3 with M=4): the selection is the identity, so there
      is nothing to select, no low-resolution decision to keep and
      nothing to merge.  The low tables only rank the states
      (``np.argsort`` on the frames-major ``(frames, M)`` metrics) and
      feed the correction; the decisions are the high-resolution ones.
    - ``M < n_states``: the low-resolution update of the full trellis,
      ``np.argpartition`` for the M-set and ``np.argsort`` for the N
      best, both with their default kinds on the states axis, then the
      high-resolution recomputation of the chosen states is merged back.

    The step is the reference's operation for operation, so ties fall
    the same way: ``c1 < c0`` is ``argmin``'s slot-0 rule, numpy's
    selection routines see the same values in the same order per frame,
    and the correction averages each frame's N terms in the order
    ``ndarray.mean`` uses on the reference's contiguous ``(frames, N)``
    block (numpy sums 8 or more terms pairwise, so any other order
    would round differently).  The low-resolution table masks erasures
    (as :meth:`~repro.viterbi.metrics.BranchMetricTable.compute` does);
    the high-resolution table does *not* (as ``compute_for_states`` does
    not), preserving the reference asymmetry on punctured streams.
    Returns ``None``, having run nothing, when a symbol lies outside its
    table, as :func:`fused_forward` does.
    """
    n_frames, n_steps, _ = received.shape
    n_states = decoder.trellis.n_states
    high_symbols = _step_symbols(decoder.high_quantizer, received, sigma)
    highw = _double_width(
        decoder.high_metric_table.combo_lut(erasure_masked=False)
    )
    if decoder.normalization_method == "scale-offset":
        highw *= decoder._scale
    # Nothing ranked, nothing corrected: the high tables stand in for
    # the low ones, which the C step then never reads.
    low_symbols, lutw = high_symbols, highw
    if (
        decoder.normalization_method != "none"
        or decoder.multires_paths < n_states
    ):
        low_symbols = _step_symbols(decoder.low_quantizer, received, sigma)
        lutw = _double_width(decoder.metric_table.combo_lut())
    if not (
        _within(high_symbols, highw.shape[1])
        and _within(low_symbols, lutw.shape[1])
    ):
        return None
    acc = np.ascontiguousarray(decoder._initial_metrics(n_frames).T)
    decisions = np.empty((n_steps, n_states, n_frames), dtype=np.uint8)
    best = np.empty((n_steps, n_frames), dtype=np.int64)
    _multires_native(
        native_library(), decoder, acc, decisions, best,
        low_symbols, lutw, high_symbols, highw,
    )
    decoder._final_metrics = np.ascontiguousarray(acc.T)
    return decisions.transpose(0, 2, 1), best


def _multires_native(
    lib, decoder, acc, decisions, best, low_symbols, lutw, high_symbols, highw
) -> None:
    """The multiresolution step loop on ``acs_multires_step``.

    Per step, Python only ranks the C step's low-resolution metrics with
    the reference's numpy calls (on the same values, in the same
    layouts) and hands the ranking back in fixed buffers; the C step
    finishes the step and begins the next one.  Every buffer the plan
    points to is a local here, alive until the loop ends.
    """
    n_steps, n_states, n_frames = decisions.shape
    m = decoder.multires_paths
    n = (
        decoder.normalization_count
        if decoder.normalization_method != "none"
        else 0
    )
    every = m == n_states
    pred = np.ascontiguousarray(decoder.trellis.predecessors, dtype=np.int64)
    # argsort ranks rows of the frames-major (frames, M) metrics;
    # argpartition ranks columns of the states-major (states, frames).
    low_acc = np.empty((n_frames, n_states) if every else (n_states, n_frames))
    chosen = np.empty((m, n_frames), dtype=np.int64)
    order = np.empty((n_frames, m), dtype=np.int64)
    work = np.empty(2 * n_states * n_frames + 2 * n_frames + n)
    plan = ctypes.pointer(
        _MultiresPlan(
            n_steps=n_steps, n_states=n_states, n_frames=n_frames,
            n_paths=m, n_norm=n, n_low_combos=lutw.shape[1],
            n_high_combos=highw.shape[1], low_symbols=_ptr(low_symbols),
            high_symbols=_ptr(high_symbols), low_table=_ptr(lutw),
            high_table=_ptr(highw), pred=_ptr(pred), chosen=_ptr(chosen),
            order=_ptr(order), acc=_ptr(acc), low_acc=_ptr(low_acc),
            work=_ptr(work), decisions=_ptr(decisions), best=_ptr(best),
        )
    )
    step = lib.acs_multires_step
    step(-1, plan)
    if every:
        for t in range(n_steps):
            if n:
                np.copyto(order, np.argsort(low_acc, axis=1))
            step(t, plan)
        return
    frame_col = np.arange(n_frames)[:, np.newaxis]
    for t in range(n_steps):
        np.copyto(chosen, np.argpartition(low_acc, m - 1, axis=0)[:m])
        if n:
            np.copyto(order, np.argsort(low_acc[chosen.T, frame_col], axis=1))
        step(t, plan)


def fused_traceback(
    decoder, decisions: np.ndarray, best: np.ndarray
) -> Optional[np.ndarray]:
    """``acs_traceback``: the sliding trace-back of both decoders.

    Walks the same survivor branches as
    ``ViterbiDecoder._traceback_reference`` (bit ``tau`` comes from
    ``L - 1`` steps back from the best state after step
    ``tau + L - 1``) on the decision bits in place; trace-back has no
    tie rule, so one walk serves both decoders.  The C walk reads states
    from ``best`` and slots from ``decisions`` (masking each slot to
    0/1); the forward passes produce uint8 decisions and in-range best
    states, and for any other input this returns ``None``, having run
    nothing, so the caller runs the reference walk.
    """
    n_steps, n_frames, n_states = decisions.shape
    if not (
        decisions.dtype == np.uint8
        and best.shape == (n_steps, n_frames)
        and _within(best, n_states)
    ):
        return None
    depth = min(decoder.traceback_depth, n_steps)
    shift = max(decoder.trellis.constraint_length - 2, 0)
    bits = np.empty((n_frames, n_steps), dtype=np.int8)
    step, frame, state = decisions.strides  # uint8: bytes == elements
    best = np.ascontiguousarray(best, dtype=np.int64)
    pred = np.ascontiguousarray(decoder.trellis.predecessors, dtype=np.int64)
    native_library().acs_traceback(
        n_steps, n_frames, depth, shift, _ptr(decisions),
        step, frame, state, _ptr(best), _ptr(pred), _ptr(bits),
    )
    return bits
