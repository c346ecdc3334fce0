"""Fused trellis-update kernels.

The reference forward passes in :mod:`repro.viterbi.decoder` and
:mod:`repro.viterbi.multires` are correct and hookable, but they pay a
fixed Python/numpy-dispatch cost *per trellis step*: a branch-metric
broadcast, ``argmin`` plus ``take_along_axis``/``put_along_axis``
pairs, and a handful of temporaries, every step of every frame batch.
For the small arrays a Viterbi batch produces (``frames x states``),
that dispatch overhead — not arithmetic — dominates cold evaluation
time.

This module removes it without changing a single output bit:

- **Precomputed branch metrics.**  The whole received tensor is
  quantized once, each step's level tuple is folded into one integer
  (:func:`symbol_indices`), and per-step metrics become a single
  ``np.take`` from the table built by
  :meth:`~repro.viterbi.metrics.BranchMetricTable.combo_lut` instead of
  a broadcast + mask + reduce inside the loop.  Symbols are stored one
  contiguous ``(frames,)`` row per step.
- **States-major layout.**  Everything in the step loop is
  ``(states, frames)``: the tables are ``(2 * states, combos)`` with the
  slot-0 branches in the first half, so the predecessor gather
  ``acc[predw]`` is one row gather, and the multiresolution kernel adds
  both resolutions' metrics to that same gather.
- **Two-way compare-select.**  A radix-2 trellis has exactly two
  predecessors per state, so ``argmin`` + ``take_along_axis`` over an
  axis of length 2 collapses to one ``<`` and one ``minimum``.
  ``np.argmin`` returns the *first* minimal index, which is exactly
  ``c1 < c0`` — ties select slot 0 in both formulations, keeping the
  survivor memory bit-identical.
- **Flat indices.**  The multiresolution kernel addresses its chosen
  states by flat offsets ``state * n_frames + frame`` and moves values
  with ``np.take``/``np.put``.  When every state is recomputed
  (``M == n_states``, every multiresolution point the search decodes)
  the selection is the identity and the kernel skips it altogether.
- **Hoisted buffers.**  Candidate/metric scratch arrays are allocated
  once and rotated, so the step loop performs few allocations beyond
  numpy's internal reductions.
- **Compiled loops.**  The forward passes and the trace-back of both
  decoders run in C (``acs.c``) when the system C compiler can build
  it: :func:`native_library` compiles the source on the first fused
  decode, caches the shared library by source, flags and platform hash
  under ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``) and
  loads it with :mod:`ctypes`, which releases the interpreter lock for
  the call.  With no ``cc``, a failed build, an unwritable cache or any
  other load failure the numpy loops below run instead; they are the
  only path on such hosts.
  The multiresolution forward pass ranks its M-set and N best with
  numpy's own ``argpartition``/``argsort``, whose tie order a compiled
  sort would not reproduce, so its Python loop keeps those calls and
  makes one C call per step for everything else.

The kernels are *drop-in equivalent*: for every input they produce the
same ``(decisions, best)`` arrays, the same ``_final_metrics``, and
therefore the same decoded bits as the reference loops, on the compiled
path and on the numpy path alike.  Decoders use them only when no
fault-injection hook is attached — the hooked path keeps the reference
loop so resilience semantics stay untouched — and only when the metric
tables are small enough to precompute (``combo_lut()`` returns ``None``
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

#: Kernel names accepted by the decoders, the evaluator, and the CLI.
DECODE_KERNELS: Tuple[str, ...] = ("fused", "reference")

#: Compiler flags for ``acs.c``.  No ``-ffast-math`` (it may reorder
#: floating-point operations) and no ``-march=native`` (a cache
#: directory may be shared across hosts); ``-ffp-contract=off`` keeps
#: every add a separate, correctly rounded double operation.
NATIVE_CFLAGS: Tuple[str, ...] = (
    "-O3", "-shared", "-fPIC", "-ffp-contract=off",
)

_log = logging.getLogger(__name__)

#: Memo of :func:`native_library`: ``_UNLOADED`` until the first fused
#: decode asks for it, then the loaded library or ``None`` (numpy).
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
    """The compiled ``acs.c`` loops, or ``None`` to run the numpy loops.

    Built and loaded once per process, on first use; every later call
    returns the memo.
    """
    global _native
    if _native is _UNLOADED:
        with _native_lock:
            if _native is _UNLOADED:
                _native = _load_native()
    return _native


def native_loaded() -> bool:
    """Whether the compiled loops are in use (never triggers a build)."""
    return _native is not None and _native is not _UNLOADED


def _load_native():
    """Load the cached build of ``acs.c``, building it first if needed."""
    compiler = shutil.which("cc")
    if compiler is None:
        _log.info("no C compiler on PATH; decode kernels run in numpy")
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
        # without the symbols) leaves the numpy loops, which give the
        # same bits.
        _log.info("compiled decode loops unavailable (%r); using numpy", exc)
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


def _state_dtype(n_states: int) -> type:
    """Smallest unsigned dtype that can hold a state index."""
    if n_states <= 1 << 8:
        return np.uint8
    if n_states <= 1 << 16:
        return np.uint16
    return np.uint32


def _step_symbols(
    quantizer, received: np.ndarray, sigma: Optional[float]
) -> np.ndarray:
    """Quantize once and fold to lookup rows, one contiguous row per step.

    Returns ``(steps, frames)``; the ``(frames, steps)`` fold is a
    temporary, so only one symbol array outlives the call.
    """
    levels = quantizer.quantize(received, sigma)
    return np.ascontiguousarray(symbol_indices(levels, quantizer.lut_base).T)


def _double_width(lut: np.ndarray) -> np.ndarray:
    """``(combos, states, 2)`` table as float64 ``(2 * states, combos)``.

    Rows ``[0, S)`` hold the slot-0 branches and ``[S, 2S)`` the slot-1
    branches, so one ``np.take`` along the combo axis yields a step's
    metrics in the states-major layout of the kernels.  The metrics are
    small integers, exactly representable, and float64 lets the step
    loop add them to the accumulated metrics without a conversion pass.
    """
    n_combos, n_states, _ = lut.shape
    return np.ascontiguousarray(
        np.transpose(lut, (2, 1, 0)).reshape(2 * n_states, n_combos),
        dtype=np.float64,
    )


def fused_forward(
    decoder, received: np.ndarray, sigma: Optional[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused add-compare-select for :class:`ViterbiDecoder`.

    Bit-identical to ``ViterbiDecoder._forward_reference`` with no
    fault hook attached; the caller guarantees both that and the
    availability of the combo lookup table.  Runs ``acs_forward`` from
    :func:`native_library` when it loads, else the numpy loop below.
    """
    n_frames, n_steps, _ = received.shape
    symbols = _step_symbols(decoder.quantizer, received, sigma)
    lutw = _double_width(decoder.metric_table.combo_lut())
    n_states = decoder.trellis.n_states

    acc = np.ascontiguousarray(decoder._initial_metrics(n_frames).T)
    decisions = np.empty((n_steps, n_states, n_frames), dtype=np.uint8)
    best = np.empty((n_steps, n_frames), dtype=np.int64)
    lib = native_library()
    n_combos = lutw.shape[1]
    # The C loop indexes tables by these values: check them first (the
    # numpy loop's np.take raises on a bad one).
    if lib is not None and _within(symbols, n_combos):
        symbols = np.ascontiguousarray(symbols, dtype=np.int64)
        pred = np.ascontiguousarray(decoder.trellis.predecessors, np.int64)
        scratch = np.empty_like(acc)
        metrics = np.empty((2 * n_states, n_frames))
        rowmin = np.empty(n_frames)
        lib.acs_forward(
            n_steps, n_states, n_frames, n_combos,
            _ptr(symbols), _ptr(lutw), _ptr(pred), _ptr(acc),
            _ptr(scratch), _ptr(metrics), _ptr(rowmin),
            _ptr(decisions), _ptr(best),
        )
        decoder._final_metrics = np.ascontiguousarray(acc.T)
        return decisions.transpose(0, 2, 1), best

    predw = np.ascontiguousarray(decoder.trellis.predecessors.T.reshape(-1))
    # Survivor table for fused_traceback, built step by step while the
    # decision bits are still cache-hot: survivors[t, f, s] is the
    # predecessor the survivor branch into state s came from.  Stored
    # frame-major so the trace-back walk gathers with a stride-1 state
    # axis from a step block small enough to stay cache-resident.
    sdtype = _state_dtype(n_states)
    survivors = np.empty((n_steps, n_frames, n_states), dtype=sdtype)
    pred0_row = decoder.trellis.predecessors[:, 0].astype(sdtype)
    # Slot-1 minus slot-0 predecessor, wrapping in the unsigned dtype;
    # pred0 + take1 * pdiff wraps back to exactly pred1 when take1 is
    # set, so the two-ufunc build below equals np.where(take1, p1, p0).
    pdiff_row = (
        decoder.trellis.predecessors[:, 1]
        - decoder.trellis.predecessors[:, 0]
    ).astype(sdtype)

    # Scratch buffers, allocated once and rotated through the loop.
    cand = np.empty((2 * n_states, n_frames))
    c0 = cand[:n_states]
    c1 = cand[n_states:]
    metrics = np.empty((2 * n_states, n_frames), dtype=lutw.dtype)
    nacc = np.empty_like(acc)
    take1 = np.empty((n_states, n_frames), dtype=bool)
    rowmin = np.empty((1, n_frames))

    for t in range(n_steps):
        np.take(lutw, symbols[t], axis=1, out=metrics)
        np.take(acc, predw, axis=0, out=cand)
        cand += metrics
        # argmin over the 2-candidate axis == "is slot 1 strictly
        # smaller"; ties keep slot 0, exactly like np.argmin.
        np.less(c1, c0, out=take1)
        decisions[t] = take1
        surv_t = survivors[t]
        np.multiply(take1.T, pdiff_row, out=surv_t)
        surv_t += pred0_row
        np.minimum(c0, c1, out=nacc)
        best[t] = nacc.argmin(axis=0)
        np.minimum.reduce(nacc, axis=0, keepdims=True, out=rowmin)
        nacc -= rowmin
        acc, nacc = nacc, acc
    decoder._final_metrics = np.ascontiguousarray(acc.T)
    # The rest of the decoder thinks in (steps, frames, states); hand
    # back a transposed view.  The survivor table is keyed to exactly
    # this decisions object — fused_traceback reuses it only when
    # handed the identical array back (and rebuilds otherwise).
    out = decisions.transpose(0, 2, 1)
    decoder._fused_survivors = survivors
    decoder._fused_survivors_key = out
    return out, best


def fused_forward_multires(
    decoder, received: np.ndarray, sigma: Optional[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused forward pass for :class:`MultiresolutionViterbiDecoder`.

    Runs in the ``(states, frames)`` layout of :func:`fused_forward`:
    per-step symbols are contiguous rows, and the ``scale-offset``
    rescaling is applied to the high-resolution table once, not per
    step.

    Two branches, picked from the input:

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

    With :func:`native_library` loaded, ``acs_multires_step`` does each
    step's arithmetic and only those numpy selection calls stay in the
    Python loop (:func:`_multires_native`); otherwise
    :func:`_multires_numpy` runs the whole step in numpy.  Either way
    the step is the reference's operation for operation, so ties fall
    the same way: ``c1 < c0`` is ``argmin``'s slot-0 rule, numpy's
    selection routines see the same values in the same order per frame,
    and the correction averages a contiguous ``(frames, N)`` block as
    the reference does (numpy sums 8 or more terms pairwise, so a
    reduction over the other axis would round differently).  The
    low-resolution table masks erasures (as
    :meth:`~repro.viterbi.metrics.BranchMetricTable.compute` does); the
    high-resolution table does *not* (as ``compute_for_states`` does
    not), preserving the reference asymmetry on punctured streams.
    """
    n_frames, n_steps, _ = received.shape
    n_states = decoder.trellis.n_states
    high_symbols = _step_symbols(decoder.high_quantizer, received, sigma)
    highw = _double_width(
        decoder.high_metric_table.combo_lut(erasure_masked=False)
    )
    if decoder.normalization_method == "scale-offset":
        highw *= decoder._scale
    low_symbols = lutw = None
    if (
        decoder.normalization_method != "none"
        or decoder.multires_paths < n_states
    ):
        low_symbols = _step_symbols(decoder.low_quantizer, received, sigma)
        lutw = _double_width(decoder.metric_table.combo_lut())

    acc = np.ascontiguousarray(decoder._initial_metrics(n_frames).T)
    decisions = np.empty((n_steps, n_states, n_frames), dtype=np.uint8)
    best = np.empty((n_steps, n_frames), dtype=np.int64)
    lib = native_library()
    # The C step indexes tables by these values: check them first (the
    # numpy loop's np.take raises on a bad one).
    if (
        lib is not None
        and _within(high_symbols, highw.shape[1])
        and (lutw is None or _within(low_symbols, lutw.shape[1]))
    ):
        _multires_native(
            lib, decoder, acc, decisions, best,
            low_symbols, lutw, high_symbols, highw,
        )
    else:
        acc = _multires_numpy(
            decoder, acc, decisions, best,
            low_symbols, lutw, high_symbols, highw,
        )
    decoder._final_metrics = np.ascontiguousarray(acc.T)
    return decisions.transpose(0, 2, 1), best


def _multires_native(
    lib, decoder, acc, decisions, best, low_symbols, lutw, high_symbols, highw
) -> None:
    """The multiresolution step loop on ``acs_multires_step``.

    Per step, Python only ranks the C step's low-resolution metrics with
    the numpy calls of :func:`_multires_numpy` (on the same values, in
    the same layouts) and hands the ranking back in fixed buffers; the
    C step finishes the step and begins the next one.  Every buffer the
    plan points to is a local here, alive until the loop ends.
    """
    n_steps, n_states, n_frames = decisions.shape
    m = decoder.multires_paths
    n = (
        decoder.normalization_count
        if decoder.normalization_method != "none"
        else 0
    )
    every = m == n_states
    if lutw is None:  # nothing ranked, nothing corrected: no low tables
        low_symbols, lutw = high_symbols, highw
    low_symbols = np.ascontiguousarray(low_symbols, dtype=np.int64)
    high_symbols = np.ascontiguousarray(high_symbols, dtype=np.int64)
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


def _multires_numpy(
    decoder, acc, decisions, best, low_symbols, lutw, high_symbols, highw
) -> np.ndarray:
    """The multiresolution step loop in numpy; returns the final ``acc``.

    Each step gathers ``acc[predw]`` once and adds both resolutions'
    table rows to it.  Chosen states are addressed by flat word offsets
    (``state * n_frames + frame``) for ``np.take``/``np.put``.
    """
    n_steps, n_states, n_frames = decisions.shape
    m = decoder.multires_paths
    n = decoder.normalization_count
    corrected = decoder.normalization_method != "none"
    predw = np.ascontiguousarray(decoder.trellis.predecessors.T.reshape(-1))
    nacc = np.empty_like(acc)
    rowmin = np.empty((1, n_frames))
    # Work buffers, allocated once: acc[predw], both resolutions' metrics,
    # and the candidates, all (2 * states, frames).
    gathered = np.empty((2 * n_states, n_frames))
    low = np.empty_like(gathered)
    high = np.empty_like(gathered)
    cand = np.empty_like(gathered)
    c0 = cand[:n_states]
    c1 = cand[n_states:]
    delta = np.empty_like(acc)
    low_best = np.empty_like(acc)
    frame_row = np.arange(n_frames)
    frame_col = frame_row[:, np.newaxis]
    # Rankings are taken frames-major, (frames, M), so numpy's argsort
    # walks contiguous rows, and the flat offsets of the N best states'
    # terms come out (frames, N): the mean then reduces contiguous rows.
    sel = np.empty((n_frames, n), dtype=np.intp)
    sel_pos = np.empty_like(sel)

    def correction(ranked, positions=None):
        """Per-frame mean of (high - low) best metrics over the N best."""
        np.minimum(high[:n_states], high[n_states:], out=delta)
        np.minimum(low[:n_states], low[n_states:], out=low_best)
        np.subtract(delta, low_best, out=delta)
        np.multiply(ranked[:, :n], n_frames, out=sel)
        np.add(sel, frame_col, out=sel)
        if positions is not None:
            np.take(positions, sel, out=sel_pos)
            return np.take(delta, sel_pos).mean(axis=1)
        return np.take(delta, sel).mean(axis=1)

    if m == n_states:
        low_acc = np.empty((n_frames, n_states))
        for t in range(n_steps):
            np.take(acc, predw, axis=0, out=gathered)
            np.take(highw, high_symbols[t], axis=1, out=high)
            if corrected:
                np.take(lutw, low_symbols[t], axis=1, out=low)
                np.add(gathered, low, out=cand)
                np.minimum(c0, c1, out=low_acc.T)
                high -= correction(np.argsort(low_acc, axis=1))
            np.add(gathered, high, out=cand)
            np.less(c1, c0, out=decisions[t])
            np.minimum(c0, c1, out=nacc)
            best[t] = nacc.argmin(axis=0)
            np.minimum.reduce(nacc, axis=0, keepdims=True, out=rowmin)
            nacc -= rowmin
            acc, nacc = nacc, acc
    else:
        pos = np.empty((m, n_frames), dtype=np.intp)
        gathered0 = gathered[:n_states].reshape(-1)
        gathered1 = gathered[n_states:].reshape(-1)
        high0 = high[:n_states].reshape(-1)
        high1 = high[n_states:].reshape(-1)
        for t in range(n_steps):
            np.take(acc, predw, axis=0, out=gathered)
            np.take(lutw, low_symbols[t], axis=1, out=low)
            np.take(highw, high_symbols[t], axis=1, out=high)
            np.add(gathered, low, out=cand)
            take1 = decisions[t]
            np.less(c1, c0, out=take1)
            np.minimum(c0, c1, out=nacc)

            # --- select the M most promising states -------------------
            chosen = np.argpartition(nacc, m - 1, axis=0)[:m]
            np.multiply(chosen, n_frames, out=pos)
            pos += frame_row

            # --- high-resolution recomputation of the chosen states ---
            h0 = np.take(high0, pos)
            h1 = np.take(high1, pos)
            if corrected:
                order = np.argsort(np.take(nacc, pos.T), axis=1)
                corr = correction(order, pos)
                h0 -= corr
                h1 -= corr
            h0 += np.take(gathered0, pos)
            h1 += np.take(gathered1, pos)

            # --- merge recomputed states back -------------------------
            np.put(take1, pos, h1 < h0)
            np.put(nacc, pos, np.minimum(h0, h1))
            best[t] = nacc.argmin(axis=0)
            np.minimum.reduce(nacc, axis=0, keepdims=True, out=rowmin)
            nacc -= rowmin
            acc, nacc = nacc, acc
    return acc


def fused_traceback(
    decoder, decisions: np.ndarray, best: np.ndarray
) -> np.ndarray:
    """Flat-indexed sliding trace-back, bit-identical to the reference.

    Walks the same survivor branches as ``ViterbiDecoder._traceback``
    (bit ``tau`` comes from ``L - 1`` steps back from the best state
    after step ``tau + L - 1``), but folds decision bits and
    predecessors into one *survivor table*
    (``survivors[t, f, s] = predecessors[s, decisions[t, f, s]]``) so
    every level of the sliding walk is a single flat ``np.take`` on
    precomputed offsets, with the offset scratch reused across levels.
    With :func:`native_library` loaded, ``acs_traceback`` walks the
    decisions in place instead (no survivor table); trace-back has no
    tie rule, so this serves both decoders.
    """
    n_steps, n_frames, n_states = decisions.shape
    depth = min(decoder.traceback_depth, n_steps)
    predecessors = decoder.trellis.predecessors
    shift = max(decoder.trellis.constraint_length - 2, 0)
    bits = np.empty((n_frames, n_steps), dtype=np.int8)

    lib = native_library()
    # The C walk reads states from best and slots from decisions (it
    # masks each slot to 0/1): check both first.  The forward passes
    # produce uint8 decisions and in-range best states.
    if (
        lib is not None
        and decisions.dtype == np.uint8
        and best.shape == (n_steps, n_frames)
        and _within(best, n_states)
    ):
        step, frame, state = decisions.strides  # uint8: bytes == elements
        best = np.ascontiguousarray(best, dtype=np.int64)
        pred = np.ascontiguousarray(predecessors, dtype=np.int64)
        lib.acs_traceback(
            n_steps, n_frames, depth, shift, _ptr(decisions),
            step, frame, state, _ptr(best), _ptr(pred), _ptr(bits),
        )
        return bits

    n_lead = n_steps - depth + 1
    if n_lead > 0:
        # Survivor table: survivors[t, f, s] is the predecessor state
        # of the survivor branch into s, stored frame-major in the
        # narrowest dtype that fits.  fused_forward builds it in-loop
        # and keys it to the decisions object it returned; any other
        # decisions array (the multiresolution forward, or a direct
        # _traceback call) gets a one-pass rebuild here.
        survivors = getattr(decoder, "_fused_survivors", None)
        if getattr(decoder, "_fused_survivors_key", None) is not decisions:
            sdtype = _state_dtype(n_states)
            pred = predecessors.astype(sdtype)
            survivors = np.where(
                np.ascontiguousarray(decisions), pred[:, 1], pred[:, 0]
            )
        survflat = survivors.reshape(-1)
        decoder._fused_survivors = None
        decoder._fused_survivors_key = None
        step_words = n_frames * n_states
        itype = (
            np.int32
            if n_steps * step_words <= np.iinfo(np.int32).max
            else np.int64
        )
        taus = np.arange(n_lead)
        states = best[taus + depth - 1].astype(survivors.dtype)  # (lead, F)
        # Flat word offset of (t, frame, state=0), walked back one
        # trellis step per level; each level is then a single
        # offset-add + flat gather.
        base = (
            (taus[:, np.newaxis] + depth - 1) * step_words
            + np.arange(n_frames)[np.newaxis, :] * n_states
        ).astype(itype)
        idx = np.empty_like(base)
        for _ in range(depth - 1):
            np.add(base, states, out=idx)
            np.take(survflat, idx, out=states)
            base -= step_words
        bits[:, :n_lead] = ((states >> shift) & 1).astype(np.int8).T

    # Final walk for the last depth-1 bits (or all bits when the frame
    # is shorter than the trace-back depth).
    frame_idx = np.arange(n_frames)
    states = best[n_steps - 1]
    stop = max(n_lead, 0)
    for tau in range(n_steps - 1, stop - 1, -1):
        bits[:, tau] = ((states >> shift) & 1).astype(np.int8)
        slots = decisions[tau, frame_idx, states]
        states = predecessors[states, slots]
    return bits
