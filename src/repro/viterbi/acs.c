/*
 * Compiled add-compare-select and trace-back loops for the fused decode
 * kernels (see kernels.py, which builds this file with the system C
 * compiler and loads it with ctypes).
 *
 * Both loops are bit-identical to the numpy loops they replace:
 *
 * - acs_forward is fused_forward's step, operation for operation: the
 *   candidate c = acc[pred] + metric is one double add, slot 1 wins
 *   only when strictly smaller (np.argmin's first-index rule), the best
 *   state is the first index of the minimum, and the renormalisation
 *   subtracts that minimum.  Compile with -ffp-contract=off and without
 *   -ffast-math so no add is fused or reassociated.
 * - acs_traceback walks the same survivor branches as the reference
 *   sliding trace-back; it only moves integers.
 *
 * No static state: every buffer is owned by the caller.
 */
#include <math.h>
#include <stdint.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

/*
 * Forward pass of a radix-2 trellis over a frame batch.
 *
 * symbols    (steps, frames)     lookup-table column of each step
 * table      (2 * states, combos) branch-metric row of each state's
 *                                 slot-0 branch (first half), then of
 *                                 its slot-1 branch
 * pred       (states, 2)         predecessor of each state per slot
 * acc        (states, frames)    accumulated metrics; in: initial,
 *                                 out: final (renormalised)
 * scratch    (states, frames)    work buffer
 * metrics    (2 * states, frames) work buffer
 * rowmin     (frames,)           work buffer
 * decisions  (steps, states, frames) out: 1 where slot 1 won
 * best       (steps, frames)     out: state with the smallest metric
 *
 * Each step gathers its branch metrics into contiguous rows first, so
 * the state loop streams them.
 */
void acs_forward(
    int64_t n_steps, int64_t n_states, int64_t n_frames, int64_t n_combos,
    const int64_t *symbols, const double *table, const int64_t *pred,
    double *acc, double *scratch, double *metrics, double *rowmin,
    uint8_t *decisions, int64_t *best)
{
    double *cur = acc;
    double *nxt = scratch;
    for (int64_t t = 0; t < n_steps; t++) {
        const int64_t *sym = symbols + t * n_frames;
        uint8_t *dec = decisions + t * n_states * n_frames;
        int64_t *bst = best + t * n_frames;
        for (int64_t u = 0; u < 2 * n_states; u++) {
            const double *row = table + u * n_combos;
            double *m = metrics + u * n_frames;
            for (int64_t f = 0; f < n_frames; f++)
                m[f] = row[sym[f]];
        }
        /* Best state as np.argmin finds it: the first index of the
         * minimum, so only a strictly smaller metric moves it.  Metrics
         * are finite, so the first state always replaces the infinity. */
        for (int64_t f = 0; f < n_frames; f++) {
            rowmin[f] = INFINITY;
            bst[f] = 0;
        }
        for (int64_t s = 0; s < n_states; s++) {
            const double *a0 = cur + pred[2 * s] * n_frames;
            const double *a1 = cur + pred[2 * s + 1] * n_frames;
            const double *m0 = metrics + s * n_frames;
            const double *m1 = metrics + (n_states + s) * n_frames;
            double *out = nxt + s * n_frames;
            uint8_t *d = dec + s * n_frames;
            int64_t f = 0;
#ifdef __SSE2__
            /* Two frames per iteration; the same IEEE adds and ordered
             * compares as the scalar loop below, with the selects done
             * by masks instead of branches. */
            __m128i state = _mm_set1_epi64x(s);
            for (; f + 2 <= n_frames; f += 2) {
                __m128d c0 = _mm_add_pd(_mm_loadu_pd(a0 + f),
                                        _mm_loadu_pd(m0 + f));
                __m128d c1 = _mm_add_pd(_mm_loadu_pd(a1 + f),
                                        _mm_loadu_pd(m1 + f));
                __m128d take1 = _mm_cmplt_pd(c1, c0);
                int mask = _mm_movemask_pd(take1);
                d[f] = (uint8_t)(mask & 1);
                d[f + 1] = (uint8_t)(mask >> 1);
                __m128d o = _mm_or_pd(_mm_and_pd(take1, c1),
                                      _mm_andnot_pd(take1, c0));
                _mm_storeu_pd(out + f, o);
                __m128d r = _mm_loadu_pd(rowmin + f);
                __m128d smaller = _mm_cmplt_pd(o, r);
                _mm_storeu_pd(rowmin + f, _mm_or_pd(_mm_and_pd(smaller, o),
                                                    _mm_andnot_pd(smaller, r)));
                __m128i moved = _mm_castpd_si128(smaller);
                __m128i b = _mm_loadu_si128((const __m128i *)(bst + f));
                _mm_storeu_si128((__m128i *)(bst + f),
                                 _mm_or_si128(_mm_and_si128(moved, state),
                                              _mm_andnot_si128(moved, b)));
            }
#endif
            for (; f < n_frames; f++) {
                double c0 = a0[f] + m0[f];
                double c1 = a1[f] + m1[f];
                int take1 = c1 < c0;
                double o = take1 ? c1 : c0;
                d[f] = (uint8_t)take1;
                out[f] = o;
                if (o < rowmin[f]) {
                    rowmin[f] = o;
                    bst[f] = s;
                }
            }
        }
        for (int64_t s = 0; s < n_states; s++) {
            double *out = nxt + s * n_frames;
            for (int64_t f = 0; f < n_frames; f++)
                out[f] -= rowmin[f];
        }
        double *swap = cur;
        cur = nxt;
        nxt = swap;
    }
    if (cur != acc) {
        for (int64_t i = 0; i < n_states * n_frames; i++)
            acc[i] = cur[i];
    }
}

/* Frames walked side by side: independent survivor chains overlap their
 * load latencies, and a block's decisions share cache lines in the
 * states-major layout. */
#define TRACE_BLOCK 64

/*
 * Sliding trace-back of depth `depth` (already clipped to n_steps).
 *
 * decisions  indexed [t * step_stride + f * frame_stride
 *            + s * state_stride]: the winning slot (0/1), in any layout;
 *            only the low bit is read, so no value indexes out of pred
 * best       (steps, frames)     best state after each step
 * pred       (states, 2)         predecessor of each state per slot
 * bits       (frames, steps)     out: decoded bits
 *
 * Bit tau (tau <= steps - depth) is the top state bit after walking
 * depth - 1 survivor branches back from best[tau + depth - 1]; the last
 * depth - 1 bits come from one walk back from best[steps - 1].
 */
void acs_traceback(
    int64_t n_steps, int64_t n_frames, int64_t depth, int64_t shift,
    const uint8_t *decisions, int64_t step_stride, int64_t frame_stride,
    int64_t state_stride, const int64_t *best, const int64_t *pred,
    int8_t *bits)
{
    int64_t n_lead = n_steps - depth + 1;
    int64_t state[TRACE_BLOCK];
    for (int64_t f0 = 0; f0 < n_frames; f0 += TRACE_BLOCK) {
        int64_t nb = n_frames - f0 < TRACE_BLOCK ? n_frames - f0 : TRACE_BLOCK;
        const uint8_t *dec = decisions + f0 * frame_stride;
        for (int64_t tau = 0; tau < n_lead; tau++) {
            int64_t start = tau + depth - 1;
            const int64_t *b = best + start * n_frames + f0;
            for (int64_t i = 0; i < nb; i++)
                state[i] = b[i];
            for (int64_t t = start; t > tau; t--) {
                const uint8_t *row = dec + t * step_stride;
                for (int64_t i = 0; i < nb; i++) {
                    int64_t s = state[i];
                    state[i] = pred[2 * s + (row[i * frame_stride
                                                 + s * state_stride] & 1)];
                }
            }
            for (int64_t i = 0; i < nb; i++)
                bits[(f0 + i) * n_steps + tau] =
                    (int8_t)((state[i] >> shift) & 1);
        }
        const int64_t *b = best + (n_steps - 1) * n_frames + f0;
        for (int64_t i = 0; i < nb; i++)
            state[i] = b[i];
        for (int64_t tau = n_steps - 1; tau >= n_lead; tau--) {
            const uint8_t *row = dec + tau * step_stride;
            for (int64_t i = 0; i < nb; i++) {
                int64_t s = state[i];
                bits[(f0 + i) * n_steps + tau] = (int8_t)((s >> shift) & 1);
                state[i] = pred[2 * s + (row[i * frame_stride
                                             + s * state_stride] & 1)];
            }
        }
    }
}
