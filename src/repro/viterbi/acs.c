/*
 * Compiled add-compare-select and trace-back loops for the fused decode
 * kernels (see kernels.py, which builds this file with the system C
 * compiler and loads it with ctypes).
 *
 * Every loop is bit-identical to the reference loops of decoder.py and
 * multires.py, which run wherever this file cannot be built:
 *
 * - acs_forward is the reference forward step, operation for operation: the
 *   candidate c = acc[pred] + metric is one double add, slot 1 wins
 *   only when strictly smaller (np.argmin's first-index rule), the best
 *   state is the first index of the minimum, and the renormalisation
 *   subtracts that minimum.  Compile with -ffp-contract=off and without
 *   -ffast-math so no add is fused or reassociated.
 * - acs_multires_step is one step of fused_forward_multires without its
 *   ranking: the caller ranks the states with numpy's own argsort and
 *   argpartition between calls, so ties fall exactly as in numpy, and
 *   the correction mean adds its terms in numpy's pairwise order.
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

/*
 * numpy's pairwise sum of a contiguous float64 row (what ndarray.sum
 * and ndarray.mean reduce a row with): below 8 terms a running sum, up
 * to 128 terms eight interleaved accumulators folded as a tree and then
 * the tail, beyond that the two halves (split at a multiple of 8)
 * summed recursively.
 */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* ndarray.mean of one contiguous row: the reduction starts from add's
 * identity, +0.0, adds the pairwise sum and divides by the count. */
static double row_mean(const double *a, int64_t n)
{
    return (0.0 + pairwise_sum(a, n)) / (double)n;
}

/* row_mean over n_rows contiguous rows of n_terms terms each: the
 * correction's mean, exported so tests compare it with ndarray.mean. */
void acs_row_means(
    int64_t n_rows, int64_t n_terms, const double *terms, double *means)
{
    for (int64_t r = 0; r < n_rows; r++)
        means[r] = row_mean(terms + r * n_terms, n_terms);
}

/*
 * The buffers and sizes of one multiresolution forward pass, fixed for
 * all its steps.  kernels.py mirrors this struct field for field.
 *
 * n_paths      M, the states recomputed each step; n_paths == n_states
 *              recomputes every state and needs no M-set
 * n_norm       N, the ranked states the correction averages; 0 when the
 *              decoder applies no correction
 * low_symbols, high_symbols (steps, frames) lookup-table columns; the
 *              low ones are read only when something is ranked
 * low_table    (2 * states, low combos)  as in acs_forward
 * high_table   (2 * states, high combos) already scaled for scale-offset
 * pred         (states, 2)
 * chosen       (M, frames)    the M-set, state indices (M < states only)
 * order        (frames, M)    each frame's ranking: states when
 *                             M == states, positions in chosen otherwise
 * acc          (states, frames) accumulated metrics, in and out
 * low_acc      low-resolution metrics of the begun step: (frames,
 *              states) when M == states, for argsort along rows;
 *              (states, frames) otherwise, for argpartition along columns
 * work         nacc (states, frames), low_best (states, frames),
 *              rowmin (frames), corr (frames), terms (N)
 * decisions    (steps, states, frames) out: 1 where slot 1 won
 * best         (steps, frames) out: state with the smallest metric
 */
struct multires_plan {
    int64_t n_steps, n_states, n_frames, n_paths, n_norm;
    int64_t n_low_combos, n_high_combos;
    const int64_t *low_symbols, *high_symbols;
    const double *low_table, *high_table;
    const int64_t *pred, *chosen, *order;
    double *acc, *low_acc, *work;
    uint8_t *decisions;
    int64_t *best;
};

/*
 * One step of the multiresolution forward pass (paper Sec. 3.3), split
 * around the ranking of the states, which the caller takes with numpy:
 *
 *     acs_multires_step(-1, plan)          begin step 0
 *     for t in 0 .. n_steps - 1:
 *         rank low_acc into chosen and order   (numpy)
 *         acs_multires_step(t, plan)       finish step t, begin step t + 1
 *
 * Beginning a step runs, when anything is ranked or corrected, the
 * low-resolution update of the full trellis into low_acc.  Finishing it
 * takes the correction over the N best, the high-resolution
 * recomputation of the chosen states, the merge, the best state and the
 * renormalisation of acc.  acc is not written between the two, so both
 * read the predecessors' metrics from it directly.
 *
 * The arithmetic is fused_forward_multires's, in its order: candidates
 * are acc[pred] + metric, acc[pred] + (high - corr) for recomputed
 * states; slot 1 wins only when strictly smaller; the correction term
 * of state s is min(high) - min(low) and their mean runs over a
 * contiguous row of N terms, as ndarray.mean does.
 */
void acs_multires_step(int64_t t, const struct multires_plan *plan)
{
    const int64_t S = plan->n_states, F = plan->n_frames;
    const int64_t n_paths = plan->n_paths, n_norm = plan->n_norm;
    const int64_t n_low_combos = plan->n_low_combos;
    const int64_t n_high_combos = plan->n_high_combos;
    const int64_t *restrict low_symbols = plan->low_symbols;
    const int64_t *restrict high_symbols = plan->high_symbols;
    const double *restrict low_table = plan->low_table;
    const double *restrict high_table = plan->high_table;
    const int64_t *restrict pred = plan->pred;
    const int64_t *restrict chosen = plan->chosen;
    const int64_t *restrict order = plan->order;
    double *restrict acc = plan->acc;
    double *restrict low_acc = plan->low_acc;
    double *restrict work = plan->work;
    uint8_t *restrict decisions = plan->decisions;
    int64_t *restrict best = plan->best;
    const int every = n_paths == S;
    double *low_best = work + S * F;
    double *rowmin = low_best + S * F;
    double *corr = rowmin + F;
    double *terms = corr + F;

    if (t >= 0) {
        const int64_t *sym = high_symbols + t * F;
        uint8_t *dec = decisions + t * S * F;
        int64_t *bst = best + t * F;
        if (n_norm > 0) {
            for (int64_t f = 0; f < F; f++) {
                for (int64_t j = 0; j < n_norm; j++) {
                    int64_t k = order[f * n_paths + j];
                    int64_t s = every ? k : chosen[k * F + f];
                    double h0 = high_table[s * n_high_combos + sym[f]];
                    double h1 = high_table[(S + s) * n_high_combos + sym[f]];
                    terms[j] = (h1 < h0 ? h1 : h0) - low_best[s * F + f];
                }
                corr[f] = row_mean(terms, n_norm);
            }
        }
        /* The recomputed states' candidates, merged into nacc: a fresh
         * buffer when every state is recomputed, low_acc's
         * low-resolution update otherwise. */
        double *nacc = every ? work : low_acc;
        for (int64_t j = 0; j < n_paths; j++) {
            for (int64_t f = 0; f < F; f++) {
                int64_t s = every ? j : chosen[j * F + f];
                double h0 = high_table[s * n_high_combos + sym[f]];
                double h1 = high_table[(S + s) * n_high_combos + sym[f]];
                if (n_norm > 0) {
                    h0 -= corr[f];
                    h1 -= corr[f];
                }
                double c0 = acc[pred[2 * s] * F + f] + h0;
                double c1 = acc[pred[2 * s + 1] * F + f] + h1;
                int take1 = c1 < c0;
                dec[s * F + f] = (uint8_t)take1;
                nacc[s * F + f] = take1 ? c1 : c0;
            }
        }
        for (int64_t f = 0; f < F; f++) {
            rowmin[f] = INFINITY;
            bst[f] = 0;
        }
        for (int64_t s = 0; s < S; s++) {
            const double *row = nacc + s * F;
            for (int64_t f = 0; f < F; f++) {
                if (row[f] < rowmin[f]) {
                    rowmin[f] = row[f];
                    bst[f] = s;
                }
            }
        }
        for (int64_t s = 0; s < S; s++) {
            const double *row = nacc + s * F;
            double *out = acc + s * F;
            for (int64_t f = 0; f < F; f++)
                out[f] = row[f] - rowmin[f];
        }
    }

    int64_t u = t + 1;
    if (u >= plan->n_steps || (n_norm == 0 && every))
        return;
    const int64_t *sym = low_symbols + u * F;
    uint8_t *dec = decisions + u * S * F;
    for (int64_t s = 0; s < S; s++) {
        const double *row0 = low_table + s * n_low_combos;
        const double *row1 = low_table + (S + s) * n_low_combos;
        const double *a0 = acc + pred[2 * s] * F;
        const double *a1 = acc + pred[2 * s + 1] * F;
        for (int64_t f = 0; f < F; f++) {
            double l0 = row0[sym[f]];
            double l1 = row1[sym[f]];
            double c0 = a0[f] + l0;
            double c1 = a1[f] + l1;
            int take1 = c1 < c0;
            double m = take1 ? c1 : c0;
            if (n_norm > 0)
                low_best[s * F + f] = l1 < l0 ? l1 : l0;
            if (every) {
                low_acc[f * S + s] = m;
            } else {
                low_acc[s * F + f] = m;
                dec[s * F + f] = (uint8_t)take1;
            }
        }
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
