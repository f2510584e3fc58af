/* Compiled twins of the numpy kernels of the rightsizing package: the
 * window DP, the full DP's two passes and the rounding ensemble.
 *
 *   window_dp       rightsizing.offline._window_dp_numpy
 *   grid_backward   rightsizing.offline._grid_backward_numpy
 *   grid_forward    rightsizing.offline._grid_forward_numpy
 *   ensemble        rightsizing.randomized._ensemble_numpy
 *
 * Build with -ffp-contract=off and without -ffast-math: every sum below
 * must round as the numpy twin's does, so both give the same schedules,
 * ties included.  min/argmin follow numpy: the first minimum wins.  The
 * DPs' operating costs hold no NaN and no -inf (offline._kernel_costs sees
 * to that) and beta is finite, so no DP sum is NaN.  The rounding ensemble
 * draws numpy's PCG64 stream itself and compares its draws as integers; it
 * jumps the stream over the draws of slots whose moves are fixed and over
 * those of the runs outside the range a call advances.
 */
#include <math.h>
#include <stdint.h>

static double climb(int64_t d, double beta)
{
    return d > 0 ? beta * (double)d : 0.0;
}

/* np.minimum(a, b) on numbers: on a tie the second operand. */
static inline double np_min(double a, double b)
{
    return a < b ? a : b;
}

/* Writes the lexicographically smallest minimum-cost schedule over the
 * candidate states S[t, i] with costs F[t, i] into x and returns 1, or
 * returns 0 when every schedule costs +inf.  T and W are positive, work
 * holds 2*W doubles and P (T-1)*W pointers.  S and F are (T, W) arrays
 * given by their element strides (st, si) and (ft, fi), so C- and
 * Fortran-ordered arrays both pass without a copy. */
static inline int dp(int64_t T, const int64_t W, const int64_t *S, int64_t st, int64_t si,
                     const double *F, int64_t ft, int64_t fi, double beta,
                     double *work, int64_t *P, int64_t *x)
{
    double *h = work, *g = work + W;
    for (int64_t j = 0; j < W; j++)
        h[j] = 0.0;
    for (int64_t t = T - 2; t >= 0; t--) {
        const int64_t *s = S + t * st, *sn = s + st;
        for (int64_t j = 0; j < W; j++)
            g[j] = F[(t + 1) * ft + j * fi] + h[j];
        for (int64_t i = 0; i < W; i++) {
            int64_t s_i = s[i * si];
            double best = g[0] + climb(sn[0] - s_i, beta);
            int64_t bi = 0;
            for (int64_t j = 1; j < W; j++) {
                double v = g[j] + climb(sn[j * si] - s_i, beta);
                bi = v < best ? j : bi;
                best = v < best ? v : best;
            }
            h[i] = best;
            P[t * W + i] = bi;
        }
    }
    double best = 0.0;
    int64_t i = 0;
    for (int64_t j = 0; j < W; j++) {
        double v = beta * (double)S[j * si] + F[j * fi] + h[j];
        if (j == 0 || v < best) {
            best = v;
            i = j;
        }
    }
    if (!isfinite(best))
        return 0;
    x[0] = S[i * si];
    for (int64_t t = 0; t + 1 < T; t++) {
        i = P[t * W + i];
        x[t + 1] = S[(t + 1) * st + i * si];
    }
    return 1;
}

/* W = 5, the solver's window, gets a copy with the inner loops unrolled. */
int window_dp(int64_t T, int64_t W, const int64_t *S, int64_t st, int64_t si,
              const double *F, int64_t ft, int64_t fi, double beta,
              double *work, int64_t *P, int64_t *x)
{
    if (W == 5)
        return dp(T, 5, S, st, si, F, ft, fi, beta, work, P, x);
    return dp(T, W, S, st, si, F, ft, fi, beta, work, P, x);
}

/* Backward pass of the full-grid DP over B slots t, t-1, ..., t-B+1, whose
 * n operating costs are the C-ordered rows of F.  H points at the value
 * row of slot t in a C-ordered table of rows of n, and row r of F sets
 *     H[t-1-r] = min(prefix-min(c), suffix-min(c + ramp) - ramp),
 * with c = F[r] + H[t-r], in the order of offline._climb_min.  work holds
 * n doubles. */
void grid_backward(int64_t B, int64_t n, const double *F, const double *ramp,
                   double *H, double *work)
{
    for (int64_t r = 0; r < B; r++) {
        const double *f = F + r * n, *next = H - r * n;
        double *c = H - (r + 1) * n;
        for (int64_t j = 0; j < n; j++)
            c[j] = f[j] + next[j];
        double s = c[n - 1] + ramp[n - 1];
        work[n - 1] = s - ramp[n - 1];
        for (int64_t j = n - 2; j >= 0; j--) {
            s = np_min(s, c[j] + ramp[j]);
            work[j] = s - ramp[j];
        }
        double p = c[0];
        for (int64_t j = 0; j < n; j++) {
            p = j ? np_min(p, c[j]) : p;
            c[j] = np_min(p, work[j]);
        }
    }
}

/* Forward pass of the full-grid DP over B slots from the one whose value
 * row H points at: each slot takes the first argmin of
 *     (beta * max(sf - prev, 0) + F[r]) + H[r]
 * over the states, prev being the state chosen the slot before (0 before
 * the first slot), and writes it to x[r].  Returns whether the first
 * slot's minimum is finite. */
int grid_forward(int64_t B, int64_t n, const double *F, const double *H,
                 const int64_t *states, const double *sf, double beta,
                 int64_t prev, int64_t *x)
{
    int first_finite = 0;
    for (int64_t r = 0; r < B; r++) {
        const double *f = F + r * n, *h = H + r * n;
        double best = 0.0;
        int64_t bi = 0;
        for (int64_t j = 0; j < n; j++) {
            double d = sf[j] - (double)prev;
            double v = (beta * (d > 0.0 ? d : 0.0) + f[j]) + h[j];
            if (j == 0 || v < best) {
                best = v;
                bi = j;
            }
        }
        if (r == 0)
            first_finite = isfinite(best);
        prev = x[r] = states[bi];
    }
    return first_finite;
}

/* numpy's PCG64 (O'Neill's PCG XSL-RR 128/64): the 128-bit LCG step, then
 * the XSL-RR output of the new state shifted to its top 53 bits, the
 * integer k that Generator.random() returns as k * 2^-53.  The kernel
 * draws numpy's stream bit for bit. */
typedef unsigned __int128 u128;

static const u128 PCG64_MULT = (u128)0x2360ED051FC65DA4ULL << 64 | 0x4385DF649FCCF645ULL;

static inline uint64_t pcg64_random(u128 *state, u128 inc)
{
    *state = *state * PCG64_MULT + inc;
    const uint64_t v = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    const unsigned rot = (unsigned)(*state >> 122);
    return (v >> rot | v << ((64 - rot) & 63)) >> 11;
}

/* The d-step LCG map state -> a * state + c of the PCG64 generator with
 * increment inc, composed by square and multiply as numpy's
 * PCG64.advance does: one multiply-add then jumps the state over d draws. */
typedef struct {
    u128 a, c;
} lcg_jump;

static lcg_jump pcg64_jump(uint64_t d, u128 inc)
{
    lcg_jump j = {1, 0};
    u128 mult = PCG64_MULT, plus = inc;
    for (; d; d >>= 1) {
        if (d & 1) {
            j.a *= mult;
            j.c = j.c * mult + plus;
        }
        plus *= mult + 1;
        mult *= mult;
    }
    return j;
}

/* Kept out of line so that the maps stay in memory: inlined, they take the
 * registers that the draw loop of ensemble needs for the stream state, and
 * GCC then keeps the state on the stack, which made every draw slower. */
static __attribute__((noinline)) u128 jump(const lcg_jump *j, u128 state)
{
    return j->a * state + j->c;
}

/* Advances runs r0 <= r < r1 of n rounding runs over T slots, slot by
 * slot, on the stream of the PCG64 generator whose state and increment are
 * pcg = {state >> 64, state & (2^64 - 1), inc >> 64, inc & (2^64 - 1)},
 * n draws per slot, one per run, run r's draw at position r of its slot.
 * Slot s has floor S[s, 0], ceiling S[s, 1], direction dir[s] (1 up, -1
 * down, 0 when the fractional state is integral) and threshold
 * thr[s] = ceil(p * 2^53) for its move probability p: a draw k * 2^-53 is
 * below p exactly when k < thr[s].  Its operating costs are F[s, 0] on the
 * floor and F[s, 1] on the ceiling.  Each run's state x[r], operating cost
 * and power-ups are updated in slot order, and the number of the range's
 * runs above the floor is added to above[s].  A slot with moves jumps the
 * state over the r0 draws before the range, draws the range's r1 - r0 and
 * jumps over the n - r1 after it; an integral slot sends every run to its
 * floor and jumps over all n draws unread.  Disjoint ranges may run at
 * once, each with an above of its own, and every run ends as it does in a
 * single call over [0, n): how the runs are split does not change any
 * result. */
void ensemble(int64_t T, int64_t n, int64_t r0, int64_t r1, const int64_t *S,
              const uint64_t *thr, const int8_t *dir, const double *F, const uint64_t *pcg,
              int64_t *x, double *operating, int64_t *ups, int64_t *above)
{
    u128 state = (u128)pcg[0] << 64 | pcg[1];
    const u128 inc = (u128)pcg[2] << 64 | pcg[3];
    const lcg_jump all = pcg64_jump((uint64_t)n, inc), before = pcg64_jump((uint64_t)r0, inc),
                   after = pcg64_jump((uint64_t)(n - r1), inc);
    for (int64_t s = 0; s < T; s++) {
        const int64_t l = S[2 * s], h = S[2 * s + 1];
        const double f_lo = F[2 * s], f_hi = F[2 * s + 1];
        if (dir[s] == 0) {
            state = jump(&all, state);
            for (int64_t r = r0; r < r1; r++) {
                ups[r] += l > x[r] ? l - x[r] : 0;
                operating[r] += f_lo;
                x[r] = l;
            }
            continue;
        }
        /* A run moves to `to` when it is there already or its draw falls
         * below the threshold, else to `from`. */
        const int64_t to = dir[s] < 0 ? l : h, from = dir[s] < 0 ? h : l;
        const uint64_t th = thr[s];
        int64_t count = 0;
        state = jump(&before, state);
        for (int64_t r = r0; r < r1; r++) {
            const uint64_t k = pcg64_random(&state, inc);
            const int64_t xr = x[r], next = xr == to || k < th ? to : from;
            operating[r] += next == h ? f_hi : f_lo;
            ups[r] += next > xr ? next - xr : 0;
            count += next > l;
            x[r] = next;
        }
        state = jump(&after, state);
        above[s] += count;
    }
}
