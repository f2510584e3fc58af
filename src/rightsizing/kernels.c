/* Compiled twins of the numpy kernels of the rightsizing package: the
 * window DP, the full DP's two passes and the rounding ensemble's advance.
 *
 *   window_dp       rightsizing.offline._window_dp_numpy
 *   grid_backward   rightsizing.offline._grid_backward_numpy
 *   grid_forward    rightsizing.offline._grid_forward_numpy
 *   ensemble_block  rightsizing.randomized._ensemble_block_numpy
 *
 * Build with -ffp-contract=off and without -ffast-math: every sum below
 * must round as the numpy twin's does, so both give the same schedules,
 * ties included.  min/argmin follow numpy: the first minimum wins.  The
 * operating costs hold no NaN and no -inf (offline._kernel_costs sees to
 * that) and beta is finite, so no sum below is NaN.
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

/* Advances n rounding runs over B slots from slot t: U holds one uniform
 * draw per run and slot (B rows of n), and slot s has floor S[s, 0],
 * ceiling S[s, 1], move probability p[s] and direction dir[s] (1 up, -1
 * down, 0 when the fractional state is integral), with operating costs
 * F[s, 0] on the floor and F[s, 1] on the ceiling.  Each run's state x,
 * operating cost, and up and down moves are updated in slot order, and
 * upper[s] gets the number of runs above the floor. */
void ensemble_block(int64_t t, int64_t B, int64_t n, const int64_t *S,
                    const double *p, const int8_t *dir, const double *F, const double *U,
                    int64_t *x, double *operating, int64_t *ups, int64_t *downs,
                    double *upper)
{
    for (int64_t b = 0; b < B; b++)
        upper[t + b] = 0.0;
    for (int64_t r = 0; r < n; r++) {
        int64_t xr = x[r], up = ups[r], down = downs[r];
        double op = operating[r];
        for (int64_t b = 0; b < B; b++) {
            const int64_t s = t + b, l = S[2 * s], h = S[2 * s + 1];
            /* A run moves to `to` when it is there already or its draw falls
             * below the probability, else to `from`; an integral slot sends
             * every run to its floor. */
            const int64_t to = dir[s] < 0 ? l : h, from = dir[s] < 0 ? h : l;
            const int go = dir[s] == 0 || xr == to || U[b * n + r] < p[s];
            const int64_t next = go ? to : from;
            op += next == h ? F[2 * s + 1] : F[2 * s];
            up += next > xr ? next - xr : 0;
            down += next < xr ? xr - next : 0;
            upper[s] += next > l;
            xr = next;
        }
        x[r] = xr;
        operating[r] = op;
        ups[r] = up;
        downs[r] = down;
    }
}
