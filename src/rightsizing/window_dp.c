/* Compiled twin of rightsizing.offline._window_dp_numpy.
 *
 * Build with -ffp-contract=off and without -ffast-math: every sum below
 * must round as the numpy kernel's does, so both give the same schedule,
 * ties included.  min/argmin follow numpy: the first minimum wins, and the
 * first NaN sum wins over any number.  NaN operating costs count as +inf.
 * S and F are (T, W) arrays given by their element strides (st, si) and
 * (ft, fi), so C- and Fortran-ordered arrays both pass without a copy.
 */
#include <math.h>
#include <stdint.h>

static double climb(int64_t d, double beta)
{
    return d > 0 ? beta * (double)d : 0.0;
}

static inline double cost(const double *F, int64_t k)
{
    return isnan(F[k]) ? INFINITY : F[k];
}

/* Writes the lexicographically smallest minimum-cost schedule over the
 * candidate states S[t, i] with costs F[t, i] into x and returns 1, or
 * returns 0 when every schedule costs +inf.  T and W are positive, work
 * holds 2*W doubles and P (T-1)*W pointers. */
static inline int dp(int64_t T, const int64_t W, const int64_t *S, int64_t st, int64_t si,
                     const double *F, int64_t ft, int64_t fi, double beta,
                     double *work, int64_t *P, int64_t *x)
{
    double *h = work, *g = work + W;
    for (int64_t j = 0; j < W; j++)
        h[j] = 0.0;
    for (int64_t t = T - 2; t >= 0; t--) {
        const int64_t *s = S + t * st, *sn = s + st;
        /* Whether a sum below may be NaN: a NaN beta or g, or a -inf g. */
        int nan = isnan(beta);
        for (int64_t j = 0; j < W; j++) {
            g[j] = cost(F, (t + 1) * ft + j * fi) + h[j];
            nan |= !(g[j] > -INFINITY);
        }
        for (int64_t i = 0; i < W; i++) {
            int64_t s_i = s[i * si];
            double best = g[0] + climb(sn[0] - s_i, beta);
            int64_t bi = 0;
            for (int64_t j = 1; j < W; j++) {
                double v = g[j] + climb(sn[j * si] - s_i, beta);
                bi = v < best ? j : bi;
                best = v < best ? v : best;
            }
            for (int64_t j = 0; nan && j < W; j++) {
                double v = g[j] + climb(sn[j * si] - s_i, beta);
                if (isnan(v)) {
                    best = v;
                    bi = j;
                    break;
                }
            }
            h[i] = best;
            P[t * W + i] = bi;
        }
    }
    double best = 0.0;
    int64_t i = 0;
    for (int64_t j = 0; j < W; j++) {
        double v = beta * (double)S[j * si] + cost(F, j * fi) + h[j];
        if (j == 0 || v < best || (isnan(v) && !isnan(best))) {
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
