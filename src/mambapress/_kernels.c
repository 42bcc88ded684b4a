/* The C kernels of mambapress.kernels, built on first use with
   kernels._CFLAGS and bound from kernels._EXPORTS. The module docstring
   states each kernel's contract and the recipe of the pinned exp. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define VW 16
typedef float vf __attribute__((vector_size(VW * sizeof(float))));
typedef float vfu __attribute__((vector_size(VW * sizeof(float)), aligned(sizeof(float))));
typedef int vi __attribute__((vector_size(VW * sizeof(int))));
typedef unsigned vu __attribute__((vector_size(VW * sizeof(unsigned))));

/* acc[r][v] = the dots of row r of a (mr x k) with the VW columns of b
   from v*VW on. Each is summed over t = 0..k-1 in order, a float32
   product then a float32 add (-ffp-contract=off: no FMA). */
static inline __attribute__((always_inline)) void
dots(const float *a, ptrdiff_t k, const float *b, ptrdiff_t ldb, vf acc[4][4],
     const int mr, const int nv)
{
    for (int r = 0; r < mr; r++)
        for (int v = 0; v < nv; v++)
            acc[r][v] = (vf){0};
    for (ptrdiff_t t = 0; t < k; t++) {
        vf bv[4];
        for (int v = 0; v < nv; v++)
            bv[v] = *(const vfu *)(b + t * ldb + v * VW);
        for (int r = 0; r < mr; r++) {
            float ar = a[r * k + t];
            for (int v = 0; v < nv; v++)
                acc[r][v] = acc[r][v] + ar * bv[v];
        }
    }
}

/* One mr x (nv*VW) tile of c, of which ncols columns are stored. */
static inline __attribute__((always_inline)) void
tile(const float *a, ptrdiff_t k, const float *b, ptrdiff_t ldb,
     float *c, ptrdiff_t ldc, ptrdiff_t ncols, const int mr, const int nv)
{
    vf acc[4][4];
    dots(a, k, b, ldb, acc, mr, nv);
    for (int r = 0; r < mr; r++) {
        if (ncols == nv * VW) {
            for (int v = 0; v < nv; v++)
                *(vfu *)(c + r * ldc + v * VW) = acc[r][v];
        } else {
            memcpy(c + r * ldc, acc[r], (size_t)ncols * sizeof(float));
        }
    }
}

static void
panel(const float *a, ptrdiff_t m, ptrdiff_t k, const float *b, ptrdiff_t ldb,
      float *c, ptrdiff_t ldc, ptrdiff_t ncols, const int nv)
{
    ptrdiff_t i = 0;
    for (; i + 4 <= m; i += 4)
        tile(a + i * k, k, b, ldb, c + i * ldc, ldc, ncols, 4, nv);
    for (; i < m; i++)
        tile(a + i * k, k, b, ldb, c + i * ldc, ldc, ncols, 1, nv);
}

/* A zero-padded k x VW copy of the last p - j (< VW) columns of b (k x p),
   or NULL when it cannot be allocated. The caller frees it. */
static float *
tail_panel(const float *b, ptrdiff_t k, ptrdiff_t p, ptrdiff_t j)
{
    float *pad = calloc((size_t)(k > 0 ? k : 1) * VW, sizeof(float));
    if (pad != NULL)
        for (ptrdiff_t t = 0; t < k; t++)
            memcpy(pad + t * VW, b + t * p + j, (size_t)(p - j) * sizeof(float));
    return pad;
}

/* c (m x p) = a (m x k) @ b (k x p), all row-major and contiguous.
   Returns 0, or -1 when the padded tail panel cannot be allocated. */
int ltr_matmul(const float *a, const float *b, float *c,
               ptrdiff_t m, ptrdiff_t k, ptrdiff_t p)
{
    ptrdiff_t j = 0;
    for (; j + 4 * VW <= p; j += 4 * VW)
        panel(a, m, k, b + j, p, c + j, p, 4 * VW, 4);
    for (; j + VW <= p; j += VW)
        panel(a, m, k, b + j, p, c + j, p, VW, 1);
    if (j < p) {
        float *pad = tail_panel(b, k, p, j);
        if (pad == NULL)
            return -1;
        panel(a, m, k, pad, VW, c + j, p, p - j, 1);
        free(pad);
    }
    return 0;
}

/* Loads or stores the first rest lanes of a vector; the other lanes load
   as 0 and are not stored. */
static inline __attribute__((always_inline)) vf
vload(const float *p, int rest)
{
    if (rest == VW)
        return *(const vfu *)p;
    vf v = {0};
    memcpy(&v, p, (size_t)rest * sizeof(float));
    return v;
}

static inline __attribute__((always_inline)) void
vstore(float *p, vf v, int rest)
{
    if (rest == VW)
        *(vfu *)p = v;
    else
        memcpy(p, &v, (size_t)rest * sizeof(float));
}

/* 2^(i/16) for i = 0..15, rounded to float32. */
static const vf exp2_sixteenths = {
    0x1p+0f, 0x1.0b5586p+0f, 0x1.172b84p+0f, 0x1.2387a6p+0f,
    0x1.306fe0p+0f, 0x1.3dea64p+0f, 0x1.4bfdaep+0f, 0x1.5ab07ep+0f,
    0x1.6a09e6p+0f, 0x1.7a1148p+0f, 0x1.8ace54p+0f, 0x1.9c4918p+0f,
    0x1.ae89fap+0f, 0x1.c199bep+0f, 0x1.d5818ep+0f, 0x1.ea4afap+0f,
};

/* Lanes of a where m is set, else lanes of b. */
static inline __attribute__((always_inline)) vf
pick(vi m, vf a, vf b)
{
    return (vf)(((vi)a & m) | ((vi)b & ~m));
}

/* The pinned float32 exp, per lane (recipe in the module docstring);
   _exp_numpy repeats every step. n carries a bias of 254*16: n & 15 stays
   as it is, and the exponents e1 and e2 of the two scale factors come out
   with their float32 bias of 127. */
static inline __attribute__((always_inline)) vf
vexp(vf x)
{
    const vf magic = (vf){0} + 0x1.8p+23f;
    x = pick(x < -104.0f, (vf){0} - 104.0f, x);
    x = pick(x > 88.75f, (vf){0} + 88.75f, x);
    vf km = x * 0x1.715476p+4f + magic;
    vf k = km - magic;
    vi n = (vi)km - (0x4b400000 - 254 * 16);
    vf r = x - k * 0x1.62ep-5f;
    r = r - k * 0x1.0bfbe8p-19f;
    vf p = r * 0x1.555556p-5f + 0x1.555556p-3f;
    p = p * r + 0.5f;
    p = p * r;
    p = p * r + r;
    vf t = __builtin_shuffle(exp2_sixteenths, n & 15);
    p = t * p + t;
    vi e = n >> 4, e1 = e >> 1, e2 = e - e1;
    return (p * (vf)((vu)e1 << 23)) * (vf)((vu)e2 << 23);
}

/* The scan's decay 2^(x/16) per lane, for x = delta * (a * 16/ln 2): the
   decay front end of the pinned exp (recipe in the module docstring);
   _decay_numpy repeats every step. A positive x becomes +0 (a decay of 1)
   by an and-not. One below -2032 becomes -2032, by a lane loop that GCC
   turns into one masked move, where pick() costs two. So n =
   rint(x) + 127*16 lies in [0, 2032], and n >> 4 is the biased exponent of
   the one scale factor, 0 giving a factor of +0. The table lookup reads n
   modulo 16, as __builtin_shuffle defines it. */
static inline __attribute__((always_inline)) vf
vdecay(vf x)
{
    const vf magic = (vf){0} + 0x1.8p+23f;
    x = (vf)((vi)x & ~(x > 0.0f));
    for (int l = 0; l < VW; l++)
        x[l] = x[l] < -2032.0f ? -2032.0f : x[l];
    vf km = x + magic;
    vf k = km - magic;
    vi n = (vi)km - (0x4b400000 - 127 * 16);
    vf r = x - k;
    vf p = r * 0x1.c6b46ap-17f + 0x1.ebfff4p-11f;
    p = p * r + 0x1.62e43p-5f;
    p = p * r;
    vf t = __builtin_shuffle(exp2_sixteenths, n);
    p = t * p + t;
    return p * (vf)((vu)(n >> 4) << 23);
}

/* out[i] = exp(x[i]) with the pinned exp over len floats; out may be x. */
void exp_f32(const float *x, float *out, ptrdiff_t len)
{
    for (ptrdiff_t i = 0; i < len; i += VW) {
        int rest = len - i < VW ? (int)(len - i) : VW;
        vstore(out + i, vexp(vload(x + i, rest)), rest);
    }
}

/* x / (1 + exp(-x)) per lane, each step a rounded float32 operation,
   with the pinned exp. */
static inline __attribute__((always_inline)) vf
vsilu(vf x)
{
    return x / (1.0f + vexp(-x));
}

/* out[i] = silu(x[i]) over len floats. */
void silu(const float *x, float *out, ptrdiff_t len)
{
    for (ptrdiff_t i = 0; i < len; i += VW) {
        int rest = len - i < VW ? (int)(len - i) : VW;
        vstore(out + i, vsilu(vload(x + i, rest)), rest);
    }
}

/* The block gate: out[t, i] = silu(z[t, i]) * (((ys[0] + ys[1]) + ...) +
   ys[heads-1])[t, i], each step a rounded float32 operation. z is read
   with row stride ldz; out and every ys[h] are len x e and contiguous. */
void gate(const float *z, ptrdiff_t ldz, const float *const *ys, ptrdiff_t heads,
          float *out, ptrdiff_t len, ptrdiff_t e)
{
    for (ptrdiff_t t = 0; t < len; t++)
        for (ptrdiff_t i = 0; i < e; i += VW) {
            int rest = e - i < VW ? (int)(e - i) : VW;
            vf sum = vload(ys[0] + t * e + i, rest);
            for (ptrdiff_t h = 1; h < heads; h++)
                sum = sum + vload(ys[h] + t * e + i, rest);
            vstore(out + t * e + i, vsilu(vload(z + t * ldz + i, rest)) * sum, rest);
        }
}

/* numpy's pairwise order for a contiguous float32 sum of the n terms x[i],
   or of x[i]*x[i], each product rounded, when square is set: under 8
   terms in sequence from -0; up to 128 in 8 accumulators combined as
   ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail in sequence; above
   128 halved at a multiple of 8. numpy adds the result to +0, its
   identity; callers do that step. */
static float
pairwise_sum(const float *x, ptrdiff_t n, int square)
{
    float s = -0.0f;
    ptrdiff_t i = 0;
    if (n < 8) {
        for (; i < n; i++)
            s += square ? x[i] * x[i] : x[i];
        return s;
    }
    if (n <= 128) {
        float r[8];
        for (int k = 0; k < 8; k++)
            r[k] = square ? x[k] * x[k] : x[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += square ? x[i + k] * x[i + k] : x[i + k];
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            s += square ? x[i] * x[i] : x[i];
        return s;
    }
    ptrdiff_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(x, half, square) + pairwise_sum(x + half, n - half, square);
}

/* Layer normalization of each row of x (len x d) into out, as numpy's
   float32 chain computes it: mean = (0 + sum x) / d, c = x - mean, var =
   (0 + sum c*c) / d, each sum in pairwise order and each quotient taken
   in float64 and rounded once, as np.mean does; inv = 1 / sqrt(var +
   1e-5); out = ((c * inv) * scale) + bias. Every other step is a rounded
   float32 operation. */
void layernorm(const float *x, const float *scale, const float *bias, float *out,
               ptrdiff_t len, ptrdiff_t d)
{
    for (ptrdiff_t t = 0; t < len; t++) {
        const float *xt = x + t * d;
        float *o = out + t * d;
        float mean = (float)((double)(0.0f + pairwise_sum(xt, d, 0)) / (double)d);
        for (ptrdiff_t i = 0; i < d; i++)
            o[i] = xt[i] - mean;
        float var = (float)((double)(0.0f + pairwise_sum(o, d, 1)) / (double)d);
        float inv = 1.0f / sqrtf(var + 1e-5f);
        for (ptrdiff_t i = 0; i < d; i++)
            o[i] = o[i] * inv * scale[i] + bias[i];
    }
}

/* One merge term, added into acc: row xr widened to float64 and, when
   weighted, times its weight wr. */
static inline __attribute__((always_inline)) void
fold_row(double *restrict acc, const float *restrict xr, int64_t wr, int weighted,
         ptrdiff_t d)
{
    if (weighted) {
        const double wd = (double)wr;
        for (ptrdiff_t c = 0; c < d; c++)
            acc[c] = acc[c] + (double)xr[c] * wd;
    } else {
        for (ptrdiff_t c = 0; c < d; c++)
            acc[c] = acc[c] + (double)xr[c];
    }
}

/* Drops the rows of x (n x d) whose keep is 0 and folds each merged source
   into its target. edges (s x 2) holds (source, target) row pairs whose
   rows are in range, whose sources are distinct and not kept and whose
   targets are kept. Kept rows are copied to out in order, their weights w
   to wout. A target's float64 accumulator starts at 0.0 plus its own term
   and adds its sources' terms in edge order; it is divided once by the
   group's weight sum (weighted) or member count (not), rounded to float32
   and stored at the target's row, and wout there takes the weight sum,
   wrapping as int64 does. Returns 0, or -1 when the accumulators cannot
   be allocated. */
int merge_fold(const float *x, const int64_t *w, const unsigned char *keep,
               const int64_t *edges, float *out, int64_t *wout, ptrdiff_t n,
               ptrdiff_t d, ptrdiff_t s, int weighted)
{
    /* pos[i]: row i's output row; slot[i]: its group, or -1. Per group g:
       its target, weight sum and source count in grp[3g..3g+2]. */
    ptrdiff_t *pos = malloc((size_t)(2 * n + 1) * sizeof(ptrdiff_t));
    int64_t *grp = malloc((size_t)(3 * s + 1) * sizeof(int64_t));
    double *acc = malloc((size_t)(s * d + 1) * sizeof(double));
    if (pos == NULL || grp == NULL || acc == NULL) {
        free(pos);
        free(grp);
        free(acc);
        return -1;
    }
    ptrdiff_t *slot = pos + n, m = 0, groups = 0;
    for (ptrdiff_t i = 0; i < n; i++) {
        slot[i] = -1;
        if (keep[i]) {
            memcpy(out + m * d, x + i * d, (size_t)d * sizeof(float));
            wout[m] = w[i];
            pos[i] = m++;
        }
    }
    for (ptrdiff_t q = 0; q < s; q++) {
        const int64_t src = edges[2 * q], tgt = edges[2 * q + 1];
        ptrdiff_t g = slot[tgt];
        if (g < 0) {
            g = slot[tgt] = groups++;
            for (ptrdiff_t c = 0; c < d; c++)
                acc[g * d + c] = 0.0;
            fold_row(acc + g * d, x + tgt * d, w[tgt], weighted, d);
            grp[3 * g] = tgt;
            grp[3 * g + 1] = w[tgt];
            grp[3 * g + 2] = 0;
        }
        fold_row(acc + g * d, x + src * d, w[src], weighted, d);
        grp[3 * g + 1] = (int64_t)((uint64_t)grp[3 * g + 1] + (uint64_t)w[src]);
        grp[3 * g + 2]++;
    }
    for (ptrdiff_t g = 0; g < groups; g++) {
        const ptrdiff_t row = pos[grp[3 * g]];
        const double denom = weighted ? (double)grp[3 * g + 1] : (double)grp[3 * g + 2] + 1.0;
        for (ptrdiff_t c = 0; c < d; c++)
            out[row * d + c] = (float)(acc[g * d + c] / denom);
        wout[row] = grp[3 * g + 1];
    }
    free(pos);
    free(grp);
    free(acc);
    return 0;
}

/* Per lane, sum_j h[j]*c[j] in numpy's pairwise order for a contiguous
   float32 sum: under 8 terms in sequence; up to 128 in 8 accumulators
   combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail in
   sequence; above 128 halved at a multiple of 8. Each product is rounded
   before its add. h holds n rows of VW lanes, one channel per lane. */
static vf
readout(const vf *h, const float *c, ptrdiff_t n)
{
    vf s = -(vf){0};
    ptrdiff_t i = 0;
    if (n < 8) {
        for (; i < n; i++)
            s += h[i] * c[i];
        return s;
    }
    if (n <= 128) {
        vf r[8];
        for (int k = 0; k < 8; k++)
            r[k] = h[k] * c[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += h[i + k] * c[i + k];
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            s += h[i] * c[i];
        return s;
    }
    ptrdiff_t half = n / 2;
    half -= half % 8;
    return readout(h, c, half) + readout(h + half, c + half, n - half);
}

/* One token of the scan for the rest <= VW channels at column i: dx =
   delta*x, per state abar = exp(delta*a), h = abar*h then h + dx*b, y =
   (0 + readout) + skip*x, each a separately rounded float32 operation. */
static inline __attribute__((always_inline)) void
scan_step(const float *delta, const float *at, const float *x, const float *b,
          const float *c, const float *skip, vf *h, float *y, ptrdiff_t i,
          ptrdiff_t e, ptrdiff_t n, int rest)
{
    const vf xv = vload(x + i, rest);
    const vf dv = vload(delta + i, rest);
    const vf dx = dv * xv;
    for (ptrdiff_t j = 0; j < n; j++) {
        vf decayed = vdecay(dv * vload(at + j * e + i, rest)) * h[j];
        h[j] = decayed + dx * b[j];
    }
    vf out = ((vf){0} + readout(h, c, n)) + vload(skip + i, rest) * xv;
    vstore(y + i, out, rest);
}

/* The selective scan over len tokens, e channels, n states, from a zero
   state, visiting tokens first to last, or last to first when reverse is
   set. delta, x and y are len x e, at (n x e) is the transpose of the
   state matrix a, b and c are len x n, skip e, all in token order. Each
   token's decays are computed in registers right before the recurrence
   reads them. Channels run in blocks of VW vector lanes. Returns 0, or -1
   when the state cannot be allocated. */
int ssm_scan(const float *delta, const float *at, const float *x,
             const float *b, const float *c, const float *skip, float *y,
             ptrdiff_t len, ptrdiff_t e, ptrdiff_t n, int reverse)
{
    ptrdiff_t blocks = (e + VW - 1) / VW;
    vf *state = aligned_alloc(sizeof(vf), (size_t)(blocks * n + 1) * sizeof(vf));
    if (state == NULL)
        return -1;
    memset(state, 0, (size_t)(blocks * n) * sizeof(vf));
    for (ptrdiff_t s = 0; s < len; s++) {
        ptrdiff_t t = reverse ? len - 1 - s : s;
        const float *dt = delta + t * e, *xt = x + t * e;
        const float *bt = b + t * n, *ct = c + t * n;
        float *yt = y + t * e;
        ptrdiff_t q = 0;
        for (; (q + 1) * VW <= e; q++)
            scan_step(dt, at, xt, bt, ct, skip, state + q * n, yt, q * VW, e, n, VW);
        if (q * VW < e)
            scan_step(dt, at, xt, bt, ct, skip, state + q * n, yt, q * VW, e, n,
                      (int)(e - q * VW));
    }
    free(state);
    return 0;
}

/* Depthwise causal convolution: out[t, i] adds kt[j, i] * x[t - (w-1) + j, i]
   for taps j = 0..w-1 in order into 0.0f, skipping taps before the start
   of the sequence. With reverse set, causal in the other direction: the
   taps read x[t + (w-1) - j, i], skipping those past the end. kt (w x e)
   is the transpose of the (e x w) kernel. */
void causal_conv(const float *restrict x, const float *restrict kt,
                 float *restrict out, ptrdiff_t len, ptrdiff_t e, ptrdiff_t w,
                 int reverse)
{
    const ptrdiff_t step = reverse ? -1 : 1;
    for (ptrdiff_t t = 0; t < len; t++) {
        float *o = out + t * e;
        ptrdiff_t room = reverse ? len - 1 - t : t;  /* tokens before t in scan order */
        for (ptrdiff_t i = 0; i < e; i++)
            o[i] = 0.0f;
        for (ptrdiff_t j = room < w - 1 ? w - 1 - room : 0; j < w; j++) {
            const float *xs = x + (t + step * (j - (w - 1))) * e, *k = kt + j * e;
            for (ptrdiff_t i = 0; i < e; i++)
                o[i] = o[i] + k[i] * xs[i];
        }
    }
}

static const vi lanes = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};

/* Folds an mr x (nv*VW) block of cosine similarities, from column col on,
   into each row's running first maximum. The dots are those of tile(); each
   is divided by the rounded na*nb. A column or row whose norm is under the
   floor, or NaN, has similarity +0; lanes from live on, past the last
   column, have -inf, which never wins. Per row and lane, max and arg hold
   the greatest similarity so far and the first column holding it: a strict
   > keeps the first of equal values, -0 and +0 included. A NaN similarity
   sets the lanes of *nan. */
static inline __attribute__((always_inline)) void
best_tile(const float *a, ptrdiff_t k, const float *bt, ptrdiff_t ldb,
          const float *na, const float *nb, float floor, int col, int live,
          vf *max, vi *arg, vi *nan, const int mr, const int nv)
{
    vf acc[4][4];
    dots(a, k, bt, ldb, acc, mr, nv);
    for (int v = 0; v < nv; v++) {
        const vf nbv = vload(nb + v * VW, live < VW ? live : VW);
        const vi in = lanes < (vi){0} + (live - v * VW);
        const vi col_ok = (nbv >= floor) & in;
        const vi idx = lanes + (col + v * VW);
        for (int r = 0; r < mr; r++) {
            vf q = acc[r][v] / (na[r] * nbv);
            q = pick(na[r] >= floor ? col_ok : (vi){0}, q, (vf){0});
            q = pick(in, q, (vf){0} - __builtin_inff());
            *nan |= q != q;
            const vi gt = q > max[r];
            max[r] = pick(gt, q, max[r]);
            arg[r] = (gt & idx) | (~gt & arg[r]);
        }
    }
}

/* For mr rows of a, each row's first column of greatest similarity: the
   full panels of bt, then the padded tail panel pad (k x VW) if p is not a
   multiple of VW. */
static inline __attribute__((always_inline)) void
best_rows(const float *a, ptrdiff_t k, const float *bt, const float *pad,
          const float *na, const float *nb, float floor, ptrdiff_t *best,
          ptrdiff_t p, vi *nan, const int mr)
{
    vf max[4];
    vi arg[4];
    for (int r = 0; r < mr; r++) {
        max[r] = (vf){0} - __builtin_inff();
        arg[r] = (vi){0};
    }
    ptrdiff_t j = 0;
    for (; j + 2 * VW <= p; j += 2 * VW)
        best_tile(a, k, bt + j, p, na, nb + j, floor, (int)j, 2 * VW, max, arg, nan, mr, 2);
    for (; j + VW <= p; j += VW)
        best_tile(a, k, bt + j, p, na, nb + j, floor, (int)j, VW, max, arg, nan, mr, 1);
    if (j < p)
        best_tile(a, k, pad, VW, na, nb + j, floor, (int)j, (int)(p - j), max, arg, nan, mr, 1);
    /* The greatest lane maximum; of equal ones, the first column. */
    for (int r = 0; r < mr; r++) {
        int at = 0;
        for (int l = 1; l < VW; l++)
            if (max[r][l] > max[r][at] || (max[r][l] == max[r][at] && arg[r][l] < arg[r][at]))
                at = l;
        best[r] = arg[r][at];
    }
}

/* best[i] = argmax over j of the cosine similarity of row i of a (m x k)
   and row j of b (p x k, p < 2^31), which bt (k x p) holds transposed: the
   argmax of row i of cosine_matrix(a, b), without the matrix. na (m) and nb
   (p) are the rows' norms. Rows run in blocks of 4, each against all
   columns. Returns 0; 1 when some similarity is NaN; -1 when the padded
   tail panel cannot be allocated. */
int cosine_argmax(const float *a, const float *bt, const float *na, const float *nb,
                  float floor, ptrdiff_t *best, ptrdiff_t m, ptrdiff_t k, ptrdiff_t p)
{
    ptrdiff_t j = p - p % VW;
    float *pad = NULL;
    if (j < p && (pad = tail_panel(bt, k, p, j)) == NULL)
        return -1;
    vi nan = {0};
    ptrdiff_t i = 0;
    for (; i + 4 <= m; i += 4)
        best_rows(a + i * k, k, bt, pad, na + i, nb, floor, best + i, p, &nan, 4);
    for (; i < m; i++)
        best_rows(a + i * k, k, bt, pad, na + i, nb, floor, best + i, p, &nan, 1);
    free(pad);
    for (int l = 0; l < VW; l++)
        if (nan[l])
            return 1;
    return 0;
}
