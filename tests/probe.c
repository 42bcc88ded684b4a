/* A test-only library: the kernels' own source, plus windows into what
   the shipped exports keep in registers. Built by the ``probe`` fixture in
   conftest.py with the library's flags and -I on the package directory. */
#include "_kernels.c"

/* out[i] = vexp(x[i]) over len floats. */
void probe_vexp(const float *x, float *out, ptrdiff_t len)
{
    for (ptrdiff_t i = 0; i < len; i += VW) {
        int rest = len - i < VW ? (int)(len - i) : VW;
        vstore(out + i, vexp(vload(x + i, rest)), rest);
    }
}

/* out[i] = vdecay(x[i]) over len floats: the scan's decay of the argument
   x = delta * (a * 16/ln 2). */
void probe_vdecay(const float *x, float *out, ptrdiff_t len)
{
    for (ptrdiff_t i = 0; i < len; i += VW) {
        int rest = len - i < VW ? (int)(len - i) : VW;
        vstore(out + i, vdecay(vload(x + i, rest)), rest);
    }
}

/* ssm_scan's loop, one scan_step per token and channel block, which also
   copies the state after each token to states (len x e x n, in token
   order). Returns 0, or -1 when the state cannot be allocated. */
int probe_scan_states(const float *delta, const float *at, const float *x,
                      const float *b, const float *c, const float *skip, float *y,
                      float *states, ptrdiff_t len, ptrdiff_t e, ptrdiff_t n, int reverse)
{
    ptrdiff_t blocks = (e + VW - 1) / VW;
    vf *state = aligned_alloc(sizeof(vf), (size_t)(blocks * n + 1) * sizeof(vf));
    if (state == NULL)
        return -1;
    memset(state, 0, (size_t)(blocks * n) * sizeof(vf));
    for (ptrdiff_t s = 0; s < len; s++) {
        ptrdiff_t t = reverse ? len - 1 - s : s;
        for (ptrdiff_t q = 0; q < blocks; q++) {
            int rest = e - q * VW < VW ? (int)(e - q * VW) : VW;
            vf *h = state + q * n;
            scan_step(delta + t * e, at, x + t * e, b + t * n, c + t * n, skip, h, y + t * e,
                      q * VW, e, n, rest);
            for (int l = 0; l < rest; l++)
                for (ptrdiff_t j = 0; j < n; j++)
                    states[(t * e + q * VW + l) * n + j] = h[j][l];
        }
    }
    free(state);
    return 0;
}
