/* The two interpreter-bound loops of the GAT engine, in C.
 *
 * (a) The best-first cell walk of Algorithm 1 (Section V-A): one heap over
 *     every query point's cells, keyed by (mdist, tick) exactly like the
 *     tuples it replaced, the pruned child expansion from the query's HICL
 *     union bitmaps and per-(query point, level) axis gap tables, and the
 *     leaf harvest over the ITL's CSR arrays.  A missing table suspends the
 *     walk: gat_walk_run returns 1 with need_qi / need_level set, the caller
 *     loads the table (counted HICL reads) and calls again.
 * (b) The Dmom row fold of Algorithm 4 over a candidate block's columns,
 *     walking the candidates in ascending Dmm-gate order with a running
 *     k-th threshold.
 * (c) CPython's two-argument math.hypot (vector_norm), so that every
 *     MINDIST — and so the heap order — is bit-identical to the Python
 *     walk's.  Compile with -ffp-contract=off: a fused multiply-add would
 *     break the error-free products.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* ---------------------------------------------------------------------
 * (c) math.hypot
 * ------------------------------------------------------------------- */
typedef struct { double hi, lo; } gat_dl;

static gat_dl dl_split(double x) {
    double t = x * 134217729.0; /* Veltkamp: 2**27 + 1 */
    double hi = t - (t - x);
    return (gat_dl){hi, x - hi};
}

static gat_dl dl_mul(double x, double y) { /* Dekker: x * y == hi + lo */
    gat_dl xx = dl_split(x), yy = dl_split(y);
    double p = xx.hi * yy.hi;
    double q = xx.hi * yy.lo + xx.lo * yy.hi;
    double z = p + q;
    return (gat_dl){z, p - z + q + xx.lo * yy.lo};
}

static gat_dl dl_fast_sum(double a, double b) { /* |a| >= |b| */
    double x = a + b;
    return (gat_dl){x, (a - x) + b};
}

static double vector_norm2(double *vec, double max) {
    double x, h, scale, csum = 1.0, frac1 = 0.0, frac2 = 0.0;
    gat_dl pr, sm;
    int max_e;

    if (isinf(max) || max == 0.0)
        return max;
    if (isnan(vec[0]) || isnan(vec[1]))
        return NAN;
    frexp(max, &max_e);
    if (max_e < -1023) { /* ldexp(1.0, -max_e) would overflow */
        vec[0] /= DBL_MIN;
        vec[1] /= DBL_MIN;
        return DBL_MIN * vector_norm2(vec, max / DBL_MIN);
    }
    scale = ldexp(1.0, -max_e);
    for (int i = 0; i < 2; i++) {
        x = vec[i] * scale; /* lossless scaling */
        pr = dl_mul(x, x);  /* lossless squaring */
        sm = dl_fast_sum(csum, pr.hi);
        csum = sm.hi;
        frac1 += pr.lo;
        frac2 += sm.lo;
    }
    h = sqrt(csum - 1.0 + (frac1 + frac2));
    pr = dl_mul(-h, h);
    sm = dl_fast_sum(csum, pr.hi);
    csum = sm.hi;
    frac1 += pr.lo;
    frac2 += sm.lo;
    x = csum - 1.0 + (frac1 + frac2);
    h += x / (2.0 * h); /* differential correction */
    return h / scale;
}

double gat_hypot(double x, double y) {
    double vec[2] = {fabs(x), fabs(y)};
    double max = 0.0;
    for (int i = 0; i < 2; i++)
        if (vec[i] > max)
            max = vec[i];
    return vector_norm2(vec, max);
}

/* ---------------------------------------------------------------------
 * (a) The best-first walk
 * ------------------------------------------------------------------- */
typedef struct {
    double mdist;
    int64_t tick;
    int64_t code;
    int32_t level, qi, cx, cy;
} gat_entry;

typedef struct {
    const uint8_t *bits; /* q_i's HICL union at the level, one bit per cell */
    const double *gx;    /* column gaps */
    const double *gy;    /* row gaps */
} gat_table;

typedef struct {
    int32_t n_points, depth;
    gat_table *tables; /* [n_points * (depth + 1)], index qi * (depth + 1) + level */
    const int64_t *keys, *offsets, *rows; /* the ITL: key k owns rows[offsets[k]:offsets[k+1]] */
    int64_t n_keys;
    const int64_t *acts, *act_start; /* q_i's activities: acts[act_start[qi]:act_start[qi+1]] */
    uint8_t *done;                   /* bit per ITL key: harvested */
    uint8_t *seen;                   /* bit per APL row: handed out */
    int64_t *out;                    /* rows handed out, in order */
    int64_t n_out;
    gat_entry *heap;
    int64_t size, cap, tick;
    int32_t next_root; /* query points whose root is not expanded yet start here */
    int32_t pending;   /* 1 while `parent` waits for its child level's table */
    gat_entry parent;
    int32_t need_qi, need_level;
    int64_t popped, leaves;
} gat_walk;

gat_walk *gat_walk_new(void) { return calloc(1, sizeof(gat_walk)); }

void gat_walk_free(gat_walk *w) {
    free(w->heap);
    free(w);
}

static int before(const gat_entry *a, const gat_entry *b) {
    return a->mdist < b->mdist || (a->mdist == b->mdist && a->tick < b->tick);
}

static int push(gat_walk *w, gat_entry e) {
    if (w->size == w->cap) {
        int64_t cap = w->cap ? 2 * w->cap : 256;
        gat_entry *heap = realloc(w->heap, cap * sizeof(gat_entry));
        if (!heap)
            return -1;
        w->heap = heap;
        w->cap = cap;
    }
    int64_t i = w->size++;
    while (i > 0) {
        int64_t up = (i - 1) >> 1;
        if (!before(&e, &w->heap[up]))
            break;
        w->heap[i] = w->heap[up];
        i = up;
    }
    w->heap[i] = e;
    return 0;
}

static gat_entry pop(gat_walk *w) {
    gat_entry top = w->heap[0], last = w->heap[--w->size];
    int64_t i = 0, n = w->size;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && before(&w->heap[c + 1], &w->heap[c]))
            c++;
        if (!before(&w->heap[c], &last))
            break;
        w->heap[i] = w->heap[c];
        i = c;
    }
    if (n)
        w->heap[i] = last;
    return top;
}

/* Push the children of *p that hold one of q_i's activities: 0 done, 1 the
 * child level's table is missing, -1 out of memory. */
static int expand(gat_walk *w, const gat_entry *p) {
    int32_t level = p->level + 1;
    const gat_table *t = &w->tables[(int64_t)p->qi * (w->depth + 1) + level];
    if (!t->bits) {
        w->need_qi = p->qi;
        w->need_level = level;
        return 1;
    }
    int nibble = (t->bits[p->code >> 1] >> ((p->code & 1) << 2)) & 15;
    for (int j = 0; j < 4; j++) {
        if (!(nibble >> j & 1))
            continue;
        int32_t cx = 2 * p->cx + (j & 1), cy = 2 * p->cy + (j >> 1);
        double x = t->gx[cx], y = t->gy[cy];
        gat_entry e = {y, w->tick++, 4 * p->code + j, level, p->qi, cx, cy};
        if (x != 0.0)
            e.mdist = y == 0.0 ? x : gat_hypot(x, y);
        if (push(w, e))
            return -1;
    }
    return 0;
}

static int64_t find_key(const gat_walk *w, int64_t key) {
    int64_t lo = 0, hi = w->n_keys;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (w->keys[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < w->n_keys && w->keys[lo] == key ? lo : -1;
}

static int cmp_rows(const void *a, const void *b) {
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Hand out the rows of leaf e's lists of q_i's activities not handed out
 * yet, ascending; a (leaf, activity) list is read once per query. */
static void harvest(gat_walk *w, const gat_entry *e) {
    int64_t first = w->n_out;
    for (int64_t a = w->act_start[e->qi]; a < w->act_start[e->qi + 1]; a++) {
        int64_t k = find_key(w, (e->code << 32) | w->acts[a]);
        if (k < 0 || (w->done[k >> 3] >> (k & 7) & 1))
            continue;
        w->done[k >> 3] |= (uint8_t)(1 << (k & 7));
        for (int64_t i = w->offsets[k]; i < w->offsets[k + 1]; i++) {
            int64_t r = w->rows[i];
            if (!(w->seen[r >> 3] >> (r & 7) & 1)) {
                w->seen[r >> 3] |= (uint8_t)(1 << (r & 7));
                w->out[w->n_out++] = r;
            }
        }
    }
    qsort(w->out + first, w->n_out - first, sizeof(int64_t), cmp_rows);
}

/* Pop until n_out reaches *limit*, the queue top passes *stop*, or the queue
 * runs dry (0); 1 when a table is missing (resume after loading it); -1 out
 * of memory. */
int gat_walk_run(gat_walk *w, int64_t limit, double stop) {
    for (;;) {
        int status = 0;
        if (w->pending) {
            if (!(status = expand(w, &w->parent)))
                w->pending = 0;
        } else if (w->next_root < w->n_points) {
            gat_entry root = {0.0, 0, 0, 0, w->next_root, 0, 0};
            if (!(status = expand(w, &root)))
                w->next_root++;
        } else if (w->size && w->n_out < limit && w->heap[0].mdist <= stop) {
            gat_entry e = pop(w);
            w->popped++;
            if (e.level == w->depth) {
                w->leaves++;
                harvest(w, &e);
            } else {
                w->parent = e;
                w->pending = 1;
            }
        } else {
            return 0;
        }
        if (status)
            return status;
    }
}

/* Algorithm 2's cheap bounds: per query point the nearest queued mdist d_1
 * and the m-th d_m (+inf below m entries), summed in query-point order into
 * sums[0] / sums[1].  Returns 1 when some query point has nothing queued,
 * -1 when out of memory. */
int gat_walk_sums(const gat_walk *w, int64_t m, double *sums) {
    int64_t n = w->n_points;
    double *best = malloc(n * m * sizeof(double)); /* per qi: its m smallest, ascending */
    int64_t *count = calloc(n, sizeof(int64_t));
    int empty = 0;
    if (!best || !count) {
        free(best);
        free(count);
        return -1;
    }
    for (int64_t i = 0; i < w->size && !empty; i++) {
        const gat_entry *e = &w->heap[i];
        double *b = best + e->qi * m;
        int64_t j;
        if (count[e->qi] < m)
            j = count[e->qi]++;
        else if (e->mdist < b[m - 1])
            j = m - 1;
        else
            continue;
        for (; j > 0 && b[j - 1] > e->mdist; j--)
            b[j] = b[j - 1];
        b[j] = e->mdist;
    }
    sums[0] = sums[1] = 0.0;
    for (int64_t qi = 0; qi < n && !empty; qi++) {
        if (!(empty = !count[qi])) {
            sums[0] += best[qi * m];
            sums[1] += count[qi] == m ? best[qi * m + m - 1] : INFINITY;
        }
    }
    free(best);
    free(count);
    return empty;
}

/* ---------------------------------------------------------------------
 * (b) The Dmom fold
 * ------------------------------------------------------------------- */
/* One candidate's Dmom over columns [start, start + n) of the [m, stride]
 * distance / bitmask arrays; see repro.core.kernels.dmom_prepared. */
static double dmom_one(int32_t m, const int32_t *n_bits, const double *dist,
                       const int64_t *mask, int64_t stride, int64_t start, int64_t n,
                       double threshold, double *prev, double *a) {
    for (int64_t j = 0; j < n; j++)
        prev[j] = 0.0; /* G(0, *) = 0: the guardian row */
    for (int32_t i = 0; i < m; i++) {
        const double *row = dist + i * stride + start;
        const int64_t *mrow = mask + i * stride + start;
        int64_t size = (int64_t)1 << n_bits[i];
        double best = INFINITY; /* A[full] */
        for (int64_t t = 0; t < size; t++)
            a[t] = INFINITY;
        for (int64_t j = 0; j < n; j++) {
            int64_t pm = mrow[j];
            double base = prev[j], d = row[j], floor = base + d;
            if (pm && floor < best && floor <= threshold) {
                a[0] = base;
                for (int64_t t = 1; t < size; t++) {
                    if (t & pm) {
                        double v = a[t & ~pm] + d;
                        if (v < a[t])
                            a[t] = v;
                    }
                }
                best = a[size - 1];
            }
            prev[j] = best; /* G(i, j); G(i - 1, j) was read above */
        }
        if (best > threshold)
            return INFINITY;
    }
    return n ? prev[n - 1] : INFINITY;
}

/* Dmom of the candidates order[0..n_order) into out[c], in that order; with
 * gates, stop at the first gate above the running threshold (or infinite);
 * with k > 0, tighten the threshold to the k-th smallest Dmom so far.
 * Returns -1 when out of memory. */
int gat_dmom_block(int32_t m, const int32_t *n_bits, const double *dist, const int64_t *mask,
                   int64_t stride, const int64_t *order, int64_t n_order, const double *gates,
                   const int64_t *seg_of, const int64_t *lengths, double threshold, int64_t k,
                   double *out) {
    int64_t longest = 1, widest = 1, kept = 0;
    for (int64_t o = 0; o < n_order; o++)
        if (lengths[order[o]] > longest)
            longest = lengths[order[o]];
    for (int32_t i = 0; i < m; i++)
        if (((int64_t)1 << n_bits[i]) > widest)
            widest = (int64_t)1 << n_bits[i];
    double *prev = malloc((longest + widest + (k > 0 ? k : 0)) * sizeof(double));
    if (!prev)
        return -1;
    double *a = prev + longest, *top = a + widest; /* top: max-heap of the k smallest */
    double tau = threshold;
    for (int64_t o = 0; o < n_order; o++) {
        int64_t c = order[o];
        if (gates && (gates[c] > tau || isinf(gates[c])))
            break; /* ascending gates: nothing further can beat the k-th */
        if (!lengths[c])
            continue;
        double v = out[c] = dmom_one(m, n_bits, dist, mask, stride, seg_of[c], lengths[c], tau, prev, a);
        if (k <= 0 || isinf(v))
            continue;
        int64_t i;
        if (kept < k) { /* sift up */
            for (i = kept++; i > 0 && top[(i - 1) >> 1] < v; i = (i - 1) >> 1)
                top[i] = top[(i - 1) >> 1];
            top[i] = v;
        } else if (v < top[0]) { /* replace the largest, sift down */
            for (i = 0;;) {
                int64_t child = 2 * i + 1;
                if (child + 1 < k && top[child + 1] > top[child])
                    child++;
                if (child >= k || !(top[child] > v))
                    break;
                top[i] = top[child];
                i = child;
            }
            top[i] = v;
        }
        if (kept == k && top[0] < tau)
            tau = top[0];
    }
    free(prev);
    return 0;
}
