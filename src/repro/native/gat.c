/* The interpreter-bound loops of the GAT engine, in C.
 *
 * (a) The best-first cell walk of Algorithm 1 (Section V-A) and Algorithm
 *     2's bound (Section V-B): one heap over every query point's cells,
 *     keyed by (mdist, tick) exactly like the tuples it replaced; the pruned
 *     child expansion from q_i's HICL union -- the OR of q_i's byte rows,
 *     made on the level's first expansion -- with each child's gaps computed
 *     from the grid's column and row extents (gat_levels, one handle per
 *     HICL publication); and the leaf harvest over the ITL's CSR arrays,
 *     which finds a popped leaf's key range once and searches inside it
 *     only the activities whose bit q_i's leaf row sets.  An
 *     in-memory level's rows come from the handle; a disk-resident level
 *     suspends the walk: gat_walk_run returns 1 with need_qi / need_level
 *     set, the caller fetches q_i's rows (counted HICL reads) into the
 *     table's `given` and calls again.  The bound reads each point's m
 *     nearest queued cells and their overlap masks off the same heap and
 *     rows (gat_walk_bound), beside the two cheap sums (gat_walk_sums).
 * (b) The Dmom row fold of Algorithm 4 over a candidate block's columns,
 *     walking the candidates in ascending Dmm-gate order with a running
 *     k-th threshold.
 * (c) CPython's two-argument math.hypot (vector_norm), so that every
 *     MINDIST -- and so the heap order -- is bit-identical to the Python
 *     walk's.  Compile with -ffp-contract=off: a fused multiply-add would
 *     break the error-free products.
 * (d) The validation round over the APL image (Sections V-C, V-D, VI-B):
 *     the [C, |Q.Phi|] key lookup, the TAS / APL-coverage / MIB masks, the
 *     block build (columns, bitmasks, missing rows, distances) and the Dmm
 *     covers (Algorithm 3 as set partitions over superset minima, read off
 *     one partition table per row width and call; ATSQ's covers tighten
 *     their threshold to the round's running k-th Dmm).  Block
 *     distances are libm's hypot, which is NumPy's np.hypot bit for bit
 *     (the import checks that); only the walk needs the math.hypot port.
 *     Its entries read the image and the query through one handle each.
 * (e) APL residency: the engine's LRU of resident records as an intrusive
 *     recency list over image rows, one touch and one insert per round,
 *     every call under the caller's lock.
 *
 * Every entry is reentrant: scratch memory is malloc'd per call and freed
 * before it returns -- a walk's heap and level tables belong to its
 * gat_walk, an LRU's lists to its gat_lru, each freed with it -- and -1
 * means out of memory.  What a handle points into is never written: an
 * insert publishes new arrays and a new handle.
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

/* One HICL publication, what the walk reads per level: level l's cells are
 * Morton codes 0..4^l, a row holds bit c at byte c >> 3, bit c & 7. */
typedef struct {
    int32_t depth, memory_levels;
    const int64_t *acts;   /* the activities with a row, ascending */
    int64_t n_acts;
    const uint8_t **bits;  /* [depth + 1]: level l <= memory_levels's [n_acts] rows */
    const double *columns; /* level l's 2^l column extents (lo, hi) from pair 2^l - 2 */
    const double *rows;    /* ... and its row extents */
} gat_levels;

typedef struct {
    const uint8_t *given;   /* a disk level: q_i's rows back to back, from the caller */
    const uint8_t **layers; /* q_i's rows, one per activity (NULL: none), then ... */
    uint8_t *bits;          /* ... their union: built on the level's first expansion */
} gat_table;

typedef struct {
    int32_t n_points, depth;
    const gat_levels *levels;
    gat_table *tables; /* [n_points * (depth + 1)], index qi * (depth + 1) + level */
    const double *qxy; /* q_i's coordinates at qxy[2 * qi], qxy[2 * qi + 1] */
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
    int32_t pending;   /* 1 while `parent` waits for its child level's rows */
    gat_entry parent;
    int32_t need_qi, need_level;
    int64_t popped, leaves;
} gat_walk;

gat_walk *gat_walk_new(int32_t n_points, int32_t depth) {
    gat_walk *w = calloc(1, sizeof(gat_walk));
    gat_table *tables = calloc((int64_t)n_points * (depth + 1), sizeof(gat_table));
    if (!w || !tables) {
        free(w);
        free(tables);
        return NULL;
    }
    w->tables = tables;
    w->n_points = n_points;
    w->depth = depth;
    return w;
}

void gat_walk_free(gat_walk *w) {
    for (int64_t i = 0; i < (int64_t)w->n_points * (w->depth + 1); i++)
        free(w->tables[i].layers);
    free(w->tables);
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

/* The gap min_dist_to_box computes from v to the extent [lo, hi] along one
 * axis: its comparisons and its one subtraction (+0.0 on an edge). */
double gat_axis_gap(double v, double lo, double hi) { return v < lo ? lo - v : v > hi ? v - hi : 0.0; }

/* The first of keys[lo..hi) at or above key (hi when none is). */
static int64_t lower_key(const int64_t *keys, int64_t lo, int64_t hi, int64_t key) {
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (keys[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* q_i's rows at *level* and their union: an in-memory level's from the
 * levels' rows, a disk level's from the caller's (1 asks for them); -1 out
 * of memory. */
static int load_table(gat_walk *w, gat_table *t, int32_t qi, int32_t level) {
    const gat_levels *lv = w->levels;
    int64_t a0 = w->act_start[qi], k = w->act_start[qi + 1] - a0;
    int64_t n = (((int64_t)1 << (2 * level)) + 7) >> 3;
    int in_memory = level <= lv->memory_levels;
    if (!in_memory && !t->given) {
        w->need_qi = qi;
        w->need_level = level;
        return 1;
    }
    const uint8_t **layers = calloc(1, k * sizeof(uint8_t *) + n);
    if (!layers)
        return -1;
    uint8_t *bits = (uint8_t *)(layers + k);
    for (int64_t j = 0; j < k; j++) {
        const uint8_t *row = NULL;
        if (!in_memory) {
            row = t->given + j * n;
        } else {
            int64_t a = w->acts[a0 + j], lo = lower_key(lv->acts, 0, lv->n_acts, a);
            if (lo < lv->n_acts && lv->acts[lo] == a)
                row = lv->bits[level] + lo * n;
        }
        layers[j] = row;
        if (row)
            for (int64_t i = 0; i < n; i++)
                bits[i] |= row[i];
    }
    t->layers = layers;
    t->bits = bits;
    return 0;
}

/* Push the children of *p that hold one of q_i's activities: 0 done, 1 the
 * child level is disk-resident and its rows are missing, -1 out of memory. */
static int expand(gat_walk *w, const gat_entry *p) {
    int32_t level = p->level + 1;
    gat_table *t = &w->tables[(int64_t)p->qi * (w->depth + 1) + level];
    int status;
    if (!t->bits && (status = load_table(w, t, p->qi, level)))
        return status;
    int64_t first = ((int64_t)1 << level) - 2;
    const double *col = w->levels->columns + 2 * first, *row = w->levels->rows + 2 * first;
    double qx = w->qxy[2 * p->qi], qy = w->qxy[2 * p->qi + 1];
    int nibble = (t->bits[p->code >> 1] >> ((p->code & 1) << 2)) & 15;
    for (int j = 0; j < 4; j++) {
        if (!(nibble >> j & 1))
            continue;
        int32_t cx = 2 * p->cx + (j & 1), cy = 2 * p->cy + (j >> 1);
        double x = gat_axis_gap(qx, col[2 * cx], col[2 * cx + 1]);
        double y = gat_axis_gap(qy, row[2 * cy], row[2 * cy + 1]);
        gat_entry e = {y, w->tick++, 4 * p->code + j, level, p->qi, cx, cy};
        if (x != 0.0)
            e.mdist = y == 0.0 ? x : gat_hypot(x, y);
        if (push(w, e))
            return -1;
    }
    return 0;
}

static int cmp_rows(const void *a, const void *b) {
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Hand out the rows of leaf e's lists of q_i's activities not handed out
 * yet, ascending; a (leaf, activity) list is read once per query.  The
 * leaf's keys are one range of the sorted ITL keys, found once; an
 * activity is searched for inside it only when q_i's leaf row (loaded
 * when the leaf was pushed) has the leaf's bit, which it has exactly when
 * the ITL posts that (leaf, activity) list. */
static void harvest(gat_walk *w, const gat_entry *e) {
    int64_t first = w->n_out, a0 = w->act_start[e->qi], n_acts = w->act_start[e->qi + 1] - a0;
    const uint8_t **layers = w->tables[(int64_t)e->qi * (w->depth + 1) + w->depth].layers;
    int64_t lo = lower_key(w->keys, 0, w->n_keys, e->code << 32);
    int64_t hi = lower_key(w->keys, lo, w->n_keys, (e->code + 1) << 32);
    for (int64_t j = 0; j < n_acts; j++) {
        if (!layers[j] || !(layers[j][e->code >> 3] >> (e->code & 7) & 1))
            continue;
        int64_t key = (e->code << 32) | w->acts[a0 + j], k = lower_key(w->keys, lo, hi, key);
        if (k == hi || w->keys[k] != key || (w->done[k >> 3] >> (k & 7) & 1))
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
 * runs dry (0); 1 when a disk level's rows are missing (resume after setting
 * the table's `given`); -1 out of memory. */
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

/* Frontier order: nearest first, ties by (level, code). */
static int nearer(const gat_entry *a, const gat_entry *b) {
    if (a->mdist != b->mdist)
        return a->mdist < b->mdist;
    return a->level != b->level ? a->level < b->level : a->code < b->code;
}

/* Algorithm 2's D_lb into *out: per query point its m nearest queued cells
 * (frontier order), their overlap masks with q_i's activities read off the
 * rows its table holds, the min-cost cover of them folded in that order
 * (ascending t, strict <: a PointMatchTable's additions), capped by the m-th
 * cell's mdist (+inf below m cells); the contributions summed in query-point
 * order, +inf as soon as one is.  Returns -1 when out of memory. */
int gat_walk_bound(const gat_walk *w, int64_t m, double *out) {
    int64_t n = w->n_points, widest = 1;
    for (int64_t qi = 0; qi < n; qi++) {
        int64_t k = w->act_start[qi + 1] - w->act_start[qi];
        if (k > 40)
            return -1; /* 2^k cover states cannot be allocated */
        if (((int64_t)1 << k) > widest)
            widest = (int64_t)1 << k;
    }
    const gat_entry **best = malloc(n * m * sizeof(gat_entry *)); /* per qi, ascending */
    int64_t *count = calloc(n, sizeof(int64_t));
    double *dp = malloc(widest * sizeof(double));
    if (!best || !count || !dp) {
        free(best);
        free(count);
        free(dp);
        return -1;
    }
    for (int64_t i = 0; i < w->size; i++) {
        const gat_entry *e = &w->heap[i], **b = best + e->qi * m;
        int64_t j;
        if (count[e->qi] < m)
            j = count[e->qi]++;
        else if (nearer(e, b[m - 1]))
            j = m - 1;
        else
            continue;
        for (; j > 0 && nearer(e, b[j - 1]); j--)
            b[j] = b[j - 1];
        b[j] = e;
    }
    double total = 0.0;
    for (int64_t qi = 0; qi < n; qi++) {
        const gat_entry **b = best + qi * m;
        int64_t k = w->act_start[qi + 1] - w->act_start[qi], size = (int64_t)1 << k;
        if (!count[qi]) {
            total = INFINITY; /* no unseen trajectory can match q_i at all */
            break;
        }
        dp[0] = 0.0;
        for (int64_t t = 1; t < size; t++)
            dp[t] = INFINITY;
        for (int64_t i = 0; i < count[qi]; i++) {
            const gat_entry *e = b[i];
            const uint8_t **layers = w->tables[(int64_t)qi * (w->depth + 1) + e->level].layers;
            int64_t pm = 0;
            for (int64_t j = 0; j < k; j++)
                if (layers[j] && (layers[j][e->code >> 3] >> (e->code & 7) & 1))
                    pm |= (int64_t)1 << j;
            for (int64_t t = 1; t < size; t++) {
                if (t & pm) {
                    double v = dp[t & ~pm] + e->mdist;
                    if (v < dp[t])
                        dp[t] = v;
                }
            }
        }
        double cap = count[qi] == m ? b[m - 1]->mdist : INFINITY;
        double contribution = cap < dp[size - 1] ? cap : dp[size - 1];
        if (contribution == INFINITY) {
            total = INFINITY;
            break;
        }
        total += contribution;
    }
    *out = total;
    free(best);
    free(count);
    free(dp);
    return 0;
}

/* ---------------------------------------------------------------------
 * (b) The Dmom fold
 * ------------------------------------------------------------------- */
/* One candidate's Dmom over columns [start, start + n) of the [m, stride]
 * distance / bitmask arrays; see repro.core.kernels.block_dmom. */
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
            double base = prev[j], d = pm ? row[j] : INFINITY, floor = base + d;
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

/* Offer v to top, a max-heap of the k smallest values so far (*kept of
 * them), and return tau tightened to its largest once it holds k. */
static double keep_kth(double *top, int64_t k, int64_t *kept, double v, double tau) {
    int64_t i;
    if (*kept < k) { /* sift up */
        for (i = (*kept)++; i > 0 && top[(i - 1) >> 1] < v; i = (i - 1) >> 1)
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
    return *kept == k && top[0] < tau ? top[0] : tau;
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
        if (k > 0 && !isinf(v))
            tau = keep_kth(top, k, &kept, v, tau);
    }
    free(prev);
    return 0;
}
/* ---------------------------------------------------------------------
 * (d) The validation round
 *
 * A round is C candidates, APL rows rows[0..C) of one image, looked up
 * against its query's activities acts[0..A) (ascending): lookup[c * A + a]
 * is the index of key (rows[c] << 32) | acts[a] in the image's sorted
 * keys, or n_keys -- the sentinel slot, whose position slice is empty,
 * whose first is INT64_MAX and whose last is -1 -- when the row lacks it.
 *
 * The entries read the image and the query through two handles, each
 * built once: gat_image by the APL store when it publishes an image,
 * gat_query once per query.  A handle's arrays belong to its owner.
 * ------------------------------------------------------------------- */
typedef struct {
    const int64_t *keys, *first, *last, *offsets, *positions; /* the key CSR, sentinel included */
    const int64_t *point_offsets; /* row r owns points point_offsets[r]..point_offsets[r + 1] */
    const double *xy;             /* [points, 2] */
    int64_t n_keys;               /* also the sentinel slot */
} gat_image;

typedef struct {
    int32_t m;                     /* query points, the rows of a block */
    const int32_t *n_bits;         /* [m] |q_i.Phi| */
    const int64_t *acts;           /* [A] Q.Phi ascending */
    int64_t n_acts;                /* A */
    const int64_t *bits;           /* [m, A] the bit activity a holds in row i, 0 when none */
    const int64_t *row_slot;       /* [m] the activity slot of row i's highest bit */
    const int64_t *slots, *starts; /* MIB: row i asks slots[starts[i]..starts[i + 1]) */
    const double *xy;              /* [m, 2] query points; NULL when a generic metric fills dist */
} gat_query;

double gat_libm_hypot(double x, double y) { return hypot(x, y); }

/* The lookup, and per candidate whether no activity missed it (APL
 * coverage). */
void gat_round_lookup(const gat_image *im, const gat_query *q, const int64_t *rows, int64_t n,
                      int64_t *lookup, uint8_t *covered) {
    const int64_t *keys = im->keys, *acts = q->acts, n_keys = im->n_keys, n_acts = q->n_acts;
    for (int64_t c = 0; c < n; c++) {
        int64_t lo = 0; /* activities ascend, so each search starts at the last */
        int ok = 1;
        for (int64_t a = 0; a < n_acts; a++) {
            int64_t key = (rows[c] << 32) | acts[a];
            lo = lower_key(keys, lo, n_keys, key);
            lookup[c * n_acts + a] = lo < n_keys && keys[lo] == key ? lo : n_keys;
            ok &= lookup[c * n_acts + a] != n_keys;
        }
        covered[c] = (uint8_t)ok;
    }
}

/* TAS: every activity inside one of the row's m intervals [lo, hi]. */
void gat_round_tas(const int64_t *intervals, int64_t m, const gat_query *q, const int64_t *rows,
                   int64_t n, uint8_t *out) {
    for (int64_t c = 0; c < n; c++) {
        const int64_t *iv = intervals + rows[c] * m * 2;
        int ok = 1;
        for (int64_t a = 0; a < q->n_acts && ok; a++) {
            ok = 0;
            for (int64_t j = 0; j < m && !ok; j++)
                ok = iv[2 * j] <= q->acts[a] && q->acts[a] <= iv[2 * j + 1];
        }
        out[c] = (uint8_t)ok;
    }
}

/* MIB: q_i's lb / ub are the smallest first / largest last position over
 * the lists of its activities, lookup columns slots[starts[i]..starts[i +
 * 1]); a candidate is order-feasible when every q_i has one (ub >= 0) and
 * no lb before q_i exceeds its ub. */
void gat_round_mib(const gat_image *im, const gat_query *q, const int64_t *lookup, int64_t n,
                   uint8_t *out) {
    const int64_t *first = im->first, *last = im->last, *slots = q->slots, *starts = q->starts;
    for (int64_t c = 0; c < n; c++) {
        const int64_t *keys = lookup + c * q->n_acts;
        int64_t reached = -1; /* the largest lb so far */
        int ok = 1;
        for (int32_t i = 0; i < q->m && ok; i++) {
            int64_t lb = INT64_MAX, ub = -1;
            for (int64_t s = starts[i]; s < starts[i + 1]; s++) {
                int64_t k = keys[slots[s]];
                lb = first[k] < lb ? first[k] : lb;
                ub = last[k] > ub ? last[k] : ub;
            }
            ok = ub >= 0 && (i == 0 || reached <= ub);
            reached = lb > reached ? lb : reached;
        }
        out[c] = (uint8_t)ok;
    }
}

/* A block's arrays, all in the one malloc'd buffer `dist` starts (free it
 * with gat_free): dist [m, total] and cxy [total, 2] (float64), mask
 * [m, total], positions [total], seg_of [n] and lengths [n] (int64), and
 * missing [n, m] (one byte each), in the order of the fields. */
typedef struct {
    int64_t n, total;
    double *dist;
    int64_t *mask, *positions;
    double *cxy;
    int64_t *seg_of, *lengths;
    uint8_t *missing;
} gat_columns;

void gat_free(void *p) { free(p); }

/* Candidate c's columns are the positions of its points that some list of
 * the lookup names, ascending; seg_of[c] / lengths[c] place them in the
 * block (-1 / 0 when there are none).  A column's mask in row i ORs the
 * bits (bits[i * A + a]) of the activities listing it; missing[c * m + i]
 * flags a row one of whose activities candidate c lacks (only candidates
 * with columns).  cxy[j] is column j's (x, y); every dist entry is inf,
 * for the covers to evaluate. */
int gat_round_block(const gat_image *im, const gat_query *q, const int64_t *rows,
                    const int64_t *lookup, int64_t n, gat_columns *out) {
    const int64_t *offsets = im->offsets, *positions = im->positions;
    const int64_t *point_offsets = im->point_offsets, *bits = q->bits;
    int64_t n_acts = q->n_acts, hits = 0, longest = 0, total = 0;
    int32_t m = q->m;
    for (int64_t c = 0; c < n; c++) {
        int64_t points = point_offsets[rows[c] + 1] - point_offsets[rows[c]];
        longest = points > longest ? points : longest;
        for (int64_t a = 0; a < n_acts; a++)
            hits += offsets[lookup[c * n_acts + a] + 1] - offsets[lookup[c * n_acts + a]];
    }
    /* per point, then the columns, then each candidate's column count */
    int64_t *col = malloc((longest + hits + n + 1) * sizeof(int64_t));
    if (!col)
        return -1;
    int64_t *pos = col + longest, *count = pos + hits;
    for (int64_t c = 0; c < n; c++) {
        const int64_t *keys = lookup + c * n_acts;
        int64_t points = point_offsets[rows[c] + 1] - point_offsets[rows[c]], start = total;
        for (int64_t p = 0; p < points; p++)
            col[p] = 0;
        for (int64_t a = 0; a < n_acts; a++)
            for (int64_t h = offsets[keys[a]]; h < offsets[keys[a] + 1]; h++)
                col[positions[h]] = 1;
        for (int64_t p = 0; p < points; p++)
            if (col[p])
                pos[total++] = p;
        count[c] = total - start;
    }
    double *data = malloc(((2 * (int64_t)m + 3) * total + 2 * n) * sizeof(double) + n * m + 1);
    if (!data) {
        free(col);
        return -1;
    }
    int64_t *mask = (int64_t *)(data + m * total), *columns = mask + m * total;
    double *cxy = (double *)(columns + total);
    int64_t *seg_of = (int64_t *)(cxy + 2 * total), *lengths = seg_of + n;
    uint8_t *missing = (uint8_t *)(lengths + n);
    *out = (gat_columns){n, total, data, mask, columns, cxy, seg_of, lengths, missing};
    for (int64_t c = 0, start = 0; c < n; start += count[c++]) {
        const int64_t *keys = lookup + c * n_acts;
        lengths[c] = count[c];
        seg_of[c] = count[c] ? start : -1;
        for (int32_t i = 0; i < m; i++) {
            int miss = 0;
            for (int64_t a = 0; a < n_acts && count[c]; a++)
                miss |= bits[i * n_acts + a] && offsets[keys[a]] == offsets[keys[a] + 1];
            missing[c * m + i] = (uint8_t)miss;
        }
    }
    for (int64_t j = 0; j < m * total; j++) {
        data[j] = INFINITY;
        mask[j] = 0;
    }
    for (int64_t c = 0; c < n; c++) {
        const int64_t *keys = lookup + c * n_acts;
        const double *pxy = im->xy + 2 * point_offsets[rows[c]];
        for (int64_t j = seg_of[c]; j >= 0 && j < seg_of[c] + lengths[c]; j++) {
            col[pos[j]] = j;
            cxy[2 * j] = pxy[2 * pos[j]];
            cxy[2 * j + 1] = pxy[2 * pos[j] + 1];
        }
        for (int64_t a = 0; a < n_acts; a++)
            for (int64_t h = offsets[keys[a]]; h < offsets[keys[a] + 1]; h++)
                for (int32_t i = 0; i < m; i++)
                    mask[i * total + col[positions[h]]] |= bits[i * n_acts + a];
    }
    for (int64_t j = 0; j < total; j++)
        columns[j] = pos[j];
    free(col);
    return 0;
}

/* The widest row the covers take: its partition table holds Bell(11) =
 * 678 570 int32 (2.7 MB), and one more bit would take Bell(12) = 4 213 597. */
#define GAT_WIDEST_ROW 10

int32_t gat_widest_row(void) { return GAT_WIDEST_ROW; }

/* BELL[b]: the number of set partitions of b bits; a width-b table holds
 * BELL[b + 1] int32, the partitions' group counts and their
 * Bell(b + 1) - Bell(b) groups. */
static const int64_t BELL[GAT_WIDEST_ROW + 2] = {1,     1,     2,      5,      15,     52,
                                                 203,   877,   4140,   21147,  115975, 678570};

/* The set partitions of b bits into table: restricted growth strings in
 * lexicographic order, each written as its group count and then its
 * groups' bitmasks in the order they open -- kernels' former
 * _set_partitions table. */
static void partition_table(int32_t b, int32_t *rgs, int32_t *table) {
    for (int32_t j = 0; j < b; j++)
        rgs[j] = 0;
    for (;;) {
        int32_t n_groups = 0, j;
        for (j = 0; j < b; j++)
            n_groups = rgs[j] >= n_groups ? rgs[j] + 1 : n_groups;
        *table = n_groups;
        for (int32_t g = 1; g <= n_groups; g++)
            table[g] = 0;
        for (j = 0; j < b; j++)
            table[1 + rgs[j]] |= (int32_t)1 << j;
        table += 1 + n_groups;
        for (j = b - 1; j > 0; j--) { /* the last digit that may still grow */
            int32_t top = 0;
            for (int32_t i = 0; i < j; i++)
                top = rgs[i] > top ? rgs[i] : top;
            if (rgs[j] <= top)
                break;
        }
        if (j == 0)
            return;
        rgs[j]++;
        for (int32_t i = j + 1; i < b; i++)
            rgs[i] = 0;
    }
}

/* The cheapest sum of group minima M[g] over the n partitions of a table,
 * each partition's groups summed in table order. */
static double min_partition(const double *M, const int32_t *table, int64_t n) {
    double best = INFINITY;
    for (int64_t p = 0; p < n; p++) {
        int32_t n_groups = *table++;
        double sum = M[*table++];
        for (int32_t g = 1; g < n_groups; g++)
            sum += M[*table++];
        best = sum < best ? sum : best;
    }
    return best;
}

/* Dmm of every block candidate into out[c] (inf without columns), adding
 * each one's point_match_points to counts[0]: per row, the relevant columns
 * (mask != 0) scattered into their exact bitmask's minimum, the superset-min
 * transform M[g] = min over masks covering g, M[0] = 0, and the cheapest set
 * partition, read off the partition table of the row's width (built once
 * per call for each width the query uses; rows wider than GAT_WIDEST_ROW
 * make the call return -1); a row without relevant columns or with missing
 * set is inf.  Rows are summed left to right, and the count of each row up
 * to the first such one is added.  A row is evaluated only while the sum of
 * the rows before it is <= tau, and a candidate whose sum ends above tau is
 * inf (early abandoning).  tau starts at threshold; with k > 0 it tightens,
 * candidate by candidate, to the k-th smallest finite Dmm so far (ATSQ,
 * where Dmm is the ranked metric).  With the query's xy, an evaluated row
 * first writes dist[i, j] = hypot(q_i - cxy[j]) at its relevant columns,
 * counting each in counts[1]; without, dist is read as given. */
int gat_block_dmm(const gat_query *q, const gat_columns *b, double threshold, int64_t k,
                  double *out, int64_t *counts) {
    int32_t m = q->m, widest = 1;
    const int32_t *n_bits = q->n_bits;
    const double *qxy = q->xy;
    int64_t total = b->total, at[GAT_WIDEST_ROW + 1] = {0}, ints = 0, kept = 0;
    for (int32_t i = 0; i < m; i++)
        widest = n_bits[i] > widest ? n_bits[i] : widest;
    if (widest > GAT_WIDEST_ROW)
        return -1;
    for (int32_t i = 0; i < m; i++) /* at[w]: where the width-w table goes, 1 + that */
        at[n_bits[i]] = 1;
    for (int32_t w = 1; w <= widest; w++)
        if (at[w]) {
            at[w] = 1 + ints;
            ints += BELL[w + 1];
        }
    int64_t states = (int64_t)1 << widest, kth = k > 0 ? k : 0;
    double *M = malloc((states + kth) * sizeof(double) + (ints + widest) * sizeof(int32_t));
    if (!M)
        return -1;
    double *top = M + states; /* a max-heap of the k smallest Dmm */
    int32_t *tables = (int32_t *)(top + kth), *rgs = tables + ints;
    for (int32_t w = 1; w <= widest; w++)
        if (at[w])
            partition_table(w, rgs, tables + at[w] - 1);
    double tau = threshold;
    for (int64_t c = 0; c < b->n; c++) {
        int64_t seg = b->seg_of[c], length = b->lengths[c];
        double dmm = 0.0;
        int counting = 1;
        for (int32_t i = 0; i < m; i++) {
            int64_t size = (int64_t)1 << n_bits[i], count = 0;
            int evaluating = !i || dmm <= tau;
            double *row = b->dist + i * total;
            const int64_t *mrow = b->mask + i * total;
            for (int64_t t = 0; evaluating && t < size; t++)
                M[t] = INFINITY;
            for (int64_t j = seg; j >= 0 && j < seg + length; j++) {
                if (mrow[j]) {
                    count++;
                    if (!evaluating)
                        continue;
                    if (qxy) {
                        const double *p = b->cxy + 2 * j;
                        row[j] = gat_libm_hypot(qxy[2 * i] - p[0], qxy[2 * i + 1] - p[1]);
                        counts[1]++;
                    }
                    M[mrow[j]] = row[j] < M[mrow[j]] ? row[j] : M[mrow[j]];
                }
            }
            int invalid = !count || b->missing[c * m + i];
            counts[0] += counting ? count : 0;
            counting &= !invalid;
            if (!evaluating)
                continue;
            for (int64_t bit = 1; bit < size; bit <<= 1)
                for (int64_t g = 0; g < size; g++)
                    if (!(g & bit) && M[g | bit] < M[g])
                        M[g] = M[g | bit];
            M[0] = 0.0;
            double v = invalid ? INFINITY
                               : min_partition(M, tables + at[n_bits[i]] - 1, BELL[n_bits[i]]);
            dmm = i ? dmm + v : v;
        }
        out[c] = dmm > tau ? INFINITY : dmm;
        if (k > 0 && !isinf(out[c]))
            tau = keep_kth(top, k, &kept, out[c], tau);
    }
    free(M);
    return 0;
}

/* Dmm of an all-single-activity round straight from the image: row i asks
 * activity slot row_slot[i], its value is the nearest point of that list,
 * its count the list's length (also its hypot count, counts[1]); rows fold
 * and count as in gat_block_dmm at threshold inf.  Allocates nothing:
 * returns 0. */
int gat_round_dmm_single(const gat_image *im, const gat_query *q, const int64_t *rows,
                         const int64_t *lookup, int64_t n, double *out, int64_t *counts) {
    const int64_t *offsets = im->offsets, *positions = im->positions;
    const double *qxy = q->xy;
    for (int64_t c = 0; c < n; c++) {
        const double *pxy = im->xy + 2 * im->point_offsets[rows[c]];
        double dmm = 0.0;
        int counting = 1;
        for (int32_t i = 0; i < q->m; i++) {
            int64_t k = lookup[c * q->n_acts + q->row_slot[i]], count = offsets[k + 1] - offsets[k];
            double v = INFINITY;
            for (int64_t h = offsets[k]; h < offsets[k + 1]; h++) {
                const double *p = pxy + 2 * positions[h];
                double d = gat_libm_hypot(qxy[2 * i] - p[0], qxy[2 * i + 1] - p[1]);
                v = d < v ? d : v;
            }
            dmm = i ? dmm + v : v;
            counts[0] += counting ? count : 0;
            counts[1] += count;
            counting &= count != 0;
        }
        out[c] = dmm;
    }
    return 0;
}

typedef struct { double gate; int64_t c; } gat_gate;

static int cmp_gates(const void *a, const void *b) {
    const gat_gate *x = a, *y = b;
    if (x->gate != y->gate)
        return x->gate < y->gate ? -1 : 1;
    return (x->c > y->c) - (x->c < y->c);
}

/* Dmom of every block candidate into out[c] (inf unless computed): the Dmm
 * gates (gat_block_dmm at the threshold, counting into counts), then the
 * fold over the candidates in ascending (gate, candidate) order.  The fold
 * reaches only gates <= threshold, whose rows were all evaluated. */
int gat_block_dmom(const gat_query *q, const gat_columns *b, double threshold, int64_t k,
                   double *out, int64_t *counts) {
    int64_t n = b->n;
    double *gates = malloc((n + 1) * (sizeof(double) + sizeof(gat_gate) + sizeof(int64_t)));
    if (!gates)
        return -1;
    gat_gate *sorted = (gat_gate *)(gates + n + 1);
    int64_t *order = (int64_t *)(sorted + n + 1);
    int status = gat_block_dmm(q, b, threshold, 0, gates, counts);
    for (int64_t c = 0; c < n; c++) {
        out[c] = INFINITY;
        sorted[c] = (gat_gate){gates[c], c};
    }
    qsort(sorted, n, sizeof(gat_gate), cmp_gates);
    for (int64_t c = 0; c < n; c++)
        order[c] = sorted[c].c;
    if (!status && b->total)
        status = gat_dmom_block(q->m, q->n_bits, b->dist, b->mask, b->total, order, n, gates,
                                b->seg_of, b->lengths, threshold, k, out);
    free(gates);
    return status;
}

/* ---------------------------------------------------------------------
 * (e) APL residency: a recency list over the rows of an image
 *
 * The engine's LRU of resident APL records, keyed by row (one row per
 * trajectory).  prev / next link the resident rows from the least (lru) to
 * the most (mru) recently used, -1 past either end; state[r] bit 0 marks r
 * resident, bit 1 marks it asked during one touch.  The two operations are
 * exactly an OrderedDict's per-key missing / put_many passes.  The caller
 * serialises every call on one list and grows it before a row past its
 * end is named.
 * ------------------------------------------------------------------- */
typedef struct {
    int64_t *prev, *next;
    uint8_t *state;
    int64_t rows, capacity, size, lru, mru;
} gat_lru;

gat_lru *gat_lru_new(int64_t capacity) {
    gat_lru *l = calloc(1, sizeof(gat_lru));
    if (l) {
        l->capacity = capacity;
        l->lru = l->mru = -1;
    }
    return l;
}

void gat_lru_free(gat_lru *l) {
    free(l->prev);
    free(l->next);
    free(l->state);
    free(l);
}

/* Room for rows 0..rows (no-op when there is); -1 out of memory. */
int gat_lru_grow(gat_lru *l, int64_t rows) {
    if (rows <= l->rows)
        return 0;
    int64_t *prev = realloc(l->prev, rows * sizeof(int64_t));
    if (prev)
        l->prev = prev;
    int64_t *next = realloc(l->next, rows * sizeof(int64_t));
    if (next)
        l->next = next;
    uint8_t *state = realloc(l->state, rows);
    if (state)
        l->state = state;
    if (!prev || !next || !state)
        return -1;
    for (int64_t r = l->rows; r < rows; r++)
        state[r] = 0;
    l->rows = rows;
    return 0;
}

static void lru_unlink(gat_lru *l, int64_t r) {
    int64_t p = l->prev[r], n = l->next[r];
    if (p >= 0)
        l->next[p] = n;
    else
        l->lru = n;
    if (n >= 0)
        l->prev[n] = p;
    else
        l->mru = p;
}

static void lru_append(gat_lru *l, int64_t r) {
    l->prev[r] = l->mru;
    l->next[r] = -1;
    if (l->mru >= 0)
        l->next[l->mru] = r;
    else
        l->lru = r;
    l->mru = r;
}

/* Each distinct row of rows[0..n), in first-occurrence order: a resident
 * one becomes the most recent, another is appended to misses.  Returns the
 * number of misses and sets *asked to the number of distinct rows. */
int64_t gat_lru_touch(gat_lru *l, const int64_t *rows, int64_t n, int64_t *misses,
                      int64_t *asked) {
    int64_t n_misses = 0, distinct = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t r = rows[i];
        if (l->state[r] & 2)
            continue;
        l->state[r] |= 2;
        distinct++;
        if (l->state[r] & 1) {
            lru_unlink(l, r);
            lru_append(l, r);
        } else {
            misses[n_misses++] = r;
        }
    }
    for (int64_t i = 0; i < n; i++)
        l->state[rows[i]] &= 1;
    *asked = distinct;
    return n_misses;
}

/* Each row of rows[0..n) in order becomes the most recent -- resident
 * already (a racing insert put it there) or added -- and the least recent
 * row is evicted whenever the list then exceeds its capacity. */
void gat_lru_insert(gat_lru *l, const int64_t *rows, int64_t n) {
    for (int64_t i = 0; i < n; i++) {
        int64_t r = rows[i];
        if (l->state[r] & 1) {
            lru_unlink(l, r);
        } else {
            l->state[r] = 1;
            l->size++;
        }
        lru_append(l, r);
        if (l->size > l->capacity) {
            int64_t old = l->lru;
            lru_unlink(l, old);
            l->state[old] = 0;
            l->size--;
        }
    }
}
