/* Native kernels for the collector hot paths.
 *
 * Compiled on demand by repro.native.build with the system C compiler
 * into a content-hash-cached shared object and driven via ctypes over
 * the same contiguous buffers the numpy tier already uses: a batch's
 * 64-bit key halves (KeyBatch.lo / KeyBatch.hi) on the way in, and the
 * flat table planes (repro.core.maintable / repro.core.ancillary) as
 * mutable state.
 *
 * Every function here is a line-for-line transliteration of a Python
 * loop in repro.core / repro.sketches and must stay BIT-IDENTICAL to
 * it: same table states, same query answers, same cost-meter deltas,
 * same promotion counts.  All arithmetic is uint64_t (wrapping mod
 * 2**64, exactly like the masked Python-int and np.uint64 mixers);
 * counters are int64_t (Python-int counters never exceed the packet
 * count, so 63 bits are plenty).  tests/test_native_kernels.py
 * enforces the contract across the collector matrix.
 *
 * Plain C99, no dependencies beyond <stdint.h>.  Meter deltas are
 * returned through a small int64_t out-array instead of globals so the
 * kernels are reentrant and thread-agnostic.
 */

#include <stdint.h>

#define EXPORT __attribute__((visibility("default")))

/* ------------------------------------------------------------------ */
/* Mixers (repro.hashing.mixers)                                      */
/* ------------------------------------------------------------------ */

/* Multiplicative constants from splitmix64 (Steele, Lea, Flood 2014). */
static const uint64_t SM64_GAMMA = 0x9E3779B97F4A7C15ULL;
static const uint64_t SM64_M1 = 0xBF58476D1CE4E5B9ULL;
static const uint64_t SM64_M2 = 0x94D049BB133111EBULL;

static inline uint64_t splitmix64(uint64_t x) {
    x += SM64_GAMMA;
    x = (x ^ (x >> 30)) * SM64_M1;
    x = (x ^ (x >> 27)) * SM64_M2;
    return x ^ (x >> 31);
}

/* mix128: keys are packed 104-bit flow IDs split into 64-bit halves.
 * The conditional high-half fold matches the scalar/numpy mixers
 * exactly (elements with hi == 0 take the single-round path). */
static inline uint64_t mix128(uint64_t lo, uint64_t hi, uint64_t seed) {
    uint64_t h = splitmix64(lo ^ seed);
    if (hi) {
        h = splitmix64(h ^ (hi * SM64_GAMMA));
    }
    return h;
}

EXPORT void repro_splitmix64_batch(const uint64_t *x, uint64_t *out, int64_t n) {
    for (int64_t i = 0; i < n; i++) {
        out[i] = splitmix64(x[i]);
    }
}

EXPORT void repro_mix128_batch(const uint64_t *lo, const uint64_t *hi,
                               uint64_t seed, uint64_t *out, int64_t n) {
    for (int64_t i = 0; i < n; i++) {
        out[i] = mix128(lo[i], hi[i], seed);
    }
}

/* Bucket indices of d hash functions over a whole batch: the native
 * twin of HashFamily.bucket_matrix.  out is row-major (d, n). */
EXPORT void repro_bucket_matrix(const uint64_t *lo, const uint64_t *hi,
                                const uint64_t *seeds, const uint64_t *sizes,
                                int64_t d, int64_t n, uint64_t *out) {
    for (int64_t s = 0; s < d; s++) {
        const uint64_t seed = seeds[s];
        const uint64_t size = sizes[s];
        uint64_t *row = out + s * n;
        for (int64_t i = 0; i < n; i++) {
            row[i] = mix128(lo[i], hi[i], seed) % size;
        }
    }
}

/* ------------------------------------------------------------------ */
/* HashFlow: main + ancillary probe-update walk (Algorithm 1)         */
/* ------------------------------------------------------------------ */

/* Meter slot layout shared by the update kernels. */
enum { M_HASHES = 0, M_READS = 1, M_WRITES = 2, M_PROMOTIONS = 3, M_SLOTS = 4 };

/* One batched HashFlow update pass.
 *
 * The main table is d probe stages over flat SoA buffers: stage s
 * addresses cells [offs[s], offs[s] + tbl_sizes[s]) of m_lo / m_hi /
 * m_counts (and m_bytes when byte tracking is on).  The multi-hash
 * layout passes d stages with offset 0 and the full table size; the
 * pipelined layout passes its geometric sub-table slices.
 *
 * pkt_sizes may be NULL (no byte tracking); m_bytes is ignored then.
 * meters receives the {hashes, reads, writes, promotions} deltas.
 */
EXPORT void repro_hashflow_update(
    const uint64_t *lo, const uint64_t *hi, const int64_t *pkt_sizes, int64_t n,
    const uint64_t *seeds, const int64_t *offs, const int64_t *tbl_sizes,
    int64_t depth,
    uint64_t *m_lo, uint64_t *m_hi, int64_t *m_counts, int64_t *m_bytes,
    uint64_t anc_seed, uint64_t dig_seed, uint64_t dig_mask,
    int64_t anc_cells, int64_t anc_max,
    uint64_t *a_digests, int64_t *a_counts,
    int64_t promote_enabled, int64_t clear_promoted,
    int64_t *meters) {
    int64_t hashes = 0, reads = 0, writes = 0, promotions = 0;
    const int track_bytes = pkt_sizes != 0;
    for (int64_t i = 0; i < n; i++) {
        const uint64_t klo = lo[i];
        const uint64_t khi = hi[i];
        /* Main-table probe (MainTable.probe): first empty bucket or own
         * record absorbs; otherwise remember the smallest-count
         * colliding bucket (the sentinel). */
        int64_t min_count = -1;
        int64_t sentinel = -1;
        int absorbed = 0;
        for (int64_t s = 0; s < depth; s++) {
            const int64_t idx =
                offs[s] + (int64_t)(mix128(klo, khi, seeds[s]) % (uint64_t)tbl_sizes[s]);
            hashes += 1;
            reads += 1;
            const int64_t count = m_counts[idx];
            if (count == 0) {
                m_lo[idx] = klo;
                m_hi[idx] = khi;
                m_counts[idx] = 1;
                if (track_bytes) {
                    m_bytes[idx] = pkt_sizes[i];
                }
                writes += 1;
                absorbed = 1;
                break;
            }
            if (m_lo[idx] == klo && m_hi[idx] == khi) {
                m_counts[idx] = count + 1;
                if (track_bytes) {
                    m_bytes[idx] += pkt_sizes[i];
                }
                writes += 1;
                absorbed = 1;
                break;
            }
            if (min_count < 0 || count < min_count) {
                min_count = count;
                sentinel = idx;
            }
        }
        if (absorbed) {
            continue;
        }
        if (!promote_enabled) {
            /* Ablation mode: the sentinel is unbeatable. */
            min_count = (int64_t)1 << 62;
        }
        /* Ancillary offer (AncillaryTable.offer). */
        const int64_t ai = (int64_t)(mix128(klo, khi, anc_seed) % (uint64_t)anc_cells);
        const uint64_t dig = mix128(klo, khi, dig_seed) & dig_mask;
        hashes += 2;
        reads += 1;
        const int64_t acount = a_counts[ai];
        if (acount == 0 || a_digests[ai] != dig) {
            a_digests[ai] = dig;
            a_counts[ai] = 1;
            writes += 1;
            continue;
        }
        if (acount < min_count) {
            if (acount < anc_max) {
                a_counts[ai] = acount + 1;
            }
            writes += 1;
            continue;
        }
        /* Promotion: overwrite the sentinel record. */
        m_lo[sentinel] = klo;
        m_hi[sentinel] = khi;
        m_counts[sentinel] = acount + 1;
        if (track_bytes) {
            m_bytes[sentinel] = pkt_sizes[i];
        }
        writes += 1;
        promotions += 1;
        if (clear_promoted) {
            a_digests[ai] = 0;
            a_counts[ai] = 0;
            writes += 1;
        }
    }
    meters[M_HASHES] += hashes;
    meters[M_READS] += reads;
    meters[M_WRITES] += writes;
    meters[M_PROMOTIONS] += promotions;
}

/* Batched HashFlow point query: main-table first match in stage order,
 * else the ancillary summarized count, else 0.  Meter-free, like every
 * query path. */
EXPORT void repro_hashflow_query(
    const uint64_t *lo, const uint64_t *hi, int64_t n,
    const uint64_t *seeds, const int64_t *offs, const int64_t *tbl_sizes,
    int64_t depth,
    const uint64_t *m_lo, const uint64_t *m_hi, const int64_t *m_counts,
    uint64_t anc_seed, uint64_t dig_seed, uint64_t dig_mask, int64_t anc_cells,
    const uint64_t *a_digests, const int64_t *a_counts,
    int64_t *out) {
    for (int64_t i = 0; i < n; i++) {
        const uint64_t klo = lo[i];
        const uint64_t khi = hi[i];
        int64_t answer = 0;
        for (int64_t s = 0; s < depth; s++) {
            const int64_t idx =
                offs[s] + (int64_t)(mix128(klo, khi, seeds[s]) % (uint64_t)tbl_sizes[s]);
            if (m_counts[idx] && m_lo[idx] == klo && m_hi[idx] == khi) {
                answer = m_counts[idx];
                break;
            }
        }
        if (answer == 0) {
            const int64_t ai =
                (int64_t)(mix128(klo, khi, anc_seed) % (uint64_t)anc_cells);
            if (a_counts[ai] > 0 &&
                a_digests[ai] == (mix128(klo, khi, dig_seed) & dig_mask)) {
                answer = a_counts[ai];
            }
        }
        out[i] = answer;
    }
}

/* ------------------------------------------------------------------ */
/* HashPipe (repro.sketches.hashpipe)                                 */
/* ------------------------------------------------------------------ */

/* Batched HashPipe update.  Stage s occupies cells [s * cells,
 * (s + 1) * cells) of the flat SoA buffers.  Later stages hash the
 * evicted carry record, so the whole walk is state-dependent and runs
 * here instead of a vectorized pass. */
EXPORT void repro_hashpipe_update(
    const uint64_t *lo, const uint64_t *hi, int64_t n,
    const uint64_t *seeds, int64_t stages, int64_t cells,
    uint64_t *k_lo, uint64_t *k_hi, int64_t *counts,
    int64_t *meters) {
    int64_t hashes = 0, reads = 0, writes = 0;
    for (int64_t i = 0; i < n; i++) {
        /* Stage 1: always insert, evicting whatever is there. */
        uint64_t klo = lo[i];
        uint64_t khi = hi[i];
        int64_t idx = (int64_t)(mix128(klo, khi, seeds[0]) % (uint64_t)cells);
        hashes += 1;
        reads += 1;
        const int64_t occupant = counts[idx];
        if (occupant == 0) {
            k_lo[idx] = klo;
            k_hi[idx] = khi;
            counts[idx] = 1;
            writes += 1;
            continue;
        }
        if (k_lo[idx] == klo && k_hi[idx] == khi) {
            counts[idx] = occupant + 1;
            writes += 1;
            continue;
        }
        uint64_t carry_lo = k_lo[idx];
        uint64_t carry_hi = k_hi[idx];
        int64_t carry_count = occupant;
        k_lo[idx] = klo;
        k_hi[idx] = khi;
        counts[idx] = 1;
        writes += 1;

        /* Later stages: keep the larger record, carry the smaller. */
        for (int64_t s = 1; s < stages; s++) {
            idx = s * cells +
                  (int64_t)(mix128(carry_lo, carry_hi, seeds[s]) % (uint64_t)cells);
            hashes += 1;
            reads += 1;
            const int64_t oc = counts[idx];
            if (oc == 0) {
                k_lo[idx] = carry_lo;
                k_hi[idx] = carry_hi;
                counts[idx] = carry_count;
                writes += 1;
                carry_count = 0;
                break;
            }
            if (k_lo[idx] == carry_lo && k_hi[idx] == carry_hi) {
                counts[idx] = oc + carry_count;
                writes += 1;
                carry_count = 0;
                break;
            }
            if (oc < carry_count) {
                const uint64_t tmp_lo = k_lo[idx];
                const uint64_t tmp_hi = k_hi[idx];
                k_lo[idx] = carry_lo;
                k_hi[idx] = carry_hi;
                counts[idx] = carry_count;
                carry_lo = tmp_lo;
                carry_hi = tmp_hi;
                carry_count = oc;
                writes += 1;
            }
        }
        /* Carry evicted from the final stage is discarded. */
    }
    meters[M_HASHES] += hashes;
    meters[M_READS] += reads;
    meters[M_WRITES] += writes;
}

/* Batched HashPipe point query: sum the flow's (possibly split)
 * partial records across all stages. */
EXPORT void repro_hashpipe_query(
    const uint64_t *lo, const uint64_t *hi, int64_t n,
    const uint64_t *seeds, int64_t stages, int64_t cells,
    const uint64_t *k_lo, const uint64_t *k_hi, const int64_t *counts,
    int64_t *out) {
    for (int64_t i = 0; i < n; i++) {
        const uint64_t klo = lo[i];
        const uint64_t khi = hi[i];
        int64_t total = 0;
        for (int64_t s = 0; s < stages; s++) {
            const int64_t idx =
                s * cells + (int64_t)(mix128(klo, khi, seeds[s]) % (uint64_t)cells);
            if (counts[idx] && k_lo[idx] == klo && k_hi[idx] == khi) {
                total += counts[idx];
            }
        }
        out[i] = total;
    }
}

/* ------------------------------------------------------------------ */
/* Count-min sketch (repro.sketches.countmin)                         */
/* ------------------------------------------------------------------ */

/* Batched count-min update; row s occupies [s * width, (s+1) * width)
 * of the flat counter buffer.  conservative != 0 selects conservative
 * update (only the minimal counters advance).  Counters saturate at
 * max_count instead of wrapping. */
EXPORT void repro_countmin_update(
    const uint64_t *lo, const uint64_t *hi, int64_t n,
    const uint64_t *seeds, int64_t depth, int64_t width,
    int64_t max_count, int64_t amount, int64_t conservative,
    int64_t *rows, int64_t *meters) {
    int64_t writes = 0;
    if (conservative) {
        for (int64_t i = 0; i < n; i++) {
            const uint64_t klo = lo[i];
            const uint64_t khi = hi[i];
            int64_t current_min = -1;
            for (int64_t s = 0; s < depth; s++) {
                const int64_t idx =
                    s * width + (int64_t)(mix128(klo, khi, seeds[s]) % (uint64_t)width);
                if (current_min < 0 || rows[idx] < current_min) {
                    current_min = rows[idx];
                }
            }
            const int64_t target = current_min + amount;
            for (int64_t s = 0; s < depth; s++) {
                const int64_t idx =
                    s * width + (int64_t)(mix128(klo, khi, seeds[s]) % (uint64_t)width);
                if (rows[idx] < target) {
                    rows[idx] = target < max_count ? target : max_count;
                    writes += 1;
                }
            }
        }
    } else {
        for (int64_t i = 0; i < n; i++) {
            const uint64_t klo = lo[i];
            const uint64_t khi = hi[i];
            for (int64_t s = 0; s < depth; s++) {
                const int64_t idx =
                    s * width + (int64_t)(mix128(klo, khi, seeds[s]) % (uint64_t)width);
                const int64_t value = rows[idx] + amount;
                rows[idx] = value < max_count ? value : max_count;
            }
        }
        writes = n * depth;
    }
    meters[M_HASHES] += n * depth;
    meters[M_READS] += n * depth;
    meters[M_WRITES] += writes;
}

/* Batched count-min point query: minimum counter across rows. */
EXPORT void repro_countmin_query(
    const uint64_t *lo, const uint64_t *hi, int64_t n,
    const uint64_t *seeds, int64_t depth, int64_t width,
    const int64_t *rows, int64_t *out) {
    for (int64_t i = 0; i < n; i++) {
        const uint64_t klo = lo[i];
        const uint64_t khi = hi[i];
        int64_t best = -1;
        for (int64_t s = 0; s < depth; s++) {
            const int64_t idx =
                s * width + (int64_t)(mix128(klo, khi, seeds[s]) % (uint64_t)width);
            if (best < 0 || rows[idx] < best) {
                best = rows[idx];
            }
        }
        out[i] = best;
    }
}

/* ABI version stamp, checked by the loader so a stale cached .so from
 * an older source revision is never driven with mismatched calls
 * (content-hash caching already prevents this; the stamp is a second,
 * in-band guard). */
EXPORT int64_t repro_native_abi_version(void) { return 1; }
