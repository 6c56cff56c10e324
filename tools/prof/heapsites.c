/*
 * heapsites.c -- live heap at its peak, by allocation site, in one preloaded
 * file: what holds the memory of a run whose peak RSS grew, with no source
 * change and no heap profiler installed.
 *
 *   gcc -O2 -fno-omit-frame-pointer -shared -fPIC -o heapsites.so tools/prof/heapsites.c
 *   LD_PRELOAD=$PWD/heapsites.so HEAPSITES_OUT=heap.txt <program> <args>
 *   python3 tools/prof/report.py <program> heap.txt [--under SUBSTR]
 *
 * malloc, calloc, realloc, free, memalign, posix_memalign and aligned_alloc
 * are wrapped around glibc's own entry points (`__libc_malloc` and friends).
 * Each allocation is recorded with its size and its site: the call stack,
 * walked through the frame-pointer chain from the wrapper up (fpwalk.h), so
 * the program must be built with frame pointers
 * (RUSTFLAGS="-C force-frame-pointers=yes"). The live bytes of every site
 * are kept current. Whenever the total live bytes pass the last snapshot by
 * 64 KiB (STEP), every site's live bytes are copied aside, so the by-site
 * table written at exit is the heap within 64 KiB of its peak. Sizes are the requested ones, not
 * the allocator's rounded chunks, and the counts cover the heap only:
 * RSS also holds code, stacks and allocator slack.
 *
 * The dump ($HEAPSITES_OUT, default heapsites.out) is sigprof.c's format with
 * a byte weight per stack: `map` lines from /proc/self/maps, a `peak` line
 * (peak live bytes, bytes at the snapshot, live allocations at the
 * snapshot, allocations not tracked because a table was full), then one
 * `b <bytes> <allocs> <address>...` line per site that held memory at the
 * snapshot. report.py reads it: its self and inclusive tables then count
 * bytes live at the peak, so the inclusive table names the functions whose
 * callees' allocations hold the heap. x86-64 Linux with glibc only; threads
 * are serialised on one spin lock.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#include "fpwalk.h"

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define DEPTH 24
#define SITES (1u << 16) /* distinct call stacks */
#define ALLOCS (1u << 20) /* live allocations (open addressing, <= 3/4 full) */
#define STEP 65536 /* live bytes gained between snapshots */

struct site {
    uint64_t key; /* stack hash; 0 = empty slot */
    uint32_t depth;
    uintptr_t pc[DEPTH];
    int64_t live, at_snap;    /* bytes */
    uint64_t n_live, n_at_snap; /* allocations */
};

struct alloc {
    uintptr_t ptr; /* 0 = empty slot */
    size_t size;
    uint32_t site;
};

static struct site sites[SITES];
static uint32_t used[SITES], n_sites;
static struct alloc allocs[ALLOCS];
static size_t n_allocs, untracked;
static int64_t live, peak, snap;
static uint64_t live_allocs, snap_allocs;
static char lock;
static __thread int busy __attribute__((tls_model("initial-exec")));

static uint64_t mix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
}

/* The site of the allocation being made: the stack above the wrapper. */
static uint32_t site_here(uintptr_t fp)
{
    uintptr_t pc[DEPTH];
    uint32_t n = (uint32_t)fp_walk(fp, fp - 1, pc, DEPTH);
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (uint32_t i = 0; i < n; i++)
        h = mix(h ^ pc[i]);
    h |= 1;
    for (uint32_t i = (uint32_t)h & (SITES - 1);; i = (i + 1) & (SITES - 1)) {
        struct site *s = &sites[i];
        if (s->key == h && s->depth == n && !memcmp(s->pc, pc, n * sizeof *pc))
            return i;
        if (s->key == 0) {
            if (n_sites >= SITES - SITES / 4)
                return UINT32_MAX;
            s->key = h;
            s->depth = n;
            memcpy(s->pc, pc, n * sizeof *pc);
            used[n_sites++] = i;
            return i;
        }
    }
}

static size_t slot_of(uintptr_t p)
{
    return mix(p) & (ALLOCS - 1);
}

static void track(void *p, size_t size, uintptr_t fp)
{
    uint32_t s = site_here(fp);
    if (s == UINT32_MAX || n_allocs >= ALLOCS - ALLOCS / 4) {
        untracked++;
        return;
    }
    size_t i = slot_of((uintptr_t)p);
    while (allocs[i].ptr)
        i = (i + 1) & (ALLOCS - 1);
    allocs[i] = (struct alloc){(uintptr_t)p, size, s};
    n_allocs++;
    sites[s].live += size;
    sites[s].n_live++;
    live += size;
    live_allocs++;
    if (live > peak)
        peak = live;
    if (live >= snap + STEP) {
        for (uint32_t k = 0; k < n_sites; k++) {
            struct site *t = &sites[used[k]];
            t->at_snap = t->live;
            t->n_at_snap = t->n_live;
        }
        snap = live;
        snap_allocs = live_allocs;
    }
}

/* Linear probing with backward-shift deletion: no tombstones. */
static void untrack(void *p)
{
    size_t i = slot_of((uintptr_t)p);
    while (allocs[i].ptr != (uintptr_t)p) {
        if (!allocs[i].ptr)
            return; /* untracked, or allocated before the preload */
        i = (i + 1) & (ALLOCS - 1);
    }
    struct site *s = &sites[allocs[i].site];
    s->live -= allocs[i].size;
    s->n_live--;
    live -= allocs[i].size;
    live_allocs--;
    n_allocs--;
    for (size_t j = (i + 1) & (ALLOCS - 1); allocs[j].ptr; j = (j + 1) & (ALLOCS - 1)) {
        size_t home = slot_of(allocs[j].ptr);
        /* Move j into the hole at i unless its home lies in (i, j]. */
        if ((j > i && (home <= i || home > j)) || (j < i && home <= i && home > j)) {
            allocs[i] = allocs[j];
            i = j;
        }
    }
    allocs[i].ptr = 0;
}

static int enter(void)
{
    if (busy)
        return 0;
    busy = 1;
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
    return 1;
}

static void leave(void)
{
    __atomic_clear(&lock, __ATOMIC_RELEASE);
    busy = 0;
}

#define FP() ((uintptr_t)__builtin_frame_address(0))

void *malloc(size_t n)
{
    void *p = __libc_malloc(n);
    if (p && enter()) {
        track(p, n, FP());
        leave();
    }
    return p;
}

void *calloc(size_t k, size_t n)
{
    void *p = __libc_calloc(k, n);
    if (p && enter()) {
        track(p, k * n, FP());
        leave();
    }
    return p;
}

void *realloc(void *old, size_t n)
{
    if (!enter())
        return __libc_realloc(old, n);
    /* Under the lock: no other thread can be handed `old` before it is
     * untracked here. */
    void *p = __libc_realloc(old, n);
    if (p || !n) {
        if (old)
            untrack(old);
        if (p)
            track(p, n, FP());
    }
    leave();
    return p;
}

void free(void *p)
{
    if (p && enter()) {
        untrack(p);
        leave();
    }
    __libc_free(p);
}

void *memalign(size_t align, size_t n)
{
    void *p = __libc_memalign(align, n);
    if (p && enter()) {
        track(p, n, FP());
        leave();
    }
    return p;
}

void *aligned_alloc(size_t align, size_t n)
{
    void *p = __libc_memalign(align, n);
    if (p && enter()) {
        track(p, n, FP());
        leave();
    }
    return p;
}

int posix_memalign(void **out, size_t align, size_t n)
{
    if (align < sizeof(void *) || (align & (align - 1)))
        return EINVAL;
    void *p = __libc_memalign(align, n);
    if (!p)
        return ENOMEM;
    if (enter()) {
        track(p, n, FP());
        leave();
    }
    *out = p;
    return 0;
}

static void dump(void)
{
    busy = 1; /* stdio allocates: let it through untracked */
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
    const char *path = getenv("HEAPSITES_OUT");
    FILE *f = fopen(path ? path : "heapsites.out", "w");
    if (!f)
        goto out;
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps))
        fprintf(f, "map %s", line);
    if (maps)
        fclose(maps);
    fprintf(f, "peak %lld %lld %llu %zu\n", (long long)peak, (long long)snap,
            (unsigned long long)snap_allocs, untracked);
    for (uint32_t k = 0; k < n_sites; k++) {
        struct site *s = &sites[used[k]];
        if (s->at_snap <= 0)
            continue;
        fprintf(f, "b %lld %llu", (long long)s->at_snap, (unsigned long long)s->n_at_snap);
        for (uint32_t j = 0; j < s->depth; j++)
            fprintf(f, " %lx", (unsigned long)s->pc[j]);
        fputc('\n', f);
    }
    fclose(f);
out:
    __atomic_clear(&lock, __ATOMIC_RELEASE);
}

__attribute__((constructor)) static void start(void)
{
    atexit(dump);
}
