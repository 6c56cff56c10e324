/*
 * sigprof.c -- a sampling profiler in one preloaded file, for containers
 * that have no `perf`.
 *
 *   gcc -O2 -shared -fPIC -o sigprof.so tools/prof/sigprof.c
 *   LD_PRELOAD=$PWD/sigprof.so SIGPROF_OUT=prof.txt <program> <args>
 *   python3 tools/prof/report.py <program> prof.txt
 *
 * The constructor installs a SIGPROF handler and starts ITIMER_PROF (CPU
 * time of the whole process, SIGPROF_HZ samples per second, default 997).
 * The handler records the interrupted RIP and walks the frame-pointer chain
 * (fpwalk.h), so the program must be built with frame pointers
 * (RUSTFLAGS="-C force-frame-pointers=yes"); frames of code built without
 * them (libc, the allocator) end a stack early and show up as self time of
 * their last caller with a frame pointer. Samples go into a fixed buffer
 * (400 000 of them: 400 s of CPU at the default rate, the rest counted) and
 * are written at exit, with /proc/self/maps for the load base, to
 * $SIGPROF_OUT (default sigprof.out). x86-64 Linux only. The profiled program
 * needs no source change.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#include "fpwalk.h"

#define MAX_DEPTH 47
#define RECORD (MAX_DEPTH + 1) /* words per sample: depth, then addresses */
#define MAX_SAMPLES 400000u

static uintptr_t *buf;
static size_t taken; /* samples, counting those past the buffer's end */

static void on_sigprof(int sig, siginfo_t *info, void *uc_)
{
    (void)sig;
    (void)info;
    ucontext_t *uc = uc_;
    /* Any thread may be the one interrupted: claim the record atomically. */
    size_t slot = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_SAMPLES)
        return;
    uintptr_t *out = buf + slot * RECORD + 1;
    out[0] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t prev = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP] - 1;
    size_t n = 1 + fp_walk(fp, prev, out + 1, MAX_DEPTH - 1);
    __atomic_store_n(out - 1, n, __ATOMIC_RELEASE);
}

static void dump(void)
{
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *f = fopen(path ? path : "sigprof.out", "w");
    if (!f)
        return;
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps))
        fprintf(f, "map %s", line);
    if (maps)
        fclose(maps);
    size_t kept = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fprintf(f, "dropped %zu\n", taken - kept);
    for (size_t i = 0; i < kept; i++) {
        uintptr_t *rec = buf + i * RECORD;
        fputs("s", f);
        for (size_t j = 1; j <= rec[0]; j++)
            fprintf(f, " %lx", (unsigned long)rec[j]);
        fputc('\n', f);
    }
    fclose(f);
}

__attribute__((constructor)) static void start(void)
{
    /* Untouched pages cost nothing: the buffer is only as big as the run. */
    buf = calloc((size_t)MAX_SAMPLES * RECORD, sizeof *buf);
    if (!buf)
        return;
    const char *hz_env = getenv("SIGPROF_HZ");
    long hz = hz_env ? atol(hz_env) : 997;
    if (hz < 1 || hz > 10000)
        hz = 997;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000000 / hz}, {0, 1000000 / hz}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(dump);
}
