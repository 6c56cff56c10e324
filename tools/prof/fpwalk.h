/*
 * fpwalk.h -- the frame-pointer walk that sigprof.c and heapsites.c share.
 *
 * x86-64 frames built with frame pointers hold the caller's frame pointer at
 * [fp] and the return address at [fp + 8]. A walk starts at `fp` with `prev`
 * below it (the stack pointer it was read at, minus one) and writes at most
 * `max` return addresses to `out`, innermost first. A frame pointer is
 * followed only while it climbs, stays aligned and stays within a plausible
 * stack distance, so the walk does not fault when it runs in a signal
 * handler; a return address below 4096 ends the chain. Frames of code built
 * without frame pointers (libc, the allocator) end the chain early.
 */
#ifndef FPWALK_H
#define FPWALK_H

#include <stddef.h>
#include <stdint.h>

static int plausible(uintptr_t fp, uintptr_t prev)
{
    return fp > prev && (fp & 7) == 0 && fp - prev < (8u << 20);
}

static size_t fp_walk(uintptr_t fp, uintptr_t prev, uintptr_t *out, size_t max)
{
    size_t n = 0;
    while (n < max && plausible(fp, prev)) {
        uintptr_t *frame = (uintptr_t *)fp;
        uintptr_t ret = frame[1];
        if (ret < 4096)
            break;
        out[n++] = ret;
        prev = fp;
        fp = frame[0];
    }
    return n;
}

#endif
