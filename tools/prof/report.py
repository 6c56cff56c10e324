#!/usr/bin/env python3
"""Symbolise a sigprof.c or heapsites.c dump with `nm -C` and print self /
inclusive tables.

    python3 tools/prof/report.py <binary> <dump> [--top N] [--under SUBSTR] [--lines]

Self time goes to the function holding the sampled RIP; inclusive time to
every distinct function on the sampled stack. A heapsites.c dump weighs each
stack by the bytes its allocations held at the heap's peak instead: self
bytes go to the allocation's owner, the first function on the stack outside
the standard library and its containers (`alloc::`, `core::`, `std::`,
`hashbrown::`; `Vec` growth is charged to whoever pushed, not to
`RawVecInner::finish_grow`), inclusive bytes to every function on the stack.
`--under` keeps only samples
whose stack contains a function matching SUBSTR, and reports shares of those.
Addresses outside the binary (libc, the preload itself) are "[other]".

`--lines` adds a self table by source line: `addr2line` maps each sampled RIP
to the innermost `file:line` it was inlined from. It needs line tables in
the binary (`CARGO_PROFILE_RELEASE_DEBUG=line-tables-only`); without them
every line reads "??:0".
"""
import bisect
import collections
import os
import subprocess
import sys


# Frames a heap dump's self table looks through to find an allocation's owner.
LIBRARY = ("alloc::", "core::", "std::", "hashbrown::")


def symbols(binary):
    out = subprocess.run(
        ["nm", "-C", "--defined-only", "-n", binary],
        check=True, capture_output=True, text=True,
    ).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[1] in "tTwW":
            syms.append((int(parts[0], 16), parts[2]))
    syms.sort()
    return [a for a, _ in syms], [n for _, n in syms]


def main():
    args = sys.argv[1:]
    top, under, lines = 30, None, False
    if "--top" in args:
        i = args.index("--top")
        top = int(args[i + 1])
        del args[i:i + 2]
    if "--under" in args:
        i = args.index("--under")
        under = args[i + 1]
        del args[i:i + 2]
    if "--lines" in args:
        args.remove("--lines")
        lines = True
    if len(args) != 2:
        sys.exit(__doc__)
    binary, dump = args
    addrs, names = symbols(binary)
    real = os.path.realpath(binary)

    # Where the binary is mapped: its executable ranges, and its lowest
    # address, which for a position-independent executable (ELF type DYN) is
    # what the loader added to every symbol value `nm` prints.
    text, lowest, stacks, dropped, peak = [], None, [], 0, None
    for line in open(dump):
        kind, _, rest = line.partition(" ")
        if kind == "map":
            f = rest.split()
            if len(f) >= 6 and os.path.realpath(f[5]) == real:
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                lowest = lo if lowest is None else min(lowest, lo)
                if "x" in f[1]:
                    text.append((lo, hi))
        elif kind == "dropped":
            dropped = int(rest)
        elif kind == "peak":
            peak = [int(x) for x in rest.split()]
        elif kind == "s":
            stacks.append((1, [int(x, 16) for x in rest.split()]))
        elif kind == "b":  # bytes, live allocations, stack
            f = rest.split()
            stacks.append((int(f[0]), [int(x, 16) for x in f[2:]]))
    with open(binary, "rb") as f:
        pie = int.from_bytes(f.read(18)[16:18], "little") == 3
    base = lowest if pie and lowest is not None else 0

    def name(addr, is_return):
        if not any(lo <= addr < hi for lo, hi in text):
            return "[other]"
        # A return address may be the first byte after a `call` that ends
        # its function: look up the byte before it.
        i = bisect.bisect_right(addrs, addr - base - (1 if is_return else 0)) - 1
        return names[i] if i >= 0 else "[other]"

    # A heap stack starts at a return address, a sampled one at the RIP.
    heap = peak is not None

    def owner(fns):
        """The first frame outside the library, else the innermost one."""
        return next((f for f in fns if not f.lstrip("<").startswith(LIBRARY)), fns[0])

    self_t, incl_t, kept = collections.Counter(), collections.Counter(), 0
    rips = collections.Counter()
    for weight, stack in stacks:
        fns = [name(a, heap or i > 0) for i, a in enumerate(stack)]
        if not fns or under and not any(under in f for f in fns):
            continue
        kept += weight
        self_t[owner(fns) if heap else fns[0]] += weight
        for f in set(fns):
            incl_t[f] += weight
        if fns[0] != "[other]":
            rips[stack[0] - base - heap] += weight
    if not kept:
        sys.exit("no samples")
    scope = f" under '{under}'" if under else ""
    if heap:
        total = sum(w for w, _ in stacks)
        print(f"{kept} bytes{scope} of {total} live at the snapshot; peak {peak[0]} bytes, "
              f"{peak[2]} live allocations at the snapshot, {peak[3]} untracked")
    else:
        print(f"{kept} samples{scope} of {len(stacks)} ({dropped} dropped)")
    tables = [("self", self_t), ("inclusive", incl_t)]
    if lines:
        tables.append(("self by line", source_lines(binary, rips)))
    for title, table in tables:
        print(f"\n-- {title} --")
        for fn, n in table.most_common(top):
            print(f"{100 * n / kept:6.2f}%  {n:9d}  {fn[:110]}")


def source_lines(binary, rips):
    """Sample counts by `file:line`, from RIP (file-relative) sample counts."""
    addrs = list(rips)
    out = subprocess.run(
        ["addr2line", "-e", binary],
        input="".join(f"{a:x}\n" for a in addrs),
        check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    table, cwd = collections.Counter(), os.getcwd() + os.sep
    for addr, loc in zip(addrs, out):
        loc = loc.split(" (discriminator")[0].removeprefix(cwd)
        if loc.startswith("/rustc/"):  # the standard library's sources
            loc = "std:" + loc.split("/library/", 1)[-1]
        table[loc] += rips[addr]
    return table


if __name__ == "__main__":
    main()
