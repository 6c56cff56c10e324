#!/usr/bin/env python3
"""Symbolise a sigprof.c dump with `nm -C` and print self / inclusive tables.

    python3 tools/prof/report.py <binary> <dump> [--top N] [--under SUBSTR]

Self time goes to the function holding the sampled RIP; inclusive time to
every distinct function on the sampled stack. `--under` keeps only samples
whose stack contains a function matching SUBSTR, and reports shares of those.
Addresses outside the binary (libc, the preload itself) are "[other]".
"""
import bisect
import collections
import os
import subprocess
import sys


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
    top, under = 30, None
    if "--top" in args:
        i = args.index("--top")
        top = int(args[i + 1])
        del args[i:i + 2]
    if "--under" in args:
        i = args.index("--under")
        under = args[i + 1]
        del args[i:i + 2]
    if len(args) != 2:
        sys.exit(__doc__)
    binary, dump = args
    addrs, names = symbols(binary)
    real = os.path.realpath(binary)

    # Where the binary is mapped: its executable ranges, and its lowest
    # address, which for a position-independent executable (ELF type DYN) is
    # what the loader added to every symbol value `nm` prints.
    text, lowest, stacks, dropped = [], None, [], 0
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
        elif kind == "s":
            stacks.append([int(x, 16) for x in rest.split()])
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

    self_t, incl_t, kept = collections.Counter(), collections.Counter(), 0
    for stack in stacks:
        fns = [name(a, i > 0) for i, a in enumerate(stack)]
        if under and not any(under in f for f in fns):
            continue
        kept += 1
        self_t[fns[0]] += 1
        for f in set(fns):
            incl_t[f] += 1
    if not kept:
        sys.exit("no samples")
    scope = f" under '{under}'" if under else ""
    print(f"{kept} samples{scope} of {len(stacks)} ({dropped} dropped)")
    for title, table in (("self", self_t), ("inclusive", incl_t)):
        print(f"\n-- {title} --")
        for fn, n in table.most_common(top):
            print(f"{100 * n / kept:6.2f}%  {n:7d}  {fn[:110]}")


if __name__ == "__main__":
    main()
