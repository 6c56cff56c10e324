#!/usr/bin/env python3
"""Size report for ROADMAP's aim-2 tracker: what every simplicity PR counted by hand.

    python3 tools/aim2.py [--root DIR] [--count LITERAL ...]

Prints, for the Rust outside `benchmark/` and `target/`:
  * per crate, the lines of `src/` that are code: outside `#[cfg(test)]`
    items (a file declared `#[cfg(test)] mod x;` is one), not blank, not a
    `//` comment;
  * the ten largest files (all lines; code lines beside them);
  * the ten longest functions outside tests (`fn` line to closing brace);
  * the public fields of every configuration struct outside tests (each
    `*Config`, plus `Timing` and `CostModel`), and their total;
  * for each `--count LITERAL`, how often it occurs in code lines;
  * the `pub` items of `crates/*/src` that nothing but tests reaches: no
    caller in non-test crate code, `src/`, `examples/`,
    `crates/bench/benches/` or `benchmark/src/`. A caller inside an item
    that is itself unreached does not count. A method (an item of an
    `impl`) is reached only where its name follows `::`, or follows `.`
    with `(` or `::<` after it: a call, so neither a local nor a field of
    the same name (`self.misses += 1`) is one; any other item, wherever
    its name occurs. `KEPT` names the ones kept on purpose, with the tests
    that use them; an item listed that is not on `KEPT` fails the run, and
    so does a `KEPT` name that is no public item of `crates/*/src` any more
    (printed as stale);
  * the fields of those configuration structs that only tests set: a
    literal of the struct in test code sets them, and no non-test code
    does, neither in a literal of the struct outside the struct's own file
    nor through `.field =` (non-test code: the same callers as above).
    `KEPT_KNOBS` names the ones kept on purpose, with the tests that set
    them; an entry not listed any more is printed as stale, and fails the
    run.
  * the public fields of `crates/*/src` that no non-test code reads (see
    `unread_fields`). `KEPT_FIELDS` names the ones kept on purpose, with
    the test that reads each; an entry not listed any more is printed as
    stale, and fails the run, as does a listed field not on `KEPT_FIELDS`.
The numbers are not gated: they are for the tracker line and the CHANGES
table. The exit status is 1 when an item only tests reach is not on
`KEPT`, a field no non-test code reads is not on `KEPT_FIELDS`, or a
`KEPT`, `KEPT_KNOBS` or `KEPT_FIELDS` entry is stale.
"""
import argparse
import re
import sys
from pathlib import Path

CONFIG = re.compile(r"^\s*pub struct (\w+Config|Timing|CostModel)\b.*\{\s*$")
TEST_MOD = re.compile(r"^\s*(?:pub(?:\([a-z]+\))?\s+)?mod\s+(\w+)\s*;")
PUB_ITEM = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe)\s+)*(fn|struct|enum|trait|type|const|static)\s+(\w+)"
)
IMPL = re.compile(r"^\s*impl\b(?:<[^>]*>)?\s+(?:(\w+)(?:<[^>]*>)?\s+for\s+)?(\w+)")
WORD = re.compile(r"[A-Za-z_]\w*")
PATH_WORD = re.compile(r"(?<!\.)\.\s*([A-Za-z_]\w*)(?=\s*(?:\(|::<))|::\s*([A-Za-z_]\w*)")
CALLERS = ("src/", "examples/", "crates/bench/benches/", "benchmark/src/")

# Public items that only tests reach, kept on purpose: observation hooks
# and setup calls of the integration tests, surfaces scoped out of deletion
# (ROADMAP items 8 and 9), and paper model pieces no world runs yet.
KEPT = {
    "Calendar::debug_audit": "hook: audits the calendar's bookkeeping",
    "TraceRing::dropped": "hook: the trace ring did not overflow (datapath_conservation)",
    "Calendar::next_time": "hook: peeks at the next due time",
    "CpuPool::total_busy": "hook: work conservation",
    "SimTime::checked_sub": "hook: time arithmetic",
    "Server::stages_in_flight": "hook: a drained run holds no stage",
    "Server::nic": "hook: per-VF rx counts (datapath_conservation, datapath_pinned)",
    "DctcpCc::alpha": "hook: DCTCP's live marking estimate decays and converges",
    "RttEstimator::rttvar": "hook: the live RTT variance behind the RTO",
    "TcpConn::ecn_active": "hook: ECN negotiated on both ends, or on neither",
    "FlowPlacer::current_path": "hook: which path a flow rides",
    "Telemetry::enable_all": "hook: every series on, for the export schema",
    "TorController::tor_believed_down": "hook: ToR liveness belief",
    "TorController::tor_generation": "hook: ToR boot generation seen",
    "Vswitch::rules_mut": "setup: component-level vswitch rules",
    "RuleSet::add_security": "setup: tenant security rules",
    "RuleManager::set_policy": "setup: a tenant's rule set",
    "Tor::install_tunnel": "tunnel directory: benchmark/ reads tor.fastpath.tunnel_entries (item 4)",
    "Tor::remove_tunnel": "tunnel directory: benchmark/ reads tor.fastpath.tunnel_entries (item 4)",
    "Buf": "wire codec, kept whole while benchmark/ probes call encode_wire",
    "verify": "wire codec, kept whole while benchmark/ probes call encode_wire",
    "ECT1": "ECN codepoints stay beside Packet",
}
# Configuration fields that only tests set, kept on purpose: settings the
# pinned scenarios vary, where a constant would move their digests, and
# setup of the integration tests.
KEPT_KNOBS = {
    "FasTrakConfig::rule_manager": "setup: a tenant's security rules, with RuleManager::set_policy",
    "TcpConfig::delack": "the 200 us delayed ACK the pinned stack scenarios run",
    "TcpConfig::msl": "a short TIME_WAIT the pinned and determinism scenarios watch expire",
}
# Public fields no non-test code reads, kept on purpose: observables a
# test checks that no export carries, and fields a kept surface feeds.
KEPT_FIELDS = {
    "DeEpochStats::scanned": "the one observable of the selection walk's top-k bound (de_inc.rs selection_walk_is_bounded_by_the_budget)",
    "SegmentPlan::is_rtx": "the retransmit mark tcp.rs's tests and stack_differential's digest tail read",
    "PacketBody::sent_at": "Packet::new feeds it, and benchmark/src/probes.rs calls Packet::new (item 4)",
}
FN = re.compile(r"^\s*(?:pub(?:\([a-z]+\))?\s+)?(?:const\s+)?(?:unsafe\s+)?fn\s+(\w+)")
LITERALS = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])\'')


def bare(line):
    """The line without its `//` comment and with literals emptied."""
    return LITERALS.sub('""', line.split("//")[0])


def block_end(lines, i):
    """Index of the line that ends the item starting at `lines[i]`."""
    depth, opened = 0, False
    for j in range(i, len(lines)):
        b = bare(lines[j])
        if not opened and ";" in b and "{" not in b:
            return j  # a declaration without a body
        depth += b.count("{") - b.count("}")
        opened = opened or "{" in b
        if opened and depth == 0:
            return j
    return len(lines) - 1


def non_test(text):
    """(line number, line) of every line outside `#[cfg(test)]` items."""
    lines, out, i = text.splitlines(), [], 0
    while i < len(lines):
        if lines[i].strip().startswith("#[cfg(test)]"):
            i = block_end(lines, i + 1) + 1
            continue
        out.append((i + 1, lines[i]))
        i += 1
    return out


def test_only(files, texts):
    """The files of modules declared `#[cfg(test)] mod x;`, and of theirs."""
    dirs = set()
    for p in files:
        lines = texts[p].splitlines()
        for attr, decl in zip(lines, lines[1:]):
            m = attr.strip().startswith("#[cfg(test)]") and TEST_MOD.match(decl)
            if m:
                here = p.parent if p.stem in ("lib", "main", "mod") else p.parent / p.stem
                dirs.add(here / m.group(1))
    return {p for p in files if p.with_suffix("") in dirs or dirs & set(p.parents)}


def code_lines(text):
    """The non-test lines that are neither blank nor a `//` comment."""
    keep = lambda l: l.strip() and not l.strip().startswith("//")
    return [(no, l) for no, l in non_test(text) if keep(l)]


def functions(text):
    """(length, name, first line) of every function outside tests."""
    kept = non_test(text)
    lines = [l for _, l in kept]
    found = []
    for i, line in enumerate(lines):
        m = FN.match(line)
        end = block_end(lines, i) if m else i
        if m and any("{" in bare(l) for l in lines[i : end + 1]):
            found.append((end - i + 1, m.group(1), kept[i][0]))
    return found


def unreached(root, files, texts, tests):
    """(item, `path:line`) of each public item of `crates/*/src` that only
    tests reach, to a fixed point: an item whose every caller is inside
    items already found is unreached too; and the names of every public
    item of `crates/*/src`, reached or not."""
    rel = lambda p: p.relative_to(root).as_posix()
    lib = lambda p: rel(p).startswith("crates/") and rel(p).split("/")[2] == "src"
    callers = [p for p in files if p not in tests and (lib(p) or rel(p).startswith(CALLERS))]
    callers += sorted((root / "benchmark" / "src").rglob("*.rs"))
    words, items = {}, []  # words[(path, i)] = (words, `.`/`::` words) of a code line
    for p in callers:
        kept = non_test(texts.get(p) or p.read_text())
        lines = [bare(l) for _, l in kept]
        impls = []  # (first, last, self type, trait) of each impl block
        for i, b in enumerate(lines):
            m = IMPL.match(b)
            if m:
                impls.append((i, block_end(lines, i), m.group(2), m.group(1)))
        for i, b in enumerate(lines):
            if re.match(r"^\s*(pub(\([a-z]+\))?\s+)?use\b", b):
                continue
            m = PUB_ITEM.match(b) if lib(p) else None
            w = WORD.findall(b)
            if m:
                w.remove(m.group(2))
                body = set(range(i, block_end(lines, i) + 1))
                owner = None
                for first, last, ty, tr in impls:
                    if m.group(1) in ("fn", "const") and first < i <= last:
                        owner = ty
                    if m.group(1) != "fn" and m.group(2) in (ty, tr):
                        body |= set(range(first, last + 1))
                name = f"{owner}::{m.group(2)}" if owner else m.group(2)
                at = f"{rel(p)}:{kept[i][0]}"
                items.append((m.group(2), int(owner is not None), name, {(p, j) for j in body}, at))
            words[(p, i)] = (w, [a or b for a, b in PATH_WORD.findall(b)])
    total = [{}, {}]  # by kind: 0 any occurrence, 1 after `.` or `::`
    for ws in words.values():
        for kind, w in enumerate(ws):
            for x in w:
                total[kind][x] = total[kind].get(x, 0) + 1
    found = {}
    while True:
        dead = set().union(*(items[k][3] for k in found)) if found else set()
        new = {
            k: at
            for k, (word, kind, name, body, at) in enumerate(items)
            if k not in found
            and total[kind].get(word, 0)
            == sum(words[l][kind].count(word) for l in body | dead if l in words)
        }
        if not new:
            names = {name for _, _, name, _, _ in items}
            return sorted((items[k][2], at) for k, at in found.items()), names
        found.update(new)


PUB_STRUCT = re.compile(r"^\s*pub\s+struct\s+(\w+)[^;(]*\{\s*$")
PUB_FIELD = re.compile(r"^\s+pub\s+(\w+)\s*:")
# `.name` not followed by a call, or by an assignment that only writes it.
DESTRUCTURE = re.compile(r"\b[A-Z]\w*\s*\{([^{}]*)\}\s*(?:=(?!=)|=>)")
FIELD_READ = re.compile(r"\.\s*([A-Za-z_]\w*)\b(?!\s*(?:\(|::<|[-+*/%|&^]?=(?!=)|<<=|>>=))")


def unread_fields(root, files, texts, tests):
    """(`Struct::field`, `path:line`) of each public field of a public
    struct of `crates/*/src` that no non-test code reads as `.field`: a
    `.field` followed by `(` or `::<` is a method call, and one followed by
    `=` or a compound assignment (`+=`, ...) only writes it; a
    destructuring pattern reads the fields it names. A read of any struct's
    field of that name counts."""
    rel = lambda p: p.relative_to(root).as_posix()
    lib = lambda p: rel(p).startswith("crates/") and rel(p).split("/")[2] == "src"
    callers = [p for p in files if p not in tests and (lib(p) or rel(p).startswith(CALLERS))]
    callers += sorted((root / "benchmark" / "src").rglob("*.rs"))
    read = set()
    for p in callers:
        code = [bare(l) for _, l in non_test(texts.get(p) or p.read_text())]
        for line in code:
            read.update(FIELD_READ.findall(line))
        # A destructuring pattern (`let S { a, b: x, .. } = s`, a match arm)
        # reads the fields it names.
        for fields in DESTRUCTURE.findall("\n".join(code)):
            read.update(re.findall(r"(?:^|,)\s*(?:ref\s+|mut\s+)*(\w+)", fields))
    out = []
    for p in filter(lambda p: lib(p) and p not in tests, files):
        kept = non_test(texts[p])
        lines = [l for _, l in kept]
        for i, line in enumerate(lines):
            m = PUB_STRUCT.match(bare(line))
            if not m:
                continue
            for j in range(i + 1, block_end(lines, i)):
                f = PUB_FIELD.match(lines[j])
                if f and f.group(1) not in read:
                    out.append((f"{m.group(1)}::{f.group(1)}", f"{rel(p)}:{kept[j][0]}"))
    return sorted(out)


def literals(text, names):
    """(struct, first line, fields) of each struct literal of a struct in
    `names` in `text`: the fields it sets by name, shorthand included."""
    lines = [bare(l) for l in text.splitlines()]
    flat = "\n".join(lines)
    head = re.compile(rf"(?<![\w>])(?:\w+::)*({'|'.join(names)})\s*\{{")
    out = []
    for m in head.finditer(flat):
        before = flat[: m.start()].rstrip()
        if re.search(r"(\bstruct|\bimpl(<[^>]*>)?|\bfor|->)$", before):
            continue
        depth, seg, fields, i = 0, "", set(), m.end()
        while i < len(flat) and depth >= 0:
            c = flat[i]
            depth += (c in "([{") - (c in ")]}")
            if depth < 0 or (depth == 0 and c == ","):
                f = re.match(r"\s*(\w+)\s*(?::(?!:)|$)", seg)
                if f and not seg.strip().startswith(".."):
                    fields.add(f.group(1))
                seg = ""
            else:
                seg += c
            i += 1
        out.append((m.group(1), flat.count("\n", 0, m.start()) + 1, fields))
    return out


def test_only_knobs(root, files, texts, tests, configs):
    """((struct, field), test files setting it) of each field of a tracked
    configuration struct that test code sets and no non-test code does."""
    rel = lambda p: p.relative_to(root).as_posix()
    own = {name: at.split(":")[0] for name, _, at, _ in configs}
    fields = {(name, f) for name, _, _, fs in configs for f in fs}
    test_sets, world_sets = {}, set()
    for p in files + sorted((root / "benchmark" / "src").rglob("*.rs")):
        text = texts.get(p) or p.read_text()
        r = rel(p)
        is_test = p in tests or "tests" in p.relative_to(root).parts
        live = set() if is_test else {no for no, _ in non_test(text)}
        for s, no, fs in literals(text, sorted(own)):
            for f in fs & {g for t, g in fields if t == s}:
                if no not in live:
                    test_sets.setdefault((s, f), set()).add(r)
                elif r != own[s]:
                    world_sets.add((s, f))
        # `x.field = ..` names no struct: it counts for every struct with
        # such a field, and only for the world side.
        for no, line in non_test(text) if live else []:
            for f in re.findall(r"\.(\w+)\s*=(?!=)", bare(line)):
                world_sets |= {(s, g) for s, g in fields if g == f}
    return sorted((k, sorted(v)) for k, v in test_sets.items() if k not in world_sets)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=Path(__file__).resolve().parent.parent, type=Path)
    ap.add_argument("--count", action="append", default=[], metavar="LITERAL")
    args = ap.parse_args()
    root = args.root
    files = sorted(
        p
        for p in root.rglob("*.rs")
        if not {"target", "benchmark", ".git"} & set(p.relative_to(root).parts)
    )
    texts = {p: p.read_text() for p in files}
    tests = test_only(files, texts)
    code = {p: [] if p in tests else code_lines(t) for p, t in texts.items()}
    rel = lambda p: str(p.relative_to(root))
    in_src = lambda p: "src" in p.relative_to(root).parts[:3] and p not in tests

    print("== code lines per crate (src/, outside tests, comments, blanks) ==")
    crates = {}
    for p in files:
        parts = p.relative_to(root).parts
        if in_src(p):
            name = parts[1] if parts[0] == "crates" else "(root)"
            crates.setdefault(name, []).append(p)
    total = 0
    for name, ps in sorted(crates.items()):
        n = sum(len(code[p]) for p in ps)
        total += n
        top = sorted(ps, key=lambda p: -len(code[p]))[:4]
        detail = ", ".join(f"{p.stem} {len(code[p])}" for p in top)
        print(f"{name:12} {n:6}   ({detail})")
    print(f"{'total':12} {total:6}   all .rs lines outside benchmark/: "
          f"{sum(t.count(chr(10)) for t in texts.values())}")

    print("\n== ten largest files (lines, of which code outside tests) ==")
    for p in sorted(files, key=lambda p: -texts[p].count("\n"))[:10]:
        print(f"{texts[p].count(chr(10)):6} {len(code[p]):6}  {rel(p)}")

    print("\n== ten longest functions outside tests ==")
    fns = [(n, name, rel(p), at) for p in files if in_src(p) for n, name, at in functions(texts[p])]
    for n, name, path, at in sorted(fns, reverse=True)[:10]:
        print(f"{n:6}  {name}  {path}:{at}")

    print("\n== configuration struct fields (pub, outside tests) ==")
    configs = []
    for p in filter(in_src, files):
        kept = non_test(texts[p])
        lines = [l for _, l in kept]
        for i, line in enumerate(lines):
            m = CONFIG.match(line)
            if m:
                body = lines[i + 1 : block_end(lines, i)]
                fs = [f.group(1) for l in body for f in [re.match(r"^\s+pub (\w+):", l)] if f]
                configs.append((m.group(1), len(fs), f"{rel(p)}:{kept[i][0]}", fs))
    for name, n, at, _ in sorted(configs):
        print(f"{name:24} {n:3}  {at}")
    print(f"{'total':24} {sum(n for _, n, _, _ in configs):3}  ({len(configs)} structs)")

    print("\n== public items only tests reach (callers: crate src, src/, examples/, benches, benchmark/src) ==")
    kept = []
    found, names = unreached(root, files, texts, tests)
    for name, at in found:
        if name in KEPT:
            kept.append((name, at))
        else:
            print(f"  {name:40} {at}")
    n_unlisted = len(found) - len(kept)
    print(f"kept on purpose ({len(kept)}), each with the tests that use it:")
    test_text = {
        p: t if p in tests or "tests" in p.relative_to(root).parts
        else "\n".join(sorted(set(t.splitlines()) - {l for _, l in non_test(t)}))
        for p, t in texts.items()
    }
    for name, at in kept:
        word = re.compile(rf"\b{re.escape(name.split('::')[-1])}\b")
        users = sorted(rel(p) for p, t in test_text.items() if word.search(t))
        print(f"  {name:32} {KEPT[name]}\n  {'':32} tests naming it: {', '.join(users) or '-'}")
    stale = sorted(set(KEPT) - names)
    print(f"stale: kept names that are no public item of crates/*/src ({len(stale)})")
    for name in stale:
        print(f"  {name:32} {KEPT[name]}")
    n_stale = len(stale)

    print("\n== configuration fields only tests set (no world sets them) ==")
    knobs = test_only_knobs(root, files, texts, tests, configs)
    kept = [(f"{s}::{f}", users) for (s, f), users in knobs if f"{s}::{f}" in KEPT_KNOBS]
    for (s, f), users in knobs:
        if f"{s}::{f}" not in KEPT_KNOBS:
            print(f"  {s + '::' + f:32} tests setting it: {', '.join(users)}")
    print(f"kept on purpose ({len(kept)}), each with the tests that set it:")
    for name, users in kept:
        print(f"  {name:32} {KEPT_KNOBS[name]}\n  {'':32} tests setting it: {', '.join(users)}")
    stale = sorted(set(KEPT_KNOBS) - {name for name, _ in kept})
    print(f"stale: kept knobs that are no field only tests set ({len(stale)})")
    for name in stale:
        print(f"  {name:32} {KEPT_KNOBS[name]}")
    n_stale += len(stale)

    print("\n== public fields no non-test code reads (callers as above) ==")
    fields = unread_fields(root, files, texts, tests)
    unkept = [(name, at) for name, at in fields if name not in KEPT_FIELDS]
    for name, at in unkept:
        print(f"  {name:40} {at}")
    n_unlisted += len(unkept)
    kept = [(name, at) for name, at in fields if name in KEPT_FIELDS]
    print(f"kept on purpose ({len(kept)}):")
    for name, at in kept:
        print(f"  {name:32} {KEPT_FIELDS[name]}")
    stale = sorted(set(KEPT_FIELDS) - {name for name, _ in fields})
    print(f"stale: kept fields that are no unread public field ({len(stale)})")
    for name in stale:
        print(f"  {name:32} {KEPT_FIELDS[name]}")
    n_stale += len(stale)

    for lit in args.count:
        hits = [(rel(p), no) for p in files if in_src(p) for no, l in code[p] if lit in l]
        print(f"\n== {lit!r} in code lines: {len(hits)} ==")
        for path, no in hits:
            print(f"  {path}:{no}")
    return 1 if n_unlisted or n_stale else 0


if __name__ == "__main__":
    sys.exit(main())
