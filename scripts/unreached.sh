#!/usr/bin/env bash
# List the public functions that nothing outside the tests calls.
#
# A `pub fn` in the non-test part of `crates/*/src` stays only if a figure,
# a table, `analyze`, `bench-diff`, an example, the fleet engine, the
# fleetbench harness or a paper-anchor test reaches it (ROADMAP item 12).
# This script approximates "reaches" by name: it prints every such
# function whose name no other non-test line of the callers spells. The
# callers are the non-test code of `crates/*/src` (the experiments binary
# included), `src/`, `examples/` and `fleetbench/src`. Comments and
# `#[cfg(test)]` items do not count as callers. The shims `rand`,
# `proptest` and `criterion` mirror external APIs and are left out, as
# definitions and as callers.
#
# The allow-list below subtracts the entries a caller outside that set
# keeps: a paper-anchor test (one that pins a number of the paper), or a
# tier-1 root test (`tests/`) that needs the function as its subject or
# its oracle. Each line is `<file> <fn>` followed by what keeps it. A line
# that matches no unreached function is stale and fails too, so the list
# stays short.
#
# Name-only matching cannot tell apart methods that share a name (`new`,
# `reset`, `select`): a name spelled anywhere keeps every function of that
# name. Check a new function with a common name by reading its callers.
#
# Usage:
#   scripts/unreached.sh
#
# Exits 0 when every unreached function is on the allow-list and every
# allow-list line is used, 1 otherwise.
set -euo pipefail

repo=$(git rev-parse --show-toplevel)
cd "$repo"

python3 - <<'PY'
import glob, re, sys

SHIMS = {"rand", "proptest", "criterion"}

# <file> <fn>  <what keeps it>
ALLOW = """
crates/circuits/src/chain.rs bare_tag  circuits::chain test amplifier_extends_sensitivity (§3.2: a bare detector sees about -40 dBm)
crates/circuits/src/chain.rs demodulate  tests/end_to_end.rs frame_over_passive_chain_round_trip (tier 1); the batch oracle of circuits' streaming-chain proptest
crates/mac/src/regimes.rs boundaries  mac::regimes test boundaries_match_fig13_ranges (Fig. 13: 2.4 m and 5.1 m)
crates/mac/src/scheduler.rs preview  mac::scheduler test paper_example_half_quarter_quarter (§4.2's braid example)
crates/phy/src/modulation.rs modulate  tests/end_to_end.rs frame_over_passive_chain_round_trip (tier 1); the materialized oracle of the fused Monte-Carlo loop
crates/phy/src/modulation.rs decision_index  tests/end_to_end.rs frame_over_passive_chain_round_trip (tier 1); the materialized oracle of the fused Monte-Carlo loop
crates/pool/src/lib.rs with_threads  tests/goldens.rs, which pins every golden scenario at 1 and 4 workers, and the thread-invariance suites
crates/radio/src/characterization.rs power_ratio  radio::characterization test power_ratios_match_fig14_labels (Fig. 14's corner ratios)
crates/radio/src/characterization.rs power_table  tests/paper_claims.rs headline_power_envelope and radio::characterization test power_range_spans_paper_envelope (16 uW to 129 mW)
crates/radio/src/hardware.rs table4  radio::hardware tests eight_modules and carrier_emitter_matches_characterization (Table 4)
crates/units/src/power.rs microwatts  radio::characterization test power_range_spans_paper_envelope (the 16.54 uW floor)
"""

def strip(text):
    """The file's lines with comments, string contents and every
    `#[cfg(test)]` item blanked out; line numbers are kept."""
    out, i, n = [], 0, len(text)
    buf = []
    depth = 0          # brace depth
    skip_from = None   # depth at which a cfg(test) item started
    pending = False    # saw #[cfg(test)], item not started yet
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i)
            j = n if j < 0 else j + 2
            buf.append("\n" * text.count("\n", i, j))
            i = j
            continue
        if c == '"' or text.startswith('r"', i) or text.startswith('r#"', i):
            if c == "r":
                hashes = 1 if text[i + 1] == "#" else 0
                close = '"' + "#" * hashes
                j = text.find(close, i + 2 + hashes)
                j = n if j < 0 else j + len(close)
            else:
                j = i + 1
                while j < n and text[j] != '"':
                    j += 2 if text[j] == "\\" else 1
                j += 1
            buf.append('""' + "\n" * text.count("\n", i, j))
            i = j
            continue
        if c == "'":
            m = re.match(r"'(\\.|[^\\'])'|'\\u\{[0-9a-fA-F]+\}'", text[i:])
            if m:
                buf.append("' '")
                i += m.end()
                continue
        if text.startswith("#[cfg(test)]", i) and skip_from is None:
            pending, skip_from = True, depth
            i += len("#[cfg(test)]")
            continue
        if skip_from is not None:
            if c == "{":
                depth += 1
                pending = False
            elif c == "}":
                depth -= 1
                if depth == skip_from:
                    skip_from = None
            elif c == ";" and pending and depth == skip_from:
                skip_from, pending = None, False
            buf.append("\n" if c == "\n" else "")
            i += 1
            continue
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
        buf.append(c)
        i += 1
    return "".join(buf).split("\n")

def sources(patterns):
    files = []
    for p in patterns:
        files += sorted(glob.glob(p, recursive=True))
    return [f for f in files if f.split("/")[1] not in SHIMS or not f.startswith("crates/")]

callers = sources(["crates/*/src/**/*.rs", "src/**/*.rs", "examples/**/*.rs", "fleetbench/src/**/*.rs"])
lines = {f: strip(open(f).read()) for f in callers}

defn = re.compile(r"\bpub\s+(?:const\s+)?(?:unsafe\s+)?fn\s+([A-Za-z_][A-Za-z0-9_]*)")
word = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
uses = {}  # name -> set of (file, line) that spell it
defs = []
for f, ls in lines.items():
    for k, l in enumerate(ls):
        for w in set(word.findall(l)):
            uses.setdefault(w, set()).add((f, k))
        if f.startswith("crates/"):
            for m in defn.finditer(l):
                defs.append((f, k, m.group(1)))

allow = {}
for l in ALLOW.strip().splitlines():
    f, name, why = l.split(None, 2)
    allow[(f, name)] = why

unexplained, used = [], set()
for f, k, name in defs:
    if uses.get(name, set()) - {(f, k)}:
        continue
    if (f, name) in allow:
        used.add((f, name))
        print(f"allowed  {f}:{k + 1} {name}  ({allow[(f, name)]})")
    else:
        unexplained.append(f"{f}:{k + 1} {name}")

stale = [f"{f} {name}" for (f, name) in allow if (f, name) not in used]
for e in unexplained:
    print(f"UNREACHED {e}")
for e in stale:
    print(f"STALE allow-list line (nothing unreached matches it): {e}")
print(f"unreached: {len(defs)} pub fns scanned, {len(unexplained)} unexplained, "
      f"{len(used)} allowed, {len(stale)} stale allow-list lines", file=sys.stderr)
sys.exit(1 if unexplained or stale else 0)
PY
