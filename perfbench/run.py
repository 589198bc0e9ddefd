#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --baseline [--seed N] [--seconds S]

The first form builds the Go benchmark into .bench_build (or
$CARGO_TARGET_DIR), under a directory named by a hash of its sources,
unless that build exists, then runs it; the last line
of standard output is the JSON result. The second runs every workload
untraced and traced and prints the end-to-end and per-layer tables of
README.md, including the tracing overhead.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH = ROOT / "perfbench"
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
WORKLOADS = ["design-loop", "verify-n4", "serve-mix"]


def source_digest():
    """Hash of the paths and contents of everything the binary and its runs
    read: the Go sources and module files, and every file under internal/
    (verify-n4 parses internal/lang/testdata at run time)."""
    files = [BENCH / "go.mod", ROOT / "go.mod", ROOT / "go.sum"]
    files += BENCH.glob("*.go")
    files += ROOT.glob("*.go")
    files += (f for f in (ROOT / "internal").rglob("*") if f.is_file())
    h = hashlib.sha256()
    for f in sorted(f for f in files if f.exists()):
        data = f.read_bytes()
        h.update(f"{f.relative_to(ROOT)}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()[:16]


# The binary, its work-count book, span dumps and disk caches live in a
# directory named by the source digest, so that runs of different code
# never share a binary or compare work counts, even in one build directory.
OUT = BUILD / "perfbench" / source_digest()
BIN = OUT / "perfbench"


def build():
    if BIN.exists():
        return
    OUT.mkdir(parents=True, exist_ok=True)
    # Keep every Go cache and setting inside the checkout, and never reach
    # for a network toolchain or module proxy.
    env = dict(
        os.environ,
        GOCACHE=str(BUILD / "gocache"),
        GOPATH=str(BUILD / "gopath"),
        GOMODCACHE=str(BUILD / "gopath" / "pkg" / "mod"),
        XDG_CONFIG_HOME=str(BUILD / "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    tmp = BIN.with_name(f"perfbench.tmp{os.getpid()}")
    res = subprocess.run(["go", "build", "-o", str(tmp), "."], cwd=BENCH, env=env,
                         stdout=sys.stderr)
    if res.returncode != 0:
        sys.exit("perfbench: build failed")
    os.replace(tmp, BIN)


def run_one(args):
    """Run the benchmark binary and return its JSON result."""
    res = subprocess.run([str(BIN), "--out", str(OUT)] + args, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.exit(f"perfbench: {' '.join(args)} failed")
    return json.loads(lines[-1])


def baseline(seed, seconds):
    common = ["--seed", str(seed), "--seconds", str(seconds)]
    plain, traced = {}, {}
    # Each workload's traced run follows its untraced one directly, so the
    # overhead compares runs the machine's drift has had little time to
    # separate.
    for w in WORKLOADS:
        plain[w] = run_one(["--workload", w, "--trace", "0"] + common)
        traced[w] = run_one(["--workload", w, "--trace", "1"] + common)

    print(f"End to end (seed {seed}, {seconds} s per run; tracing overhead = traced / untraced - 1)\n")
    print("| metric | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---|" * len(WORKLOADS))
    names = list(plain[WORKLOADS[0]]["metrics"])
    for name in names:
        cells = []
        for w in WORKLOADS:
            m = plain[w]["metrics"][name]
            cells.append(f"{m['value']:.4g} {m['unit']}")
        print(f"| {name} | " + " | ".join(cells) + " |")
    for name, traced_name in [("op_p50_ms", "trace.op_p50_ms"), ("ops_per_s", "trace.ops_per_s")]:
        cells = []
        for w in WORKLOADS:
            a = plain[w]["metrics"][name]["value"]
            b = traced[w]["metrics"][traced_name]["value"]
            cells.append(f"{100 * (b / a - 1):+.1f}%")
        print(f"| tracing overhead on {name} | " + " | ".join(cells) + " |")

    print("\nPer layer (traced run; self time in ms per operation, share of the operation's self time)\n")
    print("| metric | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---|" * len(WORKLOADS))
    for name in traced[WORKLOADS[0]]["metrics"]:
        cells = []
        for w in WORKLOADS:
            metrics = traced[w]["metrics"]
            v = metrics[name]["value"]
            cell = f"{v:.4g}"
            if name.startswith("self."):
                total = sum(m["value"] for k, m in metrics.items() if k.startswith("self."))
                cell += f" ({100 * v / total:.0f}%)" if total else ""
            cells.append(cell)
        print(f"| {name} ({traced[WORKLOADS[0]]['metrics'][name]['unit']}) | " + " | ".join(cells) + " |")


def main():
    args = sys.argv[1:]
    build()
    if args[:1] == ["--baseline"]:
        opts = dict(zip(args[1::2], args[2::2]))
        baseline(int(opts.get("--seed", 1)), int(opts.get("--seconds", 25)))
        return
    os.execv(str(BIN), [str(BIN), "--out", str(OUT)] + args)


if __name__ == "__main__":
    main()
