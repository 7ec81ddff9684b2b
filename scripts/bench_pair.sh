#!/usr/bin/env bash
# Paired host-time comparison of a base revision against this checkout.
#
#   scripts/bench_pair.sh <rev> <workload> <seed> [pairs]
#
# Exports <rev> with `git archive` into a temporary directory (under $TMPDIR),
# builds perfbench's flux_perfbench for it and for this checkout (Release,
# each in its own build tree there), then runs single repetitions of
# <workload> at <seed> as <pairs> (default 10) interleaved pairs, swapping
# the order on every pair so neither side always runs first. perfbench/ is
# only read, never edited.
#
# Reports, for host_ops_per_s (higher is better):
#   - each side's median and quartiles, and the median per-pair ratio;
#   - the pairs the checkout won;
#   - the verdict of the gain rule: the checkout is ahead in at least 9 of
#     every 10 pairs AND its median lead exceeds the base's interquartile
#     range (q3 - q1). A host-time gain is claimed only when it holds.
# It also reports the median peak_rss_mb and setup_s of each side, whether
# every virtual end-to-end metric was identical on both sides, and whether
# every repetition reported failed == 0. Exit status is 0 when all runs
# completed, whatever the verdict.
set -euo pipefail

if [ $# -lt 3 ]; then
  sed -n '2,22p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
rev="$1" workload="$2" seed="$3" pairs="${4:-10}"
root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/bench_pair.XXXXXX")"
trap 'rm -rf "$work"' EXIT
jobs=$(nproc 2>/dev/null || echo 4)
[ "$jobs" -gt 4 ] && jobs=4

mkdir -p "$work/base-src" "$work/out"
git -C "$root" archive "$rev" | tar -x -C "$work/base-src"

build() {  # <source root> <build dir>
  cmake -S "$1/perfbench" -B "$2" -DCMAKE_BUILD_TYPE=Release >"$2.log" 2>&1
  if ! cmake --build "$2" --target flux_perfbench -j "$jobs" >>"$2.log" 2>&1; then
    tail -40 "$2.log" >&2
    echo "bench_pair: build of $1 failed" >&2
    exit 1
  fi
}
echo "bench_pair: building $rev and the checkout ..." >&2
build "$work/base-src" "$work/base-build"
build "$root" "$work/change-build"

run() {  # <side> <pair index>
  "$work/$1-build/flux_perfbench" --workload "$workload" --seed "$seed" \
    --out "$work/out" --source "$1" | tail -n 1 >"$work/$1.$2.json"
}
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then run base "$i"; run change "$i"; else run change "$i"; run base "$i"; fi
  echo "bench_pair: pair $i/$pairs done" >&2
done

python3 - "$work" "$pairs" "$rev" "$workload" "$seed" <<'EOF'
import json, math, statistics, sys

work, pairs, rev, workload, seed = sys.argv[1], int(sys.argv[2]), *sys.argv[3:]
HOST = {"setup_s", "peak_rss_mb", "host_ops_per_s"}

def load(side):
    return [json.load(open("%s/%s.%d.json" % (work, side, i)))
            for i in range(1, pairs + 1)]

base, change = load("base"), load("change")

def col(reps, name):
    return [r["e2e"][name] for r in reps]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

b, c = col(base, "host_ops_per_s"), col(change, "host_ops_per_s")
print("bench_pair: %s seed %s, %d pairs, %s vs checkout" % (workload, seed, pairs, rev))
print("%-5s %-14s %-14s %s" % ("pair", "base", "checkout", "ratio"))
for i, (x, y) in enumerate(zip(b, c), 1):
    print("%-5d %-14.1f %-14.1f %.3f" % (i, x, y, y / x))
bq, cq = quartiles(b), quartiles(c)
for name, q in (("base", bq), ("checkout", cq)):
    print("%-9s host_ops_per_s median %.1f, quartiles %.1f-%.1f (IQR %.1f)"
          % (name, q[1], q[0], q[2], q[2] - q[0]))
won = sum(y > x for x, y in zip(b, c))
lead = cq[1] - bq[1]
need = math.ceil(0.9 * pairs)
print("pairs won by the checkout: %d of %d (need %d)" % (won, pairs, need))
print("median per-pair ratio: %.3f" % statistics.median(y / x for x, y in zip(b, c)))
print("median lead %.1f vs base IQR %.1f" % (lead, bq[2] - bq[0]))
holds = won >= need and lead > bq[2] - bq[0]
print("gain rule (9 of 10 and lead > IQR): %s" % ("HOLDS" if holds else "does not hold"))
# As perfbench/run.py aggregates them: peak RSS per repetition, every set-up.
rss = lambda reps: statistics.median(r["peak_rss_mb"] for r in reps)
setup = lambda reps: statistics.median(s for r in reps for s in r["setup_s"])
print("peak_rss_mb  median base %.4g, checkout %.4g" % (rss(base), rss(change)))
print("setup_s      median base %.4g, checkout %.4g" % (setup(base), setup(change)))
virt = sorted(k for k in base[0]["e2e"] if k not in HOST)
same = all(r["e2e"][k] == base[0]["e2e"][k] for r in base + change for k in virt)
print("virtual end-to-end metrics identical on both sides: %s" % ("yes" if same else "NO"))
ok = all(r["failed"] == 0 and not r["failures"] for r in base + change)
print("every repetition failed == 0: %s" % ("yes" if ok else "NO"))
EOF
