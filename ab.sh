#!/usr/bin/env bash
# ab.sh measures the working tree against a base revision on the end-to-end
# benchmark by alternated pairs, the protocol every end-to-end claim in
# EXPERIMENTS.md follows:
#
#   bash ab.sh [-base REV] [-pairs N] [WORKLOAD...]
#   bash ab.sh -dry DIR
#
# (make ab BASE=REV PAIRS=N WORKLOADS='commit-churn view-read' runs the
# first form.) The base revision (default HEAD) is exported with git archive
# into DIR/base, where DIR is .bench_build/ab/<UTC stamp>; each side builds
# with its own .bench_build, in its own checkout, through its own
# benchmark/run.sh. For each workload (default: every workload of
# BENCHMARK.json) pair i runs seed i on both sides, the base first on odd i.
# A run that exits 1 — INVALID (the harness refused the run: generator late,
# too few samples, backlog) or FAILED (an operation failed the oracle) —
# has each such line printed, and its pair is run again, up to three tries
# in all; a pair still invalid after that is reported and left out. Any
# other failure stops the script.
#
# Every report (DIR/<workload>/{base,change}-<i>.json) and run log is kept.
# The summary — also all that -dry prints, from the reports already in DIR,
# running nothing — is, per workload and judged metric (BENCHMARK.json's
# end-to-end metrics, then the timing metrics run.sh -compare judges), each
# side's median [lower quartile, upper quartile], the change in median, and
# the pairs the working tree won (ties count for neither side); then
# run.sh -compare's verdicts on the two sets of reports. It adds no metric
# and no bound.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
tries=3 # the runs of one pair, the first included
base_rev=HEAD pairs=10 dry=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    -base) base_rev="$2"; shift 2 ;;
    -pairs) pairs="$2"; shift 2 ;;
    -dry) dry="$2"; shift 2 ;;
    -*) echo "ab: unknown flag $1" >&2; exit 2 ;;
    *) break ;;
  esac
done
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
  mapfile -t workloads < <(jq -r '.workloads[].name' "$root/BENCHMARK.json")
fi

# The judged metrics, each with the direction that is better.
judged() {
  jq -r '.end_to_end[] | "\(.name) \(.better)"' "$root/BENCHMARK.json"
  printf '%s\n' 'ops_per_s higher' 'p50_ms lower' 'p95_ms lower' 'cpu_ms_per_op lower'
}

# value REPORT WORKLOAD METRIC prints the metric of a valid run, else nothing.
value() {
  jq -r --arg w "$2" --arg m "$3" \
    '.workloads[$w] | select(.valid and .failed == 0) | (.end_to_end[$m] // .per_layer[$m]).value // empty' "$1"
}

# pairs DIR WORKLOAD prints the seeds whose two runs are both valid.
pairs() {
  local b i
  for b in "$1/$2"/base-*.json; do
    i="${b##*/base-}"; i="${i%.json}"
    if [[ -e "$1/$2/change-$i.json" && -n "$(value "$b" "$2" setup_s)" && -n "$(value "$1/$2/change-$i.json" "$2" setup_s)" ]]; then
      echo "$i"
    fi
  done
}

# summarise DIR prints the tables and the verdicts for the reports in DIR.
summarise() {
  local dir="$1" w m better i a_list="" b_list="" seeds
  for w in "${workloads[@]}"; do
    [[ -d "$dir/$w" ]] || continue
    mapfile -t seeds < <(pairs "$dir" "$w")
    for i in "${seeds[@]}"; do
      a_list+="${a_list:+,}$dir/$w/base-$i.json" b_list+="${b_list:+,}$dir/$w/change-$i.json"
    done
    echo "== $w"
    printf '   %-14s %-30s %-30s %9s %6s\n' metric "base median [q1, q3]" "change median [q1, q3]" "Δ median" wins
    while read -r m better; do
      for i in "${seeds[@]}"; do
        echo "$(value "$dir/$w/base-$i.json" "$w" "$m") $(value "$dir/$w/change-$i.json" "$w" "$m")"
      done | awk -v m="$m" -v better="$better" '
        function quartiles(x, n, q,   i, j, d) { # x sorted, 1-based; exclusive method
          for (i = 1; i <= 3; i++) {
            j = int(i * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
            d = i * (n + 1) - j * 4
            q[i] = (x[j] * (4 - d) + x[j + 1] * d) / 4
          }
        }
        function median(x, n) { return n % 2 ? x[(n + 1) / 2] : (x[n / 2] + x[n / 2 + 1]) / 2 }
        function sort(x, n,   i, j, t) { for (i = 2; i <= n; i++) for (j = i; j > 1 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t } }
        function show(x, n,   q) {
          if (n < 4) return sprintf("%.4g", median(x, n))
          quartiles(x, n, q)
          return sprintf("%.4g [%.4g, %.4g]", median(x, n), q[1], q[3])
        }
        { n++; b[n] = $1; c[n] = $2
          if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) wins++ }
        END {
          if (n == 0) { printf "   %-14s no valid pair\n", m; exit }
          sort(b, n); sort(c, n)
          mb = median(b, n); mc = median(c, n)
          printf "   %-14s %-30s %-30s %8.2f%% %3d/%d\n", m, show(b, n), show(c, n), mb ? 100 * (mc - mb) / mb : 0, wins, n
        }'
    done < <(judged)
  done
  if [[ -n "$a_list" ]]; then
    echo "== run.sh -compare over the same pairs (a: base, b: change)"
    bash "$root/benchmark/run.sh" -compare "$a_list" "$b_list" |
      awk -v ws=" ${workloads[*]} " 'NR == 1 || index(ws, " " $1 " ")' || true
  fi
}

if [[ -n "$dry" ]]; then
  summarise "$(cd "$dry" && pwd)"
  exit 0
fi

dir="$root/.bench_build/ab/$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p "$dir/base"
git -C "$root" archive "$base_rev" | tar -x -C "$dir/base"
echo "ab: base $(git -C "$root" rev-parse --short "$base_rev") in $dir/base, change: the working tree; $pairs pairs; reports in $dir"

# run SIDE WORKLOAD SEED TRY runs one side of a pair; its status is run.sh's.
run() {
  local side="$1" w="$2" seed="$3" log="$dir/$2/$1-$3-try$4.log" checkout="$root" code=0
  [[ "$side" == base ]] && checkout="$dir/base"
  bash "$checkout/benchmark/run.sh" -workload "$w" -seed "$seed" -out "$dir/$w/$side-$seed.json" \
    >"$log" 2>&1 || code=$?
  grep -E '^ +(INVALID|FAILED):' "$log" | sed "s/^ */ab: $w pair $seed $side: /" || true
  if [[ $code -ne 0 && $code -ne 1 ]]; then
    echo "ab: $w pair $seed $side exited $code:" >&2
    tail -5 "$log" >&2
    exit "$code"
  fi
  return "$code"
}

for w in "${workloads[@]}"; do
  mkdir -p "$dir/$w"
  for ((i = 1; i <= pairs; i++)); do
    order=(change base)
    ((i % 2)) && order=(base change)
    for ((try = 1; try <= tries; try++)); do
      ok=1
      for side in "${order[@]}"; do
        run "$side" "$w" "$i" "$try" || ok=0
      done
      ((ok)) && break
      echo "ab: $w pair $i: try $try of $tries had an invalid side"
    done
    ((ok)) || echo "ab: $w pair $i left out: invalid after $tries tries"
  done
done
summarise "$dir"
