#!/usr/bin/env bash
# Regression: malformed or out-of-range numeric flags are usage errors.
# saphyra_rank and saphyra_serve must exit 2 with a message naming the
# flag, not abort on a CHECK (exit 134) or silently read "abc" as 0 and
# "5s" as 5. Valid spellings of the same flags still run (exit 0), and a
# served request at epsilon 1 is answered INVALID_ARGUMENT (exit 3)
# instead of aborting the server. A malformed line in a saphyra_rank
# targets file exits 1 with a message naming the line.
#
# Usage: cli_flags_test.sh /path/to/saphyra_rank /path/to/saphyra_serve GRAPH
set -u

RANK="${1:?usage: cli_flags_test.sh RANK SERVE GRAPH}"
SERVE="${2:?usage: cli_flags_test.sh RANK SERVE GRAPH}"
GRAPH="${3:?usage: cli_flags_test.sh RANK SERVE GRAPH}"
TMP="$(mktemp -d /tmp/saphyra_cli_flags.XXXXXX)"
trap 'rm -rf "$TMP"' EXIT

failures=0

# expect CODE PATTERN CMD... — run CMD, require exit CODE and, when
# PATTERN is non-empty, a stderr line matching it. A flag misread as a
# huge count (e.g. --repeat wrapped to 32 bits) would serve for hours, so
# each run is capped and a timeout (exit 124) fails the case.
expect() {
  local want="$1" pattern="$2"
  shift 2
  timeout 30 "$@" > "$TMP/stdout.log" 2> "$TMP/stderr.log" \
    < "$TMP/requests.ndjson"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: exit $got (expected $want): $*" >&2
    cat "$TMP/stderr.log" >&2
    failures=$((failures + 1))
  elif [ -n "$pattern" ] && ! grep -q -- "$pattern" "$TMP/stderr.log"; then
    echo "FAIL: stderr lacks '$pattern': $*" >&2
    cat "$TMP/stderr.log" >&2
    failures=$((failures + 1))
  fi
}

echo '{"id":"q","estimator":"bc","epsilon":0.3,"seed":1,"targets":[0,1,2]}' \
  > "$TMP/requests.ndjson"

rank=("$RANK" --graph "$GRAPH" --no-cache --random-targets 5)
expect 2 "--epsilon" "${rank[@]}" --epsilon 0
expect 2 "--epsilon" "${rank[@]}" --epsilon 1
expect 2 "--epsilon" "${rank[@]}" --epsilon 0.o5
expect 2 "--epsilon" "${rank[@]}" --epsilon nan
expect 2 "--delta" "${rank[@]}" --delta 0
expect 2 "--delta" "${rank[@]}" --delta 1.5
expect 2 "--seed" "${rank[@]}" --seed -1
expect 2 "--topk" "${rank[@]}" --topk 3k
expect 2 "--random-targets" "$RANK" --graph "$GRAPH" --random-targets 5x
expect 0 "" "${rank[@]}" --epsilon 0.2 --delta 0.1 --seed 7 --topk 2
expect 2 "--algorithm" "${rank[@]}" --algorithm pagerank
expect 2 "2^64" "${rank[@]}" --algorithm kadabra --epsilon 1e-10

# Targets files: every line but an empty one or a '#' comment must be one
# whole node id. "abc", "5x" and a whitespace-only line were once read as
# nodes 0, 5 and 0.
targets=("$RANK" --graph "$GRAPH" --no-cache --epsilon 0.3
         --targets "$TMP/targets.txt")
printf '# ids\n3\n  7 \n' > "$TMP/targets.txt"
expect 0 "" "${targets[@]}"
printf '3\n5x\n' > "$TMP/targets.txt"
expect 1 "targets.txt:2" "${targets[@]}"
printf '3\n# ok\n \t \n' > "$TMP/targets.txt"
expect 1 "targets.txt:3" "${targets[@]}"
printf '3\n-4\n' > "$TMP/targets.txt"
expect 1 "targets.txt:2" "${targets[@]}"
printf '3\nabc\n5x\n \n' > "$TMP/targets.txt"
expect 1 "targets.txt:2" "${targets[@]}"

serve=("$SERVE" --graph "$GRAPH" --no-cache)
expect 2 "--max-queue" "${serve[@]}" --max-queue abc
expect 2 "--default-deadline-ms" "${serve[@]}" --default-deadline-ms 5s
expect 2 "--concurrency" "${serve[@]}" --concurrency 2x
expect 2 "--threads" "${serve[@]}" --threads -1
expect 2 "--repeat" "${serve[@]}" --repeat 99999999999
expect 2 "--drain-ms" "${serve[@]}" --drain-ms ""
expect 0 "" "${serve[@]}" --max-queue 4 --default-deadline-ms 5000 \
                          --concurrency 2 --threads 2 --drain-ms 100

# epsilon 1 is outside every estimator's range: one error line, exit 3.
echo '{"id":"e1","estimator":"kpath","epsilon":1,"delta":0.1,"seed":1,"targets":[0,1,2]}' \
  > "$TMP/requests.ndjson"
expect 3 "" "${serve[@]}"
grep -q '"code":"INVALID_ARGUMENT"' "$TMP/stdout.log" || {
  echo "FAIL: epsilon 1 was not answered INVALID_ARGUMENT" >&2
  cat "$TMP/stdout.log" >&2
  failures=$((failures + 1))
}

if [ "$failures" -ne 0 ]; then
  echo "FAIL: $failures case(s)" >&2
  exit 1
fi
echo "PASS: numeric flags are checked"
