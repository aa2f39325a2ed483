#!/usr/bin/env bash
# Parity: saphyra_rank and saphyra_serve answer one request through one
# estimator dispatch, so for the same {estimator, epsilon, delta, seed,
# topk, targets} the (node, estimate) pairs saphyra_rank writes with
# --output must equal, byte for byte, the nodes/estimates arrays of the
# served result line. Covers every --algorithm spelling (the two legacy
# aliases and the four other wire names), each in epsilon mode and with
# --topk 2.
#
# Usage: rank_serve_parity_test.sh /path/to/saphyra_rank /path/to/saphyra_serve GRAPH
set -u

RANK="${1:?usage: rank_serve_parity_test.sh RANK SERVE GRAPH}"
SERVE="${2:?usage: rank_serve_parity_test.sh RANK SERVE GRAPH}"
GRAPH="${3:?usage: rank_serve_parity_test.sh RANK SERVE GRAPH}"
TMP="$(mktemp -d /tmp/saphyra_parity.XXXXXX)"
trap 'rm -rf "$TMP"' EXIT

EPSILON=0.1
DELTA=0.01
SEED=3
TARGETS=(0 3 5 8 13 21 34 55 89 100)
printf '# parity targets\n' > "$TMP/targets.txt"
printf '%s\n' "${TARGETS[@]}" >> "$TMP/targets.txt"
target_json="$(IFS=,; echo "${TARGETS[*]}")"

# CLI spelling -> wire estimator name.
declare -A WIRE=([saphyra]=bc [saphyra-full]=bc-full [abra]=abra
                 [kadabra]=kadabra [kpath]=kpath [closeness]=closeness)
ALGORITHMS=(saphyra saphyra-full abra kadabra kpath closeness)

: > "$TMP/requests.ndjson"
for algo in "${ALGORITHMS[@]}"; do
  for topk in 0 2; do
    echo "{\"id\":\"$algo/$topk\",\"estimator\":\"${WIRE[$algo]}\",\"epsilon\":$EPSILON,\"delta\":$DELTA,\"seed\":$SEED,\"topk\":$topk,\"targets\":[$target_json]}" \
      >> "$TMP/requests.ndjson"
  done
done
if ! timeout 60 "$SERVE" --graph "$GRAPH" --no-cache \
     --requests "$TMP/requests.ndjson" > "$TMP/served.ndjson" \
     2> "$TMP/serve.log"; then
  echo "FAIL: saphyra_serve did not answer every request" >&2
  cat "$TMP/serve.log" "$TMP/served.ndjson" >&2
  exit 1
fi

failures=0
for algo in "${ALGORITHMS[@]}"; do
  for topk in 0 2; do
    case_id="$algo/$topk"
    if ! timeout 60 "$RANK" --graph "$GRAPH" --no-cache --algorithm "$algo" \
         --epsilon "$EPSILON" --delta "$DELTA" --seed "$SEED" --topk "$topk" \
         --targets "$TMP/targets.txt" --output "$TMP/rank.tsv" \
         2> "$TMP/rank.log"; then
      echo "FAIL: $case_id: saphyra_rank failed" >&2
      cat "$TMP/rank.log" >&2
      failures=$((failures + 1))
      continue
    fi
    # "<rank>\t<node>\t<estimate>" -> "<node>\t<estimate>" by node.
    cut -f2,3 "$TMP/rank.tsv" | sort -n > "$TMP/cli.tsv"
    line="$(grep -F "\"id\":\"$case_id\"" "$TMP/served.ndjson")"
    paste <(sed -E 's/.*"nodes":\[([^]]*)\].*/\1/' <<< "$line" | tr ',' '\n') \
          <(sed -E 's/.*"estimates":\[([^]]*)\].*/\1/' <<< "$line" | tr ',' '\n') \
      | sort -n > "$TMP/served.tsv"
    if ! cmp -s "$TMP/cli.tsv" "$TMP/served.tsv"; then
      echo "FAIL: $case_id: saphyra_rank --output differs from saphyra_serve" >&2
      diff "$TMP/cli.tsv" "$TMP/served.tsv" >&2
      failures=$((failures + 1))
    fi
  done
done

if [ "$failures" -ne 0 ]; then
  echo "FAIL: $failures case(s)" >&2
  exit 1
fi
echo "PASS: saphyra_rank and saphyra_serve agree on all ${#ALGORITHMS[@]} algorithms x 2 modes"
