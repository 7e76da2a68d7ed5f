#!/usr/bin/env bash
# Byte-compare what the LPR back end's deterministic consumers print, built
# two ways: run each on both builds and `cmp` their stdout. The consumers
# are the benches that extract, filter and classify a cycle themselves
# (ablation_router_level, ablation_tree_indexing, fig06_persistence,
# fig16_level3_rise, table1_filter_impact) and `mum classify` (plain,
# --router-level, --json-iotps, --csv, --alias, --j 0) and `mum trees` on
# one `mum generate --small` month. The month is generated once, by the
# first build, so both builds read the same files.
#
# The writers are compared too: each build generates the same --small
# month in --format v2 and in --format v3, and every data file (snapshots
# and ip2as table) is `cmp`-ed against the other build's.
#
# Build both trees first (Release: the benches run at the default study
# size). Exits 1 when any output differs.
#
# Usage: scripts/cmp_outputs.sh PARENT_BUILD CHANGE_BUILD
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 1
fi
parent="$1"
change="$2"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

"$parent/tools/mum" generate --out "$work/data" --small > /dev/null
files=("$work"/data/*.mumw)
table="$work/data/ip2as.txt"

# Every output of one build, one file each, under $2.
outputs() {
  local build="$1" out="$2"
  mkdir -p "$out"
  for bench in ablation_router_level ablation_tree_indexing \
               fig06_persistence fig16_level3_rise table1_filter_impact; do
    "$build/bench/$bench" > "$out/$bench"
  done
  local mum="$build/tools/mum"
  "$mum" classify --ip2as "$table" "${files[@]}" > "$out/classify"
  "$mum" classify --router-level --ip2as "$table" "${files[@]}" \
    > "$out/classify--router-level"
  "$mum" classify --json-iotps --ip2as "$table" "${files[@]}" \
    > "$out/classify--json-iotps"
  "$mum" classify --router-level --json-iotps --ip2as "$table" \
    "${files[@]}" > "$out/classify--router-level--json-iotps"
  "$mum" classify --csv --ip2as "$table" "${files[@]}" > "$out/classify--csv"
  "$mum" classify --alias --ip2as "$table" "${files[@]}" \
    > "$out/classify--alias"
  "$mum" classify --j 0 --ip2as "$table" "${files[@]}" > "$out/classify--j0"
  "$mum" trees --ip2as "$table" "${files[@]}" > "$out/trees"
}

outputs "$parent" "$work/parent"
outputs "$change" "$work/change"
for format in v2 v3; do
  for side in parent change; do
    build="$parent"
    [ "$side" = change ] && build="$change"
    "$build/tools/mum" generate --out "$work/gen-$side-$format" --small \
      --format "$format" > /dev/null
  done
  for file in "$work/gen-parent-$format"/*; do
    name="$(basename "$file")"
    cp "$file" "$work/parent/data-$format-$name"
    cp "$work/gen-change-$format/$name" "$work/change/data-$format-$name"
  done
done

status=0
for file in "$work/parent"/*; do
  name="$(basename "$file")"
  if cmp -s "$file" "$work/change/$name"; then
    echo "identical  $name"
  else
    echo "DIFFERS    $name"
    diff "$file" "$work/change/$name" | head -20 || true
    status=1
  fi
done
exit "$status"
