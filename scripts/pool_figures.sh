#!/bin/sh
# One synthetic table (109k routes, 55 chunks) through the serial pass and
# through a 2-worker pool, both traced: the summary on stdout and the five
# figure CSVs must be the same bytes, and `rpslyzer trace` must summarize
# the same sampled routes and hops, and `verify` must report the same
# `trace: ... (H head / V verdict sampled route(s))` counts on stderr (a
# worker's counts ride its accepted chunks).  The pool merges chunk stats in
# completion order, so anything that depends on merge order shows up here
# as a diff; a worker's trace events ride its result frames, so a pooled
# run must not create a `rpslyzer-trace-*` scratch entry either.
# Run with PYTHONPATH=src (or the package installed); leaves nothing behind.
set -eu
python=${PYTHON:-python}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export RPSLYZER_CACHE_DIR="$work/cache"
"$python" -m repro.cli synth "$work/world" --preset default --routes
"$python" -m repro.cli parse "$work/world" -o "$work/ir.json"
for processes in 1 2; do
    "$python" -m repro.cli verify --ir "$work/ir.json" \
        --as-rel "$work/world/as-rel.txt" --table "$work/world/table.txt" \
        --processes $processes --figures-dir "$work/figures-$processes" \
        --trace "$work/trace-$processes.jsonl" \
        > "$work/summary-$processes.json" 2> "$work/stderr-$processes.txt" \
        || { cat "$work/stderr-$processes.txt" >&2; exit 1; }
    cat "$work/stderr-$processes.txt" >&2
    grep '^trace: ' "$work/stderr-$processes.txt" | sed 's/ -> .*$//' \
        > "$work/sampled-$processes.txt"
    "$python" -m repro.cli trace "$work/trace-$processes.jsonl" \
        | sed 's/, [0-9]* worker(s)//' > "$work/trace-$processes.txt"
done
diff -r "$work/figures-1" "$work/figures-2"
diff "$work/summary-1.json" "$work/summary-2.json"
diff "$work/trace-1.txt" "$work/trace-2.txt"
diff "$work/sampled-1.txt" "$work/sampled-2.txt"
grep -q " head / " "$work/sampled-2.txt"
grep -q "route(s)" "$work/trace-2.txt"
if ls "${TMPDIR:-/tmp}"/rpslyzer-trace-* >/dev/null 2>&1; then
    echo "a pooled traced run left a spill directory behind" >&2; exit 1
fi
echo "pool figures: serial and 2-worker runs agree byte for byte, traces included"
