#!/bin/sh
# One synthetic table (109k routes, 55 chunks) through the serial pass and
# through a 2-worker pool: the summary on stdout and the five figure CSVs
# must be the same bytes.  The pool merges chunk stats in completion order,
# so anything that depends on merge order shows up here as a diff.
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
        > "$work/summary-$processes.json"
done
diff -r "$work/figures-1" "$work/figures-2"
diff "$work/summary-1.json" "$work/summary-2.json"
echo "pool figures: serial and 2-worker runs agree byte for byte"
