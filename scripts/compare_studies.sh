#!/usr/bin/env bash
# Compare the study outputs of two checkouts of this repository.
#
#   scripts/compare_studies.sh PARENT_DIR CHANGE_DIR
#
# For each configs/*.yaml of CHANGE_DIR, both checkouts, each importing
# uavris from its own src/, parse the same spec file with `validate-config
# --normalized` and run its study through the CLI at --iterations 1300
# --seed 0 with the default --p-max-dbm.  Prints, per config, whether the
# two sides' normalized specs, CSVs and plot scripts are byte-identical
# (cmp).  Exits 0 when every file is, 1 otherwise.  Both sides' files are
# kept in the directory named on the first line.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    sed -n '2,12p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out=$(mktemp -d "${TMPDIR:-/tmp}/compare_studies.XXXXXX")
echo "compare_studies: files in $out"

uavris() {  # dir args...
    local dir=$1
    shift
    PYTHONPATH="$dir/src" python3 -m uavris.cli "$@" > /dev/null
}

status=0
for config in "$change"/configs/*.yaml; do
    name=$(basename "$config" .yaml)
    for side in parent change; do
        dir=$([ "$side" = parent ] && echo "$parent" || echo "$change")
        mkdir -p "$out/$side/$name"
        uavris "$dir" validate-config --config "$config" \
            --normalized "$out/$side/$name/normalized.yaml"
        experiment=$(sed -n 's/^experiment: //p' "$out/$side/$name/normalized.yaml")
        uavris "$dir" "${experiment//_/-}" --config "$config" --iterations 1300 --seed 0 \
            --out "$out/$side/$name"
    done
    for file in normalized.yaml "$experiment.csv" "$experiment.plot.py"; do
        if cmp -s "$out/parent/$name/$file" "$out/change/$name/$file"; then
            verdict=identical
        else
            verdict=DIFFERENT
            status=1
        fi
        printf '%-12s %-20s %s\n' "$name" "$file" "$verdict"
    done
done
exit "$status"
