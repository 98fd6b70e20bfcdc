#!/bin/sh
# Regenerates the committed results files from the code, as
# results/MANIFEST lists them.
#
#   results/regenerate.sh [--check] [pr|nightly]
#
# `pr` covers the pr-tier files; `nightly` (the default) adds the
# nightly tier. Stale files are never regenerated here. Without
# `--check` each file is rewritten in place, together with the CSV a
# binary writes under results/csv/. With `--check` the files are written
# to a temporary directory instead and diffed against the committed
# ones: any difference fails, naming the moved lines.
set -eu
cd "$(dirname "$0")/.."

check=0
if [ "${1:-}" = "--check" ]; then
    check=1
    shift
fi
tier=${1:-nightly}
case $tier in
    pr | nightly) ;;
    *)
        echo "usage: results/regenerate.sh [--check] [pr|nightly]" >&2
        exit 2
        ;;
esac

cargo build --release --offline -p soteria-bench --bins
bin_dir=${CARGO_TARGET_DIR:-target}/release
if [ $check = 1 ]; then
    out=$(mktemp -d)
else
    out=results
fi
mkdir -p "$out/csv"

rows=$(mktemp)
grep -v '^#' results/MANIFEST | grep -v '^[[:space:]]*$' > "$rows"
status=0
while read -r file row_tier bin env; do
    case $row_tier:$tier in
        pr:* | nightly:nightly) ;;
        *) continue ;;
    esac
    [ "$env" = "-" ] && env=
    echo "== $file: $env $bin" >&2
    # shellcheck disable=SC2086 # `env` holds several NAME=VALUE words
    env $env SOTERIA_CSV="$out/csv" "$bin_dir/$bin" > "$out/$file"
    if [ $check = 1 ] && ! diff -u "results/$file" "$out/$file"; then
        status=1
    fi
done < "$rows"
rm -f "$rows"

if [ $check = 1 ]; then
    for csv in "$out"/csv/*; do
        [ -e "$csv" ] || continue
        if ! diff -u "results/csv/$(basename "$csv")" "$csv"; then
            status=1
        fi
    done
    rm -rf "$out"
    if [ $status != 0 ]; then
        echo "results differ from the code: regenerate them with" \
            "results/regenerate.sh $tier and name each moved number in CHANGES.md" >&2
    fi
fi
exit $status
