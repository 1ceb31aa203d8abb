#!/bin/sh
# One golden-output check. Usage:
#
#   check.sh CMAKE DIGEST_FILE pin|same SNIPPET
#
# Evaluates the shell SNIPPET in a fresh scratch directory, where it
# must leave the output it pins in ./out (a missing or empty ./out
# fails), hashes that file with `CMAKE -E sha256sum` and compares the
# hash with the one stored in DIGEST_FILE. A `pin` check owns its
# digest: with FLEXI_GOLDEN_REGEN=1 in the environment it writes the
# hash to DIGEST_FILE instead (tools/regen_golden.sh). A `same` check
# reproduces another check's output by another route (a second lane
# width, a killed and resumed run) and only ever compares.
set -eu
cmake=$1
digest=$2
mode=$3
snippet=$4
name=$(basename "$digest" .sha256)

if [ -n "${FLEXI_GOLDEN_REGEN:-}" ] && [ "$mode" = same ]; then
    exit 0
fi

d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
(cd "$d" && eval "$snippet")
if [ ! -s "$d/out" ]; then
    echo "golden $name: no output in ./out"
    exit 1
fi
line=$("$cmake" -E sha256sum "$d/out")
sum=${line%% *}
if [ ${#sum} -ne 64 ]; then
    echo "golden $name: bad hash '$line'"
    exit 1
fi

if [ -n "${FLEXI_GOLDEN_REGEN:-}" ]; then
    echo "$sum" > "$digest"
    exit 0
fi
want=$(cat "$digest")
if [ ${#want} -ne 64 ]; then
    echo "golden $name: no digest in $digest"
    exit 1
fi
if [ "$sum" != "$want" ]; then
    echo "golden mismatch for $name:"
    echo "  got  $sum"
    echo "  want $want"
    exit 1
fi
