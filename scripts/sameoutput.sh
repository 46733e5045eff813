#!/bin/sh
# sameoutput.sh — the output-identity gate. Builds cmd/netfi and
# cmd/campaign at BASE (a commit-ish, checked out into a temporary git
# worktree) and from the working tree, then diffs what the two print for
#
#	netfi -workers 1 -seed 1 -scale 0.1 all
#	netfi -workers 1 -seed 1 -scale 0.1 -json resilience|monitor|chaos
#	campaign -json <the spec BASE's campaign -example prints>
#
# Every run is deterministic, so any byte of difference is a behaviour
# change. Exits 0 when all five match, 1 on any difference.
#
# Usage: scripts/sameoutput.sh BASE     (or: make same-output BASE=...)
set -eu
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: scripts/sameoutput.sh BASE" >&2
    exit 2
fi
base=$(git rev-parse --verify "$1^{commit}")

tmp=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tmp/base" 2>/dev/null || true
    git worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 2' HUP INT PIPE TERM

git worktree add --quiet --detach "$tmp/base" "$base"
(cd "$tmp/base" && go build -o "$tmp/netfi-base" ./cmd/netfi && go build -o "$tmp/campaign-base" ./cmd/campaign)
go build -o "$tmp/netfi-head" ./cmd/netfi
go build -o "$tmp/campaign-head" ./cmd/campaign

status=0
same() {
    prog=$1
    name=$2
    shift 2
    "$tmp/$prog-base" "$@" > "$tmp/base.$name"
    "$tmp/$prog-head" "$@" > "$tmp/head.$name"
    if cmp -s "$tmp/base.$name" "$tmp/head.$name"; then
        echo "same:    $prog $*"
    else
        echo "DIFFERS: $prog $*"
        diff -u "$tmp/base.$name" "$tmp/head.$name" | head -40 || true
        status=1
    fi
}

same netfi all -workers 1 -seed 1 -scale 0.1 all
for section in resilience monitor chaos; do
    same netfi "$section.json" -workers 1 -seed 1 -scale 0.1 -json "$section"
done
"$tmp/campaign-base" -example > "$tmp/example.json"
same campaign campaign.json -json "$tmp/example.json"

if [ "$status" -eq 0 ]; then
    echo "sameoutput: identical to $(git rev-parse --short "$base")"
fi
exit "$status"
