#!/usr/bin/env bash
# Checks that every checked-in simulated output is byte-identical to the
# SHA-256 that testdata/identity.sha256 records for it. Run it from
# anywhere in the checkout:
#
#   bash testdata/identity.sh            # check at -j 2
#   bash testdata/identity.sh -j 4       # check at another worker count
#   bash testdata/identity.sh -update    # rewrite the manifest
#
# Each manifest line is one artifact: its SHA-256, two spaces, and the
# command that produced it, run from the repository root. The artifacts
# are every `snbench -quick` experiment (the whole suite as JSON and as
# text, each experiment as CSV), each examples/campaigns file through
# `sncampaign -format json`, each examples/explorations file through
# `snexplore -format json`, each examples/scenarios file through
# `snsim -scenario -short -v`, and `sncheck -seeds 15 -cycles 300000`.
# Text output has its wall-clock timing lines removed before hashing.
# The commands that take a worker count run with the -j given here; the
# recorded command omits it, because every report is identical at any
# -j.
#
# The check fails, naming each artifact, when an output changed, when a
# command failed, or when the set of artifacts differs from the
# manifest's (a new example file, a removed experiment). A change to
# simulated output is deliberate: regenerate with -update and name each
# moved artifact in CHANGES.md.
set -euo pipefail

jobs=2
update=0
while [ $# -gt 0 ]; do
	case "$1" in
	-j)
		jobs=$2
		shift 2
		;;
	-update)
		update=1
		shift
		;;
	*)
		echo "usage: bash testdata/identity.sh [-j N] [-update]" >&2
		exit 2
		;;
	esac
done

root=$(cd "$(dirname "$0")/.." && pwd)
manifest="$root/testdata/identity.sha256"
cd "$root"

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
for cmd in snbench sncampaign snexplore snsim sncheck; do
	go build -o "$bin/$cmd" "./cmd/$cmd"
done

# artifacts prints one command per line, in manifest order.
artifacts() {
	echo "snbench -quick -format json"
	echo "snbench -quick -format text"
	"$bin/snbench" -list | while read -r exp _; do
		echo "snbench -quick -exp $exp -format csv"
	done
	for f in examples/campaigns/*.json; do
		echo "sncampaign -format json $f"
	done
	for f in examples/explorations/*.json; do
		echo "snexplore -format json $f"
	done
	for f in examples/scenarios/*.json; do
		echo "snsim -scenario $f -short -v"
	done
	echo "sncheck -seeds 15 -cycles 300000"
}

# digest runs one recorded command and prints the SHA-256 of its output.
digest() {
	local name=$1
	shift
	local args=("$@")
	case "$name" in
	snbench | sncampaign | snexplore) args=(-j "$jobs" "${args[@]}") ;;
	esac
	"$bin/$name" "${args[@]}" </dev/null >"$bin/out" || return 1
	grep -v '^\[.*completed in .*\]$' "$bin/out" | sha256sum | cut -d' ' -f1
}

actual="$bin/actual"
: >"$actual"
failed=0
start=$SECONDS
while read -r line; do
	# shellcheck disable=SC2086 # the recorded command is split on spaces
	if sum=$(digest $line); then
		printf '%s  %s\n' "$sum" "$line" >>"$actual"
	else
		echo "FAIL (exit status): $line" >&2
		failed=1
	fi
done < <(artifacts)
echo "identity: $(wc -l <"$actual") artifacts in $((SECONDS - start)) s at -j $jobs" >&2

if [ "$update" = 1 ]; then
	if [ "$failed" = 1 ]; then
		echo "identity: not updating the manifest: a command failed" >&2
		exit 1
	fi
	cp "$actual" "$manifest"
	echo "identity: wrote $manifest" >&2
	exit 0
fi

# Compare by command, so every changed, new or missing artifact is named.
declare -A want
while read -r sum line; do
	want[$line]=$sum
done <"$manifest"
while read -r sum line; do
	if [ -z "${want[$line]-}" ]; then
		echo "NEW (not in the manifest): $line" >&2
		failed=1
	elif [ "${want[$line]}" != "$sum" ]; then
		echo "CHANGED: $line" >&2
		failed=1
	fi
	unset "want[$line]"
done <"$actual"
for line in "${!want[@]}"; do
	echo "MISSING (in the manifest, not produced): $line" >&2
	failed=1
done
if [ "$failed" = 1 ]; then
	echo "identity: FAIL" >&2
	exit 1
fi
echo "identity: PASS" >&2
