#!/bin/sh
# Single-barrier deletion sweep (make analyzer-mutants): in a temporary
# copy of the tree, blank one standalone persist-barrier statement of
# the engine at a time, run the whole suite over the mutant, and record
# which analyzers notice — the measurement behind "does each analyzer
# earn its keep" (DESIGN.md row 18).
#
# The verdicts are diffed against mutants.expected beside this script.
# The sweep fails when an analyzer that caught a site there no longer
# catches it, or when a barrier site appears that the file does not
# list. Sites are keyed by file, enclosing function and statement text
# (with #k for the k-th repeat), so edits that only move lines keep
# their keys.
#
# Standard output is the new verdict file; the differences go to
# standard error. Re-record after a deliberate change with
#
#	sh internal/analysis/mutants.sh >m && mv m internal/analysis/mutants.expected
set -u
root=$(cd "$(dirname "$0")/../.." && pwd) || exit 1
tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
cp "$root/internal/analysis/mutants.expected" "$tmp/expected" || exit 1

# The copy holds what git would commit: tracked files that still exist
# and untracked files that are not ignored.
(cd "$root" && git ls-files -co --exclude-standard) | while IFS= read -r f; do
	[ -f "$root/$f" ] && printf '%s\n' "$f"
done >"$tmp/files"
mkdir "$tmp/tree" && tar -C "$root" -cf - -T "$tmp/files" | tar -C "$tmp/tree" -xf - || exit 1
cd "$tmp/tree" || exit 1
go build -o "$tmp/nvmcheck" ./cmd/nvmcheck || exit 1

pat='^[[:space:]]*[A-Za-z_][A-Za-z0-9_.()]*\.(Persist|Flush|Fence|Drain|PersistBegin|PersistEnd|FlushBegin|FlushEnd)\(.*\)[[:space:]]*(//.*)?$'
for f in $(ls internal/pstruct/*.go internal/storage/*.go internal/txn/*.go internal/index/*.go internal/shard/*.go | grep -v -e _test.go -e _seeded.go); do
	for n in $(grep -nE "$pat" "$f" | cut -d: -f1); do
		fn=$(head -n "$n" "$f" | grep '^func ' | tail -n 1 | sed -E 's/^func (\([^)]*\) )?([A-Za-z0-9_]+).*/\1\2/')
		stmt=$(sed -n "${n}p" "$f" | sed -E 's/^[[:space:]]+//; s/[[:space:]]*(\/\/.*)?$//')
		cp "$f" "$tmp/orig"
		sed -i "${n}s/.*//" "$f"
		out=$("$tmp/nvmcheck" -wholeprogram ./... 2>&1)
		cp "$tmp/orig" "$f"
		who=$(echo "$out" | grep -oE '\[[a-z]+check\]$' | sort -u | tr -d '\n')
		if [ -z "$who" ] && [ -n "$out" ]; then
			who="does not type-check"
		fi
		printf '%s\t%s\t%s\t%s\n' "$f" "$fn" "$stmt" "${who:-nothing}"
	done
done | awk -F'\t' 'BEGIN { OFS = FS } { k = $1 FS $2 FS $3; if (++seen[k] > 1) $3 = $3 " #" seen[k]; print }' >"$tmp/got"

awk -F'\t' '
	{ n++ }
	$4 ~ /\[publishcheck\]/ { pub++; next }
	$4 ~ /\[/ { other++; next }
	$4 == "nothing" { none++; next }
	{ broken++ }
	END {
		print "# Verdicts of internal/analysis/mutants.sh: file, function, deleted"
		print "# barrier statement (#k for a repeat), analyzers that flag the mutant."
		printf "# %d sites: publishcheck %d, other analyzers only %d, nothing %d, not type-checking %d\n", n, pub + 0, other + 0, none + 0, broken + 0
	}' "$tmp/got"
cat "$tmp/got"

awk -F'\t' '
	FILENAME == ARGV[1] { if ($0 !~ /^#/ && NF == 4) want[$1 FS $2 FS $3] = $4; next }
	{
		k = $1 FS $2 FS $3
		got[k] = 1
		if (!(k in want)) {
			printf "mutants: new barrier site %s %s: %s (%s) is not in mutants.expected\n", $1, $2, $3, $4
			bad = 1
			next
		}
		if (want[k] == $4) next
		lost = ""
		m = split(want[k], a, "]")
		for (i = 1; i < m; i++)
			if (index($4, a[i] "]") == 0) lost = lost a[i] "]"
		if (lost != "") bad = 1
		printf "mutants: %s %s: %s was %s, now %s%s\n", $1, $2, $3, want[k], $4, lost != "" ? " (lost " lost ")" : ""
	}
	END {
		for (k in want)
			if (!(k in got)) {
				split(k, a, FS)
				printf "mutants: listed site %s %s: %s no longer exists\n", a[1], a[2], a[3]
			}
		exit bad
	}' "$tmp/expected" "$tmp/got" >&2
