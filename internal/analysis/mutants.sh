#!/bin/sh
# Single-barrier deletion sweep (make analyzer-mutants): blank one
# standalone persist-barrier statement of the engine at a time, run the
# whole suite over the mutant, and tally which of persistcheck and
# publishcheck notices — the measurement behind "does this analyzer earn
# its keep" (DESIGN.md row 18). Sources are edited in place and restored
# after every mutant and on any exit; run it on a clean tree.
set -u
cd "$(dirname "$0")/../.." || exit 1
tmp=$(mktemp -d) f=
trap '[ -n "$f" ] && [ -f "$tmp/orig" ] && cp "$tmp/orig" "$f"; rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
go build -o "$tmp/nvmcheck" ./cmd/nvmcheck || exit 1
pat='^[[:space:]]*[A-Za-z_][A-Za-z0-9_.()]*\.(Persist|Flush|Fence|Drain|PersistBegin|PersistEnd|FlushBegin|FlushEnd)\(.*\)[[:space:]]*(//.*)?$'
both=0 persist=0 publish=0 neither=0 broken=0
for f in $(ls internal/pstruct/*.go internal/storage/*.go internal/txn/*.go internal/index/*.go internal/shard/*.go | grep -v -e _test.go -e _seeded.go); do
	for n in $(grep -nE "$pat" "$f" | cut -d: -f1); do
		cp "$f" "$tmp/orig"
		sed -i "${n}s/.*//" "$f"
		out=$("$tmp/nvmcheck" -wholeprogram ./... 2>&1)
		cp "$tmp/orig" "$f" && rm "$tmp/orig"
		who=$(echo "$out" | grep -oE '\[[a-z]+check\]$' | sort -u | tr -d '\n')
		case "$out" in *"[persistcheck]"*) p=1 ;; *) p=0 ;; esac
		case "$out" in *"[publishcheck]"*) q=1 ;; *) q=0 ;; esac
		if [ -z "$who" ] && [ -n "$out" ]; then
			broken=$((broken + 1)) who="mutant does not type-check"
		elif [ $p$q = 11 ]; then both=$((both + 1))
		elif [ $p$q = 10 ]; then persist=$((persist + 1))
		elif [ $p$q = 01 ]; then publish=$((publish + 1))
		else neither=$((neither + 1)); fi
		echo "$f:$n: ${who:-nothing}"
	done
done
f=
echo "both $both / persistcheck only $persist / publishcheck only $publish / neither $neither (not type-checking: $broken)"
