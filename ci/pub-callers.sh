#!/usr/bin/env bash
# Every public item names a caller.
#
# Lists each `pub` fn, struct, enum, trait, type, const and static declared
# under crates/*/src (the bins under src/bin excluded) and requires a mention
# of its name in another .rs file under crates/, src/, tests/, examples/ or
# benchmark/.  Each name a library crate's root (`crates/*/src/lib.rs`)
# re-exports with `pub use` must likewise be mentioned outside that crate's
# src/.  A `pub use` statement and a comment line are not mentions.
# ci/pub-callers.tsv lists the allowed exceptions, one per row:
# `file<TAB>name<TAB>reason`; blank lines and `#` lines are skipped.  A row
# without a reason, or one whose item is gone or has a caller by now, fails
# too, so the list only ever holds live exceptions.
set -u
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The searchable corpus: every source file with its `pub use` statements
# (which may span lines up to their `;`) and its comment lines blanked, so
# line numbers stay and neither counts as a mention.
find crates src tests examples benchmark -name '*.rs' -not -path '*/target/*' |
  sort >"$tmp/files"
while read -r f; do
  mkdir -p "$tmp/corpus/$(dirname "$f")"
  awk '
    in_use { if (index($0, ";")) in_use = 0; print ""; next }
    /^[ \t]*pub[ \t]+use[ \t]/ { if (!index($0, ";")) in_use = 1; print ""; next }
    /^[ \t]*\/\// { print ""; next }
    { print }
  ' "$f" >"$tmp/corpus/$f"
done <"$tmp/files"

# file<TAB>name of every public item declaration (the name is group 4).
decl='[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+)*(fn|struct|enum|trait|type|const|static)[[:space:]]+([A-Za-z_][A-Za-z0-9_]*)'
grep -v '/src/bin/' "$tmp/files" | grep '^crates/[^/]*/src/' |
  xargs grep -HE "^$decl" | sed -E "s/^([^:]*):$decl.*/\\1\\t\\5/" |
  sort -u >"$tmp/items"

# file<TAB>name of every name a crate root's `pub use` statement exports
# (the umbrella's prelude included): each statement, up to its `;`, split at
# its braces and commas, keeping the last path segment or the `as` alias.
for lib in crates/*/src/lib.rs src/lib.rs; do
  awk '
    /^[ \t]*pub[ \t]+use[ \t]/ { in_use = 1 }
    in_use { stmt = stmt " " $0; if (index($0, ";")) { print stmt; stmt = ""; in_use = 0 } }
  ' "$lib" |
    sed -E 's/^ *pub[[:space:]]+use[[:space:]]+//; s/;.*//; s/^[^{]*\{//; s/\}//g' |
    tr ',' '\n' | sed -E 's/.*[[:space:]]as[[:space:]]+//; s/.*:://; s/[[:space:]]//g' |
    grep -vxE '|self|\*' | sed "s|^|$lib\t|"
done | sort -u >"$tmp/uses"

status=0
declare -A allowed=() item_rows=()
while IFS=$'\t' read -r file name reason; do
  case "$file" in '' | '#'*) continue ;; esac
  if [ -z "${reason:-}" ]; then
    echo "pub-callers: ci/pub-callers.tsv row '$file $name' gives no reason" >&2
    status=1
  fi
  allowed["$file	$name"]=1
  [[ $file =~ ^(crates/[^/]+/src/) ]] && item_rows["${BASH_REMATCH[1]}	$name"]=1
done <ci/pub-callers.tsv

# named_outside NAME SCOPE: a corpus file outside SCOPE names NAME; a
# crate's bins under SCOPE/bin/ are crates of their own.
named_outside() {
  (cd "$tmp/corpus" && grep -rlw --include='*.rs' -- "$1" .) | sed 's|^\./||' |
    awk -v scope="$2" 'index($0, scope) != 1 || index($0, scope "bin/") == 1' | grep -q .
}

declare -A seen=()
while IFS=$'\t' read -r file name; do
  seen["$file	$name"]=1
  if named_outside "$name" "$file"; then
    if [ -n "${allowed["$file	$name"]:-}" ]; then
      echo "pub-callers: $file: $name has a caller now; drop its ci/pub-callers.tsv row" >&2
      status=1
    fi
  elif [ -z "${allowed["$file	$name"]:-}" ]; then
    echo "pub-callers: $file: pub $name is named in no other file" >&2
    status=1
  fi
done <"$tmp/items"

# A library crate root's re-export needs a caller in another crate: a
# mention, or another crate root's `pub use`.  A row for the item itself
# covers its re-export too.
while IFS=$'\t' read -r file name; do
  case "$file" in crates/*) ;; *) continue ;; esac
  seen["$file	$name"]=1
  src=${file%lib.rs}
  if named_outside "$name" "$src" ||
    awk -F'\t' -v f="$file" -v n="$name" '$2 == n && $1 != f { hit = 1 } END { exit !hit }' "$tmp/uses"; then
    if [ -n "${allowed["$file	$name"]:-}" ]; then
      echo "pub-callers: $file: $name has a caller now; drop its ci/pub-callers.tsv row" >&2
      status=1
    fi
  elif [ -z "${allowed["$file	$name"]:-}${item_rows["$src	$name"]:-}" ]; then
    echo "pub-callers: $file: re-exported $name is named in no other crate" >&2
    status=1
  fi
done <"$tmp/uses"

for key in "${!allowed[@]}"; do
  if [ -z "${seen["$key"]:-}" ]; then
    echo "pub-callers: ci/pub-callers.tsv row '${key/	/ }' names no public item" >&2
    status=1
  fi
done
exit $status
