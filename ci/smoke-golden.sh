#!/usr/bin/env bash
# The paper bins' output is a committed golden file.
#
# Runs every row of ci/smoke.tsv (`name<TAB>command`) from the release build
# (`cargo build --release -p bench` first), stdout and stderr together, masks
# the wall-time cells and diffs the result against ci/golden/<name>.txt.  A
# command that exits non-zero fails as well.  With `--bless` the masked
# outputs rewrite the golden files instead.  Blank lines and `#` lines of the
# list are skipped.
set -u
cd "$(dirname "$0")/.."
export LC_ALL=C

case "${1-}" in
  '') bless=0 ;;
  --bless) bless=1 ;;
  *)
    echo "usage: $0 [--bless]" >&2
    exit 2
    ;;
esac

# Wall times (`1.23ms`, `850µs`, `2.10s`) differ from run to run, and the
# width of a table's rules and padding follows theirs.  Nothing else is
# masked: any other difference between two runs is a finding.
mask() { sed -E 's/[0-9]+(\.[0-9]+)?(µs|ms|s)\b/T/g; s/-{3,}/---/g; s/ +/ /g'; }

out=$(mktemp)
trap 'rm -f "$out"' EXIT
status=0
while IFS=$'\t' read -r name command; do
  case "$name" in '' | '#'*) continue ;; esac
  echo "smoke-golden: $name" >&2
  golden=ci/golden/$name.txt
  # $command is a bin and its flags: split it.
  # shellcheck disable=SC2086
  if ! target/release/$command >"$out" 2>&1 </dev/null; then
    cat "$out"
    echo "smoke-golden: $name exited non-zero: $command" >&2
    status=1
  elif [ $bless = 1 ]; then
    mask <"$out" >"$golden"
  elif ! mask <"$out" | diff -u "$golden" -; then
    echo "smoke-golden: $name differs from $golden: $command" >&2
    status=1
  fi
done <ci/smoke.tsv
exit $status
