#!/usr/bin/env bash
# What an earlier PR deleted must not come back under a later one.
#
# Reads ci/stays-deleted.tsv, one check per row: `pattern<TAB>paths<TAB>message`.
# A row fails if `grep -rnE pattern paths` finds anything; the pattern `-`
# means "none of the paths may exist".  Blank lines and `#` lines are skipped.
set -u
cd "$(dirname "$0")/.."

status=0
while IFS=$'\t' read -r pattern paths message; do
  case "$pattern" in '' | '#'*) continue ;; esac
  # $paths is a space-separated list: split it.
  if [ "$pattern" = - ]; then
    # shellcheck disable=SC2086
    ls -d $paths 2>/dev/null | grep .
  else
    # shellcheck disable=SC2086
    grep -rnE -- "$pattern" $paths
  fi
  # 1 = nothing found (nothing exists); 0 is a hit, 2 a grep error.
  [ $? -eq 1 ] && continue
  echo "stays-deleted: $message (see above)" >&2
  status=1
done <ci/stays-deleted.tsv
exit $status
