#!/usr/bin/env bash
# Reachability sweep: lists every `pub fn|struct|enum|const|type|trait`
# declared under crates/*/src (the dependency shims excluded) whose name
# has no whole-word use in any other tracked `*.rs` file — benchmark/,
# examples, benches and integration tests included. `pub use` lines
# (re-exports) and comment lines do not count as uses.
#
# Exits non-zero when a listed name is not in tests/reachability_allow.txt
# (one `name reason` per line, `#` starts a comment), when an entry there
# has no reason, or when an entry no longer names a listed item. Items
# used only inside their own file are private instead, where rustc's
# `dead_code` lint polices them.
#
# Usage: bash tests/reachability.sh
set -euo pipefail
cd "$(dirname "$0")/.."
allow=tests/reachability_allow.txt

unused=$(git ls-files -z -- '*.rs' | xargs -0 awk '
  FNR == 1 { in_reexport = 0 }
  # A multi-line `pub use a::{ ... };` runs until its semicolon.
  in_reexport { if (index($0, ";")) in_reexport = 0; next }
  /^[[:space:]]*pub(\([^)]*\))?[[:space:]]+use[[:space:]]/ {
    if (!index($0, ";")) in_reexport = 1
    next
  }
  /^[[:space:]]*\/\// { next }
  {
    if (FILENAME ~ /^crates\/[^\/]+\/src\// && FILENAME !~ /^crates\/shims\// &&
        match($0, /^[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+)*(fn|struct|enum|const|type|trait)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
      n = split(substr($0, RSTART, RLENGTH), w, /[[:space:]]+/)
      nd++
      def_name[nd] = w[n]
      def_file[nd] = FILENAME
      def_at[nd] = FILENAME ":" FNR " " w[n - 1]
    }
    line = $0
    while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
      tok = substr(line, RSTART, RLENGTH)
      if (!((tok, FILENAME) in seen)) {
        seen[tok, FILENAME] = 1
        files[tok]++
        last_file[tok] = FILENAME
      }
      line = substr(line, RSTART + RLENGTH)
    }
  }
  END {
    for (i = 1; i <= nd; i++)
      if (files[def_name[i]] == 1 && last_file[def_name[i]] == def_file[i])
        print def_name[i], def_at[i]
  }
' | sort)

status=0
while read -r name at kind; do
  [ -n "$name" ] || continue
  if ! grep -Eq "^${name}([[:space:]]|\$)" "$allow"; then
    echo "unreached: $at $kind $name"
    status=1
  fi
done <<< "$unused"

while read -r name reason; do
  case "$name" in '' | '#'*) continue ;; esac
  if [ -z "$reason" ]; then
    echo "allowlist entry without a reason: $name"
    status=1
  fi
  if ! grep -q "^${name} " <<< "$unused"; then
    echo "stale allowlist entry (reached elsewhere or gone): $name"
    status=1
  fi
done < "$allow"

if [ "$status" -ne 0 ]; then
  echo "Each public item must be reached from outside its file; otherwise"
  echo "make it private, move it under #[cfg(test)], delete it, or allowlist"
  echo "it in $allow with the figure, workload, bench, example or oracle it serves."
fi
exit "$status"
