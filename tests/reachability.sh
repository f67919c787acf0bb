#!/usr/bin/env bash
# Reachability sweep over every `pub fn|struct|enum|const|type|trait`
# declared under crates/*/src (the dependency shims excluded). A name
# counts as used in a file when it appears there as a whole word;
# `pub use` lines (re-exports) and comment lines do not count. It lists
#
# * unreached items: the name has no use in any other tracked `*.rs`
#   file — benchmark/, examples, benches and integration tests included;
# * test-only items: every use outside the declaration is test code,
#   that is a file under a `tests/` directory or a line at or after a
#   file's first unindented `#[cfg(test)]` (the test module; an indented
#   one gates a single item). Other files' tests reach such an item, but
#   no figure, workload, bench, example or library code does.
#
# It also sweeps every named `pub` or `pub(...)` field of a struct
# declared there, listed as `Struct::field`. A field counts as read
# where `.field` appears not followed by `(` (a method call) or `::`;
# writes count too, struct literals and patterns do not. A field that
# nothing reads is unreached, one that only test code reads test-only.
#
# Exits non-zero when a listed name is not in tests/reachability_allow.txt
# (one `name reason` per line, `#` starts a comment), when an entry there
# has no reason, when a test-only item's reason does not start with
# `test:` (or an unreached item's does), or when an entry no longer
# names a listed item. Items used only inside their own file are private
# instead, where rustc's `dead_code` lint polices them.
#
# Usage: bash tests/reachability.sh
set -euo pipefail
cd "$(dirname "$0")/.."
allow=tests/reachability_allow.txt

listed=$(git ls-files -z -- '*.rs' | xargs -0 awk '
  FNR == 1 {
    in_reexport = 0
    in_test = FILENAME ~ /(^|\/)tests\//
    struct_name = ""
  }
  # A multi-line `pub use a::{ ... };` runs until its semicolon.
  in_reexport { if (index($0, ";")) in_reexport = 0; next }
  /^[[:space:]]*pub(\([^)]*\))?[[:space:]]+use[[:space:]]/ {
    if (!index($0, ";")) in_reexport = 1
    next
  }
  /^#\[cfg\(test\)\]/ { in_test = 1 }
  /^[[:space:]]*\/\// { next }
  {
    if (FILENAME ~ /^crates\/[^\/]+\/src\// && FILENAME !~ /^crates\/shims\// &&
        match($0, /^[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+)*(fn|struct|enum|const|type|trait)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
      n = split(substr($0, RSTART, RLENGTH), w, /[[:space:]]+/)
      nd++
      def_name[nd] = w[n]
      def_file[nd] = FILENAME
      def_at[nd] = FILENAME ":" FNR " " w[n - 1]
      def_live[nd] = !in_test
    }
    if (FILENAME ~ /^crates\/[^\/]+\/src\// && FILENAME !~ /^crates\/shims\// && !in_test) {
      if (match($0, /(^|[[:space:]])struct[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
        n = split(substr($0, RSTART, RLENGTH), w, /[[:space:]]+/)
        struct_name = w[n]
      } else if (struct_name != "" &&
                 match($0, /^[[:space:]]*pub(\([^)]*\))?[[:space:]]+[a-z_][A-Za-z0-9_]*[[:space:]]*:([^:]|$)/)) {
        decl = substr($0, RSTART, RLENGTH)
        sub(/[[:space:]]*:.*$/, "", decl)
        n = split(decl, w, /[[:space:]]+/)
        nf++
        field_name[nf] = w[n]
        field_at[nf] = struct_name "::" w[n] " " FILENAME ":" FNR " field"
      }
    }
    # Field reads: `.name` not after another `.` and not a method call
    # or path.
    line = $0
    while (match(line, /\.[a-z_][A-Za-z0-9_]*/)) {
      tok = substr(line, RSTART + 1, RLENGTH - 1)
      before = RSTART > 1 ? substr(line, RSTART - 1, 1) : ""
      after = substr(line, RSTART + RLENGTH, 2)
      if (before != "." && after !~ /^(\(|::)/) {
        if (in_test) test_reads[tok]++
        else live_reads[tok]++
      }
      line = substr(line, RSTART + RLENGTH)
    }
    line = $0
    split("", on_line)
    while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
      tok = substr(line, RSTART, RLENGTH)
      if (!((tok, FILENAME) in seen)) {
        seen[tok, FILENAME] = 1
        files[tok]++
        last_file[tok] = FILENAME
      }
      # Lines of non-test code naming the token, its declaration included.
      if (!in_test && !(tok in on_line)) {
        on_line[tok] = 1
        live_lines[tok]++
      }
      line = substr(line, RSTART + RLENGTH)
    }
  }
  END {
    for (i = 1; i <= nd; i++) {
      name = def_name[i]
      if (files[name] == 1 && last_file[name] == def_file[i])
        print name, def_at[i], "unreached"
      else if (live_lines[name] - def_live[i] == 0)
        print name, def_at[i], "test-only"
    }
    for (i = 1; i <= nf; i++) {
      name = field_name[i]
      if (live_reads[name] > 0)
        continue
      print field_at[i], (test_reads[name] > 0 ? "test-only" : "unreached")
    }
  }
' | sort)

status=0
while read -r name at kind why; do
  [ -n "$name" ] || continue
  reason=$(grep -E "^${name}([[:space:]]|\$)" "$allow" | head -1 | cut -s -d' ' -f2-) ||
    reason=""
  if ! grep -Eq "^${name}([[:space:]]|\$)" "$allow"; then
    echo "$why: $at $kind $name"
    status=1
  elif [ "$why" = test-only ] && [ "${reason#test:}" = "$reason" ]; then
    echo "test-only item allowlisted without a 'test:' reason: $name"
    status=1
  elif [ "$why" = unreached ] && [ "${reason#test:}" != "$reason" ]; then
    echo "unreached item allowlisted with a 'test:' reason: $name"
    status=1
  fi
done <<< "$listed"

while read -r name reason; do
  case "$name" in '' | '#'*) continue ;; esac
  if [ -z "$reason" ]; then
    echo "allowlist entry without a reason: $name"
    status=1
  fi
  if ! grep -q "^${name} " <<< "$listed"; then
    echo "stale allowlist entry (reached elsewhere or gone): $name"
    status=1
  fi
done < "$allow"

if [ "$status" -ne 0 ]; then
  echo "Each public item must be reached from outside its file by code other"
  echo "than tests; otherwise make it private, move it under #[cfg(test)],"
  echo "delete it, or allowlist it in $allow with the figure, workload,"
  echo "bench, example or oracle it serves ('test: <oracle>' for an item"
  echo "only tests reach)."
fi
exit "$status"
