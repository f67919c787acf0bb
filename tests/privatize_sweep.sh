#!/usr/bin/env bash
# Compiler-driven `pub(crate)` pass over the methods of crates/*/src (the
# dependency shims excluded), run in a scratch copy of the tracked tree.
#
# 1. Copies the tracked files that exist in the working tree, and the
#    untracked ones git does not ignore, into a fresh directory under
#    $TMPDIR (default /tmp); the checkout itself is never written. A
#    tracked file deleted before committing is left out, and a new
#    source file not yet added is swept.
# 2. Turns every indented `pub fn` there (a method, an associated
#    function, or a function of an inline module) into `pub(crate) fn`.
# 3. Runs `cargo check --all-targets --message-format=json` on the
#    workspace and on benchmark/, offline, and restores `pub` at every
#    definition rustc reports as private (E0624, E0603), until both build.
#    A method still `pub(crate)` then is called from its own crate only.
# 4. Prints the items `cargo check --workspace --lib --bins` reports as
#    never used: reached from tests alone, or from nothing.
#
# The listing is advice, not a gate: deleting an item, making it
# `#[cfg(test)]` or keeping it stays a reviewed change in the checkout.
# Not a CI step; a run from a cold target dir took under a minute on
# 2 vCPUs (one check of each crate graph plus a small rebuild per
# restore round).
#
# Usage: bash tests/privatize_sweep.sh [--keep]
#   --keep  leave the scratch copy in place and print its path.
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$(pwd)
keep=0
[ "${1:-}" = --keep ] && keep=1
start=$(date +%s)

work=$(mktemp -d "${TMPDIR:-/tmp}/privatize_sweep.XXXXXX")
if [ "$keep" -eq 0 ]; then
  trap 'rm -rf "$work"' EXIT
fi
git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do
    if [ -e "$f" ]; then printf '%s\0' "$f"; fi
  done | tar -cf - --null -T - | tar -xf - -C "$work"
export CARGO_TARGET_DIR="$work/target"
cd "$work"

sources=$(find crates -path crates/shims -prune -o -path 'crates/*/src/*.rs' -print)
made=0
for f in $sources; do
  n=$(grep -cE '^[[:space:]]+pub fn ' "$f" || true)
  if [ "$n" -gt 0 ]; then
    sed -i -E 's/^([[:space:]]+)pub fn /\1pub(crate) fn /' "$f"
    made=$((made + n))
  fi
done
echo "made $made indented \`pub fn\` items \`pub(crate)\`"

# Prints `file:line` of every span in the JSON diagnostics on stdin that
# report an item as private (E0624 for methods, E0603 for functions).
private_spans() {
  jq -r '
    select(.reason == "compiler-message")
    | .message
    | select(.level == "error" and ((.code.code // "") | test("^E06(24|03)$")))
    | (.spans[], .children[].spans[])
    | "\(.file_name):\(.line_start)"
  ' | sort -u
}

# Checks all targets of the build rooted at `$1` (the workspace, or
# benchmark/). Returns 0 once it builds, 1 after restoring `pub` on the
# `pub(crate) fn` lines its privacy errors point at, and exits on any
# other error. rustc names a file relative to the build's root.
check_round() {
  local root=$1 json n=0 file line path
  json=$(cd "$root" && cargo check --offline --workspace --all-targets \
    --message-format=json 2>/dev/null) && return 0
  while IFS=: read -r file line; do
    path=$(cd "$root" && realpath -m --relative-to="$work" "$file")
    case "$path" in crates/*) ;; *) continue ;; esac
    if sed -n "${line}p" "$path" | grep -q 'pub(crate) fn '; then
      sed -i "${line}s/pub(crate) fn /pub fn /" "$path"
      n=$((n + 1))
    fi
  done < <(private_spans <<< "$json")
  if [ "$n" -eq 0 ]; then
    echo "$root fails to build for a reason other than privacy:" >&2
    jq -r 'select(.reason == "compiler-message") | .message
           | select(.level == "error") | .rendered' <<< "$json" >&2
    exit 1
  fi
  echo "$root: restored \`pub\` on $n definitions"
  return 1
}

rounds=0
while true; do
  rounds=$((rounds + 1))
  check_round "$work" || continue
  check_round "$work/benchmark" || continue
  break
done
left=$(grep -rE '^[[:space:]]+pub\(crate\) fn ' $sources | wc -l)
echo "both builds pass after $rounds rounds; $left methods stay \`pub(crate)\`"

echo "never used outside tests (cargo check --workspace --lib --bins):"
cargo check --offline --workspace --lib --bins --message-format=json 2>/dev/null |
  jq -r '
    select(.reason == "compiler-message")
    | .message
    | select(.code.code == "dead_code")
    | .spans[]
    | select(.is_primary)
    | "  \(.file_name):\(.line_start): \(.text[0].text | gsub("^\\s+"; ""))"
  ' | sort -u
if [ "$keep" -eq 1 ]; then
  echo "scratch copy kept at $work"
fi
echo "wall time: $(($(date +%s) - start)) s"
