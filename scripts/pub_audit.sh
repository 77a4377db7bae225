#!/usr/bin/env bash
# Caller-less public function audit.
#
#   scripts/pub_audit.sh
#
# Lists every `pub fn` under crates/*/src whose name appears nowhere but in
# its own file's `#[cfg(test)] mod` section: no other .rs file in crates/,
# vendor/, examples/, tests/, src/ or sagebench/src names it, and no
# non-test line of its own file calls it. Comment lines and `fn <name>`
# definitions do not count as uses. The match is by name, so a function
# that shares its name with a used one passes unseen; the audit catches
# new dead code, it does not prove the rest alive.
#
# A flagged function fails the audit unless scripts/pub_audit.allow lists
# it as `<file> <name> <reason>`; an entry whose function is no longer
# flagged (deleted, renamed or given a caller) fails it too, so the list
# stays exact. Exits 0 when both lists agree, 1 otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/pub_audit.allow

# One line per (word, file, section) triple: section is "test" for the
# lines of a crates/*/src file from its `#[cfg(test)]` + `mod` onwards,
# "main" otherwise.
words() {
  git ls-files --cached --others --exclude-standard -- 'crates/*.rs' \
    'vendor/*.rs' 'examples/*.rs' 'tests/*.rs' 'src/*.rs' 'sagebench/src/*.rs' |
    while read -r file; do
      awk -v file="$file" '
        /^#\[cfg\(test\)\]/ { pending = NR; next }
        pending == NR - 1 && /^mod / { test = 1 }
        /^[[:space:]]*\/\// { next }
        {
          line = $0
          gsub(/fn [A-Za-z_][A-Za-z0-9_]*/, " ", line)
          n = split(line, toks, /[^A-Za-z0-9_]+/)
          for (i = 1; i <= n; i++) {
            if (toks[i] != "") print toks[i], file, (test ? "test" : "main")
          }
        }' "$file"
    done | sort -u
}

# One line per `pub fn` outside a test section: "<file> <name> <line>".
defs() {
  git ls-files --cached --others --exclude-standard -- 'crates/*/src/*.rs' |
    while read -r file; do
      awk -v file="$file" '
        /^#\[cfg\(test\)\]/ { pending = NR; next }
        pending == NR - 1 && /^mod / { exit }
        match($0, /^[[:space:]]*pub (const |unsafe |async )*fn [A-Za-z_][A-Za-z0-9_]*/) {
          decl = substr($0, RSTART, RLENGTH)
          sub(/.*fn /, "", decl)
          print file, decl, NR
        }' "$file"
    done
}

# A def is used when its name appears in another file, or in the main
# section of its own file.
flagged=$(
  awk '
    FNR == NR { def[NR] = $0; next }
    { if ($3 == "main") mainuse[$1 SUBSEP $2] = 1; seen[$1]++; files[$1, seen[$1]] = $2 }
    END {
      for (i in def) {
        split(def[i], d, " ")
        used = ((d[2] SUBSEP d[1]) in mainuse)
        for (j = 1; !used && j <= seen[d[2]]; j++) used = (files[d[2], j] != d[1])
        if (!used) print d[1], d[2], d[3]
      }
    }' <(defs) <(words) | sort
)

allowed=$(grep -v '^[[:space:]]*\(#\|$\)' "$allow" || true)
status=0

# Every allowlist entry needs a reason after the file and the name.
bad=$(awk 'NF < 3' <<< "$allowed")
if [[ -n "$bad" ]]; then
  echo "pub_audit: entries in $allow without a reason:" >&2
  sed 's/^/  /' <<< "$bad" >&2
  status=1
fi

# "<file> <name>" keys, one per line, sorted and de-duplicated.
keys() { awk 'NF >= 2 { print $1, $2 }' | sort -u; }

new=$(comm -23 <(keys <<< "$flagged") <(keys <<< "$allowed"))
if [[ -n "$new" ]]; then
  echo "pub_audit: public functions only their own file's tests use" \
    "(delete them, or list them in $allow with a reason):" >&2
  awk 'NR == FNR { want[$1 " " $2] = 1; next }
       ($1 " " $2) in want { printf "  %s:%s  %s\n", $1, $3, $2 }' \
    <(echo "$new") <(echo "$flagged") >&2
  status=1
fi

stale=$(comm -13 <(keys <<< "$flagged") <(keys <<< "$allowed"))
if [[ -n "$stale" ]]; then
  echo "pub_audit: $allow entries that are no longer caller-less (remove them):" >&2
  sed 's/^/  /' <<< "$stale" >&2
  status=1
fi

exit "$status"
