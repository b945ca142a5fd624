#!/usr/bin/env bash
# Options audit: for every `pub` field of every config struct — each
# `pub struct <Name>Config {` under crates/*/src, found by the scan below —
# the number of files under crates/ tests/ examples/ benchmark/src, other
# than the one that declares the struct, which assign it — `field: value`
# in a struct literal or `.field = value` — fewest first. A field no other
# file assigns holds one value everywhere: the next candidate for a
# constant. Like loc.sh a printed counter, not a gate.
#
# After the table, one `env` row per environment variable read with
# `env::var(` or `env::var_os(` under crates/*/src, with the files that read
# it: a knob that bypasses the config structs cannot hide from the audit.
#
# It is a grep, not a parser:
# - two structs that share a field name share its count (`packet_size`,
#   `initial_rtt`, `queue_packets`, `loss_rate`);
# - a field fed only through a constructor argument or a `with_*` method
#   (`duration`, `seed`, `transport`, `trace`) has no assignment of its own
#   and would read zero: what it shows is `SessionSpec`'s literals, whose
#   same-named fields feed it;
# - `field: Type` declarations and parameters are told from `field: value`
#   by the shape of what follows the colon; comment lines, string literals
#   (`"trace: missing …"`) and `{field:..}` format arguments are skipped;
#   field-init shorthand (`Foo { seed, .. }`) is not seen.
set -euo pipefail
cd "$(dirname "$0")/.."

# `Name:path/to/declaring/file.rs`, one per config struct.
structs=$(grep -rE --include='*.rs' '^pub struct [A-Za-z0-9_]+Config \{' crates/*/src |
  sed -E 's/^([^:]+):pub struct ([A-Za-z0-9_]+) .*/\2:\1/' | sort)

# Exit 0 when file "$2" assigns field "$1".
assigns() {
  awk -v f="$1" '
    /^[[:space:]]*\/\// { next }
    {
      # Text inside a string literal assigns nothing: blank it first.
      line = $0
      gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
      if (line ~ ("\\." f "[[:space:]]*=[^=]")) { found = 1; exit }
      while (match(line, "(^|[^A-Za-z0-9_.{])" f "[[:space:]]*:[^:]")) {
        rhs = substr(line, RSTART + RLENGTH - 1)
        line = rhs
        sub(/[,)].*/, "", rhs)
        gsub(/^[[:space:]]+|[[:space:]]+$/, "", rhs)
        # What is left is a type (a declaration or a parameter) when it is
        # a bare primitive or a capitalised path with no call or literal.
        if (rhs == "None" || rhs !~ /^(&|mut |impl |dyn )*([a-z_]+::)*(f64|f32|u8|u16|u32|u64|usize|i32|i64|bool|str|String|[A-Z][A-Za-z0-9]*(<.*>?)?)$/) {
          found = 1; exit
        }
      }
    }
    END { exit !found }
  ' "$2"
}

for entry in $structs; do
  name=${entry%%:*}
  decl=${entry#*:}
  fields=$(awk -v s="$name" '
    $0 ~ ("^pub struct " s " \\{") { on = 1; next }
    on && /^}/ { exit }
    on && /^    pub [a-z_0-9]+:/ { sub(/:.*/, "", $2); print $2 }
  ' "$decl")
  for field in $fields; do
    n=0
    while IFS= read -r file; do
      if assigns "$field" "$file"; then n=$((n + 1)); fi
    done < <(grep -rlw --include='*.rs' "$field" crates tests examples benchmark/src | grep -vx "$decl" || true)
    printf '%4d  %s.%s\n' "$n" "$name" "$field"
  done
done | sort -n -s -k1,1

grep -roE --include='*.rs' 'env::var(_os)?\("[A-Za-z0-9_]+"\)' crates/*/src |
  sed -E 's/^([^:]+):.*\("([^"]+)"\)$/\2 \1/' | sort -u |
  awk '{ f[$1] = f[$1] (f[$1] == "" ? "" : ", ") $2 }
       END { for (v in f) printf " env  %s (%s)\n", v, f[v] }' | sort || true
