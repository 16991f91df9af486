#!/usr/bin/env sh
# Public-surface ratchet: every `pub fn` / `pub const fn` (methods
# included) under `crates/*/src` must have a caller outside its own
# crate, or an entry in scripts/pub_surface_allow.txt saying why not.
#
# "Outside its crate" means any other Rust crate that links it: another
# workspace crate's `src/` or `benches/`, the crate's own binary and bench
# targets (`src/bin/`, `benches/` — separate crates to rustc), the
# umbrella `src/`, `examples/` and `benchmark/src`. Tests do not count: a
# name only tests call is deleted, demoted to `pub(crate)` or listed as an
# oracle. A caller is a whole-word match outside string literals and `//`
# comments, so shared method names (`new`, `len`) always pass; the list is
# a floor, not a proof. Pure grep and sed — no toolchain.
#
# Exits non-zero when an uncalled name has no entry, or when an entry is
# stale (the name is gone or has gained an outside caller), so the list
# only shrinks.
set -eu

cd "$(dirname "$0")/.."

allow=scripts/pub_surface_allow.txt

corpus=$(mktemp)
trap 'rm -f "$corpus"' EXIT

uncalled=$(
    for dir in crates/*/; do
        krate=$(basename "$dir")
        # Every Rust crate that links this one, apart from its tests, with
        # string literals and `//` comments stripped.
        {
            for other in crates/*/; do
                [ "$other" = "$dir" ] || echo "${other}src ${other}benches"
            done
            echo "${dir}src/bin ${dir}benches src examples benchmark/src"
        } | xargs -n1 sh -c '[ ! -d "$0" ] || find "$0" -name "*.rs"' |
            xargs cat | sed -e 's/"[^"]*"//g' -e 's|//.*||' >"$corpus"
        names=$(
            grep -rh '^[[:space:]]*pub \(const \)\?fn ' "${dir}src" --include='*.rs' |
                sed 's/^[[:space:]]*pub \(const \)\?fn \([A-Za-z0-9_]*\).*/\2/' |
                sort -u
        )
        for name in $names; do
            grep -qw "$name" "$corpus" || echo "$krate::$name"
        done
    done
)

listed=$(grep -v '^#' "$allow" | grep -v '^[[:space:]]*$' | awk '{print $1}' | sort)

missing=$(echo "$uncalled" | grep -vxF "$listed" || true)
stale=$(echo "$listed" | grep -vxF "$uncalled" || true)
[ -z "$uncalled" ] && stale=$listed
unexplained=$(grep -v '^#' "$allow" | awk 'NF == 1 {print $1}')

status=0
if [ -n "$missing" ]; then
    echo "error: pub fn(s) with no caller outside their crate — delete," >&2
    echo "demote to pub(crate), or list in $allow with a reason:" >&2
    echo "$missing" | sed 's/^/  /' >&2
    status=1
fi
if [ -n "$stale" ]; then
    echo "error: stale entries in $allow (the name is gone or now has an" >&2
    echo "outside caller) — remove them so the list only shrinks:" >&2
    echo "$stale" | sed 's/^/  /' >&2
    status=1
fi
if [ -n "$unexplained" ]; then
    echo "error: entries in $allow without a reason:" >&2
    echo "$unexplained" | sed 's/^/  /' >&2
    status=1
fi
[ "$status" = 0 ] || exit 1
echo "check_pub_surface: ok ($(echo "$listed" | grep -c .) uncalled pub fn(s), each with a reason)"
