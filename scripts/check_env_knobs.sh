#!/usr/bin/env sh
# Environment-knob guard: every `AERGIA_*` variable read under `crates/`
# must be listed in the environment-variable table of
# docs/architecture.md, so a knob cannot (re)appear unannounced.
#
# The determinism suite's private `AERGIA_DET_*` child markers live under
# `tests/`, outside the scan. Pure grep — no toolchain.
#
# Exits non-zero, listing the undocumented variables, when the rule is
# broken.
set -eu

cd "$(dirname "$0")/.."

read_vars=$(
    grep -rhno 'env::var\(_os\)\?("AERGIA_[A-Z_]*' crates/ |
        sed 's/.*("//' | sort -u
)

missing=""
for var in $read_vars; do
    grep -q "^| \`$var\` |" docs/architecture.md || missing="$missing $var"
done

if [ -n "$missing" ]; then
    echo "error: environment variable(s) read under crates/ but missing from" >&2
    echo "the table in docs/architecture.md (document the knob or remove it):" >&2
    for var in $missing; do
        grep -rn "env::var\(_os\)\?(\"$var\"" crates/ >&2
    done
    exit 1
fi
echo "check_env_knobs: ok ($(echo $read_vars | wc -w) variables documented)"
