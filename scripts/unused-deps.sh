#!/usr/bin/env bash
# Fail when a workspace crate lists a dependency its code never names.
#
# For every package manifest in the workspace (the root facade,
# crates/* and vendor/*), each [dependencies] and [dev-dependencies]
# entry must appear, as a word with `-` written `_`, in some `.rs` file
# under that crate's src/, tests/, benches/ or examples/. This covers
# what rustc's `unused_crate_dependencies` lint cannot: dev-dependencies,
# and crates such as eva-bench whose binaries share one manifest.
#
# Usage: scripts/unused-deps.sh   (from anywhere; exits 1 on a finding)
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for manifest in Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; do
    grep -q '^\[package\]' "$manifest" || continue
    dir=$(dirname "$manifest")
    # Keys of the two tables, in both `name = ...` / `name.workspace = ...`
    # form and `[dependencies.name]` form.
    deps=$(awk '
        /^\[/ {
            section = $0
            sub(/^\[/, "", section)
            sub(/\].*$/, "", section)
            if (section ~ /^(dev-)?dependencies\./) {
                name = section
                sub(/^(dev-)?dependencies\./, "", name)
                print name
            }
            next
        }
        (section == "dependencies" || section == "dev-dependencies") && /^[A-Za-z0-9_-]+[ \t]*[.=]/ {
            name = $0
            sub(/[ \t]*[.=].*$/, "", name)
            print name
        }
    ' "$manifest" | sort -u)
    roots=()
    for d in src tests benches examples; do
        if [ -d "$dir/$d" ]; then
            roots+=("$dir/$d")
        fi
    done
    for dep in $deps; do
        ident=${dep//-/_}
        if [ ${#roots[@]} -eq 0 ] || ! grep -rqw --include='*.rs' -- "$ident" "${roots[@]}"; then
            echo "$manifest: dependency \`$dep\` is never named in its sources"
            status=1
        fi
    done
done
exit "$status"
