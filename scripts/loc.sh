#!/usr/bin/env bash
# The two code-size numbers a simplification is measured by:
#
#   1. non-test lines per crate under crates/*/src, and per nkv and ndp-pe
#      file.
#      A file counts up to its `#[cfg(test)] mod tests` (the whole file
#      when it has none); a `#[cfg(test)]` on any other item, such as an
#      import, does not end the count. Blank and comment lines count.
#   2. the `pub fn` count of nkv's db.rs + cluster.rs + exec.rs (the
#      store API of a device and a fleet), over their non-test lines.
#
# No flags, no thresholds: it prints, it gates nothing.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test lines of one Rust file.
nontest() {
    awk 'prev ~ /^#\[cfg\(test\)\]$/ && /^(pub\(crate\) )?mod tests / { cut = NR - 2; exit }
         { prev = $0 }
         END { print (cut != "" ? cut : NR) }' "$1"
}

echo "non-test lines per crate (crates/*/src):"
total=0
for dir in crates/*/src; do
    crate=$(basename "$(dirname "$dir")")
    n=0
    while IFS= read -r f; do
        n=$((n + $(nontest "$f")))
    done < <(find "$dir" -name '*.rs' | sort)
    printf '  %-14s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '  %-14s %6d\n' total "$total"

for crate in nkv ndp-pe; do
    echo "non-test lines per $crate file (crates/$crate/src):"
    for f in crates/"$crate"/src/*.rs; do
        printf '  %-14s %6d\n' "$(basename "$f")" "$(nontest "$f")"
    done
done

pub_fns=0
per_file=()
for name in db.rs cluster.rs exec.rs; do
    f=crates/nkv/src/$name
    n=$(head -n "$(nontest "$f")" "$f" | grep -c '^ *pub fn ' || true)
    per_file+=("$name $n")
    pub_fns=$((pub_fns + n))
done
echo "pub fn in db.rs + cluster.rs + exec.rs: $pub_fns ($(IFS=,; echo "${per_file[*]}" | sed 's/,/, /g'))"
