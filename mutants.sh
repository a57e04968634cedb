#!/usr/bin/env bash
# Runs the source mutants listed in mutants.txt, each in a temporary copy
# of the working tree, and reports each as KILLED, SURVIVED or TIMEOUT.
#
#   ./mutants.sh [--check] [LIST] [FILTER]
#
# LIST defaults to mutants.txt beside this script; FILTER, when given,
# keeps only the mutants whose line contains it. The copy holds the
# tracked and untracked, not ignored, files of the tree and builds into
# its own target directory (CARGO_TARGET_DIR overrides it; the first
# mutant pays a cold build). Each test run is bounded by MUTANT_TIMEOUT
# seconds (default 900). Uses bash, git, cargo and coreutils only.
# A mutant that no longer builds is reported UNBUILDABLE, and one whose
# original line is gone or matches more than one line, STALE: both need
# the list mended.
#
# --check applies every listed mutant to the copy and builds nothing:
# each is reported APPLIES or STALE, in seconds, so an edit to a mutated
# line fails at once instead of in a later full run.
#
# Exit status: 0 when every mutant met its expectation (killed, or
# survived where the list marks it `equivalent`; under --check, applied),
# 1 otherwise.
set -u

check=
if [ "${1:-}" = --check ]; then
    check=1
    shift
fi
root=$(cd "$(dirname "$0")" && pwd)
list=${1:-$root/mutants.txt}
filter=${2:-}
limit=${MUTANT_TIMEOUT:-900}
tab=$'\t'

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
while IFS= read -r -d '' path; do
    mkdir -p "$work/$(dirname "$path")"
    cp "$root/$path" "$work/$path"
done < <(cd "$root" && git ls-files -z --cached --others --exclude-standard)
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$work/target}

# Writes $1 with its one line whose trimmed text is $2 replaced by $3
# (indentation kept); fails unless exactly one line matches.
apply() {
    local file=$1 original=$2 replacement=$3 line hits=0
    local out="$file.mutant"
    while IFS= read -r line || [ -n "$line" ]; do
        local pad=${line%%[![:space:]]*}
        if [ "${line#"$pad"}" = "$original" ]; then
            hits=$((hits + 1))
            line="$pad$replacement"
        fi
        printf '%s\n' "$line"
    done <"$file" >"$out"
    if [ "$hits" -ne 1 ]; then
        rm -f "$out"
        echo "matches $hits lines"
        return 1
    fi
    mv "$out" "$file"
}

failed=0
while IFS= read -r entry || [ -n "$entry" ]; do
    case $entry in '' | '#'*) continue ;; esac
    if [ -n "$filter" ] && [ "${entry#*"$filter"}" = "$entry" ]; then
        continue
    fi
    expect=KILLED
    if [ "${entry%%"$tab"*}" = equivalent ]; then
        expect=SURVIVED
        entry=${entry#equivalent"$tab"}
    fi
    IFS=$tab read -r file original replacement test <<<"$entry"
    cp "$root/$file" "$work/$file"
    [ -z "$check" ] || expect=APPLIES
    if ! why=$(apply "$work/$file" "$original" "$replacement"); then
        verdict="STALE ($why)"
    elif [ -n "$check" ]; then
        verdict=APPLIES
    else
        (cd "$work" && timeout "$limit" cargo test -q $test >"$work/log" 2>&1)
        case $? in
            0) verdict=SURVIVED ;;
            124) verdict=TIMEOUT ;;
            *) verdict=KILLED ;;
        esac
        log=$'\n'$(<"$work/log")
        if [ "$verdict" = KILLED ]; then
            case $log in
                *$'\n'error\[E* | *$'\n''error: could not compile'*) verdict=UNBUILDABLE ;;
            esac
        fi
    fi
    cp "$root/$file" "$work/$file"
    note=
    if [ "${verdict%% *}" != "$expect" ]; then
        failed=1
        note="  <-- expected $expect"
    fi
    printf '%-24s %s: %s%s\n' "$verdict" "$file" "$replacement" "$note"
done <"$list"
exit "$failed"
