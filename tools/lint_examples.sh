#!/bin/sh
# Lints every examples/*.wj and asserts the documented exit-code contract
# (wjc.cpp header): 0 clean or warnings-only, 1 defects, 2 usage/parse
# errors. New example files are picked up automatically; any file whose
# name starts with lint_bad is the seeded-defect fixture and must exit 1,
# everything else must lint clean.
#
# With a golden directory, the full output of `wjc lint` and `wjc lint --soa`
# (stdout and stderr, then an `exit N` line) of each example must also equal
# <golden-dir>/<name>.lint and <name>.soa.lint. Lint runs inside the examples
# directory, so the paths it prints are bare file names. WJ_UPDATE_GOLDEN=1
# rewrites the golden files instead of comparing (review the diff).
#
# usage: lint_examples.sh <path-to-wjc> <examples-dir> [<golden-dir>]
set -u
WJC="$1"
DIR="$2"
GOLDEN="${3:-}"
case "$WJC" in
/*) ;;
*) WJC="$(pwd)/$WJC" ;;
esac
fail=0
found=0

# lintOutput <file-name> [flags...]: the golden text of one lint run.
lintOutput() {
    (cd "$DIR" && "$WJC" lint "$@" 2>&1; echo "exit $?")
}

checkGolden() {
    name="$1"
    suffix="$2"
    shift 2
    want="$GOLDEN/$name$suffix"
    if [ "${WJ_UPDATE_GOLDEN:-0}" = "1" ]; then
        lintOutput "$name" "$@" > "$want"
        echo "updated: $want"
        return
    fi
    if ! lintOutput "$name" "$@" | diff -u "$want" - > /dev/null 2>&1; then
        echo "FAIL: wjc lint $name${*:+ $*} differs from $want"
        lintOutput "$name" "$@" | diff -u "$want" - | sed 's/^/    /'
        fail=1
    else
        echo "ok: wjc lint $name${*:+ $*} matches its golden"
    fi
}

for f in "$DIR"/*.wj; do
    [ -e "$f" ] || continue
    found=1
    "$WJC" lint "$f" > /dev/null 2>&1
    code=$?
    case "$(basename "$f")" in
    lint_bad*) want=1 ;;
    *) want=0 ;;
    esac
    if [ "$code" -ne "$want" ]; then
        echo "FAIL: wjc lint $f exited $code (want $want)"
        "$WJC" lint "$f" 2>&1 | sed 's/^/    /'
        fail=1
    else
        echo "ok: wjc lint $(basename "$f") -> $code"
    fi
    if [ -n "$GOLDEN" ]; then
        checkGolden "$(basename "$f")" .lint
        checkGolden "$(basename "$f")" .soa.lint --soa
    fi
done
if [ "$found" -eq 0 ]; then
    echo "FAIL: no .wj files found in $DIR"
    exit 1
fi
exit $fail
