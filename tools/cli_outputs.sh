#!/usr/bin/env bash
# Record the outputs of the CLI on every bundled fixture, and of the demos,
# for a byte-for-byte comparison of two source trees.
#
#   tools/cli_outputs.sh SOURCE_ROOT OUT_DIR
#
# SOURCE_ROOT is a checkout of this repository; its src/ is imported, so it
# needs no install.  Each of the 180 commands (analyze, reduce --approach
# auto|first|cascade, simulate --approach auto|first|cascade --format
# csv|json, simulate --approach first|cascade --tol 1e-10, certify
# --approach first|cascade with the default seed and with --seed 7, sweep
# --format csv|json, on each of the 10 fixtures) runs in a fresh process inside its own directory
# OUT_DIR/<fixture>/<command>, which receives the files written under --out
# files, plus stdout, stderr and the exit code.  Each demo's stdout, stderr
# and exit code go to OUT_DIR/demos.  Compare two trees with
#
#   tools/cli_outputs.sh base out-base
#   tools/cli_outputs.sh head out-head
#   diff -r out-base out-head
#
# and, where outputs are meant to move, measure how far with
#
#   python tools/compare_outputs.py out-base out-head
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 SOURCE_ROOT OUT_DIR" >&2
    exit 2
fi
root=$(cd "$1" && pwd) || exit 2
mkdir -p "$2" || exit 2
out=$(cd "$2" && pwd)
export PYTHONPATH="$root/src"

commands=(
    "analyze"
    "reduce --approach auto"
    "reduce --approach first"
    "reduce --approach cascade"
    "simulate --approach auto --format csv"
    "simulate --approach auto --format json"
    "simulate --approach first --format csv"
    "simulate --approach first --format json"
    "simulate --approach cascade --format csv"
    "simulate --approach cascade --format json"
    "simulate --approach first --tol 1e-10"
    "simulate --approach cascade --tol 1e-10"
    "certify --approach first"
    "certify --approach cascade"
    "certify --approach first --seed 7"
    "certify --approach cascade --seed 7"
    "sweep --format csv"
    "sweep --format json"
)

run() {  # run DIR CMD... : capture stdout, stderr and the exit code in DIR
    local dir=$1
    shift
    mkdir -p "$dir"
    (cd "$dir" && "$@" > stdout 2> stderr; echo $? > exit_code)
}

for fixture in "$root"/src/daekit/fixtures/*.json; do
    name=$(basename "$fixture" .json)
    [ "$name" = problem.schema ] && continue
    for cmd in "${commands[@]}"; do
        read -r sub flags <<< "$cmd"
        tag=$(echo "$cmd" | tr ' ' '_' | tr -d '-')
        # shellcheck disable=SC2086  # flags split on purpose
        run "$out/$name/$tag" python -m daekit "$sub" "$name" $flags --out files
    done
done

for demo in "$root"/demos/*.py; do
    run "$out/demos/$(basename "$demo" .py)" python "$demo"
done
