#!/bin/sh
# Print the number of non-test Go lines outside perfbench/: the size the
# ROADMAP tracks for its "least code" aim. A report, not a gate.
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' -exec cat {} + | wc -l
