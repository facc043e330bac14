#!/bin/sh
# Promote fuzz-discovered inputs from the local Go fuzz cache
# ($GOCACHE/fuzz) into the committed corpora under each package's
# testdata/fuzz/, so every interesting input a campaign found replays as a
# regression case in plain `go test` on every machine. Safe to re-run: only
# inputs not already committed are copied. After promoting, the corpora are
# replayed once to prove they still pass.
set -eu

cd "$(dirname "$0")/.."

CACHE="$(go env GOCACHE)/fuzz/$(go list -m)"

promote() {
	pkg="$1"
	target="$2"
	src="$CACHE/$pkg/$target"
	dst="$pkg/testdata/fuzz/$target"
	if [ ! -d "$src" ]; then
		echo "promote-corpus: no cached inputs for $target"
		return 0
	fi
	mkdir -p "$dst"
	n=0
	for f in "$src"/*; do
		[ -f "$f" ] || continue
		base="$(basename "$f")"
		if [ ! -f "$dst/$base" ]; then
			cp "$f" "$dst/$base"
			n=$((n + 1))
		fi
	done
	echo "promote-corpus: $n new inputs -> $dst"
}

promote internal/phy/zigbee FuzzZigbeeFrameDecode
promote internal/phy/wifi FuzzWifiPPDUDecode
promote internal/rl FuzzCheckpointLoad
promote internal/nn FuzzForwardBatchEngines
promote internal/nn FuzzNetworkLoad
promote internal/core FuzzSchemeRoundTrip
promote internal/core FuzzTrainingLoad
promote internal/jammer FuzzJammerSpec
promote internal/fault FuzzFaultParse
promote internal/serve FuzzDecideBody
promote internal/rng FuzzFastSeed

# Replay the (possibly grown) corpora: a promoted input that fails belongs
# in a bug report, not in the committed corpus.
go test -count=1 ./internal/phy/zigbee ./internal/phy/wifi ./internal/rl ./internal/nn ./internal/core ./internal/jammer ./internal/fault ./internal/serve ./internal/rng
