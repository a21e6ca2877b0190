package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzManifest feeds arbitrary bytes to decodeManifest, the one decoder
// between a run directory on disk and a replay. It must not panic, must
// report every rejection as ErrCorrupt, and must accept only manifests that
// survive a round trip: re-encoded with encodeManifest, an accepted manifest
// decodes to an equal one, and encoding that one again is byte-identical.
// "Equal" is equal as JSON: the raw provenance keeps its input whitespace
// until re-encoded, and JSON cannot tell an empty notes or inputs list from
// an absent one. The committed seeds are a baseline run's manifest.json plus
// truncated, bit-flipped, wrong-format and wrong-CRC copies of it.
func FuzzManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
			return
		}
		enc, err := encodeManifest(m)
		if err != nil {
			t.Fatalf("encoding an accepted manifest: %v", err)
		}
		back, err := decodeManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v\n%s", err, enc)
		}
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round trip changed the manifest:\n got %s\nwant %s", got, want)
		}
		if again, err := encodeManifest(back); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not a fixed point (err=%v):\n%s\n%s", err, again, enc)
		}
	})
}
