package snapcodec

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// TestEncodingIndependentOfGobHistory pins the reason this package
// exists: gob wire bytes embed type ids from a PROCESS-GLOBAL counter,
// so encoding some unrelated type first changes later gob output — which
// broke checkpoint-root agreement between live replicas whose processes
// had different gob histories (the primary encodes different transport
// message types than a backup). The canonical codec must not care.
func TestEncodingIndependentOfGobHistory(t *testing.T) {
	encode := func() []byte {
		tr := NewTracker(4) // a fresh tracker: nothing cached, every bucket encoded
		tr.Set("k", []byte("v"))
		chunks, _ := tr.EncodeChunks(7, []byte{9})
		return concat(chunks)
	}
	before := encode()

	// Pollute the process-global gob registry mid-test.
	type pollutant struct{ A, B, C string }
	var sink bytes.Buffer
	if err := gob.NewEncoder(&sink).Encode(pollutant{"x", "y", "z"}); err != nil {
		t.Fatal(err)
	}

	if after := encode(); !bytes.Equal(before, after) {
		t.Fatal("canonical encoding changed after unrelated gob activity")
	}
}
